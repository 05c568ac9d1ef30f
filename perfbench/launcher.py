"""Starts the CLI calls of a pass from a small process of their own.

On Linux a child's peak resident size includes its parent's at fork, so
CLI calls started from the pass process, which holds selfsim and the whole
workload, would all report that process's size.  The pass process starts
this script before it imports anything large and sends it the calls.

Protocol, one JSON object per line: requests on stdin carry `argv`, `cwd`,
`env` and `timeout`; replies on stdout carry `code` (None on timeout),
`stdout` and `peak_rss_kb`, the largest peak of any call so far.
"""

import json
import resource
import subprocess
import sys


class Launcher:
    """Client side: the pass process's handle on a running launcher."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.peak_rss_kb = 0

    def call(self, argv, cwd, env, timeout):
        """(exit code, stdout bytes) of one call; raises TimeoutError if it ran too long."""
        request = {"argv": argv, "cwd": cwd, "env": env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_rss_kb = reply["peak_rss_kb"]
        if reply["code"] is None:
            raise TimeoutError("%s ran longer than %s s" % (" ".join(argv), timeout))
        return reply["code"], reply["stdout"].encode("utf-8", "surrogateescape")

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def serve():
    for line in sys.stdin:
        request = json.loads(line)
        try:
            proc = subprocess.run(request["argv"], cwd=request["cwd"], env=request["env"],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=request["timeout"], check=False)
            code, stdout = proc.returncode, proc.stdout.decode("utf-8", "surrogateescape")
        except subprocess.TimeoutExpired:
            code, stdout = None, ""
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"code": code, "stdout": stdout, "peak_rss_kb": peak}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
