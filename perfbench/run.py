"""The selfsim benchmark: one workload, timed, with every answer checked.

    python3 perfbench/run.py --workload closure|structure|cli --seed N \\
        --seconds S --trace 0|1

Run it from the root of the repository.  Load comes from this one process,
in a closed loop with one client: passes run one after another, each in a fresh
child process (perfbench/child.py), until --seconds have passed and at
least MIN_PASSES passes and MIN_OPS ops are done.  Every pass runs the same
ops.  With --trace 1 the same passes are followed by one pass under
cProfile, and the per-layer metrics of BENCHMARK.json are reported instead.

Times are scaled to a reference speed (see perfbench/child.py): a pass
times a fixed reference between segments of its work and reports each op
as the wall time it takes on a machine where the reference takes its
nominal time, so a neighbour that slows this machine down slows the
reference with it.  An op's latency is the median of its scaled times over
the passes; run_s, setup_s and peak_rss_mb are medians over the passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

MIN_PASSES = 3
MIN_OPS = 100
PASS_TIMEOUT_S = 60.0
# Stop starting passes after LAST_START_S even if MIN_OPS is not reached, and
# kill any pass still running at RUN_DEADLINE_S, so a run always ends within
# three minutes.
LAST_START_S = 90.0
RUN_DEADLINE_S = 165.0


class PassFailed(Exception):
    """A pass that crashed before it could report its op count."""


def run_pass(workload, seed, trace, workdir, timeout):
    """One pass in a fresh process group; its result dict, or a failure record on timeout."""
    # A fixed hash seed keeps set and dict layouts, and with them timings and
    # the traced run's exact counts, the same from pass to pass.  Bytecode is
    # cached in the run's own directory: every run starts without a cache
    # whatever the environment and the checkout hold, and passes after the
    # first load compiled modules, as an installed package would.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, CHILD, workload, str(seed), "1" if trace else "0", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:   # run.py itself is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines:
        sys.stderr.write(err.decode("utf-8", "replace"))
        raise PassFailed("%s pass exited with %s before set-up finished"
                         % (workload, proc.returncode))
    ops = json.loads(lines[0])["ops"]
    if timed_out or proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(err.decode("utf-8", "replace"))
        reason = "timed out after %.0f s" % timeout if timed_out \
            else "exited with %s" % proc.returncode
        # Which op hung or crashed is unknown, so every op of the pass counts as failed.
        return {"attempted": ops, "failed": ops, "failures": ["pass " + reason],
                "broken": True}
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def median_latencies(passes):
    """Per-op median over the passes of the scaled latency, in ns."""
    return [statistics.median(column) for column in zip(*(p["lat_ns"] for p in passes))]


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit}


def check_fingerprints(workload, seed, passes, expected):
    """Problems with the answer digests: seed-independent part, default seed, repeatability."""
    problems = []
    want = expected[workload]
    fixed = {p["fixed_sha256"] for p in passes}
    full = {p["full_sha256"] for p in passes}
    if fixed != {want["fixed_sha256"]}:
        problems.append("seed-independent answers changed: %s" % sorted(fixed))
    if seed == want["default_seed"] and full != {want["default_sha256"]}:
        problems.append("default-seed answers changed: %s" % sorted(full))
    if len(full) > 1:
        problems.append("passes of one run disagree: %s" % sorted(full))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("closure", "structure", "cli"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; defaults to the workload's recorded seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running pass is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "selfsim", "__init__.py")):
        sys.exit("perfbench: src/selfsim not found under %s; run from a selfsim checkout" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    seed = expected[args.workload]["default_seed"] if args.seed is None else args.seed
    env = environment()

    passes, traced = [], None
    started = time.monotonic()

    def timeout():
        return min(PASS_TIMEOUT_S, RUN_DEADLINE_S - (time.monotonic() - started))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            while True:
                result = run_pass(args.workload, seed, False, workdir, timeout())
                passes.append(result)
                elapsed = time.monotonic() - started
                if result.get("broken") or elapsed >= LAST_START_S:
                    break
                if elapsed >= args.seconds and len(passes) >= MIN_PASSES and \
                        sum(p["attempted"] for p in passes) >= MIN_OPS:
                    break
            if args.trace and not passes[-1].get("broken"):
                traced = run_pass(args.workload, seed, True, workdir, timeout())
        except PassFailed as err:
            sys.exit("perfbench: %s" % err)

    runs = [p for p in passes if not p.get("broken")]
    every = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    problems = [msg for p in every for msg in p["failures"]]
    if runs and not (traced and traced.get("broken")):
        problems += check_fingerprints(args.workload, seed, runs + ([traced] if traced else []),
                                       expected)
    correct = failed == 0 and not problems and len(runs) == len(passes)

    metrics = {}
    if runs:
        run_s = statistics.median(p["run_s"] for p in runs)
        lat = sorted(median_latencies(runs))
        measured = {
            "run_s": run_s,
            "op_p50_ms": percentile(lat, 0.5) / 1e6,
            "op_p90_ms": percentile(lat, 0.9) / 1e6,
            "setup_s": statistics.median(p["setup_s"] for p in runs),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in runs) / 1024,
        }
        if args.trace:
            layers = dict(traced.get("layers", {})) if traced else {}
            if traced and not traced.get("broken"):
                layers["trace.overhead_ratio"] = traced["run_s"] / run_s
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
        else:
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    print("perfbench %s seed=%d passes=%d ops=%d distinct_ops=%d"
          % (args.workload, seed, len(passes), attempted,
             len(runs[0]["lat_ns"]) if runs else 0))
    print("env " + json.dumps(env, sort_keys=True))
    if runs:
        print("  unscaled medians: run %.4f s, setup %.4f s; reference time / nominal %.3f"
              % (statistics.median(p["wall_s"] for p in runs),
                 statistics.median(p["setup_wall_s"] for p in runs),
                 statistics.median(p["slowdown"] for p in runs)))
    for name, m in metrics.items():
        print("  %-44s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-44s %14.6f ratio (%d of %d ops failed)"
          % ("fail_ratio", failed / max(attempted, 1), failed, attempted))
    for msg in problems[:10]:
        print("  problem: " + msg)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
