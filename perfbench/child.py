"""One pass of one workload, in a process of its own.

    python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR

A fresh process builds its own automata, so every memo selfsim keeps on an
automaton starts empty.  The pass prints a JSON header line with its op
count once set-up is done (run.py needs it if the pass later hangs),
then runs the ops, then checks every answer and prints one JSON result
line.  With TRACE=1 the whole pass runs under cProfile and the result also
carries the per-layer metrics.

Times are scaled to a reference speed.  The machine this runs on may be
shared, and its speed can halve for seconds to minutes while neighbours are
busy, which moves every wall time with it.  So the pass times a reference
between segments of its work, and scales each segment by
nominal / (mean of the reference times around it): a figure reads as the
wall seconds the work takes on a machine where the reference takes its
nominal time.  In-process work is scaled by a fixed pure-Python kernel
(`kernel`, tuples and set lookups like selfsim's own loops); a CLI call is
mostly process start, which that kernel does not track, so CLI calls are
scaled by a bare interpreter start (`python -c pass`) instead.  Neither
reference runs selfsim code, so a change to selfsim moves the scaled times
fully.
"""

import time

STARTED = time.perf_counter()

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from launcher import Launcher  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_REPORTED_FAILURES = 5
INTERP_SAMPLES = 7

# The kernel's time (fastest of KERNEL_REPEATS) and a bare interpreter
# start's, in seconds, at the speed figures are scaled to: about their
# times when the Intel Xeon (2 vCPUs, Python 3.11.7) the benchmark was built
# on was not slowed by neighbours.  They set the scale only.
KERNEL_NOMINAL_S = 0.0015
KERNEL_REPEATS = 2
INTERP_NOMINAL_S = 0.060
# In-process ops are scaled in segments of about this much work; every CLI
# call is a segment of its own.
SEGMENT_S = 0.1


def kernel():
    """Close S_6 under a transposition and a 6-cycle by breadth-first search."""
    gens = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    start = tuple(range(6))
    seen, frontier = {start}, [start]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[i] for i in g)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def kernel_s(profiler=None):
    """Fastest of KERNEL_REPEATS kernel runs, in seconds, with any profiler paused."""
    if profiler:
        profiler.disable()
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    if profiler:
        profiler.enable()
    return best


def interp_s(launcher, workdir, env):
    """Seconds of one bare interpreter start through the launcher."""
    t0 = time.perf_counter()
    launcher.call([sys.executable, "-c", "pass"], workdir, env, 20)
    return time.perf_counter() - t0


def timed(ops, reference, nominal, segment_s):
    """Run every op, timing `reference` between segments of about `segment_s` of work.

    Returns per-op latencies in ns scaled to reference speed, the results
    (or raised errors), the scaled and the plain wall seconds of the ops,
    and the mean ratio of reference time to nominal.
    """
    clock = time.perf_counter_ns
    segment_ns = segment_s * 1e9
    scaled, results, pending, refs = [], [], [], [reference()]
    totals = {"scaled": 0.0, "wall": 0}

    def close_segment(wall_ns):
        refs.append(reference())
        speed = nominal / ((refs[-2] + refs[-1]) / 2)
        scaled.extend(ns * speed for ns in pending)
        pending.clear()
        totals["scaled"] += wall_ns * speed
        totals["wall"] += wall_ns

    started = clock()
    for _, fn, args, _, _, _ in ops:
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as err:  # judged by the op's check, like any other answer
            result = err
        t1 = clock()
        pending.append(t1 - t0)
        results.append(result)
        if t1 - started >= segment_ns:
            close_segment(t1 - started)
            started = clock()
    if pending:
        close_segment(clock() - started)
    slowdown = statistics.fmean(refs) / nominal
    return scaled, results, totals["scaled"] / 1e9, totals["wall"] / 1e9, slowdown


def judge(workload, results, wrong):
    """Check every answer; (failure messages, fixed digest, full digest)."""
    failures, values, fixed = [], [], []
    for (span, _, _, check, check_args, is_fixed), result in zip(workload.ops, results):
        try:
            if isinstance(result, Exception):
                raise wrong("%s raised %s: %s" % (span, type(result).__name__, result))
            value = check(result, *check_args)
        except wrong as err:
            failures.append(str(err))
            value = ["wrong"]
        values.append(value)
        if is_fixed:
            fixed.append(value)

    def digest(items):
        return hashlib.sha256(json.dumps(items, sort_keys=True).encode("utf-8")).hexdigest()
    return failures, digest(fixed), digest(values)


def profile_layers(profiler):
    """Exact call counts and self times of selected functions, and self time per module."""
    from selfsim import action, mealy, tracemonoid, wordproblem

    profiler.create_stats()
    stats = profiler.stats
    src = os.path.join(ROOT, "src", "selfsim") + os.sep

    def entry(*functions):
        calls, self_s, cum_s = 0, 0.0, 0.0
        for fn in functions:
            code = getattr(fn, "__code__", None)
            if code is None:
                continue
            hit = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            if hit:
                calls += hit[1]
                self_s += hit[2]
                cum_s += hit[3]
        return calls, self_s, cum_s

    def fn(module, name):
        obj = module
        for part in name.split("."):
            obj = getattr(obj, part, None)
        return obj

    step = entry(fn(action, "_step_word"))
    coerce = entry(fn(action, "as_group_word"), fn(action, "free_reduce"),
                   fn(action, "GroupWord.__init__"))
    layers = {
        "action.step_calls": step[0],
        "action.step_self_s": step[1],
        "action.coerce_calls": coerce[0],
        "action.coerce_self_s": coerce[1],
        "mealy.out_inverse_calls": entry(fn(mealy, "MealyAutomaton.out_inverse"))[0],
        "mealy.build_s": entry(fn(mealy, "MealyAutomaton.__init__"))[2],
        "wordproblem.closure_scans": entry(fn(wordproblem, "_closure_scan"))[0],
        "tracemonoid.positive_step_calls": entry(fn(tracemonoid, "_positive_step"))[0],
    }
    for module in ("action", "mealy", "graphgroup", "wordproblem", "tracemonoid", "schreier"):
        layers[module + ".self_s"] = 0.0
    for (filename, _, _), (_, _, self_s, _, _) in stats.items():
        if filename.startswith(src):
            module = os.path.basename(filename)[:-3] + ".self_s"
            if module in layers:
                layers[module] += self_s
    return layers


def memo_sizes(automata):
    sizes = {"wp": 0, "fragile": 0, "stab": 0}
    for aut in automata:
        cache = getattr(aut, "_cache", {})
        for key in sizes:
            sizes[key] += len(cache.get(key, ()))
    return {"wordproblem.memo_entries": sizes["wp"],
            "wordproblem.fragile_memo_entries": sizes["fragile"],
            "action.stab_memo_entries": sizes["stab"]}


def interpreter_floor(launcher, workdir):
    """Median ms of a bare interpreter start and of `import selfsim.cli` on top of it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def sample(code):
        times = []
        for _ in range(INTERP_SAMPLES):
            t0 = time.perf_counter()
            launcher.call([sys.executable, "-c", code], workdir, env, 20)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    interp = sample("pass")
    return {"cli.interp_ms": interp, "cli.import_ms": sample("import selfsim.cli") - interp}


def main():
    name, seed, trace, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    t0 = time.perf_counter()
    setup_ref = kernel_s()
    ref_spent_s = time.perf_counter() - t0
    launcher = Launcher() if name == "cli" else None   # while this process is small
    profiler = cProfile.Profile() if trace else None
    if profiler:
        profiler.enable()
    import workloads

    workload = workloads.build(name, seed, workdir, launcher)
    setup_wall_s = time.perf_counter() - STARTED - ref_spent_s
    setup_ref = (setup_ref + kernel_s(profiler)) / 2
    print(json.dumps({"ops": len(workload.ops)}), flush=True)

    if launcher:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        timing = timed(workload.ops, lambda: interp_s(launcher, workdir, env),
                       INTERP_NOMINAL_S, 0)
    else:
        timing = timed(workload.ops, lambda: kernel_s(profiler), KERNEL_NOMINAL_S, SEGMENT_S)
    latencies, results, run_s, wall_s, slowdown = timing
    rss_kb = launcher.peak_rss_kb if launcher else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if profiler:
        profiler.disable()

    failures, fixed_sha, full_sha = judge(workload, results, workloads.Wrong)
    out = {
        "setup_s": setup_wall_s * KERNEL_NOMINAL_S / setup_ref,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        "wall_s": wall_s,
        "slowdown": slowdown,
        "rss_kb": rss_kb,
        "lat_ns": latencies,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "fixed_sha256": fixed_sha,
        "full_sha256": full_sha,
    }
    if trace:
        layers = {"graphgroup.build_s": workload.build_s}
        layers.update(workload.counters)
        layers.update(memo_sizes(workload.automata))
        layers.update(profile_layers(profiler))
        spans = {}
        for op, ns in zip(workload.ops, latencies):
            spans.setdefault(op[0], []).append(ns)
        for span, values in spans.items():
            if span.startswith("cli."):
                layers[span + ".call_ms"] = statistics.median(values) / 1e6
            else:
                layers[span + ".busy_s"] = sum(values) / 1e9
        if launcher:
            layers.update(interpreter_floor(launcher, workdir))
        out["layers"] = layers
    if launcher:
        launcher.close()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
