"""One workload in one process: set up, run timed rounds, check, report JSON.

Started by ``run.py`` with the thread settings fixed; prints one JSON object
as its last line. The clock for ``setup_s`` starts before numpy and sideinfo
are imported.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_round(calls, tracer=None):
    """Run every call once; returns (wall_s, cpu_s, results by label)."""
    results = {}
    w0, c0 = time.perf_counter(), time.process_time()
    for call in calls:
        if tracer is not None:
            tracer.op = call.label
        try:
            results[call.label] = call.run()
        except Exception as exc:  # a raising call fails its operations
            results[call.label] = exc
    return time.perf_counter() - w0, time.process_time() - c0, results


def check_round(wl, calls, results):
    """(call label, problems) for each failed operation."""
    failures = []
    for call in calls:
        res = results[call.label]
        if isinstance(res, Exception):
            failures += [(call.label, [f"raised {res!r}"])] * call.n_ops
            continue
        try:
            problems = wl.check(call.label, res)
        except Exception:
            problems = [[f"check raised {traceback.format_exc(limit=2)}"]] * call.n_ops
        if len(problems) != call.n_ops:
            problems = [[f"{len(problems)} verdicts for {call.n_ops} operations"]] * call.n_ops
        failures += [(call.label, p) for p in problems if p]
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    calls = wl.calls()
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Rounds repeat while the next one, predicted to last as long as the last
    # one, still ends within --seconds; there is always at least one. A traced
    # run repeats pairs of an untraced and a traced round.
    tracer = tracing.Tracer() if args.trace else None
    walls, cpus, untraced, all_results = [], [], [], []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    while True:
        step = 0.0
        if tracer is not None:
            wall, _, res = run_round(calls)
            untraced.append(wall)
            all_results.append(res)
            step += wall
            tracer.round = len(walls)
            tracer.active = True
        wall, cpu, res = run_round(calls, tracer)
        if tracer is not None:
            tracer.active = False
        walls.append(wall)
        cpus.append(cpu)
        all_results.append(res)
        step += wall
        if time.perf_counter() - start + step > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"reference self-test: {f}" for f in refs.self_test()]
    wl.references()
    failures = []
    for res in all_results:
        failures += check_round(wl, calls, res)
    unexpected = [f for f in failures if not workloads.is_known_fault(wl.name, *f)]
    for msg in problems + [f"{label}: {'; '.join(p)}" for label, p in failures]:
        print(f"[{wl.name}] FAIL {msg}", file=sys.stderr)
    for note in wl.notes():
        print(f"[{wl.name}] note: {note}", file=sys.stderr)

    n_ops = sum(c.n_ops for c in calls)
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "solve_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        per_round = [tracing.layer_metrics(tracer, r) for r in range(len(walls))]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        traced, plain = statistics.median(walls), statistics.median(untraced)
        metrics["trace.solve_s"] = traced
        metrics["trace.untraced_solve_s"] = plain
        metrics["trace.overhead_s"] = traced - plain
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps({
        "correct": not problems and not unexpected,
        "attempted": n_ops * len(all_results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
