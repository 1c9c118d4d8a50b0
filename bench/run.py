"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                    # every workload (--workload all)

Runs a workload of BENCHMARK.json in a fresh single-threaded Python process
(``worker.py``) against the library in ``src/`` of this checkout, and prints
one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). ``setup_s`` is the
median over SETUP_RUNS fresh processes. ``--workload all`` runs every
workload, prints a table, and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def worker_env() -> dict:
    """Single-threaded BLAS, sequential grids, and only this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sideinfo", "__init__.py")):
        raise BenchError(f"no sideinfo package under {src}")
    env = dict(os.environ)
    env.pop("SIDEINFO_THREADS", None)
    env.update({
        "PYTHONPATH": src,
        "PYTHONNOUSERSITE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    t0 = time.perf_counter()
    env = worker_env()
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        spans = os.path.join(BENCH_DIR, "out", f"spans-{name}-seed{seed}.json")
        out = run_worker(base + ["--trace", "1", "--spans", spans], env, RUN_LIMIT_S)
        wanted = spec["per_layer"]
    else:
        setups = [run_worker(base + ["--setup-only"], env, 60.0)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        out = run_worker(base, env, RUN_LIMIT_S - (time.perf_counter() - t0))
        setups.append(out["metrics"]["setup_s"])
        out["metrics"]["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    got = out["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(got):
        raise BenchError(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(names)}")
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload != "all":
        result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {}
    for name in names:
        res = run_workload(spec, name, args.seed, args.seconds, args.trace)
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
