"""Steadiness mode: repeat every workload and compare each metric's spread to its bound.

    python3 bench/steady.py --runs 10 [--workloads a,b]

Run r (from 1) uses seed r and BENCHMARK.json's ``run_seconds``; the
workload order alternates between runs (forward, then reversed). For each workload and end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (Q3 - Q1) / median and the metric's bound from BENCHMARK.json, plus
the set of failed/attempted shares seen. A spread below a third of the bound
reads "steady". The bounds in BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import statistics

import run


def summarize(spec: dict, results: dict[str, list[dict]]) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = [f"{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
             f"{'spread':>7s} {'bound':>6s}"]
    for name, runs in results.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            lines.append(f"{name:16s} {metric:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                         f"{spread:7.3f} {bound:6.2f} {verdict}")
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        correct = all(r["correct"] for r in runs)
        lines.append(f"{name:16s} failed/attempted {shares} correct={correct}")
    return lines


def main() -> int:
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    chosen = args.workloads.split(",")
    unknown = set(chosen) - set(names)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")

    results: dict[str, list[dict]] = {n: [] for n in chosen}
    for r in range(args.runs):
        seed = r + 1
        for name in chosen if r % 2 == 0 else reversed(chosen):
            res = run.run_workload(spec, name, seed, spec["run_seconds"], 0)
            results[name].append(res)
            print(f"run {r + 1} seed {seed} {name}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)
    print("\n".join(summarize(spec, results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
