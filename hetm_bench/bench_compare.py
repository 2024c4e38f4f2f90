#!/usr/bin/env python3
"""Compares two sets of hetm_bench reports against BENCHMARK.json's bounds.

    python3 hetm_bench/bench_compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a hetm_bench report (hetm_bench --out, or run.py --out). Reports are
grouped by workload; for every metric the median and quartiles of each set
are printed with a verdict:

  identical / CHANGED   simulated-clock metric: the values of equal seeds must
                        match bit for bit
  ok / better / WORSE   end-to-end host metric against its BENCHMARK.json bound
  unresolved            the run-to-run spread (quartile distance over median)
                        of either set is wider than the bound, and not every
                        new run beats every base run
  (blank)               host per-layer metric: no bound, shown for reading

fail_frac (failed / attempted per run) may not rise at all. The exit status
is 1 when anything is CHANGED or WORSE, else 0. Only the Python standard
library is used.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def load(paths):
    """workload -> list of reports."""
    by_workload = defaultdict(list)
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        by_workload[report["workload"]].append(report)
    return by_workload


def verdict_bounded(base, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    beats_all = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "WORSE"
    return "better" if beats_all else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)

    bad = 0
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print(f"\n== {workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        if not b_runs or not n_runs:
            print("   (one side has no runs)")
            continue
        print(f"   {'metric':38s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s}")

        def row(name, b_vals, n_vals, verdict):
            fmt = lambda v: "{:.6g} [{:.6g}, {:.6g}]".format(*(quartiles(v)[i] for i in (1, 0, 2)))
            print(f"   {name:38s} {fmt(b_vals):>36s} {fmt(n_vals):>36s}  {verdict}")

        frac = lambda r: r["failed"] / r["attempted"] if r["attempted"] else 1.0
        b_fail, n_fail = [frac(r) for r in b_runs], [frac(r) for r in n_runs]
        fail_verdict = "WORSE" if statistics.median(n_fail) > statistics.median(b_fail) else "ok"
        if any(not r["correct"] for r in n_runs):
            fail_verdict = "WORSE (incorrect run)"
        bad += fail_verdict.startswith("WORSE")
        row("fail_frac", b_fail, n_fail, fail_verdict)

        for section in ("end_to_end", "per_layer"):
            names = [n for n in b_runs[0][section] if all(n in r[section] for r in n_runs)]
            for name in names:
                b_vals = [r[section][name]["value"] for r in b_runs]
                n_vals = [r[section][name]["value"] for r in n_runs]
                if b_runs[0][section][name]["clock"] == "sim":
                    b_seed = {r["seed"]: r[section][name]["value"] for r in b_runs}
                    n_seed = {r["seed"]: r[section][name]["value"] for r in n_runs}
                    common = set(b_seed) & set(n_seed)
                    if not common:
                        verdict = "(no common seed)"
                    elif all(b_seed[s] == n_seed[s] for s in common):
                        verdict = "identical"
                    else:
                        verdict = "CHANGED"
                        bad += 1
                elif name in bounds:
                    m = bounds[name]
                    verdict = verdict_bounded(b_vals, n_vals, m["bound"], m["better"])
                    verdict += f" (bound {m['bound']:.0%}, spread {max(spread(b_vals), spread(n_vals)):.1%})"
                    bad += verdict.startswith("WORSE")
                else:
                    verdict = ""
                row(name, b_vals, n_vals, verdict)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
