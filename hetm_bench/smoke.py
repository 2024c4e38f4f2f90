#!/usr/bin/env python3
"""Smoke test of the benchmark program (ctest hetm_bench_smoke, label bench).

    python3 hetm_bench/smoke.py PATH/TO/hetm_bench WORK_DIR

Runs every workload of BENCHMARK.json at --scale smoke, traced, twice with one
seed, and checks that:
  * every end-to-end and per-layer metric BENCHMARK.json names is emitted;
  * the run is correct and no operation failed (fail_frac == 0);
  * every simulated-clock metric, the simulated fingerprint and the traced
    pass's trace digest are identical across the two runs.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(binary, workdir, workload, attempt):
    out = os.path.join(workdir, f"{workload}-{attempt}.json")
    subprocess.run([binary, "--workload", workload, "--seed", str(SEED), "--scale", "smoke",
                    "--seconds", "0.1", "--out", out,
                    "--trace-out", os.path.join(workdir, f"{workload}-{attempt}.trace.json")],
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    with open(out) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, workdir = sys.argv[1], sys.argv[2]
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = run(binary, workdir, workload, 1), run(binary, workdir, workload, 2)
        for section in ("end_to_end", "per_layer"):
            missing = [m["name"] for m in spec[section] if m["name"] not in a[section]]
            if missing:
                problems.append(f"{workload}: {section} metrics not emitted: {missing}")
        if not a["correct"] or a["failed"] != 0:
            problems.append(f"{workload}: correct={a['correct']} failed={a['failed']} "
                            f"({a['why']})")
        for key in ("sim_fingerprint", "trace_digest"):
            if a[key] != b[key]:
                problems.append(f"{workload}: {key} differs: {a[key]} vs {b[key]}")
        for name, m in a["per_layer"].items():
            if m["clock"] == "sim" and m["value"] != b["per_layer"][name]["value"]:
                problems.append(f"{workload}: {name} differs: {m['value']} vs "
                                f"{b['per_layer'][name]['value']}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
