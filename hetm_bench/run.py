#!/usr/bin/env python3
"""Builds hetm_bench from source and runs one benchmark workload.

    python3 hetm_bench/run.py --workload W --seed N --seconds T --trace 0|1 [--out FILE]

Run from the repository root. The first run configures and builds the
benchmark package (hetm_bench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later runs only rebuild what changed. hetm_bench's own report
is printed first; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. --trace 1 also keeps hetm_bench's Chrome trace in
.bench_build/traces/. --out FILE keeps hetm_bench's full JSON report (every
metric, quartiles, sample counts, digests), the input of bench_compare.py.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("table1_moves", "zipf_read", "zipf_churn", "contended_sched")
# The first run builds: configure + build + run stay under 900 s, and a later
# run (no-op build) under 180 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 660
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout the whole group is killed
    and reaped before TimeoutExpired propagates. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Configures and builds hetm_bench; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "Makefile")):
            configure += ["-G", "Ninja"]
        jobs = str(min(4, os.cpu_count() or 1))
        for cmd, timeout in ((configure, CONFIGURE_TIMEOUT_S),
                             (["cmake", "--build", BUILD, "--target", "hetm_bench", "-j", jobs],
                              BUILD_TIMEOUT_S)):
            code, _ = run(cmd, timeout, stdout=sys.stderr)
            if code != 0:
                raise subprocess.CalledProcessError(code, cmd)
    return os.path.join(BUILD, "hetm_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", help="keep hetm_bench's full JSON report here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    scratch = tempfile.mkdtemp(dir=BUILD)
    try:
        report_path = os.path.join(scratch, "report.json")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", report_path]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
        try:
            code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"hetm_bench did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        sys.stdout.write(out)
        if code != 0:
            print(f"hetm_bench exited with {code}", file=sys.stderr)
            return 1
        with open(report_path) as f:
            report = json.load(f)
        if args.out:
            shutil.copyfile(report_path, args.out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = report["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in section.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
