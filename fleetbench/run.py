#!/usr/bin/env python3
"""Builds and runs the fleet benchmark for one workload.

    python3 fleetbench/run.py --workload fleet-sharded --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The first run configures and builds the
fleetbench CMake package (fleetbench/CMakeLists.txt, which compiles the FIAT
libraries from src/) under .bench_build/fleetbench, or under
$CARGO_TARGET_DIR/fleetbench when that is set; later runs rebuild
incrementally. The driver program prints the run's figures and checks; this
script echoes them and ends its output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ledger (BENCHMARK.json lists both). A traced run also writes the
benchmark's spans as JSON and checks them with the repository's strict JSON
validator. The exit code is 0 only for a correct run; a failed build or run
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "fleetbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", BUILD_JOBS, "--target",
                  "fleetbench", "fleetbench_json_validate"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleets and single reps, for the tests")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("fleetbench: build failed", file=sys.stderr)
        return 1

    tag = "%s-%d-%s" % (args.workload, args.seed, "traced" if args.trace else "untraced")
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    report_path = os.path.join(results, tag + ".report.json")
    trace_path = os.path.join(results, tag + ".trace.json")
    for path in (report_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [os.path.join(out_dir, "fleetbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--report-out", report_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if not os.path.exists(report_path):
        print("fleetbench: no report (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    with open(report_path) as f:
        report = json.load(f)

    correct = bool(report["correct"]) and proc.returncode == 0
    if args.trace:
        check = subprocess.run([os.path.join(out_dir, "fleetbench_json_validate"), trace_path],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print("  trace check: " + check.stdout.strip())
        correct = correct and check.returncode == 0

    host, inp = report["host"], report["input"]
    print("  host: nproc %d, hardware_concurrency %d, %s build, %s; %d threads"
          % (host["nproc"], host["hardware_concurrency"], host["build_type"],
             host["compiler"], host["threads"]))
    print("  input: seed %d, %d homes, %d packets, %d proofs, %d lifecycle"
          % (report["seed"], inp["homes"], inp["packets"], inp["proofs"], inp["lifecycle"]))
    metrics = {name: {"value": float(m["value"]), "unit": m["unit"]}
               for name, m in report["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
