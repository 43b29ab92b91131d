#!/usr/bin/env python3
"""Measures how steady the benchmark is: sets of untraced runs per workload.

    python3 fleetbench/steadiness.py --seeds 1,2,3,4,5,6,7,8,9,10 --sets 2 \
        --json results.json --markdown table.md

Each run is `fleetbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`. Every set runs each workload once per seed; for each seed the
sets take turns going first. For every end-to-end metric the script reports,
per set, the median and quartiles of the runs (statistics.quantiles(values,
n=4)), the spread (third quartile minus first, as a share of the median) and
that metric's bound from BENCHMARK.json, and how far each later set's median
moved from the first set's, in the metric's worse direction. A run that is
not correct is reported as such.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"seed": seed, "wall_s": time.time() - start, "exit": proc.returncode,
            "result": result}


def summarize(spec, runs):
    rows = []
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"]
                  for r in runs if r["result"]]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rows.append({"name": metric["name"], "unit": metric["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "bound": metric["bound"], "better": metric["better"]})
    return rows


def markdown(spec, results):
    out = []
    for workload, sets in results.items():
        out.append("### %s\n" % workload)
        first = None
        for index, runs in enumerate(sets):
            correct = sum(1 for r in runs if r["result"] and r["result"]["correct"])
            seeds = ",".join(str(r["seed"]) for r in runs)
            wall = statistics.median(r["wall_s"] for r in runs)
            rows = summarize(spec, runs)
            out.append("Set %d: %d runs (seeds %s), %d correct, median run %.1f s.\n"
                       % (index + 1, len(runs), seeds, correct, wall))
            out.append("| metric | unit | median | q1 | q3 | spread | bound | worse vs set 1 |")
            out.append("|---|---|---|---|---|---|---|---|")
            for row in rows:
                shift = ""
                if first is not None:
                    base = first[row["name"]]
                    sign = 1.0 if row["better"] == "lower" else -1.0
                    shift = "%+.3f" % (sign * (row["median"] - base) / base)
                out.append("| %s | %s | %.6g | %.6g | %.6g | %.3f | %.2f | %s |"
                           % (row["name"], row["unit"], row["median"], row["q1"],
                              row["q3"], row["spread"], row["bound"], shift))
            out.append("")
            if first is None:
                first = {row["name"]: row["median"] for row in rows}
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default every workload")
    parser.add_argument("--json", required=True, help="raw results (written)")
    parser.add_argument("--markdown", help="summary table (written)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    results = {}
    for workload in workloads:
        results[workload] = [[] for _ in range(args.sets)]
        for i, seed in enumerate(seeds):
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for s in order:
                results[workload][s].append(run_once(workload, seed, spec["run_seconds"]))
                with open(args.json, "w") as f:
                    json.dump(results, f, indent=1)
    table = markdown(spec, results)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(table + "\n")
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
