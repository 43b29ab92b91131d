#!/usr/bin/env python3
"""Tests of the fleet benchmark itself, at smoke size.

    python3 -m unittest discover -s fleetbench -p 'test_*.py'

Each test drives fleetbench/run.py the way the benchmark is run, with
--smoke (tiny fleets, single reps); the first test to run builds the package.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def digest_of(proc):
    match = re.search(r"verdict digest ([0-9a-f]+)", proc.stdout)
    return match.group(1) if match else None


class SmokeRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(workload, trace)] = run_bench(workload, 1, trace)

    def check_metrics(self, trace, expected):
        units = {m["name"]: m["unit"] for m in expected}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = self.runs[(workload, trace)]
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(units))
                for name, metric in result["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertEqual(metric["unit"], units[name], name)
                    self.assertIsInstance(metric["value"], float, name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_metrics(0, SPEC["end_to_end"])
        for workload in WORKLOADS:
            for name, metric in result_of(self.runs[(workload, 0)])["metrics"].items():
                self.assertGreater(metric["value"], 0.0, (workload, name))

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_every_run_records_host_input_and_verdict(self):
        for (workload, trace), proc in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertRegex(proc.stdout, r"host: nproc \d+, hardware_concurrency \d+")
                self.assertRegex(proc.stdout, r"input: seed 1, \d+ homes, \d+ packets")
                self.assertIsNotNone(digest_of(proc))
                self.assertNotIn("[FAIL]", proc.stdout)

    def test_trace_passes_the_json_validator(self):
        validator = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
        validator = os.path.join(validator, "fleetbench", "fleetbench_json_validate")
        for workload in WORKLOADS:
            trace = os.path.join(os.path.dirname(validator), "results",
                                 "%s-1-traced.trace.json" % workload)
            check = subprocess.run([validator, trace], stdout=subprocess.PIPE, text=True)
            self.assertEqual(check.returncode, 0, check.stdout)
            with open(trace) as f:
                spans = json.load(f)["spans"]
            self.assertTrue(any(s["name"] == "shard.process" for s in spans))
            self.assertTrue(all(s["end_ns"] >= s["start_ns"] for s in spans))

    def test_one_seed_gives_one_verdict_digest(self):
        for workload in WORKLOADS:
            again = run_bench(workload, 1, 0)
            self.assertEqual(digest_of(again), digest_of(self.runs[(workload, 0)]), workload)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "fleetbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, os.path.join("fleetbench", "run.py"), "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
