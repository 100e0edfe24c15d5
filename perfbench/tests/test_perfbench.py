#!/usr/bin/env python3
"""Self-test of the repo benchmark at tiny sizes.

    python3 perfbench/tests/test_perfbench.py

Drives perfbench/run.py --tiny (which builds into .bench_build/ on first
use) and checks: every printed metric name and unit is declared in
BENCHMARK.json; every run is correct at the pinned seed and at a fresh one
(so traced == untraced and merged == single-process hold there too); a
healthy fleet neither steals nor requeues; a flipped report byte trips the
hash gate; and a directory holding only the benchmark fails without a
result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("consensus", "multihop", "report", "fleet")
PINNED_SEED = 1
FRESH_SEED = 7


def run_bench(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + proc.stderr)
    return json.loads(lines[-1])


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {}
        for workload in WORKLOADS:
            for seed in (PINNED_SEED, FRESH_SEED):
                for trace in (0, 1):
                    proc = run_bench(workload, seed, trace)
                    cls.results[workload, seed, trace] = (proc, result_of(proc))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_metric_names_and_units_are_declared(self):
        declared = {0: {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in self.spec["per_layer"]}}
        for (workload, seed, trace), (_, result) in self.results.items():
            with self.subTest(workload=workload, seed=seed, trace=trace):
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared[trace])

    def test_every_run_is_correct(self):
        for (workload, seed, trace), (proc, result) in self.results.items():
            with self.subTest(workload=workload, seed=seed, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                pinned = "(pinned: match)" in proc.stdout
                self.assertEqual(pinned, seed == PINNED_SEED)

    def test_end_to_end_metrics_are_never_zero(self):
        for (workload, seed, trace), (_, result) in self.results.items():
            if trace:
                continue
            with self.subTest(workload=workload, seed=seed):
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_healthy_fleet_neither_steals_nor_requeues(self):
        for seed in (PINNED_SEED, FRESH_SEED):
            metrics = self.results["fleet", seed, 1][1]["metrics"]
            self.assertEqual(metrics["dispatch.steals"]["value"], 0)
            self.assertEqual(metrics["dispatch.requeues"]["value"], 0)
            self.assertGreater(metrics["dispatch.batches"]["value"], 0)

    def test_flipped_report_byte_trips_the_hash_gate(self):
        for workload in ("consensus", "report"):
            with self.subTest(workload=workload):
                proc = run_bench(workload, PINNED_SEED, 0, "--corrupt-report")
                result = result_of(proc)
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_directory_without_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("consensus", PINNED_SEED, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
