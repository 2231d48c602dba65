#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and its metric catalogue.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/test_gate.py

It checks that
  * a deliberately mismatched ledger and a deliberately mismatched digest
    are each counted as a failed operation and make the command fail;
  * a second, non-default workload seed passes every correctness check
    on every workload;
  * the 4 worker threads of shard4 and tw4 fit the machine, or the
    command refuses to run;
  * the metric names the binary reports are exactly BENCHMARK.json's.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ["storm", "protocols", "faults"]


def run(*args):
    done = subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


class GateTest(unittest.TestCase):
    def check_injected(self, kind):
        code, result, stderr = run("--workload", "faults", "--seed", "1",
                                   "--seconds", "1", "--trace", "0",
                                   "--inject", kind)
        self.assertEqual(code, 1, stderr)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn(f"{kind} mismatch", stderr)

    def test_mismatched_ledger_fails_the_command(self):
        self.check_injected("ledger")

    def test_mismatched_digest_fails_the_command(self):
        self.check_injected("digest")

    def test_second_seed_is_correct_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stderr = run("--workload", workload, "--seed",
                                           "7", "--seconds", "1", "--trace",
                                           "0")
                self.assertEqual(code, 0, stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_runs_only_where_four_threads_fit(self):
        code, result, stderr = run("--workload", "storm", "--seed", "1",
                                   "--seconds", "1", "--trace", "0")
        if (os.cpu_count() or 1) < 4:
            self.assertEqual(code, 2)
            self.assertIsNone(result)
            self.assertIn("refusing to run", stderr)
            return
        self.assertEqual(code, 0, stderr)
        report = os.path.join(os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build", "perfbench",
                              "report_storm_trace0.json")
        with open(os.path.join(ROOT, report)) as f:
            facts = json.load(f)
        self.assertGreaterEqual(facts["hardware_concurrency"],
                                max(facts["threads"].values()))

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        done = subprocess.run(RUN + ["--list-metrics"], capture_output=True,
                              text=True, cwd=ROOT, timeout=900, check=True)
        names = {"end_to_end": [], "per_layer": []}
        for line in filter(None, done.stdout.split("\n")):
            kind, name, unit = line.split()
            names[kind].append((name, unit))
        for kind in names:
            self.assertEqual(
                names[kind],
                [(m["name"], m["unit"]) for m in spec[kind]], kind)
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)


if __name__ == "__main__":
    unittest.main()
