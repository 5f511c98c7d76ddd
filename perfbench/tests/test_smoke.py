"""Smoke test: every workload, untraced and traced, at tiny scale.

Checks the benchmark's plumbing, not performance: each run builds, passes
its output checks, and reports every metric BENCHMARK.json names, with its
unit, in the result line's shape. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as run_py  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DEFINITION = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, result, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = DEFINITION["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"])
            self.assertIsInstance(reported["value"], (int, float))
            if not trace:
                self.assertGreater(reported["value"], 0, metric["name"])

    def test_every_workload_emits_every_metric(self):
        # Every workload run.py knows, including those BENCHMARK.json leaves
        # out (sim-bigpool, see README).
        for workload in run_py.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
