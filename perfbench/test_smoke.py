#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny sizes, every output check on.

Runs each workload in smoke mode, untraced and traced, and checks that the
run exits 0, reports every metric BENCHMARK.json declares, and that every
output check passed.  Run from anywhere:

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (spec, [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


class SmokeTest(unittest.TestCase):
    def test_every_workload(self):
        spec, e2e, layer = declared()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, names in ((0, e2e), (1, layer)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_rejects_unknown_workload(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
