#!/usr/bin/env python3
"""Smoke test of the benchmark at small size.

    python3 perfbench/tests/smoke_test.py

Runs every workload of BENCHMARK.json through `perfbench/run.py --scale
smoke` with tracing off and on, and checks that the result line carries
every end-to-end (or per-layer) metric by name with its unit, that every
end-to-end value is positive, that the per-layer breakdown accounts for
the traced feed time to within 10%, that every correctness gate passed,
and that the build header is printed.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = BENCH["command"] + [
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, trace, expected):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                header, result = run(w["name"], trace)
                for key in ("nproc", "cpu_model", "rustc", "profile", "git_rev", "seed", "rate_tps"):
                    self.assertIn(key, header["header"])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
                for m in expected:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])
                    if trace == 0:
                        self.assertGreater(got["value"], 0, m["name"])
                if trace == 1:
                    self.assertGreaterEqual(result["metrics"]["trace.accounted_pct"]["value"], 90)
                    self.assertLessEqual(result["metrics"]["trace.accounted_pct"]["value"], 110)

    def test_end_to_end_metrics(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCH["per_layer"])


if __name__ == "__main__":
    sys.exit(unittest.main())
