#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

Runs every workload in smoke mode (a few frames, seed 1), untraced and
traced, and checks that the run is correct against the committed digests
and that it emits exactly the metrics BENCHMARK.json names, with their
units.  Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        result = run_smoke(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], f"{workload}: digests differ")
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(emitted["value"], (int, float))
            if not trace:
                self.assertGreater(emitted["value"], 0, metric["name"])

    def test_workloads_named(self) -> None:
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["kitti_pair", "tj_fleet", "edge_fleet"])

    def test_kitti_pair(self) -> None:
        self.check("kitti_pair", 0)

    def test_kitti_pair_traced(self) -> None:
        self.check("kitti_pair", 1)

    def test_tj_fleet(self) -> None:
        self.check("tj_fleet", 0)

    def test_tj_fleet_traced(self) -> None:
        self.check("tj_fleet", 1)

    def test_edge_fleet(self) -> None:
        self.check("edge_fleet", 0)

    def test_edge_fleet_traced(self) -> None:
        self.check("edge_fleet", 1)


if __name__ == "__main__":
    unittest.main()
