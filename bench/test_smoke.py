"""Self-test of the benchmark: every workload on a tiny input emits every metric.

Run from the repository root:

    python3 -m unittest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_declared_metric(self):
        for spec in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=spec["name"], trace=trace):
                    proc = run_bench(ROOT, spec["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared},
                    )
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    if spec["name"] == "verify":
                        # the non-dyadic instance of ROADMAP Open item 2
                        self.assertIn("FAILED roadmap-nondyadic", proc.stdout)
                    if spec["name"] == "plan-large" and trace:
                        self.assertEqual(result["metrics"]["solver.nodes"]["value"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path)
            proc = run_bench(Path(tmp), SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
