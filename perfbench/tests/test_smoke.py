"""Smoke-sized runs of every workload through run.py (4 simulated days,
1 timed second), the compare mode over synthetic result files, and the
refusal to run without the program's sources.

    python3 -m unittest discover -s perfbench/tests

The first run builds the driver into $CARGO_TARGET_DIR (default
.bench_build), which takes about a minute on a 4-core machine.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
                          check=False)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_py("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", str(trace), "--days", "4")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_batch_fleet(self):
        self.check_run("batch_fleet", 0)
        traced = self.check_run("batch_fleet", 1)["metrics"]
        self.assertGreater(traced["faultsim.run_s"]["value"], 0)
        self.assertGreaterEqual(traced["trace.coverage_pct"]["value"], 95.0)

    def test_ingest_archive(self):
        self.check_run("ingest_archive", 0)
        traced = self.check_run("ingest_archive", 1)["metrics"]
        self.assertGreater(traced["parsers.load_snapshot_s"]["value"], 0)
        self.assertGreaterEqual(traced["trace.coverage_pct"]["value"], 95.0)

    def test_serve_tail(self):
        self.check_run("serve_tail", 0)
        traced = self.check_run("serve_tail", 1)["metrics"]
        self.assertEqual(traced["serve.recomputes_per_epoch"]["value"], 1.0)
        self.assertEqual(traced["util.metrics_export_ms"]["value"], 0.0)

    def test_serve_observed(self):
        self.check_run("serve_observed", 0)
        traced = self.check_run("serve_observed", 1)["metrics"]
        self.assertGreater(traced["util.metrics_export_ms"]["value"], 0)


class NoSources(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = run_py("--workload", "batch_fleet", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


def result_doc(workload, started, value, host="h"):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"workload": workload, "trace": 0, "started": started,
            "host": {k: host for k in run.SAME_HOST_KEYS},
            "result": {"correct": True, "metrics": metrics}}


class Compare(unittest.TestCase):
    def runs(self, base_value, head_value, n=10, head_host="h"):
        base, head = [], []
        for i in range(n):
            jitter = 1.0 + 0.001 * (i % 3)
            # Alternate which side runs first in each pair.
            b_t, h_t = (2 * i, 2 * i + 1) if i % 2 == 0 else (2 * i + 1, 2 * i)
            base.append(result_doc("ingest_archive", b_t, base_value * jitter))
            head.append(result_doc("ingest_archive", h_t, head_value * jitter, head_host))
        return base, head

    def test_same_code_reads_same(self):
        report = run.compare(*self.runs(100.0, 100.0), SPEC)
        self.assertEqual({v for v, _ in report.values()}, {"same"})

    def test_faster_change_gains_and_slower_change_regresses(self):
        report = run.compare(*self.runs(100.0, 70.0), SPEC)
        self.assertEqual(report[("ingest_archive", "op_p50_ms")][0], "gain")
        report = run.compare(*self.runs(100.0, 130.0), SPEC)
        self.assertEqual(report[("ingest_archive", "op_p50_ms")][0], "regression")

    def test_different_hosts_are_refused(self):
        with self.assertRaises(ValueError):
            run.compare(*self.runs(100.0, 100.0, head_host="other"), SPEC)

    def test_too_few_pairs_are_unresolved(self):
        report = run.compare(*self.runs(100.0, 70.0, n=9), SPEC)
        self.assertEqual({v for v, _ in report.values()}, {"unresolved"})


if __name__ == "__main__":
    unittest.main()
