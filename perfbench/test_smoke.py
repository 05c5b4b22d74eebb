#!/usr/bin/env python3
"""The benchmark's own tests, in seconds: every workload at tiny scale.

Usage (from the repository root):

    python3 perfbench/test_smoke.py

Checks, for each workload, untraced and traced, that the run succeeds,
that every metric BENCHMARK.json names for that mode is printed with its
unit, that no operation failed (error rate 0), and that the traced work
counts repeat exactly between two runs.  Also checks that the benchmark
refuses to run, without printing a result, from a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Work counts of the traced run that must repeat exactly (times and
# time-derived rates may not).
DETERMINISTIC_SUFFIXES = (
    "_rows_out", "_per_query", "_per_result", "_per_update",
    "_per_commit", "hit_rate", "stale_query_frac", "plan_est_error",
    "candidates_per_result", "swmr_retained_bytes", "_from_sidecar")


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines[0].startswith("# env "), lines[0])
        env = json.loads(lines[0][len("# env "):])
        for key in ("nproc", "compiler", "build_type", "git_sha", "seed",
                    "scale", "client_threads", "store_fs_type"):
            self.assertIn(key, env)
        self.assertEqual(env["build_type"], "Release")
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # error_rate = 0
        group = SPEC["per_layer" if trace else "end_to_end"]
        for metric in group:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        return result["metrics"]

    def check_workload(self, workload):
        self.check_result(workload, 0)
        first = self.check_result(workload, 1)
        second = self.check_result(workload, 1)
        for name, metric in first.items():
            if name.endswith(DETERMINISTIC_SUFFIXES):
                self.assertEqual(metric["value"], second[name]["value"],
                                 "%s %s differs between traced runs" %
                                 (workload, name))

    def test_read_paged(self):
        self.check_workload("read_paged")

    def test_read_bp(self):
        self.check_workload("read_bp")

    def test_update_read(self):
        self.check_workload("update_read")

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "tmp", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("read_paged", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
