#!/usr/bin/env python3
"""Tests for tools/compare_bench.py exit codes and failure messages.

Exercises the tool as a subprocess, the way CI's bench-smoke job and a human
diffing two commits run it. The hardening cases matter most: a missing file,
a glob that matches nothing, and an empty results array must all fail with
exit 2 and a message naming the cause -- never pass silently.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "compare_bench.py")


def bench_doc(results):
    return {
        "bench": "micro_exchange",
        "schema_version": 1,
        "config": {"k_max": 64, "iters": 6},
        "results": results,
    }


def run_tool(*argv):
    return subprocess.run(
        [sys.executable, TOOL, *argv],
        capture_output=True,
        text=True,
        check=False,
    )


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def test_schema_ok(self):
        path = self.write("BENCH_a.json", bench_doc([{"name": "k4", "mean_us": 1.5}]))
        proc = run_tool("--schema", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("ok:", proc.stdout)

    def test_missing_file_exits_2_with_cause(self):
        missing = os.path.join(self.tmp.name, "BENCH_nope.json")
        proc = run_tool("--schema", missing)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("does not exist", proc.stderr)
        self.assertIn("did the benchmark run", proc.stderr)

    def test_unmatched_glob_exits_2_with_cause(self):
        pattern = os.path.join(self.tmp.name, "BENCH_*.json")
        proc = run_tool("--schema", pattern)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("matched no files", proc.stderr)

    def test_glob_expansion_finds_files(self):
        self.write("BENCH_a.json", bench_doc([{"name": "k4", "mean_us": 1.0}]))
        self.write("BENCH_b.json", bench_doc([{"name": "k8", "mean_us": 2.0}]))
        proc = run_tool("--schema", os.path.join(self.tmp.name, "BENCH_*.json"))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.count("ok:"), 2)

    def test_empty_results_exits_2(self):
        path = self.write("BENCH_empty.json", bench_doc([]))
        proc = run_tool("--schema", path)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("'results' is empty", proc.stderr)

    def test_schema_mismatch_exits_2(self):
        doc = bench_doc([{"name": "k4", "mean_us": 1.0}])
        doc["schema_version"] = 99
        path = self.write("BENCH_v99.json", doc)
        proc = run_tool("--schema", path)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("schema_version", proc.stderr)

    def test_malformed_json_exits_2(self):
        path = os.path.join(self.tmp.name, "BENCH_bad.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        proc = run_tool("--schema", path)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("cannot read", proc.stderr)

    def test_diff_within_tolerance_passes(self):
        base = self.write("base.json", bench_doc([{"name": "k4", "mean_us": 100.0}]))
        cand = self.write("cand.json", bench_doc([{"name": "k4", "mean_us": 110.0}]))
        proc = run_tool(base, cand, "--tolerance", "0.25")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_diff_time_regression_fails(self):
        base = self.write("base.json", bench_doc([{"name": "k4", "mean_us": 100.0}]))
        cand = self.write("cand.json", bench_doc([{"name": "k4", "mean_us": 200.0}]))
        proc = run_tool(base, cand, "--tolerance", "0.25")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("regressed", proc.stderr)

    def test_diff_speedup_passes(self):
        base = self.write("base.json", bench_doc([{"name": "k4", "mean_us": 100.0}]))
        cand = self.write("cand.json", bench_doc([{"name": "k4", "mean_us": 10.0}]))
        proc = run_tool(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_diff_missing_row_fails(self):
        base = self.write("base.json", bench_doc(
            [{"name": "k4", "mean_us": 1.0}, {"name": "k8", "mean_us": 2.0}]))
        cand = self.write("cand.json", bench_doc([{"name": "k4", "mean_us": 1.0}]))
        proc = run_tool(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from", proc.stderr)

    def overlap_doc(self, sync_ns, overlap_ns, ranks=256):
        return {
            "bench": "overlap",
            "schema_version": 1,
            "config": {"kmax": ranks},
            "results": [
                {"name": f"K{ranks}/barrier", "mode": "barrier", "ranks": ranks,
                 "wall_ns_per_iter": sync_ns * 1.5},
                {"name": f"K{ranks}/sync", "mode": "sync", "ranks": ranks,
                 "wall_ns_per_iter": sync_ns},
                {"name": f"K{ranks}/overlap", "mode": "overlap", "ranks": ranks,
                 "wall_ns_per_iter": overlap_ns},
            ],
        }

    def test_overlap_gate_passes_when_overlap_is_faster(self):
        path = self.write("BENCH_overlap.json", self.overlap_doc(100.0, 80.0))
        proc = run_tool("--overlap-gate", path, "--tolerance", "0.05")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("overlap gate at K=256", proc.stdout)

    def test_overlap_gate_fails_when_overlap_is_slower(self):
        path = self.write("BENCH_overlap.json", self.overlap_doc(100.0, 120.0))
        proc = run_tool("--overlap-gate", path, "--tolerance", "0.05")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("overlap slower than sync at K=256", proc.stderr)

    def test_overlap_gate_uses_largest_k_only(self):
        doc = self.overlap_doc(100.0, 80.0, ranks=256)
        # A slower overlap at a smaller K must not trip the gate.
        doc["results"] += self.overlap_doc(100.0, 500.0, ranks=32)["results"]
        path = self.write("BENCH_overlap.json", doc)
        proc = run_tool("--overlap-gate", path, "--tolerance", "0.05")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_overlap_gate_missing_rows_fails(self):
        doc = self.overlap_doc(100.0, 80.0)
        doc["results"] = [r for r in doc["results"] if r["mode"] != "overlap"]
        path = self.write("BENCH_overlap.json", doc)
        proc = run_tool("--overlap-gate", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no 'overlap' row", proc.stderr)

    def test_diff_against_empty_candidate_is_schema_error(self):
        # The key hardening case: an empty candidate must not "pass" the diff.
        base = self.write("base.json", bench_doc([{"name": "k4", "mean_us": 1.0}]))
        cand = self.write("cand.json", bench_doc([]))
        proc = run_tool(base, cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("'results' is empty", proc.stderr)


if __name__ == "__main__":
    unittest.main()
