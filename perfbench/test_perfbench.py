"""Self-tests of the stfw benchmark.

    python3 perfbench/test_perfbench.py            # everything (builds, ~2 min)
    python3 perfbench/test_perfbench.py Stats      # statistics only, instant

The smoke runs use a seed the benchmark was not tuned on.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

SMOKE_SEED = 271828


class Stats(unittest.TestCase):
    def test_nearest_rank_percentile_returns_a_sample(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile(list(range(1, 101)), 95), 95)
        self.assertEqual(stats.percentile(list(range(1, 101)), 100), 100)
        self.assertEqual(stats.percentile([7.25], 99), 7.25)
        self.assertIsNone(stats.percentile([], 50))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertEqual(stats.samples_beyond(199, 95), 9)
        self.assertEqual(stats.samples_beyond(0, 95), 0)

    def test_tail_rule_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_self_time_of_nested_spans(self):
        # root [0, 100] on the main track; children on rank tracks overlap
        # each other ([10, 40] and [30, 60]) and one runs past the root's
        # end ([90, 120]); a grandchild [15, 20] sits inside the first child.
        spans = [
            {"id": 1, "parent": 0, "ts": 0.0, "dur": 100.0},
            {"id": 2, "parent": 1, "ts": 10.0, "dur": 30.0},
            {"id": 3, "parent": 1, "ts": 30.0, "dur": 30.0},
            {"id": 4, "parent": 1, "ts": 90.0, "dur": 30.0},
            {"id": 5, "parent": 2, "ts": 15.0, "dur": 5.0},
        ]
        self_ms = stats.self_times(spans)
        self.assertAlmostEqual(self_ms[1], 100 - 50 - 10)  # union [10,60] + clipped [90,100]
        self.assertAlmostEqual(self_ms[2], 25.0)
        self.assertAlmostEqual(self_ms[3], 30.0)
        self.assertAlmostEqual(self_ms[4], 30.0)
        self.assertAlmostEqual(self_ms[5], 5.0)

    def test_summary_by_layer_skips_untimed_spans(self):
        spans = [
            {"id": 1, "parent": 0, "op": 0, "name": "runtime.cluster_run", "tid": 0,
             "ts": 0.0, "dur": 1000.0},
            {"id": 2, "parent": 1, "op": 0, "name": "runtime.exchange", "tid": 1,
             "ts": 100.0, "dur": 800.0},
            {"id": 3, "parent": 1, "op": 0, "name": "bench.verify", "tid": 1,
             "ts": 900.0, "dur": 50.0},
            {"id": 4, "parent": 0, "op": -1, "name": "sparse.generate", "tid": 0,
             "ts": 0.0, "dur": 5000.0},
        ]
        summary = stats.summarise(spans)
        self.assertNotIn("sparse.generate", summary)
        layers = stats.layer_self_ms(summary)
        self.assertAlmostEqual(layers["runtime"], 0.15 + 0.8)
        self.assertAlmostEqual(layers["bench"], 0.05)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        """Given only BENCHMARK.json and perfbench/, the benchmark cannot
        build: it must exit non-zero and print nothing on stdout."""
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dynamic_bl_k128",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180,
                           env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


class Smoke(unittest.TestCase):
    """One short run of every workload, untraced and traced: every declared
    metric appears with its unit, and every output checks out."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:] + p.stdout[-3000:])
        lines = p.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def check(self, workload, trace):
        lines, result = self.run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        text = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertRegex(text, r"\n  %s +\S+ %s" % (m["name"].replace(".", r"\."),
                                                       m["unit"].replace("/", r"\/")))
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])
        self.assertIn("fingerprint: ", text)
        return result["metrics"]

    def test_every_workload(self):
        for w in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=w, trace=0):
                self.check(w, 0)
            with self.subTest(workload=w, trace=1):
                metrics = self.check(w, 1)
                value = lambda name: metrics[name]["value"]  # noqa: E731
                if w == "spmv_stfw2_k64":
                    self.assertGreater(value("runtime.plan_hit_ratio"), 0.9)
                    self.assertGreater(value("sim.mmax.BL"), value("sim.mmax.STFW12"))
                    self.assertGreater(value("sim.simulate_ms.STFW4"), 0.0)
                if w == "dynamic_bl_k128":
                    self.assertEqual(value("runtime.plan_hit_ratio"), 0.0)
                    self.assertEqual(value("runtime.plan_builds_per_exchange"), 1.0)
                if w != "resilient_drop_k64":
                    self.assertEqual(value("fault.retransmits_per_exchange"), 0.0)


if __name__ == "__main__":
    unittest.main()
