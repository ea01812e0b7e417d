"""Unit tests of the benchmark's statistics and metric reduction.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402
import steadiness  # noqa: E402


def raw_record(trace=0, **over):
    raw = {
        "trace": trace,
        "setup_s": [1.0, 1.2, 1.1],
        "op_ms": [10.0, 12.0, 11.0, 13.0],
        "traced_op_ms": [],
        "window_s": 0.046,
        "attempted": 4,
        "failed": 0,
        "failures": [],
        "peak_rss_mb": 50.5,
        "samples": {},
        "values": {},
    }
    raw.update(over)
    return raw


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        v = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(v, 0), 1.0)
        self.assertEqual(stats.percentile(v, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(v, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(v, 25), 1.75)
        self.assertEqual(stats.median([7.0]), 7.0)

    def test_empty_series_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 10)
        self.assertEqual(stats.samples_beyond(91, 90), 9)
        self.assertIsNone(stats.tail_percentile(list(range(91)), 90))
        self.assertAlmostEqual(stats.tail_percentile(list(range(100)), 90), 89.1)
        self.assertIsNone(stats.tail_percentile(list(range(900)), 99))
        self.assertIsNotNone(stats.tail_percentile(list(range(1000)), 99))

    def test_tail_metric_without_enough_samples_refuses(self):
        with self.assertRaises(ValueError):
            stats.series_percentile("op_ms_p90", [1.0] * 50, 90)
        self.assertEqual(stats.series_percentile("op_ms_p50", [1.0, 3.0], 50), 2.0)

    def test_quartile_spread_matches_statistics_quantiles(self):
        q1, med, q3, spread = stats.quartile_spread(
            [10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
        self.assertAlmostEqual(med, 14.5)
        self.assertAlmostEqual(spread, (q3 - q1) / med)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "op_ms_p50", "pass.litho_ms", "a-b.c_d", "9x"):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "has space", "x/y", "x:y", "é", "a" * 65,
                     None, 5):
            self.assertFalse(stats.valid_name(name), name)

    def test_reduce_rejects_an_invalid_metric_name(self):
        bench = {"end_to_end": [{"name": "bad name", "unit": "ms"}]}
        with self.assertRaises(ValueError):
            stats.reduce(raw_record(), bench)


class ReduceTest(unittest.TestCase):
    def setUp(self):
        self.bench = stats.load_benchmark(ROOT)

    def test_end_to_end_values(self):
        r = stats.reduce(raw_record(), self.bench)
        m = r["metrics"]
        self.assertEqual(set(m), {s["name"] for s in self.bench["end_to_end"]})
        self.assertAlmostEqual(m["setup_s"]["value"], 1.1)
        self.assertAlmostEqual(m["op_ms_p50"]["value"], 11.5)
        self.assertAlmostEqual(m["ops_per_s"]["value"], 4 / 0.046)
        self.assertEqual(m["setup_s"]["unit"], "s")
        self.assertTrue(r["correct"])

    def test_failures_are_counted_not_hidden(self):
        r = stats.reduce(raw_record(attempted=9, failed=2), self.bench)
        self.assertFalse(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (9, 2))

    def test_no_attempt_is_not_correct(self):
        r = stats.reduce(raw_record(attempted=0, failed=0), self.bench)
        self.assertFalse(r["correct"])

    def test_per_layer_covers_every_metric(self):
        raw = raw_record(
            trace=1,
            traced_op_ms=[12.0, 14.0],
            samples={"pass.litho_ms": [3.0, 1.0, 2.0],
                     "service.edit_ms": [5.0, 7.0]},
            values={"fix.proposed": 19.0})
        m = stats.reduce(raw, self.bench)["metrics"]
        self.assertEqual(set(m), {s["name"] for s in self.bench["per_layer"]})
        self.assertEqual(m["pass.litho_ms"]["value"], 2.0)
        self.assertEqual(m["service.edit_ms_p50"]["value"], 6.0)
        self.assertEqual(m["fix.proposed"]["value"], 19.0)
        # A layer this workload does not run reports zero.
        self.assertEqual(m["shard.litho_call_ms"]["value"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_pct"]["value"],
                               100 * (13.0 / 11.5 - 1))


class MergeTest(unittest.TestCase):
    def test_processes_pool_into_one_record(self):
        a = raw_record(setup_s=[2.0], op_ms=[10.0, 12.0], window_s=0.022,
                       attempted=2, failed=1, failures=["x"], peak_rss_mb=40.0,
                       samples={"s": [1.0]}, values={"v": 1.0},
                       env={"nproc": 4, "load_start": 1.0, "load_end": 1.1,
                            "cpu_ticks": 400, "steal_ticks": 4})
        b = raw_record(setup_s=[3.0], op_ms=[14.0], window_s=0.014,
                       attempted=1, failed=0, peak_rss_mb=50.0,
                       samples={"s": [3.0]}, values={"v": 2.0},
                       env={"nproc": 4, "load_start": 1.2, "load_end": 1.3,
                            "cpu_ticks": 400, "steal_ticks": 36})
        c = raw_record(setup_s=[4.0], op_ms=[11.0], window_s=0.011,
                       attempted=1, failed=0, peak_rss_mb=45.0,
                       env={"nproc": 4, "load_start": 1.4, "load_end": 1.5,
                            "cpu_ticks": 200, "steal_ticks": 0})
        m = stats.merge_records([a, b, c])
        self.assertEqual(m["setup_s"], [2.0, 3.0, 4.0])
        self.assertEqual(m["op_ms"], [10.0, 12.0, 14.0, 11.0])
        self.assertAlmostEqual(m["window_s"], 0.047)
        self.assertEqual((m["attempted"], m["failed"]), (4, 1))
        self.assertEqual(m["failures"], ["x"])
        self.assertEqual(m["peak_rss_mb"], 45.0)
        self.assertEqual(m["samples"], {"s": [1.0, 3.0]})
        self.assertEqual(m["env"]["load_start"], 1.0)
        self.assertEqual(m["env"]["load_end"], 1.5)
        self.assertEqual(m["env"]["steal_pct"], 4.0)  # 40 of 1000 ticks
        r = stats.reduce(m, stats.load_benchmark(ROOT))
        self.assertEqual(r["metrics"]["setup_s"]["value"], 3.0)
        self.assertFalse(r["correct"])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_follows_its_rules(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            set(bench),
            {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(stats.WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            stats.end_to_end_value(raw_record(), m["name"])  # has a reducer
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(stats.valid_name(m["name"]), m["name"])
            self.assertTrue(stats.UNIT_RE.match(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class SteadinessVerdictTest(unittest.TestCase):
    SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}

    def test_setup_s_spread_is_held_to_its_bound(self):
        ok, words = steadiness.verdict(self.SETUP, [0.05, 0.30], 0.0)
        self.assertFalse(ok)
        self.assertIn("SPREAD OVER BOUND", words)

    def test_spread_over_a_third_of_the_bound_is_named(self):
        ok, words = steadiness.verdict(self.SETUP, [0.05, 0.10], 0.0)
        self.assertTrue(ok)
        self.assertEqual(words, ["spread over a third of the bound"])

    def test_drift_over_bound_fails(self):
        ok, words = steadiness.verdict(self.SETUP, [0.01, 0.01], 0.26)
        self.assertFalse(ok)
        self.assertEqual(words, ["DRIFT OVER BOUND"])


class SpanTreeTest(unittest.TestCase):
    def span(self, sid, parent, name, start, end):
        return {"id": sid, "parent": parent, "name": name, "start_ns": start,
                "end_ns": end, "request": 1, "derived": False}

    def test_self_time_and_unattributed_remainder(self):
        spans = [
            self.span(1, 0, "op", 0, 100),
            self.span(2, 1, "read", 0, 20),
            self.span(3, 1, "flow", 30, 90),
            self.span(4, 3, "pass.a", 30, 60),
            self.span(5, 3, "pass.b", 50, 80),  # overlaps pass.a
        ]
        rows = stats.span_tree(spans)
        ms = 1e-6
        self.assertAlmostEqual(rows["op"]["total_ms"], 100 * ms)
        self.assertAlmostEqual(rows["op"]["self_ms"], 20 * ms)
        self.assertAlmostEqual(rows["op/<unattributed>"]["total_ms"], 20 * ms)
        self.assertAlmostEqual(rows["op/flow"]["self_ms"], 10 * ms)
        self.assertAlmostEqual(rows["op/flow/pass.a"]["self_ms"], 30 * ms)
        self.assertNotIn("op/read/<unattributed>", rows)
        # Children plus the remainder account for the parent.
        kids = sum(rows[p]["total_ms"] for p in ("op/read", "op/flow",
                                                   "op/<unattributed>"))
        self.assertAlmostEqual(kids, rows["op"]["total_ms"])


if __name__ == "__main__":
    unittest.main()
