"""Tests of the benchmark's own logic (ledger.py, run.py's workload table).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import ledger
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sweep(threads, seconds, submitted=100, export="e1", series="s1",
          failed=0, cancelled=0):
    return {"threads": threads, "seconds": seconds, "submitted": submitted,
            "failed": failed, "cancelled": cancelled,
            "series_digest": series, "export_digest": export}


def resume(seconds, submitted=0, series="s1"):
    return {"threads": 4, "seconds": seconds, "submitted": submitted,
            "failed": 0, "cancelled": 0, "series_digest": series}


def e2e_raw():
    return {
        "threads": 4, "filesystem": "ext2/3/4",
        "setup_s": [0.3, 0.1, 0.2],
        "sweeps": [sweep(1, 10.0), sweep(4, 2.0), sweep(4, 4.0),
                   sweep(1, 5.0), sweep(4, 5.0)],
        "resumes": [resume(0.5), resume(0.7)],
        "peak_rss_kb": 2048,
    }


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank_and_beyond_count(self):
        values = list(range(1, 101))
        self.assertEqual(ledger.percentile(values, 90), (90, 10))
        self.assertEqual(ledger.percentile(values, 50), (50, 50))
        self.assertEqual(ledger.percentile(values, 99.99), (100, 0))

    def test_unsorted_input(self):
        self.assertEqual(ledger.percentile([5, 1, 4, 2, 3], 50), (3, 2))

    def test_tail_needs_ten_samples_beyond(self):
        t = ledger.tail(list(range(1, 101)))
        self.assertEqual((t.pct, t.value, t.beyond, t.count), (90, 90, 10, 100))
        self.assertTrue(t.resolved)
        # 99 samples: p90 leaves only 9 beyond, so p75 is the tail.
        t = ledger.tail(list(range(1, 100)))
        self.assertEqual((t.pct, t.beyond), (75, 24))

    def test_tail_count_reported(self):
        t = ledger.tail([1.0] * 45)
        self.assertEqual((t.pct, t.beyond, t.count), (75, 11, 45))
        self.assertIn("p75 of 45 samples, 11 beyond", t.describe())

    def test_too_few_samples_fall_back_to_median(self):
        t = ledger.tail(list(range(1, 20)))
        self.assertFalse(t.resolved)
        self.assertEqual((t.pct, t.value, t.count), (50, 10, 19))
        self.assertIn("too few samples", t.describe())

    def test_no_samples(self):
        t = ledger.tail([])
        self.assertEqual((t.value, t.count), (0.0, 0))
        self.assertEqual(t.describe(), "no samples")
        self.assertEqual(ledger.median([]), 0.0)


class RatioTest(unittest.TestCase):
    def test_ratio_refuses_empty_base(self):
        self.assertEqual(ledger.ratio(3, 4), 0.75)
        with self.assertRaises(ValueError):
            ledger.ratio(1, 0)
        with self.assertRaises(ValueError):
            ledger.ratio(1, -2)

    def test_throughput_base_is_submitted_units_per_sweep(self):
        values, notes = ledger.e2e_metrics(e2e_raw())
        self.assertAlmostEqual(values["units_per_s_1t"], (10 + 20) / 2)
        self.assertAlmostEqual(values["units_per_s"], 25)  # 50, 25, 20
        self.assertAlmostEqual(values["resume_s"], 0.6)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)
        self.assertIn("median of 2 cold 1-thread sweeps of 100 units",
                      notes["units_per_s_1t"])

    def test_trace_ratio_bases(self):
        raw = {
            "threads": 4,
            "sweeps": [sweep(1, 8.0), sweep(1, 10.0), sweep(4, 4.0)],
            "resumes": [resume(0.1)],
            "engine": {"score_seconds": 5.0, "subgraph_seconds": 1.0,
                       "metric_seconds": 3.0, "score_groups": 7,
                       "subgraph_builds": 9},
            "pool": {"busy_seconds": 12.0, "queue_high_water": 3},
            "metric_unit_ms": {"kcore": [1000.0, 1000.0]},
            "probe_metric_unit_ms": {"spsp": [5.0, 7.0, 9.0]},
            "store_bytes": 5000,
            "sparsifiers": {"score_s": {"RN": 1.0, "SP-3": 3.0},
                            "mask_us": [1.0], "apply_us": [2.0]},
            "cg": {"solve_ms": [1.0], "iterations": [4]},
            "bfs_per_s": 10.0, "dataset_build_s": 0.5,
            "store": {"append_us": {p: [1.0] for p in ledger.FSYNC_POLICIES},
                      "append_contended_us": [2.0],
                      "replay_mb_per_s_seg1": 1.0,
                      "replay_mb_per_s_seg8": 1.0, "segments_seg1": 1,
                      "segments_seg8": 8, "lookup_ns": 1.0},
            "store_open_s": [0.01],
            "micro": {"failpoint_unarmed_ns": 1, "failpoint_armed_other_ns": 1,
                      "cancel_poll_unarmed_ns": 1, "cancel_poll_armed_ns": 1,
                      "crc32c_gb_per_s": 1, "span_off_ns": 1,
                      "span_on_ns": 1},
            "self_s": {"engine": 0.5},
        }
        values, _ = ledger.trace_metrics(raw)
        self.assertAlmostEqual(values["sparsifiers.critical_share"], 3.0 / 4.0)
        self.assertAlmostEqual(values["engine.pool_util"], 12.0 / (4.0 * 4))
        self.assertAlmostEqual(values["obs.trace_overhead"], 10.0 / 8.0)
        self.assertAlmostEqual(values["store.bytes_per_unit"], 5000 / 100)
        # Store time in the engine's metric timer = 3 s - 2 x 1 s wrapped.
        self.assertAlmostEqual(values["store.append_in_sweep_s"], 1.0)
        self.assertAlmostEqual(values["engine.self_s"], 10.0 - 5 - 1 - 2 - 1)
        self.assertEqual(values["metrics.units.kcore"], 2)
        # Probe-only metrics report their samples but are not sweep time.
        self.assertEqual(values["metrics.units.spsp"], 3)
        self.assertEqual(values["metrics.unit_ms_p50.spsp"], 7.0)
        self.assertEqual(values["metrics.units.closeness"], 0)
        self.assertEqual(values["sparsifiers.score_s.ER-uw"], 0.0)
        result = ledger.result(True, 1, 0, values, ledger.per_layer_spec())
        self.assertEqual(len(result["metrics"]),
                         len(ledger.per_layer_spec()))


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(ledger.gate(e2e_raw()), [])
        self.assertEqual(ledger.counts(e2e_raw()), (500, 0))

    def test_export_digest_mismatch_is_detected(self):
        raw = e2e_raw()
        raw["sweeps"][1]["export_digest"] = "e2"
        problems = ledger.gate(raw)
        self.assertEqual(len(problems), 1)
        self.assertIn("store exports differ", problems[0])

    def test_series_mismatch_is_detected(self):
        raw = e2e_raw()
        raw["sweeps"][3]["series_digest"] = "s2"
        self.assertIn("folded series differ", ledger.gate(raw)[0])

    def test_resume_must_submit_nothing_and_match(self):
        raw = e2e_raw()
        raw["resumes"][0]["submitted"] = 3
        raw["resumes"][1]["series_digest"] = "other"
        problems = ledger.gate(raw)
        self.assertEqual(len(problems), 2)
        self.assertIn("1 of 2 resumes submitted units (up to 3", problems[0])
        self.assertIn("1 of 2 resumes folded series that differ",
                      problems[1])

    def test_failed_and_cancelled_units_fail_the_gate(self):
        raw = e2e_raw()
        raw["sweeps"][0]["failed"] = 1
        raw["sweeps"][2]["cancelled"] = 2
        self.assertIn("3 units failed", ledger.gate(raw)[0])
        self.assertEqual(ledger.counts(raw), (500, 3))

    def test_result_requires_every_metric(self):
        values, _ = ledger.e2e_metrics(e2e_raw())
        partial = copy.deepcopy(values)
        del partial["resume_s"]
        with self.assertRaises(KeyError):
            ledger.result(True, 1, 0, partial, ledger.END_TO_END)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics ledger.py reports."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_end_to_end_matches(self):
        listed = [(m["name"], m["unit"], m["better"])
                  for m in self.bench["end_to_end"]]
        self.assertEqual(listed, list(ledger.END_TO_END))

    def test_per_layer_matches(self):
        listed = [(m["name"], m["unit"], m["better"])
                  for m in self.bench["per_layer"]]
        self.assertEqual(listed, list(ledger.per_layer_spec()))

    def test_workloads_and_recorded_digests(self):
        by_name = {w["name"]: w["why"] for w in self.bench["workloads"]}
        for name, why in by_name.items():
            digest = run.WORKLOADS[name]["export_digest_seed42"]
            self.assertIn("export_digest@42=" + digest, why)


if __name__ == "__main__":
    unittest.main()
