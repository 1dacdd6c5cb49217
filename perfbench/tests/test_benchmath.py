"""Self-tests of the benchmark's own math. Run with
`python3 perfbench/run.py --selftest` or
`python3 -m unittest discover -s perfbench/tests`."""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchmath  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_selection(self):
        samples = list(range(1, 101))  # 1..100, shuffled order must not matter
        samples.reverse()
        self.assertEqual(benchmath.percentile(samples, 50), 50)
        self.assertEqual(benchmath.percentile(samples, 90), 90)

    def test_p90_refused_below_100_samples(self):
        self.assertIsNone(benchmath.percentile(list(range(99)), 90))
        self.assertEqual(benchmath.percentile(list(range(100)), 90), 89)
        self.assertEqual(benchmath.min_samples_for(90), 100)

    def test_p50_needs_ten_samples_beyond(self):
        self.assertIsNone(benchmath.percentile(list(range(19)), 50))
        self.assertEqual(benchmath.percentile(list(range(20)), 50), 9)
        self.assertEqual(benchmath.min_samples_for(50), 20)

    def test_ten_samples_beyond_every_reported_percentile(self):
        for n in range(1, 300):
            samples = list(range(n))
            for p in (50, 90, 99):
                value = benchmath.percentile(samples, p)
                if value is not None:
                    self.assertGreaterEqual(sum(s > value for s in samples), 10)

    def test_empty_and_out_of_range(self):
        self.assertIsNone(benchmath.percentile([], 50))
        self.assertIsNone(benchmath.percentile(list(range(1000)), 0))

    def test_quartile_spread_matches_statistics_module(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.4]
        q1, q2, q3 = benchmath.quartiles(values)
        self.assertAlmostEqual(benchmath.relative_spread(values),
                               (q3 - q1) / q2)


class FailedOpRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchmath.failed_op_ratio(200, 0), 0.0)
        self.assertEqual(benchmath.failed_op_ratio(200, 3), 0.015)
        self.assertEqual(benchmath.failed_op_ratio(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchmath.failed_op_ratio(0, 0)
        with self.assertRaises(ValueError):
            benchmath.failed_op_ratio(10, 11)
        with self.assertRaises(ValueError):
            benchmath.failed_op_ratio(10, -1)


def span(span_id, parent, start, end, name="s"):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "name": name}


class CalibrationTest(unittest.TestCase):
    def test_reference_speed_leaves_time_unchanged(self):
        ref = benchmath.REFERENCE_CALIBRATION_MS
        self.assertAlmostEqual(
            benchmath.calibrated(250.0, (ref, ref, ref)), 250.0)

    def test_slower_host_scales_time_down(self):
        ref = benchmath.REFERENCE_CALIBRATION_MS
        # Every kernel 1.5x slower: a 1.5x slower op reads as unchanged.
        self.assertAlmostEqual(
            benchmath.calibrated(150.0, (1.5 * ref,) * 3), 100.0)
        # Geometric mean: one of three kernels 8x slower counts as 2x.
        self.assertAlmostEqual(
            benchmath.calibrated(200.0, (8 * ref, ref, ref)), 100.0)

    def test_rejects_missing_or_non_positive_calibration(self):
        for kernels in ((), (0.0, 1.0, 1.0)):
            with self.assertRaises(ValueError):
                benchmath.calibrated(1.0, kernels)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        self.assertEqual(benchmath.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_children_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60),
                 span(4, 2, 12, 20)]
        selfs = benchmath.self_times(spans)
        self.assertEqual(selfs[1], 70)  # 100 - 20 - 10
        self.assertEqual(selfs[2], 12)  # grandchild only counts for its parent
        self.assertEqual(selfs[4], 8)

    def test_overlapping_children_counted_once(self):
        # Children on other threads may overlap; their union is subtracted.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50)]
        self.assertEqual(benchmath.self_times(spans)[1], 60)

    def test_child_clipped_to_parent(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 5, 20)]
        self.assertEqual(benchmath.self_times(spans)[1], 5)

    def test_self_times_sum_to_root_duration(self):
        spans = [span(1, 0, 0, 50), span(2, 1, 5, 25), span(3, 2, 6, 9),
                 span(4, 1, 30, 45)]
        self.assertEqual(sum(benchmath.self_times(spans).values()), 50)


def event(span_id, parent, ts=0.0, dur=1.0, **overrides):
    ev = {"name": "op.save", "ph": "X", "pid": 1, "tid": 1, "ts": ts,
          "dur": dur, "args": {"id": span_id, "parent": parent, "op": 0,
                               "bytes": 0}}
    ev.update(overrides)
    return ev


class TraceValidityTest(unittest.TestCase):
    def test_valid_trace(self):
        doc = {"displayTimeUnit": "ms",
               "traceEvents": [event(1, 0, 0, 10), event(2, 1, 1, 2)]}
        # The document must also survive a JSON round trip unchanged.
        doc = json.loads(json.dumps(doc))
        self.assertEqual(benchmath.validate_trace(doc), [])
        spans = benchmath.trace_spans(doc)
        self.assertEqual(benchmath.self_times(spans), {1: 8.0, 2: 2.0})

    def test_empty_trace_is_valid(self):
        self.assertEqual(benchmath.validate_trace({"traceEvents": []}), [])

    def test_invalid_traces(self):
        self.assertTrue(benchmath.validate_trace([]))
        self.assertTrue(benchmath.validate_trace({"events": []}))
        cases = [
            event(1, 0, ph="B"),
            event(1, 0, dur=-1.0),
            event(1, 0, ts="0"),
            {k: v for k, v in event(1, 0).items() if k != "name"},
            event(0, 0),
        ]
        for bad in cases:
            self.assertTrue(benchmath.validate_trace({"traceEvents": [bad]}),
                            bad)
        self.assertTrue(benchmath.validate_trace(
            {"traceEvents": [event(1, 0), event(1, 0)]}))  # repeated id
        self.assertTrue(benchmath.validate_trace(
            {"traceEvents": [event(2, 7)]}))  # dangling parent


if __name__ == "__main__":
    unittest.main()
