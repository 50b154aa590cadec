"""Self-test of the benchmark's own arithmetic on synthetic spans.

    python3 bench/selftest.py

Runs in well under a second and needs neither numpy nor tailtest.
"""

from __future__ import annotations

import sys
import tracemalloc
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans as sp  # noqa: E402
from tracing import Tracer  # noqa: E402


def span(name, parent, start, end, **counts):
    return sp.Span(name=name, parent=parent, start=start, end=end, counts=counts)


def layer(spans, **totals):
    kw = {"untraced_wall_s": 0.0, "setup_s": 0.0, "calls": 1, "bytes_written": 0}
    kw.update(totals)
    return sp.layer_metrics(spans, **kw)


class Median(unittest.TestCase):
    def test_odd_even_and_unsorted(self):
        self.assertEqual(sp.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(sp.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(sp.median([7]), 7)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            sp.median([])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("root", None, 0.0, 10.0),
                 span("a", 0, 1.0, 3.0),
                 span("b", 0, 4.0, 8.0),
                 span("a.x", 1, 1.5, 2.0)]
        self.assertEqual(sp.self_times(spans), [4.0, 1.5, 4.0, 0.5])

    def test_overlapping_and_overhanging_children_count_once(self):
        self.assertEqual(sp.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]), 5.0)
        self.assertEqual(sp.covered(0.0, 10.0, []), 0.0)
        self.assertEqual(sp.covered(2.0, 3.0, [(0.0, 1.0)]), 0.0)


class LayerMetrics(unittest.TestCase):
    def full_test_spans(self):
        # cli 0..10: sample_splits 1..8 holds sample 1..3 (quantile 2..2.5)
        # and, from 4 on, four 1 s from_samples, each ending in a 0.25 s
        # validation; the decision 8..9 reads 4 x 13 order statistics.
        spans = [span(sp.CLI, None, 0.0, 10.0),
                 span(sp.SPLITS[0], 0, 1.0, 8.0),
                 span(sp.SAMPLE, 1, 1.0, 3.0, values=400),
                 span(sp.QUANTILE, 2, 2.0, 2.5)]
        for j in range(4):
            t = 4.0 + j
            spans.append(span(sp.FROM_SAMPLES, 1, t, t + 1.0, values=100))
            spans.append(span(sp.VALIDATE, len(spans) - 1, t + 0.75, t + 1.0))
        spans.append(span(sp.DECIDE[0], 0, 8.0, 9.0, buckets=13, degenerate=2,
                          order_stats_read=52))
        spans.append(span(sp.SERIALIZE, 0, 9.0, 9.5, bytes=2317))
        return spans

    def test_full_test_breakdown(self):
        m = layer(self.full_test_spans(), untraced_wall_s=10.5, setup_s=0.75,
                  bytes_written=2317)
        self.assertEqual(m["distributions.sample_s"], 2.0)
        self.assertEqual(m["distributions.quantile_s"], 0.5)
        self.assertEqual(m["distributions.uniform_s"], 1.5)
        self.assertEqual(m["distributions.values"], 400)
        self.assertEqual(m["empirical.sort_s"], 3.0)
        self.assertEqual(m["empirical.validate_s"], 1.0)
        self.assertEqual(m["empirical.values_sorted"], 400)
        self.assertEqual(m["empirical.order_stats_read"], 52)
        self.assertEqual(m["empirical.read_ratio"], 0.13)
        self.assertEqual(m["tester.buckets"], 13)
        self.assertEqual(m["tester.degenerate_buckets"], 2)
        self.assertAlmostEqual(m["tester.us_per_bucket"], 1e6 / 13)
        self.assertEqual(m["harness.split_self_s"], 1.0)
        self.assertEqual(m["harness.serialize_s"], 0.5)
        self.assertEqual(m["harness.report_bytes"], 2317)
        self.assertEqual(m["cli.self_s"], 1.5)
        self.assertEqual(m["trace.overhead_s"], 0.25)
        self.assertEqual(m["harness.load_s"], 0.0)
        self.assertEqual(m["harness.load_values_per_s"], 0.0)

    def test_quantile_outside_sample_is_not_sampling_time(self):
        spans = [span(sp.CLI, None, 0.0, 4.0),
                 span(sp.REPLICATE, 0, 0.0, 4.0),
                 span(sp.PROXY, 1, 1.0, 3.0),
                 span(sp.QUANTILE, 2, 1.0, 2.0)]
        m = layer(spans)
        self.assertEqual(m["distributions.quantile_s"], 0.0)
        self.assertEqual(m["proxy.overlay_s"], 2.0)
        self.assertEqual(m["proxy.calls"], 1)
        self.assertEqual(m["harness.replicate_self_s"], 2.0)

    def test_load_self_time_and_rate(self):
        spans = [span(sp.CLI, None, 0.0, 6.0),
                 span(sp.LOAD, 0, 0.0, 5.0, values=2_000_001),
                 span(sp.FROM_SAMPLES, 1, 4.0, 5.0, values=2_000_001)]
        m = layer(spans)
        self.assertEqual(m["harness.load_s"], 4.0)
        self.assertEqual(m["harness.load_values_per_s"], 500_000.25)
        self.assertEqual(m["empirical.sort_s"], 1.0)

    def test_every_metric_has_a_unit(self):
        self.assertEqual(set(layer([])), set(sp.LAYER_UNITS))


class TracerPeaks(unittest.TestCase):
    def test_child_peak_folds_into_parent(self):
        tracer = Tracer()

        def child():
            block = bytearray(4_000_000)
            return len(block)

        def parent():
            keep = bytearray(1_000_000)
            tracer.call("child", child)
            return len(keep)

        tracemalloc.start()
        try:
            tracer.call("parent", parent)
        finally:
            tracemalloc.stop()
        parent_span, child_span = tracer.spans
        self.assertEqual(child_span.parent, 0)
        self.assertGreaterEqual(child_span.peak_bytes, 4_000_000)
        self.assertLess(child_span.peak_bytes, 4_100_000)
        self.assertGreaterEqual(parent_span.peak_bytes, 5_000_000)
        self.assertLess(parent_span.peak_bytes, 5_100_000)


if __name__ == "__main__":
    unittest.main()
