"""Unit tests of the span summarizer: self time and the percentile rule.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summarize  # noqa: E402


def span(span_id, parent, layer, start, end):
    return {"id": span_id, "parent": parent, "tid": 0, "layer": layer,
            "name": layer, "start_s": start, "end_s": end}


class SelfTimeTest(unittest.TestCase):

    def test_leaf_self_time_is_its_duration(self):
        self.assertAlmostEqual(
            summarize.self_times([span(0, -1, "core", 1.0, 3.5)])[0], 2.5)

    def test_children_are_subtracted_from_the_parent(self):
        spans = [span(0, -1, "core", 0.0, 10.0),
                 span(1, 0, "stylo", 1.0, 4.0),
                 span(2, 0, "graph", 5.0, 6.0)]
        selfs = summarize.self_times(spans)
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertAlmostEqual(selfs[2], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, "serve", 0.0, 10.0),
                 span(1, 0, "core", 2.0, 6.0),
                 span(2, 0, "core", 4.0, 8.0)]
        self.assertAlmostEqual(summarize.self_times(spans)[0], 4.0)

    def test_child_outside_the_parent_is_clipped(self):
        spans = [span(0, -1, "core", 0.0, 5.0),
                 span(1, 0, "index", 4.0, 9.0)]
        self.assertAlmostEqual(summarize.self_times(spans)[0], 4.0)

    def test_grandchildren_do_not_reduce_the_grandparent(self):
        spans = [span(0, -1, "core", 0.0, 10.0),
                 span(1, 0, "stylo", 0.0, 4.0),
                 span(2, 1, "text", 0.0, 3.0)]
        selfs = summarize.self_times(spans)
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 1.0)

    def test_fold_busy_time_is_the_union_of_a_layers_spans(self):
        spans = [span(0, -1, "core", 0.0, 4.0),
                 span(1, -1, "core", 2.0, 6.0),
                 span(2, -1, "io", 10.0, 11.0)]
        table = summarize.fold(spans)
        self.assertAlmostEqual(table["core"]["busy_s"], 6.0)
        self.assertAlmostEqual(table["core"]["self_s"], 8.0)
        self.assertEqual(table["core"]["count"], 2)
        self.assertAlmostEqual(table["io"]["busy_s"], 1.0)


class PercentileRuleTest(unittest.TestCase):

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNotNone(summarize.percentile(list(range(1000)), 99))
        self.assertIsNone(summarize.percentile(list(range(999)), 99))

    def test_median_needs_twenty_samples(self):
        self.assertIsNotNone(summarize.percentile(list(range(20)), 50))
        self.assertIsNone(summarize.percentile(list(range(19)), 50))

    def test_nearest_rank_value(self):
        samples = [float(v) for v in range(1, 1001)]
        self.assertEqual(summarize.percentile(samples, 99), 990.0)
        self.assertEqual(summarize.percentile(samples, 50), 500.0)

    def test_highest_reportable_percentile(self):
        self.assertEqual(summarize.highest_percentile(list(range(1000)))[0],
                         99.0)
        self.assertEqual(summarize.highest_percentile(list(range(150)))[0],
                         90.0)
        self.assertIsNone(summarize.highest_percentile(list(range(5))))


if __name__ == "__main__":
    unittest.main()
