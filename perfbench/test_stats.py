"""Unit tests of the latency summary: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_nearest_rank_on_1_to_1000(self):
        s = stats.summary(range(1000, 0, -1))
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p"][50.0], 500)
        self.assertEqual(s["p"][98.0], 980)
        self.assertEqual(s["p"][99.0], 990)
        self.assertEqual(s["beyond"][99.0], 10)
        self.assertEqual(s["top_pct"], 99.0)
        self.assertEqual(s["top"], 990)

    def test_values_are_samples_not_interpolations(self):
        xs = [0.5, 7.25, 3.0, 1.0]
        s = stats.summary(xs)
        self.assertIn(s["p"][50.0], xs)
        self.assertIn(s["p"][99.0], xs)
        self.assertEqual(s["p"][50.0], 1.0)

    def test_top_needs_ten_beyond(self):
        # 999 samples: p99's rank is 990, only 9 above it -> fall to p98.
        s = stats.summary(range(1, 1000))
        self.assertEqual(s["beyond"][99.0], 9)
        self.assertEqual(s["top_pct"], 98.0)
        self.assertEqual(s["top"], 980)
        for n in (20, 100, 500, 5000):
            t = stats.summary(range(n))
            self.assertGreaterEqual(stats.beyond(n, t["top_pct"]), 10)

    def test_too_few_samples(self):
        s = stats.summary([3, 1, 2])
        self.assertIsNone(s["top_pct"])
        self.assertIsNone(s["top"])
        self.assertEqual(s["p"][50.0], 2)

    def test_single_and_empty(self):
        self.assertEqual(stats.summary([4.0])["p"][99.0], 4.0)
        with self.assertRaises(ValueError):
            stats.summary([])


if __name__ == "__main__":
    unittest.main()
