"""Unit cases for the benchmark's statistics: the tail-percentile rule,
quartiles and spread, span self time and coverage, win counting, the
same-host verdicts and run pairing.

    python3 -m unittest discover -s perfbench/tests
"""
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchstats as bs  # noqa: E402


def span(sid, name, start, end, parent=0, group=1):
    return {"id": sid, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "group": group, "items": 0, "bytes": 0}


class TailPercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(bs.tail_percentile(0))
        self.assertIsNone(bs.tail_percentile(99))   # p90 has 9.9 beyond
        self.assertEqual(bs.tail_percentile(100), 90.0)
        self.assertEqual(bs.tail_percentile(999), 90.0)   # p99 has 9.99 beyond
        self.assertEqual(bs.tail_percentile(1000), 99.0)
        self.assertEqual(bs.tail_percentile(9999), 99.0)
        self.assertEqual(bs.tail_percentile(10000), 99.9)
        self.assertEqual(bs.tail_percentile(10 ** 7), 99.9)

    def test_named_tail_support(self):
        self.assertFalse(bs.tail_supported(999, 99))
        self.assertTrue(bs.tail_supported(1000, 99))
        self.assertFalse(bs.tail_supported(99, 90))
        self.assertTrue(bs.tail_supported(100, 90))

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(bs.percentile(values, 50), 50.5)
        self.assertAlmostEqual(bs.percentile(values, 90), 90.1)
        self.assertEqual(bs.percentile(values, 100), 100)
        self.assertEqual(bs.percentile([7.0], 99), 7.0)
        self.assertEqual(bs.percentile([3, 1, 2], 0), 1)

    def test_percentile_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            bs.percentile([], 50)


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = bs.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.spread(values), (q3 - q1) / q2)
        self.assertEqual(bs.spread([4.0, 4.0, 4.0]), 0.0)

    def test_single_value(self):
        self.assertEqual(bs.quartiles([2.5]), (2.5, 2.5, 2.5))


class Spans(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertEqual(bs.union_length([]), 0)
        self.assertEqual(bs.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(bs.union_length([(20, 25), (0, 10), (10, 12)]), 17)

    def test_self_time_subtracts_children(self):
        spans = [span(1, "bench.pass", 0, 100),
                 span(2, "faultsim.run", 10, 40, parent=1),
                 span(3, "loggen.build_corpus", 40, 90, parent=1),
                 span(4, "inner", 50, 60, parent=3)]
        selfs = bs.self_times(spans)
        self.assertEqual(selfs, {1: 20, 2: 30, 3: 40, 4: 10})

    def test_coverage_counts_outermost_layer_spans(self):
        spans = [span(1, "bench.pass", 0, 100),
                 span(2, "bench.scenario", 0, 100, parent=1),
                 span(3, "faultsim.run", 0, 50, parent=2),
                 span(4, "core.analyze", 60, 95, parent=2),
                 span(5, "nested", 61, 99, parent=4),  # inside a layer: not counted
                 span(6, "bench.pass", 200, 300, group=2),
                 span(7, "parsers.ingest_files", 200, 300, parent=6, group=2)]
        self.assertEqual(bs.coverage(spans, "bench.pass"), [0.85, 1.0])


class Wins(unittest.TestCase):
    def test_lower_is_better(self):
        pairs = [(10, 9), (10, 11), (10, 10), (5, 4)]
        self.assertEqual(bs.count_wins(pairs, "lower"), (2, 1, 1))

    def test_higher_is_better(self):
        pairs = [(10, 9), (10, 11), (10, 10), (5, 4)]
        self.assertEqual(bs.count_wins(pairs, "higher"), (1, 2, 1))


class Verdicts(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_too_few_pairs_is_unresolved(self):
        pairs = list(zip(self.base[:9], [v * 0.5 for v in self.base[:9]]))
        self.assertEqual(bs.verdict(pairs, "lower", 0.1)[0], "unresolved")

    def test_clear_gain(self):
        pairs = list(zip(self.base, [v * 0.8 for v in self.base]))
        verdict, d = bs.verdict(pairs, "lower", 0.1)
        self.assertEqual(verdict, "gain")
        self.assertEqual(d["wins"], 10)

    def test_nine_of_ten_wins_still_gains(self):
        head = [v * 0.8 for v in self.base]
        head[3] = self.base[3] + 1  # one loss
        verdict, d = bs.verdict(list(zip(self.base, head)), "lower", 0.1)
        self.assertEqual((verdict, d["wins"]), ("gain", 9))

    def test_eight_of_ten_wins_is_not_a_gain(self):
        head = [v * 0.95 for v in self.base]
        head[3] = self.base[3] + 1
        head[4] = self.base[4] + 1
        verdict, d = bs.verdict(list(zip(self.base, head)), "lower", 0.1)
        self.assertEqual(d["wins"], 8)
        self.assertEqual(verdict, "same")

    def test_median_shift_inside_base_iqr_is_not_a_gain(self):
        head = [v - 0.01 for v in self.base]  # wins every pair, moves nothing
        verdict, d = bs.verdict(list(zip(self.base, head)), "lower", 0.1)
        self.assertEqual(d["wins"], 10)
        self.assertEqual(verdict, "same")

    def test_regression_beyond_bound(self):
        pairs = list(zip(self.base, [v * 1.2 for v in self.base]))
        self.assertEqual(bs.verdict(pairs, "lower", 0.1)[0], "regression")
        self.assertEqual(bs.verdict(pairs, "higher", 0.1)[0], "gain")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0]
        pairs = list(zip(noisy, [v * 1.05 for v in noisy]))
        self.assertEqual(bs.verdict(pairs, "lower", 0.1)[0], "unresolved")

    def test_wide_spread_but_every_run_better_resolves(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0]
        head = [v / 10.0 for v in noisy]
        self.assertEqual(bs.verdict(list(zip(noisy, head)), "lower", 0.1)[0], "gain")


class Pairing(unittest.TestCase):
    def test_alternating_runs_pair_up(self):
        base = [{"started": t, "v": "b%d" % t} for t in (1, 4, 5)]
        head = [{"started": t, "v": "h%d" % t} for t in (2, 3, 6)]
        pairs = bs.pair_runs(base, head)
        self.assertEqual([(b["v"], h["v"]) for b, h in pairs],
                         [("b1", "h2"), ("b4", "h3"), ("b5", "h6")])

    def test_same_side_twice_in_a_pair_is_rejected(self):
        base = [{"started": 1}, {"started": 2}]
        head = [{"started": 3}, {"started": 4}]
        with self.assertRaises(ValueError):
            bs.pair_runs(base, head)

    def test_odd_count_is_rejected(self):
        with self.assertRaises(ValueError):
            bs.pair_runs([{"started": 1}], [])


if __name__ == "__main__":
    unittest.main()
