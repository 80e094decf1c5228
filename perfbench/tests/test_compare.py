"""Self-tests for perfbench/compare.py: quartile math, win share, pairing,
the verdict rules and invalid change runs.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402


def rec(seed, value, name="query_p50_ms", workload="query", trace=0,
        correct=True, failed=0):
    return {"workload": workload, "trace": trace, "seed": seed,
            "metrics": {name: {"value": value, "unit": "ms"}},
            "phases": [{"name": "closed_loop", "attempted": 100,
                        "succeeded": 100 - failed}],
            "checks": {"correct": correct}}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(compare.quartiles(values), [2.75, 5.5, 8.25])
        self.assertEqual(compare.quartiles(values),
                         statistics.quantiles(values, n=4))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([4.0]), [4.0, 4.0, 4.0])


class WinShareTest(unittest.TestCase):
    def test_ties_count_for_neither(self):
        pairs = [(10, 9), (10, 10), (10, 11), (10, 8)]
        self.assertEqual(compare.win_share(pairs, "lower"), 0.5)
        self.assertEqual(compare.win_share(pairs, "higher"), 0.25)

    def test_pairs_by_seed_then_order(self):
        parent = [rec(2, 1.0), rec(1, 2.0)]
        change = [rec(1, 3.0), rec(2, 4.0)]
        by_seed = compare.pair_up(parent, change)
        self.assertEqual([(p["seed"], c["seed"]) for p, c in by_seed],
                         [(1, 1), (2, 2)])
        other = [rec(5, 3.0), rec(6, 4.0)]
        in_order = compare.pair_up(parent, other)
        self.assertEqual([(p["seed"], c["seed"]) for p, c in in_order],
                         [(2, 5), (1, 6)])


class VerdictTest(unittest.TestCase):
    def v(self, parent, change, better="lower", bound=0.1):
        pairs = list(zip(parent, change))
        return compare.verdict(parent, change, pairs, better, bound)

    def test_improved_needs_nine_tenths_and_spread(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [9.0 + 0.1 * i for i in range(10)]
        self.assertEqual(self.v(parent, change), "improved")
        # Nine pairs are not enough for a claim.
        self.assertEqual(self.v(parent[:9], change[:9]), "unchanged")

    def test_win_share_below_nine_tenths_is_no_claim(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [11.0] * 2
        self.assertEqual(self.v(parent, change), "unchanged")

    def test_worse_beyond_bound(self):
        parent = [10.0] * 10
        self.assertEqual(self.v(parent, [11.5] * 10), "worse")
        self.assertEqual(self.v(parent, [10.5] * 10), "unchanged")
        # Higher-is-better metrics flip the direction.
        self.assertEqual(self.v(parent, [8.5] * 10, better="higher"), "worse")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0, 8.0, 9.0, 10.0, 11.0, 12.0]
        change = [10.2] * 10
        self.assertEqual(self.v(parent, change), "unresolved")

    def test_per_layer_without_bound(self):
        parent = [10.0] * 10
        self.assertEqual(self.v(parent, [9.0] * 10, bound=None), "improved")
        self.assertEqual(self.v(parent, [11.0] * 10, bound=None), "worse")
        self.assertEqual(self.v(parent, [10.0] * 10, bound=None), "unresolved")


class CompareTest(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "query_p50_ms", "unit": "ms",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}

    def test_rows_per_workload_and_metric(self):
        parent = {("query", 0): [rec(s, 10.0) for s in range(10)]}
        change = {("query", 0): [rec(s, 9.0) for s in range(10)]}
        rows = compare.compare(parent, change, self.SPEC)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["verdict"], "improved")
        self.assertEqual(rows[0]["win_share"], 1.0)
        self.assertEqual(rows[0]["parent"]["median"], 10.0)
        self.assertIsNone(rows[0]["invalid"])

    def test_failed_checks_make_a_gain_invalid(self):
        parent = {("query", 0): [rec(s, 10.0) for s in range(10)]}
        change = {("query", 0): [rec(s, 9.0, correct=s != 3)
                                 for s in range(10)]}
        rows = compare.compare(parent, change, self.SPEC)
        self.assertEqual(rows[0]["verdict"], "invalid")
        self.assertIn("output checks", rows[0]["invalid"])

    def test_more_failed_operations_make_a_gain_invalid(self):
        parent = {("query", 0): [rec(s, 10.0, failed=1 if s == 0 else 0)
                                 for s in range(10)]}
        change = {("query", 0): [rec(s, 9.0, failed=1 if s < 2 else 0)
                                 for s in range(10)]}
        rows = compare.compare(parent, change, self.SPEC)
        self.assertEqual(rows[0]["verdict"], "invalid")
        self.assertIn("failed 2 operations, parent runs 1", rows[0]["invalid"])
        # As many failures as the parent is no reason to discard the runs.
        same = {("query", 0): [rec(s, 9.0, failed=1 if s == 5 else 0)
                               for s in range(10)]}
        rows = compare.compare(parent, same, self.SPEC)
        self.assertEqual(rows[0]["verdict"], "improved")


if __name__ == "__main__":
    unittest.main()
