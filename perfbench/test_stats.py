"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def rec(rid, outcome=stats.OK, due=0.0, sent=0.0, done=1.0, conn=0, rr=-1.0,
        qid=-1):
    return [rid, conn, due, sent, done, outcome, rr, qid]


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in (11, 20, 100, 180, 400, 999, 1000, 1800, 100000):
            q = stats.tail_percentile(n)
            beyond = n - math.ceil(q / 100.0 * n)
            if q > 50:
                self.assertGreaterEqual(beyond, 10, n)
            if q < 99:
                nxt = n - math.ceil((q + 1) / 100.0 * n)
                self.assertLess(nxt, 10, n)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(999), 98)
        self.assertEqual(stats.tail_percentile(400), 97)

    def test_reported_value_is_that_percentile(self):
        records = [rec(i, done=float(i)) for i in range(1, 401)]
        p50, tail, q, n = stats.latency_summary(records)
        self.assertEqual((q, n), (97, 400))
        self.assertEqual(tail, 388.0)  # 12 samples lie beyond it
        self.assertEqual(p50, 200.0)


    def test_windowed_tail_is_the_median_window(self):
        # Three windows of 1000; one has a burst of slow requests.
        records = []
        for w in range(3):
            for i in range(1000):
                slow = w == 1 and i < 100
                records.append(rec(w * 1000 + i, due=float(w * 1000 + i),
                                   done=w * 1000 + i + (50.0 if slow else
                                                        1.0 + i / 1000.0)))
        value, q, k = stats.windowed_tail(records)
        self.assertEqual((q, k), (99, 3))
        self.assertAlmostEqual(value, 1.0 + 989 / 1000.0)

    def test_closed_loop_qps_counts_successes_inside_the_phase(self):
        records = [rec(i, done=float(t)) for i, t in
                   enumerate([10, 20, 1100, 1999, 2000, 2500])]
        records.append(rec(9, stats.RTRY, done=30.0))
        self.assertEqual(stats.closed_loop_qps(records, 0.0, 2000.0), 2.0)


class FailureCountTest(unittest.TestCase):
    def test_every_failure_kind_counts_against_attempted(self):
        kinds = [stats.LOST, stats.RTRY, stats.ERRR, stats.DEGRADED,
                 stats.MISMATCH]
        records = [rec(1), rec(2)] + [rec(10 + i, k) for i, k in
                                      enumerate(kinds)]
        attempted, failed, by_kind = stats.count_failures(records)
        self.assertEqual(attempted, 7)
        self.assertEqual(failed, 5)
        self.assertEqual(sorted(by_kind),
                         ["degraded", "errr", "lost", "mismatch", "rtry"])

    def test_failures_miss_every_latency_limit(self):
        records = [rec(i, done=1.0) for i in range(99)] + [
            rec(99, stats.LOST, done=-1.0)]
        self.assertTrue(math.isinf(max(stats.latencies(records))))

    def test_failed_mondial_request_scores_zero_rank(self):
        records = [rec(1, rr=1.0, qid=0), rec(2, stats.MISMATCH, rr=1.0, qid=1),
                   rec(3, rr=-1.0)]
        self.assertEqual(stats.mean_reciprocal_rank(records), 0.5)

    def test_mrr_counts_each_distinct_query_once(self):
        records = [rec(1, sent=0.0, rr=1.0, qid=0),
                   rec(2, sent=1.0, rr=1.0, qid=0),
                   rec(3, sent=2.0, rr=0.5, qid=1)]
        self.assertEqual(stats.mean_reciprocal_rank(records), 0.75)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_only_covered_intervals(self):
        # Overlapping children count once; parts outside the span do not.
        span = (0.0, 10.0)
        children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-5.0, -1.0)]
        self.assertAlmostEqual(stats.self_time(span, children), 10 - 3 - 2)

    def test_no_children(self):
        self.assertEqual(stats.self_time((2.0, 5.0), []), 3.0)

    def test_child_longer_than_parent_leaves_zero(self):
        self.assertEqual(stats.self_time((0.0, 4.0), [(0.0, 9.0)]), 0.0)

    def test_span_tree_uses_direct_children_only(self):
        spans = [[7, 1, 0, "net.request", 0.0, 10.0],
                 [7, 2, 1, "serve.submit", 0.0, 6.0],
                 [7, 3, 2, "core.answer", 0.0, 5.0]]
        tree = stats.SpanTree(spans)
        self.assertEqual(tree.self_ms(spans[0]), 4.0)
        self.assertEqual(tree.self_ms(spans[1]), 1.0)
        self.assertEqual(tree.self_ms(spans[2]), 5.0)


class StallTest(unittest.TestCase):
    def test_reply_right_after_next_send_is_stalled(self):
        # Interval 10 ms. Request 1 is answered 0.2 ms after request 2 is
        # sent (held); request 2 is answered promptly.
        records = [rec(1, due=0.0, sent=0.0, done=10.2),
                   rec(2, due=10.0, sent=10.0, done=11.0),
                   rec(3, due=20.0, sent=20.0, done=21.0)]
        self.assertEqual(stats.stalled_replies(records, 10.0), (1, 2))

    def test_connections_are_separate(self):
        records = [rec(1, conn=0, sent=0.0, done=10.2),
                   rec(2, conn=1, sent=10.0, done=11.0)]
        self.assertEqual(stats.stalled_replies(records, 10.0), (0, 0))


if __name__ == "__main__":
    unittest.main()
