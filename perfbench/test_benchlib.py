"""Tests of the benchmark's own helpers:  python3 -m unittest discover perfbench"""

import unittest

import benchlib


def span(name, span_id, parent, ts, dur, pid=0):
    return {"ph": "X", "pid": pid, "name": name, "ts": ts, "dur": dur,
            "args": {"span": span_id, "parent": parent}}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(benchlib.percentile(samples, 50), 50)
        self.assertEqual(benchlib.percentile(samples, 99), 99)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_wanted_percentile_kept_with_ten_beyond(self):
        self.assertEqual(benchlib.reportable_percentile(1000, 99), 99)
        self.assertEqual(benchlib.reportable_percentile(100, 90), 90)

    def test_highest_percentile_with_ten_beyond(self):
        # 999 samples leave only 9 beyond p99: fall back to the highest
        # percentile that still leaves ten.
        p = benchlib.reportable_percentile(999, 99)
        self.assertLess(p, 99)
        self.assertEqual(999 - int(-(-p * 999 // 100)), 10)
        self.assertEqual(benchlib.reportable_percentile(110, 99), 90.9)

    def test_few_samples_report_the_median(self):
        self.assertEqual(benchlib.reportable_percentile(8, 99), 50.0)
        value, used = benchlib.tail([3.0, 1.0, 2.0], 90)
        self.assertEqual((value, used), (2.0, 50.0))


class SpanFold(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        events = [
            span("root", 1, 0, 0, 100),
            span("child", 2, 1, 10, 30),
            span("grandchild", 3, 2, 15, 10),
            span("child", 4, 1, 50, 20),
            {"ph": "i", "pid": 0, "name": "mark", "ts": 12, "args": {"span": 2, "parent": 0}},
        ]
        folded = benchlib.fold_spans(events)
        self.assertEqual(folded["root"]["self_us"], 50)
        self.assertEqual(folded["root"]["incl_us"], 100)
        self.assertEqual(folded["child"]["count"], 2)
        self.assertEqual(sorted(folded["child"]["self"]), [20, 20])
        self.assertEqual(folded["grandchild"]["self_us"], 10)

    def test_overlapping_children_count_once(self):
        events = [span("p", 1, 0, 0, 10), span("c", 2, 1, 2, 4), span("c", 3, 1, 4, 4)]
        self.assertEqual(benchlib.fold_spans(events)["p"]["self_us"], 4)

    def test_open_span_ends_with_its_last_child(self):
        events = [span("loop", 1, 0, 5, 0), span("work", 2, 1, 10, 5), span("work", 3, 1, 20, 5)]
        loop = benchlib.fold_spans(events)["loop"]
        self.assertEqual(loop["incl_us"], 20)
        self.assertEqual(loop["self_us"], 10)

    def test_pids_keep_span_ids_apart(self):
        events = [span("a", 1, 0, 0, 10, pid=0), span("b", 1, 0, 0, 10, pid=1),
                  span("c", 2, 1, 0, 10, pid=1)]
        folded = benchlib.fold_spans(events)
        self.assertEqual(folded["a"]["self_us"], 10)
        self.assertEqual(folded["b"]["self_us"], 0)

    def test_dropped_spans_are_detected(self):
        self.assertFalse(benchlib.spans_dropped([span("a", 1, 0, 0, 1), span("a", 2, 0, 1, 1)]))
        self.assertTrue(benchlib.spans_dropped([span("a", 1, 0, 0, 1), span("a", 3, 0, 1, 1)]))


class VmHWM(unittest.TestCase):
    def test_parses_peak_rss(self):
        text = "Name:\tredoptd\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n"
        self.assertEqual(benchlib.parse_vmhwm_mb(text), 5.0)

    def test_missing_line_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.parse_vmhwm_mb("Name:\tx\nVmRSS:\t1 kB\n")


if __name__ == "__main__":
    unittest.main()
