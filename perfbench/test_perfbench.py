"""Tests of the benchmark's own logic (no build, no simulator needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

from run import CheckFailed, rung_ok, serve_capacity  # noqa: E402
from serve import Job, _take_response  # noqa: E402
from stats import (OpenLoopRecord, format_result, highest_tail,  # noqa: E402
                   latency_summary, limit_percentile, nearest_rank, parse_result,
                   samples_beyond, tail_allowed)


class PercentileRule(unittest.TestCase):
    def test_median_only_below_forty_samples(self):
        for n in (1, 10, 39):
            self.assertIsNone(highest_tail(n))
            self.assertFalse(tail_allowed(n, 75))
            self.assertIsNone(latency_summary(list(range(n)), 90)["p90"])
        self.assertEqual(latency_summary([3.0, 1.0, 2.0], 90)["p50"], 2.0)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertEqual(samples_beyond(100, 90), 10)
        self.assertTrue(tail_allowed(100, 90))
        self.assertFalse(tail_allowed(99, 90))
        self.assertEqual(highest_tail(40), 75)
        self.assertEqual(highest_tail(100), 90)
        self.assertEqual(highest_tail(1000), 99)

    def test_p90_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(nearest_rank(values, 90), 90)
        self.assertEqual(latency_summary(values, 90)["p90"], 90)

    def test_limit_check_uses_the_supported_percentile(self):
        self.assertEqual(limit_percentile([0.1] * 20 + [9.0], 0.5), (50, 0.1, True))
        forty = [0.1] * 29 + [9.0] * 11
        self.assertEqual(limit_percentile(forty, 0.5)[:2], (75, 9.0))
        self.assertFalse(limit_percentile(forty, 0.5)[2])


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        record = OpenLoopRecord(due=10.0, released=10.25, done=10.75)
        self.assertAlmostEqual(record.latency, 0.75)
        self.assertAlmostEqual(record.lateness, 0.25)

    def test_early_release_is_not_negative_lateness(self):
        self.assertEqual(OpenLoopRecord(due=5.0, released=4.9).lateness, 0.0)

    def test_unfinished_has_no_latency(self):
        self.assertIsNone(OpenLoopRecord(due=1.0).latency)


def rung(rate, count, miss_latency, hit_latency=0.1):
    """A finished rung: `count` jobs due every 1/rate s, hit, hit, miss, ..."""
    jobs = []
    for k in range(count):
        kind = "hit" if k % 4 < 2 else "miss"
        job = Job(k, b"", kind, k / rate)
        job.result = {}
        job.record.done = job.record.due + (miss_latency if kind == "miss" else hit_latency)
        jobs.append(job)
    return rate, jobs


class CapacityLadder(unittest.TestCase):
    def test_highest_passing_rung_gives_the_achieved_rate(self):
        rungs = [rung(10.0, 200, 0.15), rung(11.0, 16, 0.2), rung(12.1, 16, 0.9)]
        self.assertFalse(rung_ok(rungs[2][1]))
        jobs = rungs[1][1]
        span = jobs[-1].record.done - jobs[0].record.due
        self.assertAlmostEqual(serve_capacity(rungs), 16 / span)

    def test_backlog_fails_a_rung(self):
        _, jobs = rung(10.0, 40, 0.1)
        jobs[-1].record.done = jobs[-1].record.due + 0.6
        self.assertFalse(rung_ok(jobs))

    def test_unfinished_job_fails_a_rung(self):
        _, jobs = rung(10.0, 40, 0.1)
        jobs[5].result = None
        self.assertFalse(rung_ok(jobs))

    def test_failing_base_rung_fails_the_run(self):
        with self.assertRaises(CheckFailed):
            serve_capacity([rung(10.0, 200, 0.7)])


class HttpFraming(unittest.TestCase):
    RESPONSE = (b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n"
                b"Content-Length: 8\r\nConnection: keep-alive\r\n\r\n{\"id\":1}")

    def test_waits_for_head_and_body(self):
        for cut in (10, len(self.RESPONSE) - 1):
            self.assertIsNone(_take_response(self.RESPONSE[:cut]))

    def test_keeps_bytes_of_the_next_response(self):
        status, body, rest = _take_response(self.RESPONSE + b"HTTP/1.1")
        self.assertEqual((status, body, rest), (202, b'{"id":1}', b"HTTP/1.1"))


class ResultLine(unittest.TestCase):
    UNITS = {"latency_ms": "ms", "setup_s": "s"}

    def test_round_trip(self):
        line = format_result(True, 12, 0, {"latency_ms": 1.25, "setup_s": 0.5}, self.UNITS)
        doc = parse_result("build noise\n" + line + "\n")
        self.assertEqual(doc["attempted"], 12)
        self.assertEqual(doc["metrics"]["latency_ms"], {"value": 1.25, "unit": "ms"})

    def test_last_line_wins(self):
        first = format_result(True, 1, 0, {"setup_s": 1.0}, self.UNITS)
        second = format_result(True, 2, 0, {"setup_s": 2.0}, self.UNITS)
        self.assertEqual(parse_result(first + "\n" + second)["attempted"], 2)

    def test_rejects_malformed(self):
        bad = [
            "",
            "not json",
            json.dumps({"correct": True, "attempted": 1, "failed": 0}),
            json.dumps({"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}),
            json.dumps({"correct": True, "attempted": 0, "failed": 0, "metrics": {}}),
            json.dumps({"correct": True, "attempted": 1, "failed": 2, "metrics": {}}),
            json.dumps({"correct": True, "attempted": 1.5, "failed": 0, "metrics": {}}),
            json.dumps({"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"x": {"value": "1", "unit": "s"}}}),
            json.dumps({"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"x": {"value": 1.0}}}),
        ]
        for text in bad:
            with self.assertRaises(ValueError, msg=text):
                parse_result(text)


if __name__ == "__main__":
    unittest.main()
