"""The benchmark's own tests, on synthetic inputs with no model.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, due-time latency and generator lateness
against a local stand-in server, failures (429s, transport errors) as
misses of the latency limit, the ``max_rate_rps`` rule, host speed
scaling, the tracer's self-time accounting, and that ``BENCHMARK.json``
matches the metric table the driver reports.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


class _StandIn(BaseHTTPRequestHandler):
    """Answers every POST after ``delay_s`` with ``status``."""

    protocol_version = "HTTP/1.1"
    delay_s = 0.05
    status = 200

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        time.sleep(self.delay_s)
        body = json.dumps({"predictions": [{"label": 3}]}).encode()
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class StandInServer:
    def __init__(self, delay_s=0.05, status=200):
        handler = type("H", (_StandIn,), {"delay_s": delay_s,
                                          "status": status})
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class TailPercentileRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(common.samples_beyond(90.0, 100), 10)
        self.assertEqual(common.samples_beyond(90.0, 99), 10)
        self.assertEqual(common.samples_beyond(90.0, 90), 9)
        self.assertEqual(common.samples_beyond(75.0, 41), 10)

    def test_highest_supported_percentile(self):
        self.assertIsNone(common.highest_supported_percentile(10))
        self.assertEqual(common.highest_supported_percentile(21), 50.0)
        self.assertEqual(common.highest_supported_percentile(41), 75.0)
        self.assertEqual(common.highest_supported_percentile(101), 90.0)
        self.assertEqual(common.highest_supported_percentile(1001), 99.0)

    def test_tail_reports_support(self):
        tail = common.tail([float(i) for i in range(101)], 90.0)
        self.assertEqual(tail["value"], 90.0)
        self.assertTrue(tail["supported"])
        self.assertFalse(common.tail([1.0] * 50, 90.0)["supported"])

    def test_percentile_interpolates(self):
        self.assertEqual(common.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(common.percentile([5], 99), 5)


class DueTimeLatency(unittest.TestCase):
    def test_outcome_arithmetic(self):
        o = loadgen.Outcome(0, due=1.0, picked=1.1, sent=1.105, done=1.2,
                            status=200)
        self.assertAlmostEqual(o.latency, 0.2)
        self.assertAlmostEqual(o.service, 0.095)
        self.assertAlmostEqual(o.lag, 0.005)
        early = loadgen.Outcome(0, due=2.0, picked=1.5, sent=2.001,
                                done=2.1, status=200)
        self.assertAlmostEqual(early.lag, 0.001)

    def test_queued_requests_are_timed_from_due(self):
        # Three requests due together on one connection: the second and
        # third wait for the first, and that wait is in their latency.
        with StandInServer(delay_s=0.05) as server:
            result = loadgen.run_open_loop(
                "127.0.0.1", server.port, [(0.0, b"{}")] * 3,
                connections=1, backlog_s=10.0)
        latencies = sorted(o.latency for o in result.outcomes)
        self.assertEqual(len(latencies), 3)
        for k, latency in enumerate(latencies, start=1):
            self.assertGreaterEqual(latency, 0.05 * k)
        # The generator itself was prompt: lateness excludes the wait
        # for a free connection.
        self.assertLess(max(o.lag for o in result.outcomes), 0.02)

    def test_growing_backlog_abandons_the_rest(self):
        with StandInServer(delay_s=0.1) as server:
            result = loadgen.run_open_loop(
                "127.0.0.1", server.port, [(0.0, b"{}")] * 10,
                connections=1, backlog_s=0.15)
        self.assertGreater(result.abandoned, 0)
        verdict = common.rung_verdict(
            [o.latency for o in result.outcomes], 0, result.abandoned > 0,
            limit_s=10.0)
        self.assertFalse(verdict["meets"])


class FailuresMissTheLimit(unittest.TestCase):
    request = {"rows": 1, "accept": [[3]]}

    def test_429_is_a_failure(self):
        with StandInServer(delay_s=0.0, status=429) as server:
            result = loadgen.run_open_loop(
                "127.0.0.1", server.port, [(0.0, b"{}")], connections=1)
        outcome = result.outcomes[0]
        self.assertEqual(outcome.status, 429)
        self.assertFalse(run._check_reply(outcome, self.request))
        verdict = common.rung_verdict([outcome.latency], 1, False, 10.0)
        self.assertFalse(verdict["meets"])

    def test_transport_error_is_a_failure(self):
        port = run._free_port()     # nothing listens there
        result = loadgen.run_open_loop("127.0.0.1", port, [(0.0, b"{}")],
                                       connections=1, timeout_s=2.0)
        outcome = result.outcomes[0]
        self.assertIsNone(outcome.status)
        self.assertIsNotNone(outcome.error)
        self.assertFalse(run._check_reply(outcome, self.request))

    def test_wrong_label_or_row_count_is_a_failure(self):
        ok = loadgen.Outcome(0, 0, 0, 0, 0, 200,
                             data=b'{"predictions": [{"label": 3}]}')
        self.assertTrue(run._check_reply(ok, self.request))
        self.assertFalse(run._check_reply(ok, {"rows": 1,
                                               "accept": [[4]]}))
        self.assertFalse(run._check_reply(ok, {"rows": 2,
                                               "accept": [[3], [3]]}))

    def test_one_failure_fails_a_fast_rung(self):
        verdict = common.rung_verdict([0.001] * 100, 1, False, 1.0)
        self.assertFalse(verdict["meets"])
        self.assertTrue(common.rung_verdict([0.001] * 100, 0, False,
                                            1.0)["meets"])


class MaxRateRule(unittest.TestCase):
    @staticmethod
    def rung(rate, p99, failures=0, backlogged=False):
        return {"rate": rate, "verdict": common.rung_verdict(
            [p99], failures, backlogged, limit_s=0.25)}

    def test_highest_meeting_rung(self):
        rungs = [self.rung(10, 0.05), self.rung(60, 0.2),
                 self.rung(120, 0.9)]
        self.assertEqual(common.max_rate(rungs)["rate"], 60)

    def test_failures_and_backlog_disqualify(self):
        rungs = [self.rung(10, 0.05), self.rung(60, 0.1, failures=1),
                 self.rung(120, 0.1, backlogged=True)]
        self.assertEqual(common.max_rate(rungs)["rate"], 10)

    def test_nothing_meets(self):
        self.assertIsNone(common.max_rate([self.rung(10, 1.0)]))


class HostSpeedScaling(unittest.TestCase):
    """Groups are scaled by the references on either side of them."""

    window = {"latencies": [0.1, 0.1, 0.2, 0.2],
              "refs": [run.hostspeed.REFERENCE_S,
                       run.hostspeed.REFERENCE_S,
                       3 * run.hostspeed.REFERENCE_S]}

    def test_group_factors(self):
        self.assertEqual([f for _, f in run.groups([self.window], 2)],
                         [1.0, 2.0])

    def test_rate_and_latencies_at_reference_speed(self):
        # The second group ran on a host twice as slow, at half the rate.
        self.assertAlmostEqual(run.median_rate([self.window], 1.0, 2), 10.0)
        self.assertAlmostEqual(
            run.median_rate([self.window], 1.0, 2, scaled=False), 7.5)
        for got, want in zip(run.scaled_latencies([self.window], 2),
                             [0.1, 0.1, 0.1, 0.1]):
            self.assertAlmostEqual(got, want)

    def test_reference_pass_is_timed(self):
        self.assertGreater(run.hostspeed.reference_s(passes=1), 0.0)


class TracerSelfTime(unittest.TestCase):
    def test_self_time_excludes_children_and_restore(self):
        class Layer:
            def outer(self):
                time.sleep(0.02)
                return self.inner()

            def inner(self):
                time.sleep(0.03)
                return 7

        original = Layer.__dict__["outer"]
        tr = Tracer()
        tr.wrap(Layer, "outer", "outer")
        tr.wrap(Layer, "inner", "inner")
        self.assertEqual(Layer().outer(), 7)
        tr.restore()
        self.assertIs(Layer.__dict__["outer"], original)
        s = tr.summary()
        self.assertEqual(s["calls"], {"outer": 1, "inner": 1})
        self.assertGreaterEqual(s["self_s"]["inner"], 0.03)
        self.assertLess(s["self_s"]["outer"], s["incl_s"]["outer"] - 0.029)
        self.assertAlmostEqual(s["self_s"]["outer"] + s["self_s"]["inner"],
                               s["incl_s"]["outer"], places=6)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_matches_the_metric_table(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["end_to_end"]],
            list(metrics.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["per_layer"]],
            [row[:3] for row in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(set(common.TAIL_PERCENTILE), set(run.WORKLOADS))

    def test_contract_limits(self):
        names = [m["name"] for m in self.bench["end_to_end"]] + \
            [m["name"] for m in self.bench["per_layer"]] + \
            [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.bench["end_to_end"]
                 if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(
            m["bound"] for m in self.bench["end_to_end"]))
        for w in self.bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(all(re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", p)
                            for p in self.bench["paths"]))


if __name__ == "__main__":
    unittest.main()
