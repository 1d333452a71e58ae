"""The HTTP tier: policy units (socket-free) and real-socket round trips.

The frontend's auth / throttle / admission decisions are plain functions
tested without a socket; the round-trip half drives a live
``HttpServer`` over ``127.0.0.1`` and pins the headline contract — rows
served over HTTP are bitwise identical to the direct in-process
``Server`` serving the same stream (at ``max_batch=1``, where batch
composition is identical by construction).
"""

import http.client
import json
import socket

import numpy as np
import pytest

from repro.data import load_split
from repro.models import build_classifier
from repro.serve import (
    AdmissionController,
    ApiKeyAuth,
    HttpClient,
    HttpFrontend,
    HttpServer,
    ModelRegistry,
    RateLimiter,
    Server,
    TokenBucket,
    parse_api_keys,
)


@pytest.fixture(scope="module")
def split():
    return load_split("digits", 64, 48, seed=7)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# --------------------------------------------------------------------- #
# policy units
# --------------------------------------------------------------------- #
def test_parse_api_keys():
    assert parse_api_keys("a:1,b:two") == {"a": "1", "b": "two"}
    assert parse_api_keys("a:key:with:colons") == {"a": "key:with:colons"}
    with pytest.raises(ValueError, match="expected client:key"):
        parse_api_keys("nokey")
    with pytest.raises(ValueError, match="expected client:key"):
        parse_api_keys(":key")
    with pytest.raises(ValueError, match="duplicate"):
        parse_api_keys("a:1,a:2")


def test_api_key_auth_identifies_and_rejects():
    auth = ApiKeyAuth({"alice": "s3cret", "bob": "hunter2"})
    assert auth.enabled
    assert auth.identify("s3cret") == "alice"
    assert auth.identify("hunter2") == "bob"
    assert auth.identify("wrong") is None
    assert auth.identify(None) is None
    assert not ApiKeyAuth().enabled
    # Bare iterables get positional identities.
    assert ApiKeyAuth(["k0", "k1"]).identify("k1") == "client-1"


def test_api_key_header_extraction():
    assert ApiKeyAuth.presented_key({"Authorization": "Bearer abc"}) == "abc"
    assert ApiKeyAuth.presented_key({"X-API-Key": "xyz"}) == "xyz"
    # Authorization wins when both are present.
    assert ApiKeyAuth.presented_key(
        {"Authorization": "Bearer a", "X-API-Key": "b"}) == "a"
    assert ApiKeyAuth.presented_key({}) is None
    assert ApiKeyAuth.presented_key({"Authorization": "Basic abc"}) is None


def test_token_bucket_exact_under_fake_clock():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
    for _ in range(4):                       # starts full
        assert bucket.acquire() is None
    wait = bucket.acquire()                  # empty: 1 token at 2/s
    assert wait == pytest.approx(0.5)
    clock.t += 0.5
    assert bucket.acquire() is None          # refilled exactly one
    clock.t += 100.0
    for _ in range(4):                       # capped at burst, not 200
        assert bucket.acquire() is None
    assert bucket.acquire() is not None


def test_rate_limiter_is_per_client():
    clock = FakeClock()
    limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
    assert limiter.acquire("a") is None
    assert limiter.acquire("a") is not None  # a exhausted
    assert limiter.acquire("b") is None      # b has its own bucket
    assert RateLimiter(None).acquire("anyone") is None  # disabled


def test_admission_controller_backpressure():
    admission = AdmissionController(limit=10, retry_after_s=2.0)
    assert admission.admit(6) is None
    assert admission.admit(4) is None        # exactly at the limit
    assert admission.admit(1) == pytest.approx(2.0)
    admission.release(4)
    assert admission.admit(1) is None
    assert admission.inflight == 7
    # Oversized requests are admitted on an empty queue (else starved).
    empty = AdmissionController(limit=2)
    assert empty.admit(5) is None
    assert empty.admit(1) is not None
    with pytest.raises(ValueError):
        AdmissionController(limit=0)


# --------------------------------------------------------------------- #
# the frontend, socket-free
# --------------------------------------------------------------------- #
def make_frontend(split, **kwargs):
    registry = ModelRegistry()
    model = build_classifier("digits", width=4, seed=0)
    registry.add("m", model, backend="numpy")
    server = Server(registry, max_batch=8, deadline_ms=0.0, gate="none")
    kwargs.setdefault("auth", ApiKeyAuth({"alice": "s3cret"}))
    frontend = HttpFrontend(server, **kwargs)
    return frontend, server, model


def _predict_body(images, model="m"):
    return json.dumps({"model": model,
                       "inputs": np.asarray(images).tolist()}).encode()


AUTH = {"Authorization": "Bearer s3cret"}


def pump_while_waiting(server, frontend, call):
    """Run a frontend call with the pump serviced on a side thread (the
    frontend blocks on its handle; nothing else pumps here)."""
    import threading
    out = {}

    def run():
        out["reply"] = call()

    thread = threading.Thread(target=run)
    thread.start()
    while thread.is_alive():
        server.pump(force=True)
        thread.join(0.001)
    return out["reply"]


def test_frontend_predict_roundtrip_and_auth(split):
    frontend, server, _ = make_frontend(split)
    status, payload, _ = pump_while_waiting(
        server, frontend,
        lambda: frontend.handle("POST", "/v1/predict",
                                _predict_body(split.test.images[:2]), AUTH))
    assert status == 200
    assert len(payload["predictions"]) == 2
    for row in payload["predictions"]:
        assert set(row) == {"label", "logits", "score", "flagged",
                            "from_cache"}
    # Missing key -> 401 with a challenge; wrong key -> 403.
    status, payload, headers = frontend.handle(
        "POST", "/v1/predict", _predict_body(split.test.images[:1]), {})
    assert status == 401 and "WWW-Authenticate" in headers
    status, _, _ = frontend.handle(
        "POST", "/v1/predict", _predict_body(split.test.images[:1]),
        {"Authorization": "Bearer wrong"})
    assert status == 403
    summary = frontend.stats.summary()
    assert summary["rejected_unauthenticated"] == 1
    assert summary["rejected_forbidden"] == 1
    assert summary["served_examples"] == 2


def test_frontend_bad_requests(split):
    frontend, server, _ = make_frontend(split)
    cases = [
        (b"not json", 400),
        (json.dumps({"model": "m"}).encode(), 400),          # no inputs
        (json.dumps({"model": "m", "inputs": "nan"}).encode(), 400),
        (json.dumps({"model": "m", "inputs": [[1.0]]}).encode(), 400),
        (_predict_body(split.test.images[:1], model="ghost"), 404),
    ]
    for body, want in cases:
        status, _, _ = frontend.handle("POST", "/v1/predict", body, AUTH)
        assert status == want, body
    status, _, _ = frontend.handle("GET", "/nope", b"", AUTH)
    assert status == 404
    # Oversized requests are 413, not a monopolized admission window.
    frontend.max_request_examples = 2
    status, payload, _ = frontend.handle(
        "POST", "/v1/predict", _predict_body(split.test.images[:3]), AUTH)
    assert status == 413
    assert frontend.stats.summary()["bad_requests"] == len(cases) + 2


def test_frontend_single_example_and_default_model(split):
    """A bare (C, H, W) example and an omitted model name both work
    when exactly one model is registered."""
    frontend, server, _ = make_frontend(split)
    body = json.dumps(
        {"inputs": np.asarray(split.test.images[0]).tolist()}).encode()
    status, payload, _ = pump_while_waiting(
        server, frontend,
        lambda: frontend.handle("POST", "/v1/predict", body, AUTH))
    assert status == 200 and len(payload["predictions"]) == 1


def test_frontend_rate_limit_answers_429_with_retry_after(split):
    clock = FakeClock()
    frontend, server, _ = make_frontend(
        split, limiter=RateLimiter(rate=1.0, burst=2.0, clock=clock))
    body = _predict_body(split.test.images[:1])
    statuses = []
    for _ in range(3):
        reply = pump_while_waiting(
            server, frontend,
            lambda: frontend.handle("POST", "/v1/predict", body, AUTH))
        statuses.append(reply[0])
    assert statuses == [200, 200, 429]
    status, payload, headers = frontend.handle("POST", "/v1/predict",
                                               body, AUTH)
    assert status == 429
    assert float(headers["Retry-After"]) > 0
    assert frontend.stats.summary()["rejected_rate_limited"] == 2


def test_frontend_queue_limit_answers_429(split):
    frontend, server, _ = make_frontend(split, queue_limit=4)
    # Fill the admission window by hand (no pump: nothing completes).
    assert frontend.admission.admit(4) is None
    status, payload, headers = frontend.handle(
        "POST", "/v1/predict", _predict_body(split.test.images[:2]), AUTH)
    assert status == 429
    assert "over capacity" in payload["error"]
    assert float(headers["Retry-After"]) > 0
    assert frontend.stats.summary()["rejected_over_capacity"] == 1
    frontend.admission.release(4)
    reply = pump_while_waiting(
        server, frontend,
        lambda: frontend.handle("POST", "/v1/predict",
                                _predict_body(split.test.images[:2]), AUTH))
    assert reply[0] == 200
    assert frontend.admission.inflight == 0      # released after serving


def test_frontend_unhealthy_surfaces_503(split):
    frontend, server, model = make_frontend(split)
    frontend.begin_shutdown()
    status, payload, _ = frontend.handle(
        "POST", "/v1/predict", _predict_body(split.test.images[:1]), AUTH)
    assert status == 503
    status, payload, _ = frontend.handle("GET", "/v1/health", b"", {})
    assert status == 503 and payload["status"] == "draining"
    assert frontend.stats.summary()["rejected_unhealthy"] == 1


def test_frontend_pump_death_surfaces_503_and_health_dead(split):
    frontend, server, model = make_frontend(split)

    def forward(x):
        raise RuntimeError("kaboom")

    model.forward = forward
    server.submit("m", split.test.images[:1])
    with pytest.raises(RuntimeError):
        server.pump(force=True)
    status, payload, _ = frontend.handle(
        "POST", "/v1/predict", _predict_body(split.test.images[:1]), AUTH)
    assert status == 503
    status, payload, _ = frontend.handle("GET", "/v1/health", b"", {})
    assert status == 503 and payload["status"] == "dead"
    assert "kaboom" in payload["error"]


def test_frontend_models_stats_and_health(split):
    frontend, server, _ = make_frontend(split)
    status, payload, _ = frontend.handle("GET", "/v1/health", b"", {})
    assert status == 200 and payload["status"] == "ok"        # no auth
    status, payload, _ = frontend.handle("GET", "/v1/models", b"", AUTH)
    assert status == 200
    (row,) = payload["models"]
    assert row["name"] == "m" and row["backend"] == "numpy"
    assert row["gate"] == "none" and not row["has_discriminator"]
    status, payload, _ = frontend.handle("GET", "/v1/stats", b"", AUTH)
    assert status == 200
    assert payload["server"]["pending_examples"] == 0
    assert "requests_completed" in payload["server"]
    assert payload["http"]["http_requests"] >= 1


def test_frontend_refresh_reload_rolls_fingerprint(split):
    frontend, server, model = make_frontend(split)
    old = server.registry.get("m").fingerprint
    # Mutate weights in place, then ask the endpoint to re-fingerprint.
    model.parameters()[0].data += 0.5
    status, payload, _ = frontend.handle(
        "POST", "/v1/reload", json.dumps({"model": "m"}).encode(), AUTH)
    assert status == 200 and payload["action"] == "refresh"
    assert server.registry.get("m").fingerprint != old
    assert payload["old_fingerprint"] == old[:16]
    status, _, _ = frontend.handle(
        "POST", "/v1/reload", json.dumps({"model": "ghost"}).encode(), AUTH)
    assert status == 404
    status, _, _ = frontend.handle("POST", "/v1/reload", b"{}", AUTH)
    assert status == 400
    assert frontend.stats.summary()["reloads"] == 1


# --------------------------------------------------------------------- #
# real sockets
# --------------------------------------------------------------------- #
def serve_http(split, *, max_batch=8, **kwargs):
    registry = ModelRegistry()
    model = build_classifier("digits", width=4, seed=0)
    registry.add("m", model, backend="numpy")
    server = Server(registry, max_batch=max_batch, deadline_ms=1.0,
                    gate="confidence", gate_threshold=0.5)
    kwargs.setdefault("auth", ApiKeyAuth({"alice": "s3cret"}))
    frontend = HttpFrontend(server, **kwargs)
    return HttpServer(frontend, host="127.0.0.1", port=0), model


def test_http_roundtrip_over_real_socket(split):
    httpd, _ = serve_http(split)
    with httpd:
        host, port = httpd.address
        with HttpClient(host, port, api_key="s3cret") as client:
            assert client.health().payload["status"] == "ok"
            response = client.predict(split.test.images[:3], model="m")
            assert response.status == 200
            assert len(response.payload["predictions"]) == 3
            assert client.models().payload["models"][0]["name"] == "m"
            stats = client.stats()
            assert stats.payload["http"]["served_examples"] == 3
        with HttpClient(host, port) as anonymous:
            assert anonymous.predict(split.test.images[:1]).status == 401
        with HttpClient(host, port, api_key="nope") as wrong:
            assert wrong.predict(split.test.images[:1]).status == 403


def test_http_rows_equal_direct_server_rows(split):
    """The wire adds nothing: the same request stream served directly
    through Server yields bitwise-identical logits.  max_batch=1 makes
    batch composition identical on both paths by construction (forward
    rows are not bitwise-stable across *different* compositions)."""
    stream = [split.test.images[i:i + 1] for i in range(12)]

    registry = ModelRegistry()
    registry.add("direct", build_classifier("digits", width=4, seed=0),
                 backend="numpy")
    direct = Server(registry, max_batch=1, deadline_ms=0.0,
                    gate="confidence", gate_threshold=0.5)
    direct_handles = [direct.submit("direct", images) for images in stream]
    direct.drain()

    httpd, _ = serve_http(split, max_batch=1)
    with httpd:
        host, port = httpd.address
        with HttpClient(host, port, api_key="s3cret") as client:
            for images, want in zip(stream, direct_handles):
                response = client.predict(images, model="m")
                assert response.status == 200
                (row,) = response.payload["predictions"]
                np.testing.assert_array_equal(
                    np.asarray(row["logits"], dtype=np.float32)
                    .astype(np.float64),
                    want.logits[0].astype(np.float64))
                assert row["label"] == int(want.labels[0])
                assert row["score"] == pytest.approx(
                    want.scores[0], abs=0.0)
                assert row["flagged"] == bool(want.result()[0].flagged)


def test_http_server_shutdown_is_graceful(split):
    httpd, _ = serve_http(split)
    httpd.start()
    host, port = httpd.address
    with HttpClient(host, port, api_key="s3cret") as client:
        assert client.predict(split.test.images[:2], model="m").ok
    httpd.stop()
    # The socket is gone: a fresh connection fails.
    with pytest.raises(OSError):
        with HttpClient(host, port, api_key="s3cret") as client:
            client.health()


def test_predict_flagged_field_pins_gate_verdicts(split):
    """Satellite pin: every ``/v1/predict`` row carries a ``flagged``
    boolean that is exactly the gate's verdict for that example —
    all-True under an always-suspicious gate, all-False with no gate."""
    def rows_for(gate, threshold=None):
        registry = ModelRegistry()
        registry.add("m", build_classifier("digits", width=4, seed=0),
                     backend="numpy")
        server = Server(registry, max_batch=8, deadline_ms=0.0,
                        gate=gate, gate_threshold=threshold)
        frontend = HttpFrontend(server,
                                auth=ApiKeyAuth({"alice": "s3cret"}))
        status, payload, _ = pump_while_waiting(
            server, frontend,
            lambda: frontend.handle(
                "POST", "/v1/predict",
                _predict_body(split.test.images[:4]), AUTH))
        assert status == 200
        return payload["predictions"], server

    rows, _ = rows_for("none")
    assert [row["flagged"] for row in rows] == [False] * 4

    # Confidence threshold 0.0: any non-degenerate softmax is suspicious.
    rows, server = rows_for("confidence", threshold=0.0)
    assert all(isinstance(row["flagged"], bool) for row in rows)
    assert [row["flagged"] for row in rows] == [True] * 4
    assert server.stats.flagged_examples == 4


# --------------------------------------------------------------------- #
# hostile requests over a real socket
# --------------------------------------------------------------------- #
def _strict_json(data):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(data.decode("utf-8"), parse_constant=reject)


def _hostile_body(split, value):
    images = split.test.images[:1].astype(np.float64)
    images[0, 0, 0, 0] = value
    return json.dumps({"model": "m", "inputs": images.tolist()}).encode()


def _raw_exchange(address, content_length, body, timeout=5.0):
    """One raw ``POST /v1/predict``; returns the single reply's status,
    headers and strictly-parsed payload, and asserts the server then
    closes the connection (no second reply, no wedged handler)."""
    head = ("POST /v1/predict HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Authorization: Bearer s3cret\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n"
            "Connection: close\r\n\r\n").encode()
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(head + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        data = response.read()
        assert sock.recv(1) == b""
    return response.status, dict(response.getheaders()), _strict_json(data)


@pytest.mark.parametrize("case", [
    "nan", "infinity", "float32-overflow", "negative-length",
    "non-integer-length", "oversized-length"])
def test_hostile_request_gets_one_strict_json_answer(split, case):
    httpd, _ = serve_http(split)
    with httpd:
        address = httpd.address
        if case in ("nan", "infinity", "float32-overflow"):
            value = {"nan": float("nan"), "infinity": float("inf"),
                     "float32-overflow": 1e39}[case]
            body = _hostile_body(split, value)
            length, want = str(len(body)), 400
        else:
            body = b""
            length, want = {
                "negative-length": ("-1", 400),
                "non-integer-length": ("12abc", 400),
                "oversized-length": (
                    str(httpd.frontend.max_body_bytes + 1), 413),
            }[case]
        status, headers, payload = _raw_exchange(address, length, body)
        assert status == want
        assert "error" in payload
        assert httpd.frontend.stats.summary()["bad_requests"] == 1
        with HttpClient(*address, api_key="s3cret") as client:
            assert client.health().payload["status"] == "ok"
            response = client.predict(split.test.images[:2], model="m")
            assert response.status == 200
            assert len(response.payload["predictions"]) == 2

