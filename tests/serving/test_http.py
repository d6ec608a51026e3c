"""End-to-end tests of the JSON/HTTP plan endpoint (real sockets, ephemeral port)."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import pytest
from serving_helpers import StubBackend, get_json, post_json, raw_http

from repro.serialization import problem_to_dict
from repro.serving import PlanService, PlanServiceConfig, serve
from repro.serving.http import MAX_BODY_BYTES, _PlanRequestHandler
from repro.workloads import credit_card_screening


@pytest.fixture
def server():
    with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
        plan_server = serve(plan_service, host="127.0.0.1", port=0)
        plan_server.serve_in_background()
        host, port = plan_server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            plan_server.shutdown()
            plan_server.server_close()


class TestPlanEndpoint:
    def test_post_plan_answers_with_the_plan(self, server):
        problem = credit_card_screening()
        status, payload = post_json(f"{server}/plan", problem_to_dict(problem))
        assert status == 200
        assert sorted(payload["order"]) == list(range(problem.size))
        assert payload["cost"] == pytest.approx(problem.cost(payload["order"]))
        assert payload["cache_hit"] is False
        assert set(payload) >= {"algorithm", "optimal", "fingerprint", "latency_seconds"}

    def test_second_request_hits_the_cache(self, server):
        problem = credit_card_screening()
        post_json(f"{server}/plan", problem_to_dict(problem))
        status, payload = post_json(f"{server}/plan", problem_to_dict(problem))
        assert status == 200
        assert payload["cache_hit"] is True

    def test_wrapped_document_with_budget(self, server):
        problem = credit_card_screening()
        status, payload = post_json(
            f"{server}/plan",
            {"problem": problem_to_dict(problem), "budget_seconds": 0.5},
        )
        assert status == 200
        assert sorted(payload["order"]) == list(range(problem.size))

    def test_malformed_document_is_a_400(self, server):
        status, payload = post_json(f"{server}/plan", {"services": "nope"})
        assert status == 400
        assert "error" in payload

    def test_unknown_path_is_a_404(self, server):
        status, payload = post_json(f"{server}/nope", {})
        assert status == 404
        status, payload = get_json(f"{server}/nope")
        assert status == 404


class TestBatchEndpoint:
    def test_post_batch_answers_in_order_and_deduplicates(self, server):
        problem = credit_card_screening()
        document = problem_to_dict(problem)
        status, payload = post_json(
            f"{server}/plan/batch", {"problems": [document, document, document]}
        )
        assert status == 200
        responses = payload["responses"]
        assert len(responses) == 3
        for response in responses:
            assert sorted(response["order"]) == list(range(problem.size))
            assert response["cost"] == pytest.approx(problem.cost(response["order"]))
        # One leader optimized; the structural twins rode along.
        assert [r["coalesced"] for r in responses] == [False, True, True]
        status, stats = get_json(f"{server}/stats")
        assert stats["requests"]["coalesced"] == 2

    def test_batch_with_budget_wrapper(self, server):
        problem = credit_card_screening()
        status, payload = post_json(
            f"{server}/plan/batch",
            {"problems": [problem_to_dict(problem)], "budget_seconds": 0.5},
        )
        assert status == 200
        assert len(payload["responses"]) == 1

    def test_malformed_batch_is_a_400(self, server):
        for bad in ({}, {"problems": []}, {"problems": "nope"}, {"problems": [{"services": 1}]}):
            status, payload = post_json(f"{server}/plan/batch", bad)
            assert status == 400
            assert "error" in payload

    def test_non_numeric_budget_is_a_400(self, server):
        problem_document = problem_to_dict(credit_card_screening())
        status, payload = post_json(
            f"{server}/plan/batch",
            {"problems": [problem_document], "budget_seconds": "0.2"},
        )
        assert status == 400
        assert "budget_seconds" in payload["error"]
        status, payload = post_json(
            f"{server}/plan",
            {"problem": problem_document, "budget_seconds": "0.2"},
        )
        assert status == 400
        assert "budget_seconds" in payload["error"]


class TestBodyFraming:
    """Regression: Content-Length used to be trusted blindly."""

    def address(self, server):
        host, port = server.rsplit(":", 1)
        return (host.removeprefix("http://"), int(port))

    def test_missing_content_length_is_a_400(self, server):
        status = raw_http(
            self.address(server),
            b"POST /plan HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert status == 400

    def test_invalid_content_length_is_a_400(self, server):
        status = raw_http(
            self.address(server),
            b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
        )
        assert status == 400

    def test_oversized_body_is_a_413_without_reading_it(self, server):
        # Declare a body over the bound but never send it: the server must
        # answer from the header alone instead of blocking on a bounded read.
        declared = MAX_BODY_BYTES + 1
        started = time.monotonic()
        status = raw_http(
            self.address(server),
            f"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n".encode(),
            half_close=False,
        )
        assert status == 413
        assert time.monotonic() - started < 5.0

    def test_truncated_body_is_a_400(self, server):
        status = raw_http(
            self.address(server),
            b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{\"a\":",
        )
        assert status == 400


class TestGracefulShutdown:
    def test_in_flight_request_survives_graceful_close(self):
        backend = StubBackend(delay=0.4)
        plan_server = serve(backend, host="127.0.0.1", port=0)
        plan_server.serve_in_background()
        host, port = plan_server.server_address[:2]
        statuses: list[int] = []

        def request() -> None:
            status, payload = post_json(
                f"http://{host}:{port}/plan", problem_to_dict(credit_card_screening())
            )
            statuses.append(status)

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.15)  # the request is now sleeping inside the backend
        drained = plan_server.close_gracefully(timeout=5.0, close_backend=True)
        thread.join(timeout=10.0)
        assert statuses == [200]  # the in-flight request completed first
        assert drained
        assert backend.closed  # ... and only then was the backend closed

    def test_drain_deadline_is_honoured(self):
        backend = StubBackend(delay=1.5)
        plan_server = serve(backend, host="127.0.0.1", port=0)
        plan_server.serve_in_background()
        host, port = plan_server.server_address[:2]
        thread = threading.Thread(
            target=lambda: post_json(
                f"http://{host}:{port}/plan", problem_to_dict(credit_card_screening())
            )
        )
        thread.start()
        time.sleep(0.15)
        started = time.monotonic()
        drained = plan_server.close_gracefully(timeout=0.2)
        assert not drained  # the handler outlived the deadline
        assert time.monotonic() - started < 1.0
        thread.join(timeout=10.0)

    def test_graceful_close_without_serving_just_closes(self):
        plan_server = serve(StubBackend(), host="127.0.0.1", port=0)
        assert plan_server.close_gracefully(timeout=0.5)

    def test_idle_keepalive_connection_does_not_stall_the_drain(self):
        """Regression: the drain used to count open connections, so an idle
        keep-alive handler parked between requests pinned the whole timeout."""
        import http.client

        plan_server = serve(StubBackend(), host="127.0.0.1", port=0)
        plan_server.serve_in_background()
        host, port = plan_server.server_address[:2]
        idle = http.client.HTTPConnection(host, port, timeout=10)
        try:
            idle.request("GET", "/healthz")
            idle.getresponse().read()  # answered; the connection stays open
            time.sleep(0.1)
            started = time.monotonic()
            assert plan_server.close_gracefully(timeout=5.0)  # drains clean...
            assert time.monotonic() - started < 3.0  # ...without the timeout
        finally:
            idle.close()

    def test_graceful_close_with_saturated_connection_bound(self):
        """Regression: a queued connection parked the accept loop in the slot
        acquire, so shutdown() ignored the graceful deadline entirely."""
        plan_server = serve(
            StubBackend(), host="127.0.0.1", port=0,
            max_connections=1, request_timeout=30.0,
        )
        plan_server.serve_in_background()
        address = plan_server.server_address[:2]
        stalled = socket.create_connection(address, timeout=10)
        stalled.sendall(b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n")
        time.sleep(0.15)  # the only slot is now held by a stalled handler
        queued = socket.create_connection(address, timeout=10)
        time.sleep(0.2)  # accepted, now parked waiting for a slot
        try:
            started = time.monotonic()
            drained = plan_server.close_gracefully(timeout=0.5)
            assert time.monotonic() - started < 3.0  # deadline honoured
            assert not drained  # the stalled handler outlived it
        finally:
            stalled.close()
            queued.close()


class TestStatsAndHealth:
    def test_stats_reflects_traffic(self, server):
        problem = credit_card_screening()
        post_json(f"{server}/plan", problem_to_dict(problem))
        post_json(f"{server}/plan", problem_to_dict(problem))
        status, payload = get_json(f"{server}/stats")
        assert status == 200
        assert payload["requests"]["answered"] == 2
        assert payload["cache"]["hits"] == 1

    def test_healthz(self, server):
        status, payload = get_json(f"{server}/healthz")
        assert status == 200
        assert payload == {"status": "ok"}


class _CountingSocket:
    """Forwards to an accepted socket, recording every ``sendall`` payload."""

    def __init__(self, sock: socket.socket, sends: list[bytes]) -> None:
        self._sock = sock
        self._sends = sends

    def sendall(self, data) -> None:
        self._sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestSocketContract:
    """Regression: headers and body went out as two sends with Nagle on, so
    every keep-alive answer waited ~40 ms for the client's delayed ACK."""

    @pytest.fixture
    def recording_server(self):
        sends: list[bytes] = []
        nodelay: list[int] = []

        class RecordingHandler(_PlanRequestHandler):
            def setup(self) -> None:
                self.request = _CountingSocket(self.request, sends)
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )

        with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
            plan_server = serve(plan_service, host="127.0.0.1", port=0)
            plan_server.RequestHandlerClass = RecordingHandler
            plan_server.serve_in_background()
            try:
                yield plan_server.server_address[:2], sends, nodelay
            finally:
                plan_server.shutdown()
                plan_server.server_close()

    def test_accepted_connections_disable_nagle(self, recording_server):
        (host, port), _, nodelay = recording_server
        status, _ = get_json(f"http://{host}:{port}/healthz")
        assert status == 200
        assert nodelay and all(flag != 0 for flag in nodelay)

    def test_a_plan_answer_goes_out_in_one_send(self, recording_server):
        (host, port), sends, _ = recording_server
        body = json.dumps(problem_to_dict(credit_card_screening())).encode()
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("POST", "/plan", body, {"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert len(sends) == 1
        (sent,) = sends
        head, _, sent_body = sent.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nContent-Type: application/json\r\n" in head + b"\r\n"
        assert f"\r\nContent-Length: {len(payload)}".encode() in head
        assert sent_body == payload

    def test_keepalive_warm_hits_beat_the_delayed_ack_floor(self, server):
        host, port = server.removeprefix("http://").rsplit(":", 1)
        body = json.dumps(problem_to_dict(credit_card_screening())).encode()
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request("POST", "/plan", body, headers)
            assert connection.getresponse().read()  # cold: fills the cache
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("POST", "/plan", body, headers)
                response = connection.getresponse()
                answer = json.loads(response.read())
                latencies.append(time.perf_counter() - started)
                assert response.status == 200 and answer["cache_hit"] is True
        finally:
            connection.close()
        # A delayed-ACK stall costs >= 40 ms on every request; a warm hit on
        # this problem costs about a millisecond.  The bounds leave a shared
        # runner room for scheduling noise while still catching the stall.
        assert statistics.median(latencies) < 0.020
        assert sorted(latencies)[17] < 0.035
