"""A stdlib-only JSON/HTTP front end for :class:`~repro.serving.service.PlanService`.

The endpoint is deliberately small — :class:`http.server.ThreadingHTTPServer`
plus a request handler — so the service can take real traffic without any
third-party dependency:

* ``POST /plan`` — body is an ordering-problem document in the
  :mod:`repro.serialization` format (optionally wrapped as
  ``{"problem": {...}, "budget_seconds": 0.2}``); answers with the plan,
  its cost and the cache/latency metadata of :class:`PlanResponse`.
* ``POST /plan/batch`` — body is ``{"problems": [{...}, ...]}`` (optionally
  with ``"budget_seconds"``); the whole batch is answered through
  :meth:`~repro.serving.service.PlanService.optimize_batch` — one admission,
  cache hits served directly, misses deduplicated by fingerprint — and the
  reply is ``{"responses": [...]}`` in request order.
* ``GET /stats`` — the service's :meth:`~repro.serving.service.PlanService.stats`
  snapshot.
* ``GET /healthz`` — liveness probe.

The server binds anything with the service surface (``submit`` /
``optimize_batch`` / ``stats``): a single
:class:`~repro.serving.service.PlanService`, or a
:class:`~repro.sharding.router.ShardRouter` fanning the same requests over N
shards (``repro serve --shards N``) — ``/stats`` then reports the router's
aggregated counters with a per-shard breakdown.

Request routing and error mapping live in :func:`dispatch_request`, shared
with the asyncio front end (:mod:`repro.serving.aserver`) so both servers
answer identically: overload surfaces as HTTP 503 (admission control),
malformed documents and bodies as HTTP 400, oversized bodies as HTTP 413
(``Content-Length`` is validated against a bound instead of trusted blindly),
optimizer failures as HTTP 500.  Each connection is handled on its own
thread (``ThreadingHTTPServer``) with a socket timeout, which is exactly the
concurrency model :class:`PlanService.submit` is built for; an optional
``max_connections`` bounds the handler-thread count the way a production
deployment must (beyond it, accepting blocks — the head-of-line regime the
asyncio front end exists to avoid).  :meth:`PlanServer.close_gracefully`
stops accepting, drains in-flight handlers against a deadline, and only then
closes the socket (and optionally the backend).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Union

from repro.exceptions import AdmissionError, InvalidProblemError, ReproError, ServingError
from repro.obs import Observability, activate_trace, trace_span
from repro.serialization import problem_from_dict
from repro.serving.service import PlanResponse, PlanService

if TYPE_CHECKING:  # pragma: no cover - typing only (sharding imports us)
    from repro.sharding.router import ShardRouter

    PlanBackend = Union[PlanService, ShardRouter]
else:
    PlanBackend = PlanService

__all__ = [
    "MAX_BODY_BYTES",
    "PayloadTooLargeError",
    "PlanServer",
    "dispatch_request",
    "dispatch_request_async",
    "response_from_dict",
    "response_to_dict",
    "serve",
    "validated_content_length",
]

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Default request-body bound: problem documents are KB-scale, so anything
beyond this is rejected with HTTP 413 instead of read into memory."""

REQUEST_TIMEOUT_SECONDS = 60.0
"""Default per-socket timeout: a stalled client is disconnected instead of
pinning its handler thread forever."""


class PayloadTooLargeError(ValueError):
    """A request body whose declared length exceeds the server's bound (413)."""


def response_to_dict(response: PlanResponse) -> dict[str, Any]:
    """Serialise a :class:`PlanResponse` for the wire (and the CLI's ``--json``)."""
    return {
        "order": list(response.order),
        "services": list(response.service_names),
        "cost": response.cost,
        "algorithm": response.algorithm,
        "optimal": response.optimal,
        "cache_hit": response.cache_hit,
        "stale": response.stale,
        "fingerprint": response.fingerprint,
        "latency_seconds": response.latency_seconds,
        "coalesced": response.coalesced,
    }


def response_from_dict(document: dict[str, Any]) -> PlanResponse:
    """Rebuild a :class:`PlanResponse` from :func:`response_to_dict` output.

    This is how answers cross the shard-process boundary
    (:mod:`repro.sharding.process`): flat primitives, never pickled object
    graphs.
    """
    try:
        return PlanResponse(
            order=tuple(document["order"]),
            service_names=tuple(document["services"]),
            cost=float(document["cost"]),
            algorithm=str(document["algorithm"]),
            optimal=bool(document["optimal"]),
            cache_hit=bool(document["cache_hit"]),
            stale=bool(document["stale"]),
            fingerprint=str(document["fingerprint"]),
            latency_seconds=float(document["latency_seconds"]),
            coalesced=bool(document.get("coalesced", False)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServingError(f"malformed plan-response document: {error}") from error


def _validated_budget(document: dict[str, Any]) -> float | None:
    """The request's ``budget_seconds``, rejected with :class:`ValueError` unless numeric."""
    budget = document.get("budget_seconds")
    if budget is not None and not isinstance(budget, (int, float)):
        raise ValueError(
            f"budget_seconds must be a number, got {type(budget).__name__}"
        )
    return budget


def validated_content_length(value: str | None, max_body_bytes: int) -> int:
    """Validate a ``Content-Length`` header instead of trusting it blindly.

    Raises :class:`ValueError` for a missing/invalid/empty declaration (HTTP
    400) and :class:`PayloadTooLargeError` beyond ``max_body_bytes`` (HTTP
    413) — the caller never allocates or blocks for an attacker-chosen size.
    """
    if value is None:
        raise ValueError("missing Content-Length header")
    try:
        length = int(value)
    except ValueError:
        raise ValueError(f"invalid Content-Length {value!r}") from None
    if length <= 0:
        raise ValueError("request body is empty")
    if length > max_body_bytes:
        raise PayloadTooLargeError(
            f"request body of {length} bytes exceeds the {max_body_bytes}-byte limit"
        )
    return length


# -- shared request core (threaded and asyncio front ends) -----------------


def _parse_document(body: bytes) -> dict[str, Any]:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ValueError(f"request body is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ValueError("request body must be a JSON object")
    return document


_ROUTE_LABELS = ("/plan", "/plan/batch", "/stats", "/healthz", "/metrics", "/slowlog")
"""Known routes, used verbatim as the ``route`` metric label; ``/trace/<id>``
collapses onto ``/trace`` and everything else onto ``other`` so the label's
cardinality stays bounded no matter what clients probe."""


def _route_label(path: str) -> str:
    if path in _ROUTE_LABELS:
        return path
    if path.startswith("/trace/"):
        return "/trace"
    return "other"


def dispatch_request(
    plan_service: "PlanBackend",
    method: str,
    path: str,
    body: bytes = b"",
    trace_id: str | None = None,
) -> tuple[int, Union[dict[str, Any], str]]:
    """Route one framed request against the service surface (blocking).

    This is the single request core both front ends call — the threaded
    handler directly, the asyncio server through its executor bridge — so
    status mapping stays identical by construction: 200 answers, 400
    malformed, 404 unknown path, 503 admission, 500 optimizer/internal.
    Framing concerns (reading the body, 413, timeouts) stay with the caller.

    ``trace_id`` is the caller-supplied ``X-Trace-Id``: a POST carrying one
    is traced even when tracing is off by default, and the id it ran under
    is echoed in the response payload for ``GET /trace/<id>``.  A ``str``
    payload (``GET /metrics``) is served as plain text, not JSON.
    """
    observability = getattr(plan_service, "obs", None)
    started = time.perf_counter()
    status, payload = _dispatch(plan_service, observability, method, path, body, trace_id)
    if observability is not None:
        obs_method = method if method in ("GET", "POST") else "other"
        observability.observe_http(
            _route_label(path), obs_method, status, time.perf_counter() - started
        )
    return status, payload


def _dispatch(
    plan_service: "PlanBackend",
    observability: "Observability | None",
    method: str,
    path: str,
    body: bytes,
    trace_id: str | None,
) -> tuple[int, Union[dict[str, Any], str]]:
    if method == "GET":
        return _dispatch_get(plan_service, observability, path)
    if method != "POST":
        return 501, {"error": f"unsupported method {method!r}"}
    traced = observability is not None and (observability.enabled or trace_id is not None)
    if not traced:
        return _dispatch_post(plan_service, path, body)
    with activate_trace(trace_id) as active:
        with trace_span("http.request", method=method, route=_route_label(path)) as root:
            status, payload = _dispatch_post(plan_service, path, body)
            root.annotate(status=status)
    observability.record_trace(active)
    if isinstance(payload, dict):
        payload = {**payload, "trace_id": active.trace_id}
    return status, payload


def _dispatch_get(
    plan_service: "PlanBackend",
    observability: "Observability | None",
    path: str,
) -> tuple[int, Union[dict[str, Any], str]]:
    if path == "/stats":
        try:
            return 200, plan_service.stats()
        except ReproError as error:
            return 500, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - a handler must answer
            return 500, {"error": f"internal error: {type(error).__name__}: {error}"}
    if path == "/healthz":
        return 200, {"status": "ok"}
    if path == "/metrics":
        if observability is None:
            return 404, {"error": "this backend exposes no metrics registry"}
        return 200, observability.registry.render()
    if path.startswith("/trace/"):
        if observability is None:
            return 404, {"error": "this backend stores no traces"}
        trace_id = path[len("/trace/") :]
        tree = observability.spans.tree(trace_id)
        if tree is None:
            return 404, {"error": f"unknown trace {trace_id!r}"}
        return 200, tree
    if path == "/slowlog":
        if observability is None:
            return 404, {"error": "this backend keeps no slow-request log"}
        return 200, {
            "threshold_seconds": observability.slow_log.threshold_seconds,
            "entries": observability.slow_log.entries(),
        }
    return 404, {"error": f"unknown path {path!r}"}


def _parse_plan(document: dict[str, Any]):
    """Extract ``(problem, budget)`` from a ``POST /plan`` document."""
    if "problem" in document:
        problem_document = document["problem"]
        budget = _validated_budget(document)
    else:
        problem_document = document
        budget = None
    return problem_from_dict(problem_document), budget


def _parse_batch(document: dict[str, Any]):
    """Extract ``(problems, budget)`` from a ``POST /plan/batch`` document."""
    problem_documents = document["problems"]
    if not isinstance(problem_documents, list) or not problem_documents:
        raise InvalidProblemError("'problems' must be a non-empty list")
    budget = _validated_budget(document)
    return [problem_from_dict(entry) for entry in problem_documents], budget


def _backend_error_status(error: Exception) -> tuple[int, dict[str, Any]]:
    """Map a backend exception to the shared HTTP status contract."""
    if isinstance(error, AdmissionError):
        return 503, {"error": str(error)}
    if isinstance(error, ReproError):
        return 500, {"error": str(error)}
    # A handler must answer, not leak: anything unexpected is a plain 500.
    return 500, {"error": f"internal error: {type(error).__name__}: {error}"}


def _dispatch_post(
    plan_service: "PlanBackend", path: str, body: bytes
) -> tuple[int, dict[str, Any]]:
    try:
        document = _parse_document(body)
    except ValueError as error:
        return 400, {"error": str(error)}
    if path == "/plan/batch":
        try:
            problems, budget = _parse_batch(document)
        except (KeyError, TypeError, ValueError, InvalidProblemError) as error:
            return 400, {"error": f"malformed batch request: {error}"}
        try:
            responses = plan_service.optimize_batch(problems, budget_seconds=budget)
        except Exception as error:  # noqa: BLE001 - mapped, never leaked
            return _backend_error_status(error)
        return 200, {"responses": [response_to_dict(response) for response in responses]}
    if path != "/plan":
        return 404, {"error": f"unknown path {path!r}"}
    try:
        problem, budget = _parse_plan(document)
    except (TypeError, ValueError, InvalidProblemError) as error:
        return 400, {"error": str(error)}
    try:
        response = plan_service.submit(problem, budget_seconds=budget)
    except Exception as error:  # noqa: BLE001 - mapped, never leaked
        return _backend_error_status(error)
    return 200, response_to_dict(response)


# -- the awaitable request core (native async shard path) -------------------


async def dispatch_request_async(
    plan_service: "PlanBackend",
    method: str,
    path: str,
    body: bytes = b"",
    trace_id: str | None = None,
) -> tuple[int, Union[dict[str, Any], str]]:
    """The awaitable mirror of :func:`dispatch_request` for POST routes.

    Shares every parse helper and the error-status mapping with the blocking
    core — identical 400/404/503/500 answers by construction — but answers
    through the backend's native ``submit_async`` / ``optimize_batch_async``
    surface (a :class:`~repro.sharding.router.ShardRouter` over process
    shards), so the whole request lifecycle stays on the event loop: no
    executor bridge, no per-request thread.  The trace activation wraps the
    ``await`` directly — the coroutine runs in the caller's context, so spans
    opened anywhere down the awaitable path (router fan-out, shard
    re-entry) stitch into the same tree the threaded path produces.
    """
    observability = getattr(plan_service, "obs", None)
    started = time.perf_counter()
    status, payload = await _dispatch_async(
        plan_service, observability, method, path, body, trace_id
    )
    if observability is not None:
        obs_method = method if method in ("GET", "POST") else "other"
        observability.observe_http(
            _route_label(path), obs_method, status, time.perf_counter() - started
        )
    return status, payload


async def _dispatch_async(
    plan_service: "PlanBackend",
    observability: "Observability | None",
    method: str,
    path: str,
    body: bytes,
    trace_id: str | None,
) -> tuple[int, Union[dict[str, Any], str]]:
    if method != "POST":
        # GETs (/stats crosses the blocking shard surface) stay on the
        # caller's auxiliary bridge lane; only plan traffic is awaitable.
        return 501, {"error": f"unsupported method {method!r}"}
    traced = observability is not None and (observability.enabled or trace_id is not None)
    if not traced:
        return await _dispatch_post_async(plan_service, path, body)
    with activate_trace(trace_id) as active:
        with trace_span("http.request", method=method, route=_route_label(path)) as root:
            status, payload = await _dispatch_post_async(plan_service, path, body)
            root.annotate(status=status)
    observability.record_trace(active)
    if isinstance(payload, dict):
        payload = {**payload, "trace_id": active.trace_id}
    return status, payload


async def _dispatch_post_async(
    plan_service: "PlanBackend", path: str, body: bytes
) -> tuple[int, dict[str, Any]]:
    try:
        document = _parse_document(body)
    except ValueError as error:
        return 400, {"error": str(error)}
    if path == "/plan/batch":
        try:
            problems, budget = _parse_batch(document)
        except (KeyError, TypeError, ValueError, InvalidProblemError) as error:
            return 400, {"error": f"malformed batch request: {error}"}
        try:
            responses = await plan_service.optimize_batch_async(
                problems, budget_seconds=budget
            )
        except Exception as error:  # noqa: BLE001 - mapped, never leaked
            return _backend_error_status(error)
        return 200, {"responses": [response_to_dict(response) for response in responses]}
    if path != "/plan":
        return 404, {"error": f"unknown path {path!r}"}
    try:
        problem, budget = _parse_plan(document)
    except (TypeError, ValueError, InvalidProblemError) as error:
        return 400, {"error": str(error)}
    try:
        response = await plan_service.submit_async(problem, budget_seconds=budget)
    except Exception as error:  # noqa: BLE001 - mapped, never leaked
        return _backend_error_status(error)
    return 200, response_to_dict(response)


class _PlanRequestHandler(BaseHTTPRequestHandler):
    """Frames requests and answers through :func:`dispatch_request`.

    Every answer leaves in one send with ``TCP_NODELAY`` set on the socket.
    Written as two sends (headers, then body) on a Nagle socket, the body
    waits for the client to ACK the headers, and the client's delayed ACK
    holds that for ~40 ms: a keep-alive warm hit then costs the stall, not
    its work.
    """

    server: "PlanServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # A per-socket timeout so a stalled client (half-sent body, idle
        # keep-alive) is disconnected instead of pinning this thread forever.
        self.timeout = self.server.request_timeout
        super().setup()

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        with self.server._request_in_progress():
            status, payload = dispatch_request(self.server.plan_service, "GET", self.path)
            self._send_json(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        with self.server._request_in_progress():
            try:
                # Read the body before routing: on a keep-alive connection an
                # unread body would be parsed as the next request line.
                body = self._read_body()
            except PayloadTooLargeError as error:
                # The body is deliberately left unread; _send_json closes the
                # connection on error statuses, keeping framing honest.
                self._send_json(413, {"error": str(error)})
                return
            except ValueError as error:
                self._send_json(400, {"error": str(error)})
                return
            status, payload = dispatch_request(
                self.server.plan_service,
                "POST",
                self.path,
                body,
                trace_id=self.headers.get("X-Trace-Id"),
            )
            self._send_json(status, payload)

    # -- plumbing ----------------------------------------------------------

    def _read_body(self) -> bytes:
        length = validated_content_length(
            self.headers.get("Content-Length"), self.server.max_body_bytes
        )
        body = self.rfile.read(length)
        if len(body) != length:
            raise ValueError(
                f"truncated request body ({len(body)} of {length} bytes)"
            )
        return body

    def _send_json(self, status: int, payload: Union[dict[str, Any], str]) -> None:
        if isinstance(payload, str):
            # GET /metrics serves the Prometheus text exposition format.
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status >= 400 or self.server._closing:
            # Error paths may leave request bytes unread (e.g. an oversized
            # or truncated body); closing keeps keep-alive in sync.  During a
            # graceful close, answered connections are released rather than
            # parked on keep-alive.
            self.send_header("Connection", "close")
            self.close_connection = True
        # end_headers() would send the header block on its own; appending the
        # blank line and the body to the same buffer sends all of it at once.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log (the service has metrics)."""


class PlanServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one service (or shard router).

    ``max_connections`` optionally bounds concurrent handler threads (the
    accept loop blocks beyond it) — the production-shaped configuration, and
    the regime where slow clients visibly starve fast ones
    (``benchmarks/bench_async.py`` measures exactly that against the asyncio
    front end).  ``None`` keeps the historical unbounded thread-per-connection
    behaviour.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        plan_service: "PlanBackend",
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        max_connections: int | None = None,
        request_timeout: float = REQUEST_TIMEOUT_SECONDS,
    ) -> None:
        super().__init__(address, _PlanRequestHandler)
        self.plan_service = plan_service
        self.max_body_bytes = max_body_bytes
        self.request_timeout = request_timeout
        self._connection_slots = (
            threading.Semaphore(max_connections) if max_connections is not None else None
        )
        self._serving = False
        self._closing = False
        self._in_flight = 0  # open connections (slot accounting)
        self._busy = 0  # requests being processed (drain accounting)
        self._drained = threading.Condition()

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def serve_in_background(self) -> threading.Thread:
        """Start :meth:`serve_forever` on a daemon thread and return it."""
        # Marked serving *before* the thread runs: a prompt close_gracefully
        # must route through shutdown() (which handshakes with the starting
        # loop) rather than closing the socket under it.
        self._serving = True
        thread = threading.Thread(target=self.serve_forever, daemon=True, name="plan-server")
        thread.start()
        return thread

    def close_gracefully(
        self, timeout: float = 5.0, *, close_backend: bool = False
    ) -> bool:
        """Stop accepting, drain in-flight *requests*, then close the socket.

        The drain waits only for requests being processed — an idle
        keep-alive connection (a handler parked between requests) does not
        pin it; its daemon thread is released by the socket timeout, and any
        request it answers during the drain is sent ``Connection: close``.
        Returns whether the drain completed inside ``timeout`` (with
        ``close_backend`` the service behind the server is closed last, so
        drained requests are answered first).
        """
        # Unblock an accept loop parked in the connection-slot acquire first:
        # shutdown() waits for serve_forever to exit, and it cannot while a
        # queued connection is waiting on a slot no handler will free in time.
        self._closing = True
        if self._serving:
            self.shutdown()  # stops the accept loop; in-flight handlers continue
        deadline = time.monotonic() + timeout
        with self._drained:
            while self._busy > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drained.wait(timeout=remaining)
            drained = self._busy == 0
        self.server_close()
        if close_backend:
            self.plan_service.close()
        return drained

    # -- connection tracking -----------------------------------------------

    def process_request(self, request, client_address) -> None:
        if self._connection_slots is not None:
            # Blocks the accept loop when every slot is taken: the bounded
            # production regime (new connections wait in the listen backlog).
            # The wait is chunked so a graceful close can reclaim the loop —
            # a connection still queued at that point is dropped, which is
            # exactly what "stop accepting" means.
            while not self._connection_slots.acquire(timeout=0.1):
                if self._closing:
                    self.shutdown_request(request)
                    return
        with self._drained:
            self._in_flight += 1
        try:
            super().process_request(request, client_address)
        except BaseException:  # pragma: no cover - thread-spawn failure
            self._finish_connection()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._finish_connection()

    def _finish_connection(self) -> None:
        if self._connection_slots is not None:
            self._connection_slots.release()
        with self._drained:
            self._in_flight -= 1
            self._drained.notify_all()

    @contextlib.contextmanager
    def _request_in_progress(self):
        """Request-scoped drain accounting (handlers wrap each request)."""
        with self._drained:
            self._busy += 1
        try:
            yield
        finally:
            with self._drained:
                self._busy -= 1
                self._drained.notify_all()


def serve(
    plan_service: "PlanBackend",
    host: str = "127.0.0.1",
    port: int = 8080,
    **server_options: Any,
) -> PlanServer:
    """Bind a :class:`PlanServer` for ``plan_service`` (call ``serve_forever`` or
    :meth:`PlanServer.serve_in_background` on the result).  ``server_options``
    are forwarded (``max_body_bytes``, ``max_connections``, ``request_timeout``)."""
    return PlanServer((host, port), plan_service, **server_options)
