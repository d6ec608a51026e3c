"""Spans recorded around calls into each layer of a running ``repro serve``.

:func:`install` replaces each layer's entry point *where its caller resolves
it* (a module global or a class attribute) with a wrapper that records a
span: ``(name, start, end, span id, parent id, request id, error, attrs)``.
Nothing under ``src/`` is edited; the program runs its own code between the
wrappers.  Spans stay in memory and :meth:`Recorder.dump` writes them out
once, when the server has shut down.

The current span rides a :class:`contextvars.ContextVar`, so it follows a
request through the threaded handler, the asyncio front end's tasks and
``asyncio.gather`` fan-outs.  Portfolio members run on executor threads the
context does not reach; they find their race's span through the problem
object they are given.  Forked shard processes inherit the wrappers, which
pass straight through outside the recording process: spans inside shard
processes are not recorded.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from typing import Any, Callable

_current: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "planbench_span", default=None
)


class Recorder:
    """In-memory span sink for one server process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._races: dict[int, tuple[int, int]] = {}

    def _enter(self, root: bool, fallback: tuple[int, int] | None):
        parent = None if root else (_current.get() or fallback)
        span_id = next(self._ids)
        request_id = parent[1] if parent is not None else span_id
        token = _current.set((span_id, request_id))
        return parent, span_id, request_id, token

    def _record(self, name, start, parent, span_id, request_id, token, error, attrs) -> None:
        end = time.perf_counter()
        _current.reset(token)
        self.spans.append(
            (name, start, end, span_id, parent[0] if parent else 0, request_id, error, attrs)
        )

    def wrap(
        self,
        name: str | Callable[..., str],
        function: Callable,
        *,
        root: bool = False,
        annotate: Callable[[tuple, dict, Any], dict] | None = None,
        fallback: Callable[[tuple, dict], tuple[int, int] | None] | None = None,
        on_enter: Callable[[tuple, dict, int, int], None] | None = None,
        on_exit: Callable[[tuple, dict], None] | None = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return function(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent, span_id, request_id, token = recorder._enter(
                root, fallback(args, kwargs) if fallback else None
            )
            if on_enter is not None:
                on_enter(args, kwargs, span_id, request_id)
            error, attrs = None, None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                if on_exit is not None:
                    on_exit(args, kwargs)
                recorder._record(label, start, parent, span_id, request_id, token, error, attrs)

        return wrapper

    def wrap_async(
        self,
        name: str,
        function: Callable,
        *,
        root: bool = False,
        annotate: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return await function(*args, **kwargs)
            parent, span_id, request_id, token = recorder._enter(root, None)
            error, attrs = None, None
            start = time.perf_counter()
            try:
                result = await function(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                recorder._record(name, start, parent, span_id, request_id, token, error, attrs)

        return wrapper

    def dump(self, path: str) -> None:
        if os.getpid() != self.pid:
            return
        temporary = f"{path}.{self.pid}"
        with open(temporary, "w") as handle:
            json.dump(self.spans, handle)
        os.replace(temporary, path)


class _QueueSlots:
    """Stands in for ``PlanService._slots``: a blocking acquire (the request
    found every slot taken and waits) is recorded as ``service.queue``."""

    def __init__(self, slots, acquire_blocking: Callable) -> None:
        self._slots = slots
        self._acquire_blocking = acquire_blocking

    def acquire(self, blocking: bool = True, timeout: float | None = None) -> bool:
        if not blocking:
            return self._slots.acquire(False)
        return self._acquire_blocking(self._slots, timeout)

    def release(self) -> None:
        self._slots.release()


class _JsonShim:
    """``repro.serving.http.json`` with ``loads`` wrapped (request decode)."""

    def __init__(self, loads: Callable) -> None:
        self.loads = loads

    def __getattr__(self, attribute: str):
        return getattr(json, attribute)


def _dispatch_attrs(args, kwargs, result) -> dict:
    return {"method": args[1], "path": args[2], "status": result[0]}


def _latency_attrs(args, kwargs, result) -> dict:
    if isinstance(result, list):
        return {"latency": [response.latency_seconds for response in result]}
    return {"latency": result.latency_seconds}


def _race_attrs(args, kwargs, result) -> dict:
    return {
        "winner": result.best.algorithm,
        "errors": len(result.errors),
        "timed_out": len(result.timed_out),
    }


def install() -> Recorder:
    """Wrap every layer entry point; returns the recorder holding the spans."""
    from repro.core.evaluation import enable_kernel_profiling
    from repro.serving import aserver, cache, http, portfolio, service, store
    from repro.sharding import process, router

    recorder = Recorder()
    # Kernel counters are read back through GET /stats; enabled before any
    # shard process forks, so the shards count too.
    enable_kernel_profiling()

    dispatch = recorder.wrap(
        "http.dispatch", http.dispatch_request, root=True, annotate=_dispatch_attrs
    )
    http.dispatch_request = dispatch
    aserver.dispatch_request = dispatch
    aserver.dispatch_request_async = recorder.wrap_async(
        "http.dispatch", http.dispatch_request_async, root=True, annotate=_dispatch_attrs
    )
    http.json = _JsonShim(recorder.wrap("decode.json", json.loads))
    http.problem_from_dict = recorder.wrap("decode.problem", http.problem_from_dict)
    http.response_to_dict = recorder.wrap("http.render", http.response_to_dict)

    service.fingerprint_problem = recorder.wrap("fingerprint", service.fingerprint_problem)
    router.fingerprint_problem = recorder.wrap("fingerprint", router.fingerprint_problem)

    plan_cache = cache.PlanCache
    plan_cache.get = recorder.wrap("cache.get", plan_cache.get)
    plan_cache.needs_revalidation = recorder.wrap("cache.drift", plan_cache.needs_revalidation)
    plan_cache.put = recorder.wrap("cache.put", plan_cache.put)
    for backend in (store.LocalStore, store.SharedStore):
        backend.get = recorder.wrap("store.get", backend.get)
        backend.put = recorder.wrap("store.put", backend.put)

    plan_service = service.PlanService
    plan_service.submit = recorder.wrap("service.submit", plan_service.submit)
    plan_service.optimize_batch = recorder.wrap("service.batch", plan_service.optimize_batch)
    acquire_blocking = recorder.wrap(
        "service.queue", lambda slots, timeout: slots.acquire(True, timeout)
    )
    original_init = plan_service.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._slots = _QueueSlots(self._slots, acquire_blocking)

    plan_service.__init__ = init

    races = recorder._races

    def race_enter(args, kwargs, span_id, request_id) -> None:
        races[id(args[1])] = (span_id, request_id)

    def race_exit(args, kwargs) -> None:
        races.pop(id(args[1]), None)

    optimizer = portfolio.PortfolioOptimizer
    optimizer.optimize = recorder.wrap(
        "portfolio",
        optimizer.optimize,
        annotate=_race_attrs,
        on_enter=race_enter,
        on_exit=race_exit,
    )
    portfolio.optimize = recorder.wrap(
        lambda args, kwargs: f"optimizer.{kwargs['algorithm']}",
        portfolio.optimize,
        fallback=lambda args, kwargs: races.get(id(args[0])),
    )

    shard_router = router.ShardRouter
    shard_router.submit_async = recorder.wrap_async(
        "router.submit", shard_router.submit_async, annotate=_latency_attrs
    )
    shard_router.optimize_batch_async = recorder.wrap_async(
        "router.batch", shard_router.optimize_batch_async, annotate=_latency_attrs
    )
    shard = process.ProcessShard
    shard.submit_async = recorder.wrap_async(
        "shard.call", shard.submit_async, annotate=_latency_attrs
    )
    shard.optimize_batch_async = recorder.wrap_async(
        "shard.call", shard.optimize_batch_async, annotate=_latency_attrs
    )
    return recorder
