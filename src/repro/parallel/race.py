"""Process-backed portfolio racing with hard cancellation.

The thread-backed portfolio (:mod:`repro.serving.portfolio`) has one
structural limitation it documents itself: Python threads cannot be killed,
so a racing member that never checks its cancel scope keeps its worker busy
until it finishes on its own.

This module removes the limitation for the portfolio's last phase.  The
portfolio runs the anytime seed and the inline exact members (which stop at
their own deadlines) in the parent on both backends, exactly as documented
in :mod:`repro.serving.portfolio`; only when neither proved optimality does it
hand the remaining members to :func:`race_processes`, which races each in its
own OS *process*.  On a proof or at the deadline, stragglers are
:meth:`~multiprocessing.Process.terminate`-d and reaped, so an over-budget
member costs exactly the budget, never more.  Members are started through
:func:`repro.parallel.pool.preferred_context` (``fork`` where available —
member startup must stay cheap relative to sub-second budgets); forking from a
heavily multi-threaded parent carries the usual CPython caveat about locks
held by other threads at fork time, so a service that prefers safety over
startup latency sets
:attr:`~repro.serving.portfolio.PortfolioOptions.mp_context` to
``"forkserver"`` or ``"spawn"`` (plumbed from
:class:`~repro.serving.service.PlanServiceConfig` and the CLI's
``--mp-context``).  The race reports in the same shape as the thread
backend's — results, errors, and the members still running at the end — so
the portfolio assembles one
:class:`~repro.serving.portfolio.PortfolioResult` for both, and callers switch
backends through :attr:`~repro.serving.portfolio.PortfolioOptions.backend`
alone.
"""

from __future__ import annotations

import queue
import time
from typing import TYPE_CHECKING

from repro.core.optimizer import optimize
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.exceptions import ReproError
from repro.obs.trace import Span, current_trace, emit_spans
from repro.parallel.codec import result_from_wire, result_to_wire
from repro.parallel.pool import preferred_context
from repro.serialization import problem_from_wire, problem_to_wire
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.portfolio import PortfolioOptions

__all__ = ["race_processes"]

_JOIN_GRACE_SECONDS = 1.0
"""How long a terminated member may take to be reaped before it is abandoned."""

_LIVENESS_POLL_SECONDS = 0.25
"""How often the parent wakes while waiting on results to notice dead members."""


def _race_member_main(payload, name, options, results, trace=None) -> None:
    """Child entry point: run one portfolio member and report over the queue.

    ``trace`` is the caller's ``(trace_id, parent_span_id)`` when the race is
    part of a traced request; the member then times itself with one
    ``worker.optimize`` span shipped back alongside the result, so the span
    joins the request's tree in the parent process.
    """
    span = None
    if trace is not None:
        span = Span(trace[0], "worker.optimize", parent_id=trace[1])
        span.annotate(backend="race", algorithm=name)
        started = time.perf_counter()
    try:
        problem = problem_from_wire(payload)
        result = optimize(problem, algorithm=name, **dict(options))
    except ReproError as error:
        results.put((name, False, str(error), _finish(span, started if span else 0.0, ok=False)))
    except TypeError as error:
        results.put(
            (
                name,
                False,
                f"{name} rejected the options: {error}",
                _finish(span, started if span else 0.0, ok=False),
            )
        )
    else:
        results.put(
            (name, True, result_to_wire(result), _finish(span, started if span else 0.0, ok=True))
        )


def _finish(span, started: float, ok: bool) -> list:
    """Close the member's span (if traced) into its wire form."""
    if span is None:
        return []
    span.duration = time.perf_counter() - started
    span.annotate(ok=ok)
    return [span.to_dict()]


def race_processes(
    problem: OrderingProblem,
    names: list[str],
    options: "PortfolioOptions",
    budget_seconds: float | None,
) -> tuple[dict[str, OptimizationResult], dict[str, str], list[str]]:
    """Race ``names`` on ``problem``, one process each, with hard cancellation.

    Members race until ``budget_seconds`` expires (``None`` waits for all) or
    one returns a result proven optimal.  Returns the completed results (bound
    to the parent's ``problem``), the members' errors, and the members still
    running at that point, which have been *terminated* — not merely
    abandoned.  ``options`` supplies the per-member options and the start
    method.
    """
    stopwatch = Stopwatch().start()
    payload = problem_to_wire(problem)
    context = preferred_context(options.mp_context)
    result_queue = context.Queue()
    results: dict[str, OptimizationResult] = {}
    errors: dict[str, str] = {}
    proven = False
    trace = current_trace()
    members = {}
    for name in names:
        member_options = tuple(dict(options.algorithm_options.get(name, {})).items())
        process = context.Process(
            target=_race_member_main,
            args=(payload, name, member_options, result_queue, trace),
            daemon=True,
            name=f"race-{name}",
        )
        process.start()
        members[name] = process

    outstanding = set(members)

    def record(name: str, ok: bool, payload_or_error, member_spans) -> bool:
        """Fold one member report in; return whether it proved optimality."""
        outstanding.discard(name)
        emit_spans(member_spans)
        if not ok:
            errors[name] = payload_or_error
            return False
        results[name] = result_from_wire(payload_or_error, problem)
        return results[name].optimal

    while outstanding and not proven:
        if budget_seconds is None:
            timeout = _LIVENESS_POLL_SECONDS
        else:
            timeout = budget_seconds - stopwatch.elapsed
            if timeout <= 0:
                break
            timeout = min(timeout, _LIVENESS_POLL_SECONDS)
        try:
            report = result_queue.get(timeout=timeout)
        except queue.Empty:
            # A member that died without reporting (OOM kill, hard crash)
            # must not be waited on — especially with no budget, where the
            # queue would otherwise be watched forever.  A dead member
            # flushed any answer it did produce before exiting, so drain
            # once more non-blocking before declaring it lost.
            dead = [n for n in outstanding if not members[n].is_alive()]
            if dead:
                try:
                    while True:
                        proven = record(*result_queue.get_nowait()) or proven
                except queue.Empty:
                    pass
                for name in [n for n in dead if n in outstanding]:
                    outstanding.discard(name)
                    errors[name] = (
                        f"member process died without reporting "
                        f"(exit code {members[name].exitcode})"
                    )
            if budget_seconds is not None and stopwatch.elapsed >= budget_seconds:
                break
            continue
        proven = record(*report) or proven

    # Whatever is still running lost the race; terminate it, not abandon it.
    for name in outstanding:
        process = members[name]
        if process.is_alive():
            process.terminate()
        process.join(timeout=_JOIN_GRACE_SECONDS)
    result_queue.close()
    result_queue.cancel_join_thread()
    return results, errors, sorted(outstanding)
