"""Deadline-budgeted portfolio optimization.

A plan service answers under a latency budget, but the registry's algorithms
span five orders of magnitude in runtime: the greedy heuristics return in
microseconds, beam search in milliseconds, branch-and-bound (exact) usually in
a few milliseconds but possibly much longer on large instances.  The portfolio
exploits that spread in three phases:

1. the **anytime seed** — the first configured algorithm (greedy by default)
   runs synchronously, so there is always an answer to return;
2. the **inline proof** — the exact members
   (:data:`repro.core.optimizer.EXACT_ALGORITHMS`) run one after another, in
   ladder order, on the calling thread.  Each gets a fair share of the
   remaining budget — ``remaining / members not yet run`` — as the deadline of
   its own :class:`~repro.core.cancel.CancelScope`, so one that cannot finish
   its proof stops by itself and is reported in
   :attr:`PortfolioResult.timed_out`.  A thread race under the GIL would give
   it about the same CPU share, but beside busy heuristics its proof would
   arrive late; inline it arrives without that convoy;
3. the **heuristic race** — only when no seed or exact member proved
   optimality do the remaining members race until the budget expires, each
   completed result refining the incumbent.  A result proven optimal there
   (a beam that never overflowed) ends the race at once, too.

A proof anywhere ends the portfolio: no member can beat it, so the members
still running are stopped and those never started are skipped, and both are
reported in :attr:`PortfolioResult.cancelled`.  The served cost is the one the
full race would have picked.

The portfolio reuses :data:`repro.core.optimizer.ALGORITHMS` — it never
duplicates a runner — and returns the best
:class:`~repro.core.result.OptimizationResult` observed when the deadline
fires.  Before the seed runs it builds the problem's evaluation kernel
(:meth:`~repro.core.problem.OrderingProblem.evaluator`) once, so every member
shares the same pre-extracted arrays instead of each worker thread lazily
building its own on first use.  Because the seed always completes, the
portfolio's answer is never worse than the seed algorithm's; algorithms that
error out (e.g. an exact solver refusing an over-size instance) are recorded,
not fatal.

The heuristic race runs on one of two interchangeable backends
(:attr:`PortfolioOptions.backend`); the seed and the inline proof are the same
on both:

* ``"threads"`` (default) — a shared
  :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap per race, but
  Python threads cannot be killed, so members run under one cooperative
  :class:`~repro.core.cancel.CancelScope` per race: when the race returns
  with members still running (a proof arrived, or the deadline passed) it
  cancels the scope, and every iterative optimizer stops at its next level,
  node or iteration.  An algorithm without such checks (the greedy
  heuristics, a custom runner) still finishes on its own, so the executor is
  sized with spare workers to keep one straggler from stalling the next
  request's race.
* ``"processes"`` — :func:`repro.parallel.race.race_processes`.  Every racing
  member gets its own OS process and is *terminated* at the deadline or on a
  proof, so even a member that never checks its scope costs at most the
  budget.  This is the backend that makes arbitrary members safe in the
  ladder, at the price of per-race process startup — which an inline proof
  skips altogether.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.cancel import CancelScope, cancel_scope
from repro.core.optimizer import ALGORITHMS, EXACT_ALGORITHMS, optimize
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.exceptions import (
    OptimizationCancelledError,
    OptimizationError,
    ReproError,
    ServingError,
)
from repro.obs.trace import ActiveTrace, capture, trace_span
from repro.utils.timing import Stopwatch

__all__ = [
    "PORTFOLIO_BACKENDS",
    "PortfolioOptions",
    "PortfolioResult",
    "PortfolioOptimizer",
    "run_portfolio",
]

DEFAULT_PORTFOLIO = ("greedy_min_term", "beam_search", "branch_and_bound")
"""Default algorithm ladder: instant heuristic, polynomial refinement, exact."""

PORTFOLIO_BACKENDS = ("threads", "processes")
"""Supported racing backends (see the module docstring for the trade-off)."""


@dataclass(frozen=True)
class PortfolioOptions:
    """Configuration of one portfolio race."""

    algorithms: tuple[str, ...] = DEFAULT_PORTFOLIO
    """Algorithm names from :data:`repro.core.optimizer.ALGORITHMS`; the first
    one is the synchronous anytime seed."""

    budget_seconds: float | None = 1.0
    """Wall-clock budget for every member after the seed (``None`` waits for all)."""

    algorithm_options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    """Per-algorithm keyword options, e.g. ``{"beam_search": {"beam_width": 8}}``."""

    backend: str = "threads"
    """Racing backend: ``"threads"`` (shared executor, stragglers stopped
    cooperatively) or ``"processes"`` (dedicated processes, stragglers
    terminated)."""

    mp_context: str | None = None
    """Multiprocessing start method of the process backend (``"fork"`` /
    ``"forkserver"`` / ``"spawn"``).  ``None`` keeps the cheap default
    (``fork`` where available); a service that forks race members from a
    heavily threaded parent can pick ``forkserver`` or ``spawn`` to trade
    member startup latency for fork-with-threads safety."""

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ServingError("a portfolio needs at least one algorithm")
        if len(set(self.algorithms)) != len(self.algorithms):
            # Duplicates buy nothing (same work twice) and the process
            # backend tracks race members by name.
            raise ServingError(f"portfolio members must be unique, got {self.algorithms!r}")
        unknown = [name for name in self.algorithms if name not in ALGORITHMS]
        if unknown:
            raise ServingError(
                f"unknown portfolio algorithms {unknown!r}; available: {', '.join(ALGORITHMS)}"
            )
        if self.budget_seconds is not None and self.budget_seconds < 0:
            raise ServingError(f"budget_seconds must be non-negative, got {self.budget_seconds!r}")
        if self.backend not in PORTFOLIO_BACKENDS:
            raise ServingError(
                f"unknown portfolio backend {self.backend!r}; "
                f"available: {', '.join(PORTFOLIO_BACKENDS)}"
            )
        if self.mp_context is not None:
            methods = multiprocessing.get_all_start_methods()
            if self.mp_context not in methods:
                raise ServingError(
                    f"unsupported mp_context {self.mp_context!r}; "
                    f"available: {', '.join(methods)}"
                )


@dataclass(frozen=True)
class PortfolioResult:
    """The outcome of racing a portfolio on one problem."""

    best: OptimizationResult
    """The cheapest plan any member produced within the budget."""

    results: dict[str, OptimizationResult]
    """Results of every member that completed in time, by algorithm name."""

    errors: dict[str, str]
    """Error messages of members that raised, by algorithm name."""

    timed_out: tuple[str, ...]
    """Members that had not finished by their deadline: the budget, or an
    exact member's fair share of it."""

    cancelled: tuple[str, ...]
    """Members stopped (or never started) because a result was already
    proven optimal."""

    elapsed_seconds: float
    """Wall-clock time the race took (≤ budget + seed time)."""

    @property
    def refinement(self) -> float:
        """Relative improvement of :attr:`best` over the worst completed member."""
        completed = list(self.results.values())
        if not completed:
            return 0.0
        worst = max(r.cost for r in completed)
        if worst <= 0:
            return 0.0
        return (worst - self.best.cost) / worst


class PortfolioOptimizer:
    """Runs deadline-budgeted portfolio races, reusing one thread pool.

    The executor is shared across races, which is what the long-running
    :class:`~repro.serving.service.PlanService` needs; one-shot callers can use
    :func:`run_portfolio` instead.
    """

    def __init__(self, options: PortfolioOptions | None = None, max_workers: int | None = None):
        self.options = options if options is not None else PortfolioOptions()
        workers = max_workers if max_workers is not None else 2 * len(self.options.algorithms)
        if workers < 1:
            raise ServingError(f"max_workers must be at least 1, got {workers!r}")
        # The processes backend spawns per-race member processes instead
        # (repro.parallel.race); it never touches a thread executor.
        self._executor = (
            concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="portfolio"
            )
            if self.options.backend == "threads"
            else None
        )
        self._closed = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down without waiting for stragglers."""
        self._closed.set()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "PortfolioOptimizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- racing ------------------------------------------------------------

    def optimize(
        self, problem: OrderingProblem, budget_seconds: float | None = None
    ) -> PortfolioResult:
        """Race the configured portfolio on ``problem``.

        ``budget_seconds`` overrides the options' budget for this race.  The
        first algorithm runs synchronously regardless of the budget, so the
        call always returns a valid result.
        """
        if self._closed.is_set():
            raise ServingError("the portfolio optimizer has been closed")
        options = self.options
        budget = options.budget_seconds if budget_seconds is None else budget_seconds
        if budget is not None and budget < 0:
            raise ServingError(f"budget_seconds must be non-negative, got {budget!r}")
        with trace_span("portfolio.race", backend=options.backend) as race_span:
            result = self._race(problem, options, budget)
            race_span.annotate(
                completed=len(result.results),
                timed_out=len(result.timed_out),
                cancelled=len(result.cancelled),
            )
        return result

    def _race(
        self,
        problem: OrderingProblem,
        options: PortfolioOptions,
        budget: float | None,
    ) -> PortfolioResult:
        stopwatch = Stopwatch().start()

        def remaining() -> float | None:
            return None if budget is None else max(budget - stopwatch.elapsed, 0.0)

        # Build the shared evaluation kernel before any member runs: the racing
        # threads all reuse it, and the (idempotent) lazy construction happens
        # once instead of concurrently in every worker.
        problem.evaluator()
        seed_name, *unstarted = options.algorithms
        results: dict[str, OptimizationResult] = {}
        errors: dict[str, str] = {}
        timed_out: list[str] = []
        try:
            with trace_span("portfolio.member", algorithm=seed_name, seed=True):
                results[seed_name] = self._run_member(problem, seed_name)
        except ReproError as error:
            errors[seed_name] = str(error)
        proven = any(result.optimal for result in results.values())

        for name in [name for name in unstarted if name in EXACT_ALGORITHMS]:
            if proven:
                break
            left = remaining()
            deadline = None if left is None else time.monotonic() + left / len(unstarted)
            unstarted.remove(name)
            try:
                with cancel_scope(CancelScope(deadline)), trace_span(
                    "portfolio.member", algorithm=name, inline=True
                ):
                    results[name] = self._run_member(problem, name)
            except OptimizationCancelledError:
                timed_out.append(name)
            except ReproError as error:
                errors[name] = str(error)
            else:
                proven = results[name].optimal

        abandoned: list[str] = []
        if unstarted and not proven:
            if options.backend == "processes":
                from repro.parallel.race import race_processes

                raced, failed, abandoned = race_processes(problem, unstarted, options, remaining())
            else:
                raced, failed, abandoned = self._race_threads(problem, unstarted, remaining())
            results.update(raced)
            errors.update(failed)
            proven = any(result.optimal for result in raced.values())
            unstarted = []
        # Whatever is still running lost: to a proof (cancelled) or to the
        # deadline (timed out).  A member never started can only have lost
        # to a proof.
        cancelled = unstarted + abandoned if proven else []
        if not proven:
            timed_out += abandoned

        if not results:
            raise OptimizationError(
                f"no portfolio member produced a plan within the budget "
                f"(errors: {errors!r}, timed out: {timed_out!r})"
            )
        best = min(results.values(), key=lambda result: (result.cost, not result.optimal))
        return PortfolioResult(
            best=best,
            results=results,
            errors=errors,
            timed_out=tuple(sorted(timed_out)),
            cancelled=tuple(sorted(cancelled)),
            elapsed_seconds=stopwatch.stop(),
        )

    def _race_threads(
        self, problem: OrderingProblem, names: list[str], budget: float | None
    ) -> tuple[dict[str, OptimizationResult], dict[str, str], list[str]]:
        """Race ``names`` on the shared executor for up to ``budget`` seconds.

        Returns the completed results, the members' errors, and the members
        still running when a proof arrived or the budget expired; those are
        asked to stop through the race's cancel scope.
        """
        assert self._executor is not None
        stopwatch = Stopwatch().start()
        results: dict[str, OptimizationResult] = {}
        errors: dict[str, str] = {}
        # Racing members run on executor threads, where neither the ambient
        # trace nor the cancel scope flows; hand both over.
        context = capture()
        scope = CancelScope()
        futures = {
            self._executor.submit(self._traced_member, problem, name, context, scope): name
            for name in names
        }
        pending = set(futures)
        proven = False
        while pending and not proven:
            remaining = None if budget is None else max(budget - stopwatch.elapsed, 0.0)
            done, pending = concurrent.futures.wait(
                pending, timeout=remaining, return_when=concurrent.futures.FIRST_COMPLETED
            )
            if not done:
                break  # the budget expired
            for future in done:
                name = futures[future]
                try:
                    results[name] = future.result()
                except ReproError as error:
                    errors[name] = str(error)
                else:
                    proven = proven or results[name].optimal
        if pending:
            # Abandoned members would otherwise run on and hold the GIL.
            scope.cancel()
            for future in pending:
                future.cancel()
        return results, errors, [futures[future] for future in pending]

    def _traced_member(
        self,
        problem: OrderingProblem,
        name: str,
        context: ActiveTrace | None,
        scope: CancelScope,
    ) -> OptimizationResult:
        with cancel_scope(scope), trace_span("portfolio.member", context=context, algorithm=name):
            return self._run_member(problem, name)

    def _run_member(self, problem: OrderingProblem, name: str) -> OptimizationResult:
        member_options = dict(self.options.algorithm_options.get(name, {}))
        try:
            return optimize(problem, algorithm=name, **member_options)
        except TypeError as error:
            # An optimizer rejecting its options must surface as a recorded
            # member error, not crash the whole race (cf. core.optimizer.compare).
            raise OptimizationError(f"{name} rejected the options: {error}") from error


def run_portfolio(
    problem: OrderingProblem,
    options: PortfolioOptions | None = None,
    budget_seconds: float | None = None,
) -> PortfolioResult:
    """One-shot convenience wrapper around :class:`PortfolioOptimizer`."""
    with PortfolioOptimizer(options) as portfolio:
        return portfolio.optimize(problem, budget_seconds=budget_seconds)
