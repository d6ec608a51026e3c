"""Greedy construction heuristics.

These are the cheap baselines the evaluation compares the branch-and-bound
optimizer against (experiment E4) and the source of the initial incumbent the
branch-and-bound search starts from.  None of them is optimal in general; all
of them respect precedence constraints.

Plans are grown through the evaluation kernel's O(1)-extend
:class:`~repro.core.evaluation.PrefixState`.  The one-step-lookahead
``min_term`` strategy scores its candidates with
:meth:`~repro.core.evaluation.PrefixState.cheapest_extension`, which builds
no candidate state, and ``nearest_successor`` picks its first service from
the problem's memoized best-pair table
(:meth:`~repro.core.evaluation.PlanEvaluator.pair_costs`), the same table
branch-and-bound orders its root by.  The kernel's ``epsilon`` arithmetic is
bit-identical to the from-scratch cost model
(:func:`repro.core.cost_model.bottleneck_cost`), candidates are ranked with
the same ``(score, index)`` tie-breaking as before the kernel, and the
result reports the kernel's cost, which
:class:`~repro.core.result.OptimizationResult` cross-checks against the
oracle once.
"""

from __future__ import annotations

import random

from repro.core.evaluation import PlanEvaluator, PrefixState
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.exceptions import OptimizationError
from repro.utils.timing import Stopwatch

__all__ = ["GreedyStrategy", "GreedyOptimizer", "greedy", "random_plan"]


class GreedyStrategy:
    """Available greedy construction strategies."""

    NEAREST_SUCCESSOR = "nearest_successor"
    """Start with the cheapest two-service prefix, then repeatedly append the
    service with the smallest transfer cost from the current last service.
    This is the expansion heuristic of the paper's algorithm run without
    backtracking."""

    CHEAPEST_COST = "cheapest_cost"
    """Repeatedly append the allowed service with the smallest processing cost
    ``c_i`` (optimal for σ<=1 under *uniform* communication costs)."""

    MOST_SELECTIVE = "most_selective"
    """Repeatedly append the allowed service with the smallest selectivity, so
    that downstream services see as few tuples as possible."""

    MIN_TERM = "min_term"
    """One-step lookahead: repeatedly append the allowed service that minimises
    the bottleneck cost ``ε`` of the resulting prefix."""

    RANDOM = "random"
    """A uniformly random feasible ordering (seeded)."""

    ALL = (NEAREST_SUCCESSOR, CHEAPEST_COST, MOST_SELECTIVE, MIN_TERM, RANDOM)


class GreedyOptimizer:
    """Builds one plan with a greedy strategy; never backtracks."""

    def __init__(self, strategy: str = GreedyStrategy.NEAREST_SUCCESSOR, seed: int = 0) -> None:
        if strategy not in GreedyStrategy.ALL:
            raise ValueError(
                f"unknown greedy strategy {strategy!r}; expected one of {GreedyStrategy.ALL}"
            )
        self.strategy = strategy
        self.seed = seed

    @property
    def name(self) -> str:
        """Algorithm name used in result reports."""
        return f"greedy_{self.strategy}"

    def optimize(self, problem: OrderingProblem) -> OptimizationResult:
        """Construct a plan for ``problem`` with the configured strategy."""
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        rng = random.Random(self.seed)
        evaluator = problem.evaluator()
        state = evaluator.root()
        while not state.is_complete:
            candidates = state.allowed_extensions()
            if not candidates:
                raise OptimizationError(
                    "no service can legally be appended; precedence constraints are unsatisfiable"
                )
            successor = self._pick(evaluator, state, candidates, rng)
            state = state.extend(successor)
            stats.nodes_expanded += 1
        stats.plans_evaluated = 1
        stats.elapsed_seconds = stopwatch.stop()
        plan = problem.plan(state.order)
        return OptimizationResult(
            plan=plan, cost=state.epsilon, algorithm=self.name, optimal=False, statistics=stats
        )

    # -- strategy implementations ---------------------------------------------

    def _pick(
        self,
        evaluator: PlanEvaluator,
        state: PrefixState,
        candidates: list[int],
        rng: random.Random,
    ) -> int:
        if self.strategy == GreedyStrategy.RANDOM:
            return rng.choice(candidates)
        if self.strategy == GreedyStrategy.CHEAPEST_COST:
            return min(candidates, key=lambda index: (evaluator.costs[index], index))
        if self.strategy == GreedyStrategy.MOST_SELECTIVE:
            return min(candidates, key=lambda index: (evaluator.selectivities[index], index))
        if self.strategy == GreedyStrategy.MIN_TERM:
            return state.cheapest_extension(candidates)
        # NEAREST_SUCCESSOR
        if state.is_empty:
            pair_costs = evaluator.pair_costs()
            return min(candidates, key=lambda index: (pair_costs[index], index))
        last = state.last
        return min(candidates, key=lambda index: (evaluator.rows[last][index], index))


def greedy(
    problem: OrderingProblem, strategy: str = GreedyStrategy.NEAREST_SUCCESSOR, seed: int = 0
) -> OptimizationResult:
    """Convenience wrapper around :class:`GreedyOptimizer`."""
    return GreedyOptimizer(strategy, seed=seed).optimize(problem)


def random_plan(problem: OrderingProblem, seed: int = 0) -> OptimizationResult:
    """A uniformly random feasible plan (common strawman baseline)."""
    return GreedyOptimizer(GreedyStrategy.RANDOM, seed=seed).optimize(problem)
