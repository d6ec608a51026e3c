"""Optimization results and search statistics.

Every optimizer in :mod:`repro.core` returns an :class:`OptimizationResult`,
which bundles the plan, its bottleneck cost, whether optimality is guaranteed,
and a :class:`SearchStatistics` record.  The statistics are what experiments
E2/E3/E8 report (nodes explored, pruning counts, wall-clock time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.plan import Plan

__all__ = ["SearchStatistics", "OptimizationResult"]


@dataclass
class SearchStatistics:
    """Counters describing the work an optimizer performed.

    Not every optimizer uses every counter: e.g. the greedy heuristics only
    count ``plans_evaluated``, whereas the branch-and-bound optimizer fills in
    the pruning counters that experiment E8 ablates.
    """

    nodes_expanded: int = 0
    """Partial plans popped/extended during the search."""

    plans_evaluated: int = 0
    """Complete plans whose bottleneck cost was computed."""

    pruned_by_bound: int = 0
    """Partial plans discarded because ``ε`` already reached the incumbent (Lemma 1)."""

    lemma2_closures: int = 0
    """Partial plans closed because ``ε >= ε̄`` (Lemma 2)."""

    lemma3_prunes: int = 0
    """Prefixes discarded by the bottleneck-prefix rule (Lemma 3)."""

    incumbent_updates: int = 0
    """Number of times a better plan than the current best was found."""

    elapsed_seconds: float = 0.0
    """Wall-clock time spent inside the optimizer."""

    extra: dict[str, Any] = field(default_factory=dict)
    """Optimizer-specific counters (e.g. DP states, annealing steps)."""

    def merge(self, other: "SearchStatistics") -> "SearchStatistics":
        """Return the element-wise sum of two statistics records."""
        merged_extra = dict(self.extra)
        for key, value in other.extra.items():
            if key in merged_extra and isinstance(value, (int, float)):
                merged_extra[key] = merged_extra[key] + value
            else:
                merged_extra[key] = value
        return SearchStatistics(
            nodes_expanded=self.nodes_expanded + other.nodes_expanded,
            plans_evaluated=self.plans_evaluated + other.plans_evaluated,
            pruned_by_bound=self.pruned_by_bound + other.pruned_by_bound,
            lemma2_closures=self.lemma2_closures + other.lemma2_closures,
            lemma3_prunes=self.lemma3_prunes + other.lemma3_prunes,
            incumbent_updates=self.incumbent_updates + other.incumbent_updates,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            extra=merged_extra,
        )

    def as_dict(self) -> dict[str, Any]:
        """Flatten the statistics into a plain dictionary for tabular reports."""
        data: dict[str, Any] = {
            "nodes_expanded": self.nodes_expanded,
            "plans_evaluated": self.plans_evaluated,
            "pruned_by_bound": self.pruned_by_bound,
            "lemma2_closures": self.lemma2_closures,
            "lemma3_prunes": self.lemma3_prunes,
            "incumbent_updates": self.incumbent_updates,
            "elapsed_seconds": self.elapsed_seconds,
        }
        data.update(self.extra)
        return data


@dataclass
class OptimizationResult:
    """The outcome of running an optimizer on an :class:`OrderingProblem`."""

    plan: Plan
    """The best plan the optimizer found."""

    cost: float
    """Bottleneck cost of :attr:`plan` (Eq. 1)."""

    algorithm: str
    """Name of the algorithm that produced the result."""

    optimal: bool
    """Whether the algorithm guarantees this is a global optimum."""

    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    """Work counters collected during the search."""

    def __post_init__(self) -> None:
        # Optimizers that report their kernel's cost get it cross-checked
        # here against the from-scratch oracle (Plan.cost, computed once).
        expected = self.plan.cost
        if abs(expected - self.cost) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(
                f"inconsistent result: reported cost {self.cost!r} but the plan costs {expected!r}"
            )

    @property
    def order(self) -> tuple[int, ...]:
        """The service indices of the best plan, in execution order."""
        return self.plan.order

    def describe(self) -> str:
        """Human-readable summary used by examples."""
        guarantee = "optimal" if self.optimal else "heuristic"
        return (
            f"{self.algorithm} ({guarantee}): cost={self.cost:.6g}, "
            f"plan={' -> '.join(self.plan.service_names)}, "
            f"nodes={self.statistics.nodes_expanded}, "
            f"time={self.statistics.elapsed_seconds * 1e3:.2f} ms"
        )

    def as_dict(self) -> dict[str, Any]:
        """Flatten the result into a dictionary for tabular reports."""
        data = {
            "algorithm": self.algorithm,
            "cost": self.cost,
            "optimal": self.optimal,
            "order": list(self.order),
        }
        data.update(self.statistics.as_dict())
        return data
