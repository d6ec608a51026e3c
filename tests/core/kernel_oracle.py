"""The pre-table best-pair loop and min-term pick, kept verbatim as test oracles.

Greedy nearest-successor and branch-and-bound rank first services by their
best two-service prefix, and greedy ``min_term`` picks the extension with the
smallest ``ε``.  Both used to build one :class:`PrefixState` per scored
candidate; :meth:`PlanEvaluator.pair_costs` and
:meth:`PrefixState.cheapest_extension` must keep returning exactly what these
state-allocating loops return.  They are slow on purpose and must not be
edited.
"""

from __future__ import annotations

from repro.core.evaluation import PlanEvaluator, PrefixState


def _best_pair_cost(evaluator: PlanEvaluator, first: int) -> float:
    """Bottleneck cost of the cheapest two-service prefix starting with ``first``."""
    start = evaluator.root().extend(first)
    candidates = start.allowed_extensions()
    if not candidates:
        return start.epsilon
    return min(start.extend(second).epsilon for second in candidates)


def oracle_pair_costs(evaluator: PlanEvaluator) -> tuple[float, ...]:
    """The best-pair table, one state-allocating loop per first service."""
    return tuple(_best_pair_cost(evaluator, first) for first in range(evaluator.size))


def oracle_cheapest_extension(state: PrefixState, candidates: list[int]) -> int:
    """The min-term pick, one extended state per candidate."""
    return min(candidates, key=lambda index: (state.extend(index).epsilon, index))
