"""Beam search: a bounded-width variant of the branch-and-bound search.

For very large service sets an exact search may not be affordable even with
the paper's pruning rules (the problem is NP-hard).  Beam search keeps only the
``width`` most promising prefixes per level — promise being the same two guide
measures the exact algorithm uses (``ε`` as the incurred cost, ``ε̄`` as the
residual risk) — so its cost is polynomial (``O(width · n²)`` prefix
extensions) at the price of losing the optimality guarantee.  With
``width >= n!`` it degenerates to exhaustive search; with ``width = 1`` it is
the greedy min-term heuristic.

It serves two roles in the reproduction:

* a scalable heuristic for instances beyond exact reach, and
* a quality baseline whose gap to the exact optimum quantifies what the
  guarantee of the paper's algorithm is worth.

Prefixes are the kernel's O(1)-extend
:class:`~repro.core.evaluation.PrefixState`; both score components come
straight from the kernel (``ε`` is maintained incrementally and is
bit-identical to the from-scratch cost model, ``ε̄`` is
:meth:`~repro.core.evaluation.PlanEvaluator.residual_value` over the
pre-extracted arrays), and candidate generation order and the stable sort
are unchanged, so ties keep breaking the same way.

On the vector kernel (:mod:`repro.core.vector`) each level scores *every*
feasible child of the whole front in one batch call, sorts by ``ε`` with a
stable argsort, and computes the ``ε̄`` tie-break lazily — only for groups of
candidates with exactly equal ``ε`` that reach the beam cut.  Because the
scalar sort key is ``(ε, ε̄)`` with a stable sort over generation order, and
the lazy pass reorders precisely those tie groups by ``ε̄`` (stable again),
the surviving beam — content *and* order — is identical to the scalar path's,
so the two kernels return the same plan and the same cost, bit for bit.

Both kernels consult the ambient cancel scope (:mod:`repro.core.cancel`)
once per level, so a portfolio race that no longer needs the search stops it
within one level.
"""

from __future__ import annotations

from repro.core.cancel import active_scope
from repro.core.evaluation import PrefixState
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.core.vector import batch_evaluator, resolve_kernel
from repro.exceptions import OptimizationError
from repro.utils.timing import Stopwatch

__all__ = ["BeamSearchOptimizer", "beam_search"]


class BeamSearchOptimizer:
    """Level-by-level search keeping the ``width`` best prefixes per level."""

    name = "beam_search"

    def __init__(
        self,
        width: int = 16,
        use_residual_bound: bool = True,
        kernel: str | None = None,
        fast_math: bool = False,
    ) -> None:
        if width < 1:
            raise ValueError("width must be at least 1")
        self.width = width
        self.use_residual_bound = use_residual_bound
        self.kernel = kernel
        self.fast_math = fast_math

    def optimize(self, problem: OrderingProblem) -> OptimizationResult:
        """Construct a plan by beam search; optimal only if the beam never overflowed."""
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        evaluator = problem.evaluator()
        kernel = resolve_kernel(self.kernel, problem.size)
        beam: list[PrefixState] = [evaluator.root()]
        overflowed = False
        cancel = active_scope()

        if kernel == "vector":
            batch = batch_evaluator(evaluator, self.fast_math)
            for level in range(problem.size):
                if cancel is not None:
                    cancel.check()
                beam, level_overflowed = self._vector_level(
                    batch, beam, final=level + 1 == problem.size, stats=stats
                )
                overflowed = overflowed or level_overflowed
        else:
            for _ in range(problem.size):
                if cancel is not None:
                    cancel.check()
                candidates: list[PrefixState] = []
                for state in beam:
                    for successor in state.allowed_extensions():
                        candidates.append(state.extend(successor))
                        stats.nodes_expanded += 1
                if not candidates:
                    raise OptimizationError(
                        "no service can legally be appended; "
                        "precedence constraints are unsatisfiable"
                    )
                candidates.sort(key=self._score)
                if len(candidates) > self.width:
                    overflowed = True
                    candidates = candidates[: self.width]
                beam = candidates

        best = min(beam, key=lambda state: state.epsilon)
        stats.plans_evaluated = len(beam)
        stats.extra["beam_width"] = self.width
        stats.extra["beam_overflowed"] = overflowed
        stats.extra["kernel"] = kernel
        stats.elapsed_seconds = stopwatch.stop()
        plan = problem.plan(best.order)
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            algorithm=self.name,
            # Without overflow every prefix was kept, so the search was exhaustive.
            optimal=not overflowed,
            statistics=stats,
        )

    def _vector_level(
        self, batch, beam: list[PrefixState], final: bool, stats: SearchStatistics
    ) -> tuple[list[PrefixState], bool]:
        """One beam level on the vector kernel: batch-score, sort, survive."""
        import numpy as np  # repro-lint: disable=RL004 — vector-only path; resolve_kernel proved numpy importable

        parents, extensions, epsilons = batch.score_front(beam, final)
        total = len(parents)
        stats.nodes_expanded += total
        if not total:
            raise OptimizationError(
                "no service can legally be appended; precedence constraints are unsatisfiable"
            )
        # Stable sort by ε keeps generation order inside equal-ε groups —
        # exactly where the scalar sort consults ε̄ — so only those groups
        # (and only when they reach the cut) need the O(n²) residual.
        ranking = list(np.argsort(epsilons, kind="stable"))
        if self.use_residual_bound and not final and total > 1:
            self._residual_tiebreak(batch, beam, parents, extensions, epsilons, ranking)
        survivors = ranking[: self.width]
        next_beam = [
            beam[parents[position]].extend(int(extensions[position])) for position in survivors
        ]
        return next_beam, total > self.width

    def _residual_tiebreak(
        self, batch, beam, parents, extensions, epsilons, ranking: list
    ) -> None:
        """Reorder equal-``ε`` groups that reach the beam cut by ``ε̄``, in place.

        Residuals are computed from the parent's O(1) fields without
        materializing the child state; groups entirely past the cut can never
        enter the beam, so their internal order is irrelevant and skipped.
        """
        evaluator = batch.evaluator
        selectivities = evaluator.selectivities

        def residual(position: int) -> float:
            parent = beam[parents[position]]
            extension = int(extensions[position])
            return evaluator.residual_parts(
                parent.placed | (1 << extension),
                extension,
                parent.output_rate,
                parent.output_rate * selectivities[extension],
            )[0]

        total = len(ranking)
        start = 0
        while start < min(self.width, total):
            value = epsilons[ranking[start]]
            stop = start + 1
            while stop < total and epsilons[ranking[stop]] == value:
                stop += 1
            if stop - start > 1:
                # Python's sort is stable, so equal-ε̄ members keep generation
                # order — the same tie-break the scalar (ε, ε̄) sort applies.
                ranking[start:stop] = sorted(ranking[start:stop], key=residual)
            start = stop

    def _score(self, state: PrefixState) -> tuple[float, float]:
        """Order prefixes by incurred cost, breaking ties by residual risk."""
        if self.use_residual_bound and not state.is_complete:
            return (state.epsilon, state.evaluator.residual_value(state))
        return (state.epsilon, 0.0)


def beam_search(problem: OrderingProblem, width: int = 16) -> OptimizationResult:
    """Convenience wrapper around :class:`BeamSearchOptimizer`."""
    return BeamSearchOptimizer(width=width).optimize(problem)
