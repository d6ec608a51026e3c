"""Held–Karp-style dynamic programming over service subsets.

The bottleneck objective decomposes stage-wise, so the classical
subset/last-service dynamic programme applies: for every subset ``M`` of
services and every ``last in M`` we keep the smallest achievable maximum over
the *settled* terms of the services of ``M`` placed before ``last`` (the term
of ``last`` itself is settled only when its successor becomes known).  The
programme runs in ``O(2^N * N^2)`` time, exponentially better than ``N!``
enumeration, and serves as a second independent exact baseline for the
branch-and-bound optimizer (experiments E1–E3).

The state table is laid out as *per-mask flat arrays* — ``values[mask]`` is a
plain list indexed by ``last``, allocated lazily for reachable masks only —
instead of a ``dict`` keyed by ``(mask, last)`` tuples: the inner loop then
costs two list indexings per transition rather than a tuple construction plus
two hash probes, which is where the dict-based formulation spent most of its
time.  Per-service successor tuples ``(next, bit, predecessor_mask, t)`` are
precomputed once, so the transition loop touches no accessor methods at all.
The transition arithmetic keeps the evaluation kernel's term expression
shapes (``rate * c + rate * sigma * t``), so the winning plan's reported cost
is bit-identical to the from-scratch cost model, and the iteration order
(mask ascending, last ascending, next ascending, strict improvement) is
unchanged — the flat layout returns exactly the plans the dict layout did.

On the vector kernel (:mod:`repro.core.vector`) the programme is processed
*layer by layer* (masks grouped by popcount): all reachable ``(mask, last)``
states of a layer become one ``states × services`` settled-term matrix
(:meth:`~repro.core.vector.BatchEvaluator.transition_terms`), and grouped
``minimum.reduceat`` reductions write every layer-``k+1`` cell in a handful
of array operations.  This reorders the relaxations relative to the scalar
mask-ascending sweep, but each target cell ``(mask | bit(next), next)`` has a
*unique* source mask (``mask``), so its final value is a min over one group
however the sweep is ordered — and taking the *first* row of the group
attaining the min reproduces the scalar strict-improvement parent tie-break
(last ascending).  Both kernels therefore return the identical plan with
bit-identical cost.  ``dp_states`` (cells reached) matches the scalar count
exactly; ``nodes_expanded`` counts cell writes, which on the vector path
equals ``dp_states`` rather than the scalar sweep's path-dependent
strict-improvement count.

The scalar sweep checks the ambient cancel scope (:mod:`repro.core.cancel`)
once per reachable mask, the vector sweep once per layer.
"""

from __future__ import annotations

from repro.core.cancel import active_scope
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.core.vector import batch_evaluator, resolve_kernel
from repro.exceptions import OptimizationError, ProblemTooLargeError
from repro.utils.timing import Stopwatch

__all__ = ["DynamicProgrammingOptimizer", "dynamic_programming"]

_INF = float("inf")

_VECTOR_DP_MAX_SIZE = 20
"""Largest instance the layered vector sweep takes on: it keeps dense
``(2^n, n)`` value/parent tables, ~250 MB at n=20.  Beyond that (only
reachable with an explicit ``max_size`` override) the lazily-allocated
scalar sweep is the safer memory trade."""

_VECTOR_DP_CHUNK_MASKS = 4096
"""Masks per batched chunk of a layer, bounding the transient term/candidate
matrices to a few tens of MB at the largest supported n."""


class DynamicProgrammingOptimizer:
    """Exact optimizer based on subset dynamic programming."""

    name = "dynamic_programming"

    def __init__(
        self, max_size: int = 18, kernel: str | None = None, fast_math: bool = False
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self.kernel = kernel
        self.fast_math = fast_math

    def optimize(self, problem: OrderingProblem) -> OptimizationResult:
        """Return the optimal plan for ``problem`` via subset DP."""
        size = problem.size
        if size > self.max_size:
            raise ProblemTooLargeError(
                f"dynamic programming is limited to {self.max_size} services, "
                f"the problem has {size} (raise max_size explicitly if you really want this)"
            )
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        evaluator = problem.evaluator()
        kernel = resolve_kernel(self.kernel, size)
        if kernel == "vector" and size > _VECTOR_DP_MAX_SIZE:
            kernel = "scalar"
        costs = evaluator.costs
        selectivities = evaluator.selectivities
        rows = evaluator.rows
        sink = evaluator.sink
        precedence = problem.precedence

        full_mask = (1 << size) - 1
        predecessor_masks = [0] * size
        if precedence is not None:
            for index in range(size):
                mask = 0
                for pred in precedence.predecessors(index):
                    mask |= 1 << pred
                predecessor_masks[index] = mask

        # Selectivity product of every subset, built incrementally by lowest
        # set bit.  Both kernels share this scalar build: the multiplication
        # *order* per subset is part of the bit-exactness contract, so the
        # vector path converts the finished table instead of recomputing it.
        subset_product = [1.0] * (1 << size)
        for mask in range(1, 1 << size):
            lowest = (mask & -mask).bit_length() - 1
            subset_product[mask] = subset_product[mask ^ (1 << lowest)] * selectivities[lowest]

        if kernel == "vector":
            order, dp_states, best_cost = self._sweep_vector(
                evaluator, predecessor_masks, subset_product, stats
            )
        else:
            order, dp_states, best_cost = self._sweep_scalar(
                size, costs, selectivities, rows, sink,
                predecessor_masks, subset_product, full_mask, stats,
            )

        stats.extra["dp_states"] = dp_states
        stats.extra["kernel"] = kernel
        stats.elapsed_seconds = stopwatch.stop()

        if order is None:
            raise OptimizationError("no feasible ordering satisfies the precedence constraints")

        plan = problem.plan(order)
        return OptimizationResult(
            plan=plan, cost=plan.cost, algorithm=self.name, optimal=True, statistics=stats
        )

    # -- scalar sweep --------------------------------------------------------

    def _sweep_scalar(
        self, size, costs, selectivities, rows, sink,
        predecessor_masks, subset_product, full_mask, stats,
    ) -> tuple[list[int] | None, int, float]:
        # Per-service static transition tuples: every feasible-by-identity
        # successor of `last` with its bit, precedence mask and transfer cost.
        successors: list[tuple[tuple[int, int, int, float], ...]] = [
            tuple(
                (nxt, 1 << nxt, predecessor_masks[nxt], rows[last][nxt])
                for nxt in range(size)
                if nxt != last
            )
            for last in range(size)
        ]

        # values[mask][last] is the smallest achievable maximum over the
        # settled terms of mask \ {last}; parents[mask][last] the predecessor
        # of `last` in the plan attaining it (-1 for none).  Rows are
        # allocated lazily: only reachable masks ever hold a list.
        values: list[list[float] | None] = [None] * (1 << size)
        parents: list[list[int] | None] = [None] * (1 << size)
        seeds = 0
        for index in range(size):
            if predecessor_masks[index] == 0:
                row = [_INF] * size
                row[index] = 0.0
                values[1 << index] = row
                parent_row = [-1] * size
                parents[1 << index] = parent_row
                seeds += 1
        stats.nodes_expanded = seeds
        dp_states = seeds

        cancel = active_scope()
        for mask in range(1, full_mask + 1):
            value_row = values[mask]
            if value_row is None:
                continue
            if cancel is not None:
                cancel.check()
            not_mask = ~mask
            for last in range(size):
                value = value_row[last]
                if value == _INF:
                    continue
                rate_before_last = subset_product[mask ^ (1 << last)]
                settled_base = rate_before_last * costs[last]
                outgoing_rate = rate_before_last * selectivities[last]
                for nxt, bit, pred_mask, transfer in successors[last]:
                    if mask & bit:
                        continue
                    if pred_mask & not_mask:
                        continue
                    settled_term = settled_base + outgoing_rate * transfer
                    candidate = value if value >= settled_term else settled_term
                    next_mask = mask | bit
                    next_row = values[next_mask]
                    if next_row is None:
                        next_row = [_INF] * size
                        values[next_mask] = next_row
                        next_parents = [-1] * size
                        parents[next_mask] = next_parents
                    if candidate < next_row[nxt]:
                        if next_row[nxt] == _INF:
                            dp_states += 1
                        next_row[nxt] = candidate
                        parents[next_mask][nxt] = last  # type: ignore[index]
                        stats.nodes_expanded += 1

        best_cost = _INF
        best_last = -1
        final_row = values[full_mask]
        if final_row is not None:
            for last in range(size):
                value = final_row[last]
                if value == _INF:
                    continue
                rate_before_last = subset_product[full_mask ^ (1 << last)]
                final_term = (
                    rate_before_last * costs[last]
                    + rate_before_last * selectivities[last] * sink[last]
                )
                total = value if value >= final_term else final_term
                stats.plans_evaluated += 1
                if total < best_cost:
                    best_cost = total
                    best_last = last

        if best_last < 0:
            return None, dp_states, best_cost
        return self._reconstruct(parents, full_mask, best_last), dp_states, best_cost

    # -- layered vector sweep -------------------------------------------------

    def _sweep_vector(
        self, evaluator, predecessor_masks, subset_product, stats
    ) -> tuple[list[int] | None, int, float]:
        import numpy as np  # repro-lint: disable=RL004 — vector-only path; resolve_kernel proved numpy importable

        batch = batch_evaluator(evaluator, self.fast_math)
        size = evaluator.size
        full_mask = (1 << size) - 1
        products = np.asarray(subset_product, dtype=np.float64)
        pred_np = np.asarray(predecessor_masks, dtype=np.int64)
        bits = np.int64(1) << np.arange(size, dtype=np.int64)

        values = np.full(((1 << size), size), _INF, dtype=np.float64)
        parents = np.full(((1 << size), size), -1, dtype=np.int32)

        seed_services = [index for index in range(size) if predecessor_masks[index] == 0]
        for index in seed_services:
            values[1 << index, index] = 0.0
        dp_states = len(seed_services)
        stats.nodes_expanded = dp_states
        # 1 << i is increasing in i, so the seed layer is already mask-ascending.
        layer_masks = np.array([1 << index for index in seed_services], dtype=np.int64)

        cancel = active_scope()
        for _ in range(size - 1):
            if layer_masks.size == 0:
                break
            if cancel is not None:
                cancel.check()
            next_masks: list[np.ndarray] = []
            for start in range(0, layer_masks.size, _VECTOR_DP_CHUNK_MASKS):
                chunk = layer_masks[start : start + _VECTOR_DP_CHUNK_MASKS]
                value_rows = values[chunk]
                # Row-major nonzero: states come out (mask ascending, last
                # ascending) — the order the parent tie-break relies on.
                group_ids, lasts = np.nonzero(np.isfinite(value_rows))
                state_values = value_rows[group_ids, lasts]
                state_masks = chunk[group_ids]
                rates_before = products[state_masks ^ (np.int64(1) << lasts)]
                terms = batch.transition_terms(rates_before, lasts)
                candidates = np.maximum(state_values[:, None], terms)

                # Every chunk mask has at least one finite state (it was
                # reached), so group g of the reduceat output is chunk[g].
                starts = np.flatnonzero(
                    np.concatenate(([True], group_ids[1:] != group_ids[:-1]))
                )
                mins = np.minimum.reduceat(candidates, starts, axis=0)
                # First state row attaining each group minimum = the scalar
                # sweep's strict-improvement winner (lasts ascend within a mask).
                row_index = np.arange(len(group_ids))
                hits = np.where(
                    candidates == mins[group_ids], row_index[:, None], len(group_ids)
                )
                first_rows = np.minimum.reduceat(hits, starts, axis=0)
                winning_last = lasts[np.minimum(first_rows, len(group_ids) - 1)]

                feasible = ((chunk[:, None] & bits[None, :]) == 0) & (
                    (pred_np[None, :] & ~chunk[:, None]) == 0
                )
                target_rows, target_cols = np.nonzero(feasible)
                if not target_rows.size:
                    continue
                target_masks = chunk[target_rows] | bits[target_cols]
                # Each target cell has a unique source mask, so these writes
                # never collide — plain scatter assignment is the full relax.
                values[target_masks, target_cols] = mins[target_rows, target_cols]
                parents[target_masks, target_cols] = winning_last[target_rows, target_cols]
                dp_states += target_rows.size
                stats.nodes_expanded += target_rows.size
                next_masks.append(target_masks)
            if not next_masks:
                layer_masks = np.array([], dtype=np.int64)
                break
            layer_masks = np.unique(np.concatenate(next_masks))

        final_row = values[full_mask]
        finite = np.isfinite(final_row)
        if not finite.any():
            return None, dp_states, _INF
        rates_before = products[np.int64(full_mask) ^ bits]
        totals = np.maximum(final_row, batch.completion_terms(rates_before))
        totals[~finite] = _INF
        stats.plans_evaluated += int(finite.sum())
        best_last = int(totals.argmin())
        best_cost = float(totals[best_last])

        order_reversed = [best_last]
        mask, last = full_mask, best_last
        while True:
            previous = int(parents[mask, last])
            if previous < 0:
                break
            mask ^= 1 << last
            last = previous
            order_reversed.append(last)
        order_reversed.reverse()
        return order_reversed, dp_states, best_cost

    @staticmethod
    def _reconstruct(parents: list[list[int] | None], mask: int, last: int) -> list[int]:
        """Walk the predecessor pointers back to the first service."""
        order_reversed = [last]
        while True:
            parent_row = parents[mask]
            assert parent_row is not None
            previous = parent_row[last]
            if previous < 0:
                break
            mask ^= 1 << last
            last = previous
            order_reversed.append(last)
        order_reversed.reverse()
        return order_reversed


def dynamic_programming(problem: OrderingProblem, max_size: int = 18) -> OptimizationResult:
    """Convenience wrapper around :class:`DynamicProgrammingOptimizer`."""
    return DynamicProgrammingOptimizer(max_size=max_size).optimize(problem)
