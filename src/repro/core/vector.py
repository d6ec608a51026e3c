"""The vectorized batch-evaluation kernel (optional numpy fast path).

The incremental kernel (:mod:`repro.core.evaluation`) made every optimizer
fast by sharing state between candidates, but it still scores candidates one
at a time in pure-Python loops over flat arrays — exactly the shape numpy
eats.  This module scores an entire candidate *set* in one call:

* :meth:`BatchEvaluator.score_orders` — a matrix of complete plans
  (``candidates x services``) evaluated as a handful of array operations,
* :meth:`BatchEvaluator.score_front` — every feasible one-service extension
  of a whole beam front of :class:`~repro.core.evaluation.PrefixState`
  objects (the per-level work of beam search),
* :meth:`BatchEvaluator.best_neighbor` — the full swap/relocate
  neighbourhood of a base plan, generated *and* scored without a Python
  loop over moves (the per-step work of hill climbing),
* :meth:`BatchEvaluator.transition_terms` — the settled-term matrix of a
  batch of ``(mask, last)`` dynamic-programming states (the per-layer work
  of the subset DP).

Bit-identity with the scalar kernel
-----------------------------------

numpy's elementwise double arithmetic applies the same IEEE-754 operations
as Python floats, one rounding per operation and no fused multiply-adds, and
``np.cumprod`` accumulates strictly left to right — so every expression here
keeps the scalar kernel's exact shapes (``rate * c + (rate * sigma) * t``,
rates as a left-to-right multiplication chain) and returns *the same float,
bit for bit*, as the scalar kernel and hence as
:func:`repro.core.cost_model.bottleneck_cost`.  The property-based tests
assert this with ``==``.  The one exception is :attr:`BatchEvaluator.fast_math`
(off by default), which permits the factored form ``rate * (c + sigma * t)``
— one multiplication fewer per term, but a reassociation whose result is
only approximately equal.

Kernel selection
----------------

numpy is an **optional** dependency (``pip install repro[fast]``): every
consumer falls back to the scalar kernel when it is missing.  Which kernel
runs is resolved by :func:`resolve_kernel` from, in order of precedence: an
explicit per-call/per-optimizer request, :func:`set_default_kernel` (which
also exports ``REPRO_KERNEL`` so optimizer-pool and portfolio worker
processes inherit the choice), the ``REPRO_KERNEL`` environment variable,
and finally ``auto`` — the vector kernel when numpy is importable *and* the
instance is big enough to win (``size >= AUTO_MIN_SIZE``; below that, numpy
call overhead dominates and the scalar kernel is faster).  Requesting
``vector`` without numpy raises a clean :class:`~repro.exceptions.KernelError`.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Sequence

try:  # numpy is optional: the scalar kernel is the always-available fallback.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the no-numpy tests
    np = None  # type: ignore[assignment]

from repro.exceptions import KernelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.evaluation import PlanEvaluator, PrefixState
    from repro.core.problem import OrderingProblem

__all__ = [
    "KERNELS",
    "AUTO_MIN_SIZE",
    "MAX_VECTOR_SIZE",
    "BatchEvaluator",
    "batch_evaluator",
    "numpy_available",
    "default_kernel",
    "set_default_kernel",
    "resolve_kernel",
    "prepare_kernel",
]

KERNELS = ("auto", "scalar", "vector")
"""Accepted kernel names: ``auto`` resolves to one of the other two."""

AUTO_MIN_SIZE = 10
"""Smallest problem size at which ``auto`` picks the vector kernel.  Below
this the candidate sets are so small that numpy call overhead exceeds the
loop it replaces; the crossover was measured in ``benchmarks/bench_vector.py``."""

MAX_VECTOR_SIZE = 62
"""Largest problem the vector kernel accepts: placed/predecessor bitmasks
are held in int64 arrays (the scalar kernel's Python ints are unbounded)."""

_ENV_VAR = "REPRO_KERNEL"

_default_kernel: str | None = None
"""In-process override set by :func:`set_default_kernel` (wins over the env var)."""


# -- kernel selection -------------------------------------------------------


def numpy_available() -> bool:
    """Whether numpy imported, i.e. whether the vector kernel can run at all."""
    return np is not None


def _validate(name: str) -> str:
    if name not in KERNELS:
        raise KernelError(
            f"unknown evaluation kernel {name!r}; available: {', '.join(KERNELS)}"
        )
    return name


def default_kernel() -> str:
    """The configured process-wide default kernel name (may be ``auto``).

    Precedence: :func:`set_default_kernel` > the ``REPRO_KERNEL`` environment
    variable > ``auto``.  A malformed environment value raises, so a typo in a
    deployment manifest fails loudly instead of silently running scalar.
    """
    if _default_kernel is not None:
        return _default_kernel
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env:
        return _validate(env)
    return "auto"


def set_default_kernel(name: str | None) -> str:
    """Set the process-wide default kernel; returns the stored name.

    ``None`` clears the override (back to env var / ``auto``).  The choice is
    also exported as ``REPRO_KERNEL``, so worker processes started afterwards
    (optimizer pool, process portfolio, process shards — fork or spawn alike)
    inherit it transparently.
    """
    global _default_kernel
    if name is None:
        _default_kernel = None
        os.environ.pop(_ENV_VAR, None)
        return "auto"
    name = _validate(name.strip().lower())
    _default_kernel = name
    os.environ[_ENV_VAR] = name
    return name


def resolve_kernel(name: str | None = None, size: int | None = None) -> str:
    """Resolve a kernel request to ``"scalar"`` or ``"vector"``.

    ``name=None`` consults :func:`default_kernel`.  ``auto`` picks the vector
    kernel only when numpy is available and the instance is big enough to win
    (``size`` is the problem size; ``None`` means "assume big").  An explicit
    ``"vector"`` request without numpy — or beyond :data:`MAX_VECTOR_SIZE` —
    raises :class:`~repro.exceptions.KernelError` instead of silently
    degrading.
    """
    requested = _validate(name.strip().lower()) if name is not None else default_kernel()
    if requested == "scalar":
        return "scalar"
    if requested == "vector":
        if np is None:
            raise KernelError(
                "the vector kernel requires numpy, which is not installed; "
                "install the optional extra (pip install repro-service-ordering[fast]) "
                "or select the scalar kernel"
            )
        if size is not None and size > MAX_VECTOR_SIZE:
            raise KernelError(
                f"the vector kernel supports at most {MAX_VECTOR_SIZE} services "
                f"(int64 feasibility bitmasks), the problem has {size}"
            )
        return "vector"
    # auto: pick whichever kernel is expected to win.
    if np is None:
        return "scalar"
    if size is not None and (size < AUTO_MIN_SIZE or size > MAX_VECTOR_SIZE):
        return "scalar"
    return "vector"


def prepare_kernel(problem: "OrderingProblem") -> str:
    """Warm the kernel a problem will be scored with; returns its name.

    Builds the problem's (cached) scalar evaluator, plus the shared
    :class:`BatchEvaluator` when the resolved kernel is ``vector`` — so a
    long-lived holder of the problem (an optimizer-pool worker's warm cache,
    a portfolio about to race several members over one instance) pays the
    array extraction once, and every subsequent batch call on the instance
    shares the same vectorized scorer.
    """
    evaluator = problem.evaluator()
    kernel = resolve_kernel(size=problem.size)
    if kernel == "vector":
        batch_evaluator(evaluator)
    return kernel


def batch_evaluator(evaluator: "PlanEvaluator", fast_math: bool = False) -> "BatchEvaluator":
    """The (cached) :class:`BatchEvaluator` bound to ``evaluator``.

    One instance per ``(evaluator, fast_math)`` is shared by every consumer —
    beam fronts, neighbourhoods and DP layers of the same problem all score
    through the same pre-extracted arrays and precomputed move tables.
    """
    cache = evaluator.batch_cache
    if cache is None:
        cache = evaluator.batch_cache = {}
    batch = cache.get(fast_math)
    if batch is None:
        batch = cache[fast_math] = BatchEvaluator(evaluator, fast_math=fast_math)
    return batch


def _count_batch(amount: int) -> None:
    """Profile hook: one counter bump of ``amount`` per batch call, so
    observability overhead does not scale with the batch size."""
    from repro.core import evaluation

    profile = evaluation.kernel_profile()
    if profile is not None:
        profile.batch_evaluations += amount


# -- the batch evaluator ----------------------------------------------------


class BatchEvaluator:
    """Vectorized candidate-set scoring bound to one scalar evaluator.

    Like :class:`~repro.core.evaluation.PlanEvaluator` it never validates:
    callers feed candidate sets their search structure guarantees to be
    permutations (feasibility *is* checked where the method generates the
    candidates itself).  Construction requires numpy; use
    :func:`resolve_kernel` first and keep scalar fallbacks.
    """

    __slots__ = (
        "evaluator",
        "size",
        "fast_math",
        "costs",
        "selectivities",
        "rows",
        "sink",
        "predecessor_masks",
        "has_precedence",
        "_moves_table",
        "_rows_flat",
        "_service_bits",
        "_workspaces",
    )

    def __init__(self, evaluator: "PlanEvaluator", fast_math: bool = False) -> None:
        if np is None:
            raise KernelError(
                "the vector kernel requires numpy, which is not installed; "
                "install the optional extra (pip install repro-service-ordering[fast])"
            )
        if evaluator.size > MAX_VECTOR_SIZE:
            raise KernelError(
                f"the vector kernel supports at most {MAX_VECTOR_SIZE} services "
                f"(int64 feasibility bitmasks), the problem has {evaluator.size}"
            )
        self.evaluator = evaluator
        self.size = evaluator.size
        self.fast_math = fast_math
        self.costs = np.array(evaluator.costs, dtype=np.float64)
        self.selectivities = np.array(evaluator.selectivities, dtype=np.float64)
        self.rows = np.array(evaluator.rows, dtype=np.float64)
        self.sink = np.array(evaluator.sink, dtype=np.float64)
        self.has_precedence = evaluator.predecessor_masks is not None
        masks = evaluator.predecessor_masks if self.has_precedence else (0,) * self.size
        self.predecessor_masks = np.array(masks, dtype=np.int64)
        self._moves_table: "tuple[np.ndarray, list[tuple[int, int]], int] | None" = None
        self._rows_flat = np.ascontiguousarray(self.rows).reshape(-1)
        self._service_bits = np.int64(1) << np.arange(self.size, dtype=np.int64)
        # Single-slot workspaces, one set per thread: batch scoring is
        # dominated by allocating (batch, size) temporaries (fresh pages each
        # call), and real callers reuse one batch shape over and over — a hill
        # climb always scores the same move count, a beam search the same
        # front width.  Portfolio members racing on threads share this
        # evaluator, so a shared slot would let one member overwrite another's
        # scratch mid-call.
        self._workspaces = threading.local()

    def _order_workspace(self, batch: int) -> "tuple[np.ndarray, ...]":
        cached = getattr(self._workspaces, "order", None)
        if cached is not None and cached[0] == batch:
            return cached[1]
        shape = (batch, self.size)
        arrays = (
            np.empty(shape, dtype=np.float64),  # cost_seq
            np.empty(shape, dtype=np.float64),  # sel_seq
            np.empty(shape, dtype=np.float64),  # rates
            np.empty(shape, dtype=np.float64),  # outgoing
            np.empty((batch, max(self.size - 1, 1)), dtype=np.intp),  # flat transfer idx
        )
        self._workspaces.order = (batch, arrays)
        return arrays

    def _front_workspace(self, count: int) -> "tuple[np.ndarray, ...]":
        cached = getattr(self._workspaces, "front", None)
        if cached is not None and cached[0] == count:
            return cached[1]
        shape = (count, self.size)
        arrays = (
            np.empty(shape, dtype=np.float64),  # settled/epsilon terms
            np.empty(shape, dtype=np.float64),  # partial terms
            np.empty(shape, dtype=np.float64),  # rows gather
            np.empty(shape, dtype=bool),  # feasibility
            np.empty(shape, dtype=np.int64),  # placed-bit scratch
        )
        self._workspaces.front = (count, arrays)
        return arrays

    # -- complete-plan batches ---------------------------------------------

    def score_orders(self, orders) -> "np.ndarray":
        """Bottleneck costs of a ``(batch, size)`` matrix of complete plans.

        Bit-identical, per row, to :meth:`PlanEvaluator.cost` on the same
        order: rates come from a strictly sequential ``cumprod`` (the same
        left-to-right multiplication chain) and terms keep the scalar
        expression shapes.
        """
        orders = np.asarray(orders, dtype=np.intp)
        if orders.ndim == 1:
            orders = orders[None, :]
        batch, size = orders.shape
        _count_batch(batch)
        # All temporaries come from a reusable workspace: search loops score
        # the same batch shape over and over, and in-place ufuncs keep every
        # value bit-identical to the freshly-allocated expression.
        cost_seq, sel_seq, rates, outgoing, flat_idx = self._order_workspace(batch)
        np.take(self.costs, orders, out=cost_seq)
        np.take(self.selectivities, orders, out=sel_seq)
        rates[:, 0] = 1.0
        if size > 1:
            np.cumprod(sel_seq[:, :-1], axis=1, out=rates[:, 1:])
            np.multiply(orders[:, :-1], size, out=flat_idx)
            np.add(flat_idx, orders[:, 1:], out=flat_idx)
            np.take(self._rows_flat, flat_idx, out=outgoing[:, :-1])
        np.take(self.sink, orders[:, -1], out=outgoing[:, -1])
        if self.fast_math:
            # Factored: one multiplication fewer per element, but reassociated
            # — only approximately equal to the scalar kernel.
            np.multiply(sel_seq, outgoing, out=sel_seq)
            np.add(cost_seq, sel_seq, out=cost_seq)
            np.multiply(rates, cost_seq, out=cost_seq)
        else:
            np.multiply(rates, cost_seq, out=cost_seq)
            np.multiply(rates, sel_seq, out=sel_seq)
            np.multiply(sel_seq, outgoing, out=sel_seq)
            np.add(cost_seq, sel_seq, out=cost_seq)
        return cost_seq.max(axis=1)

    def feasible_orders(self, orders) -> "np.ndarray":
        """Boolean mask: which rows of ``orders`` satisfy the precedence DAG."""
        orders = np.asarray(orders, dtype=np.intp)
        if orders.ndim == 1:
            orders = orders[None, :]
        batch, size = orders.shape
        if not self.has_precedence:
            return np.ones(batch, dtype=bool)
        bits = np.int64(1) << orders.astype(np.int64)
        placed_before = np.zeros((batch, size), dtype=np.int64)
        if size > 1:
            np.bitwise_or.accumulate(bits[:, :-1], axis=1, out=placed_before[:, 1:])
        required = self.predecessor_masks[orders]
        return ((required & ~placed_before) == 0).all(axis=1)

    # -- beam fronts --------------------------------------------------------

    def score_front(
        self, front: Sequence["PrefixState"], final: bool
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Score every feasible one-service extension of a prefix front.

        All states must share one length (a beam level); ``final`` says the
        extensions complete the plan (their term then includes the sink
        transfer).  Returns ``(parents, extensions, epsilons)`` — flat arrays
        over the feasible children in generation order (parent-major,
        extension index ascending), exactly the order the scalar double loop
        produces them in.  Each epsilon is bit-identical to
        ``front[parent].extend(extension).epsilon``.
        """
        size = self.size
        count = len(front)
        last = np.fromiter((state.last for state in front), dtype=np.intp, count=count)
        rate = np.fromiter((state.rate for state in front), dtype=np.float64, count=count)
        output_rate = np.fromiter(
            (state.output_rate for state in front), dtype=np.float64, count=count
        )
        settled_max = np.fromiter(
            (state.settled_max for state in front), dtype=np.float64, count=count
        )
        placed = np.fromiter((state.placed for state in front), dtype=np.int64, count=count)
        terms, partial, gathered, feasible, bit_scratch = self._front_workspace(count)

        np.bitwise_and(placed[:, None], self._service_bits, out=bit_scratch)
        np.equal(bit_scratch, 0, out=feasible)
        if self.has_precedence:
            feasible &= (self.predecessor_masks[None, :] & ~placed[:, None]) == 0
        _count_batch(int(feasible.sum()))

        # The parent's last term settles: rate * c_last + (rate * sigma_last) * t.
        # Every in-place ufunc keeps the scalar expression's association, so
        # the workspace buys speed, not drift.
        if last.min(initial=0) >= 0:
            np.take(self.rows, last, axis=0, out=gathered)
            if self.fast_math:
                np.multiply(self.selectivities[last][:, None], gathered, out=terms)
                np.add(self.costs[last][:, None], terms, out=terms)
                np.multiply(rate[:, None], terms, out=terms)
            else:
                np.multiply((rate * self.selectivities[last])[:, None], gathered, out=terms)
                np.add((rate * self.costs[last])[:, None], terms, out=terms)
            np.maximum(settled_max[:, None], terms, out=terms)
        else:
            # Roots have no last service: nothing settles, the running max
            # carries.  Only the first beam level lands here; stay simple.
            has_last = last >= 0
            anchor = np.where(has_last, last, 0)
            if self.fast_math:
                settled = rate[:, None] * (
                    self.costs[anchor][:, None]
                    + self.selectivities[anchor][:, None] * self.rows[anchor]
                )
            else:
                settled = (rate * self.costs[anchor])[:, None] + (
                    rate * self.selectivities[anchor]
                )[:, None] * self.rows[anchor]
            np.maximum(settled_max[:, None], settled, out=terms)
            terms[~has_last] = settled_max[~has_last, None]

        # The new service's partial term (full term, with sink, when final).
        if final:
            if self.fast_math:
                partial[:] = output_rate[:, None] * (
                    self.costs[None, :] + self.selectivities[None, :] * self.sink[None, :]
                )
            else:
                np.multiply(output_rate[:, None], self.selectivities[None, :], out=partial)
                np.multiply(partial, self.sink[None, :], out=partial)
                np.multiply(output_rate[:, None], self.costs[None, :], out=gathered)
                np.add(gathered, partial, out=partial)
        else:
            np.multiply(output_rate[:, None], self.costs[None, :], out=partial)
        np.maximum(terms, partial, out=terms)

        parents, extensions = np.nonzero(feasible)
        return parents, extensions, terms[parents, extensions]

    # -- swap/relocate neighbourhoods ---------------------------------------

    def _moves(self) -> "tuple[np.ndarray, list[tuple[int, int]], int]":
        """The neighbourhood's gather table, built once per evaluator.

        Row ``m`` maps candidate positions to base positions: applying move
        ``m`` to a base order is one fancy-indexing ``base[gather[m]]``.
        Moves are enumerated exactly like the scalar hill climber: swaps
        ``(i, j)`` with ``i < j`` first, then relocates ``(i, j)`` with
        ``i != j`` — so "first index attaining the minimum" means the same
        move in both kernels.
        """
        table = self._moves_table
        if table is None:
            size = self.size
            identity = list(range(size))
            gathers: list[list[int]] = []
            moves: list[tuple[int, int]] = []
            for i in range(size):
                for j in range(i + 1, size):
                    row = identity.copy()
                    row[i], row[j] = row[j], row[i]
                    gathers.append(row)
                    moves.append((i, j))
            swap_count = len(moves)
            for i in range(size):
                for j in range(size):
                    if i == j:
                        continue
                    row = identity.copy()
                    row.insert(j, row.pop(i))
                    gathers.append(row)
                    moves.append((i, j))
            # Published as one tuple, so a racing thread sees all or nothing.
            table = self._moves_table = (np.array(gathers, dtype=np.intp), moves, swap_count)
        return table

    def neighborhood_orders(self, order: Sequence[int]) -> "np.ndarray":
        """All swap/relocate candidates of ``order`` as a ``(moves, size)`` matrix."""
        gather, _, _ = self._moves()
        base = np.asarray(order, dtype=np.intp)
        return base[gather]

    def best_neighbor(
        self, order: Sequence[int], bound: float
    ) -> tuple[tuple[int, ...] | None, float, int]:
        """The steepest feasible move from ``order``, if any beats ``bound``.

        Returns ``(best order or None, its cost, feasible-move count)``.
        Matches the scalar hill-climbing step bit for bit: same enumeration
        order, same costs, and ties broken towards the first move attaining
        the minimum (``argmin`` returns the first occurrence, the scalar loop
        only replaces on strict improvement).
        """
        if self.size < 2:
            return None, bound, 0
        candidates = self.neighborhood_orders(order)
        feasible = self.feasible_orders(candidates)
        evaluated = int(feasible.sum())
        if not evaluated:
            return None, bound, 0
        costs = self.score_orders(candidates)
        costs[~feasible] = np.inf
        winner = int(costs.argmin())
        best_cost = float(costs[winner])
        if not best_cost < bound:
            return None, bound, evaluated
        return tuple(int(index) for index in candidates[winner]), best_cost, evaluated

    # -- dynamic-programming layers ------------------------------------------

    def transition_terms(self, rates_before, lasts) -> "np.ndarray":
        """Settled-term matrix of a batch of ``(mask, last)`` DP states.

        Entry ``[s, next]`` is the term the state's last service settles to
        when ``next`` is appended: ``rate * c_last + (rate * sigma_last) *
        t[last, next]`` — the exact expression shape of the scalar DP
        transition loop, for every successor of every state at once.
        """
        rates_before = np.asarray(rates_before, dtype=np.float64)
        lasts = np.asarray(lasts, dtype=np.intp)
        _count_batch(len(lasts))
        if self.fast_math:
            return rates_before[:, None] * (
                self.costs[lasts][:, None] + self.selectivities[lasts][:, None] * self.rows[lasts]
            )
        return (rates_before * self.costs[lasts])[:, None] + (
            rates_before * self.selectivities[lasts]
        )[:, None] * self.rows[lasts]

    def completion_terms(self, rates_before) -> "np.ndarray":
        """Final-stage terms ``rate * c_i + (rate * sigma_i) * sink_i`` per service."""
        rates_before = np.asarray(rates_before, dtype=np.float64)
        _count_batch(len(rates_before))
        if self.fast_math:
            return rates_before * (self.costs + self.selectivities * self.sink)
        return rates_before * self.costs + (rates_before * self.selectivities) * self.sink

    def __repr__(self) -> str:
        return f"BatchEvaluator(size={self.size}, fast_math={self.fast_math})"
