"""Plan representations: complete linear plans and partial plans.

A *plan* is a linear ordering of all services; its quality is the bottleneck
cost metric of Eq. 1.  A *partial plan* is a validated prefix of a plan; it
carries the incremental quantities the paper's two guide measures (``ε`` and
``ε̄``) are computed from:

* the prefix selectivity products,
* the bottleneck cost ``ε`` of the prefix (Lemma 1's lower bound), and
* the position of the prefix's bottleneck service (needed for Lemma 3).

``PartialPlan`` is the *public, validated* prefix API (it checks indices and
duplicates, and exposes the full prefix-product tuple).  The optimizers' hot
loops use the unvalidated, O(1)-extend
:class:`repro.core.evaluation.PrefixState` instead; ``PartialPlan.extend``
delegates its term arithmetic to the same kernel expression shapes, so a
complete ``PartialPlan``'s ``epsilon`` is bit-identical to
:func:`repro.core.cost_model.bottleneck_cost` of its order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.exceptions import InvalidPlanError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost_model import StageCost
    from repro.core.problem import OrderingProblem

__all__ = ["Plan", "PartialPlan"]


@dataclass(frozen=True)
class Plan:
    """A complete linear ordering of the services of a problem.

    Instances are normally created through
    :meth:`repro.core.problem.OrderingProblem.plan`, which also validates the
    ordering (permutation + precedence constraints).  The problem is
    immutable, so :attr:`cost` is computed once per plan.
    """

    problem: "OrderingProblem"
    order: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of services in the plan."""
        return len(self.order)

    @cached_property
    def cost(self) -> float:
        """The bottleneck cost metric (Eq. 1) of the plan (computed once)."""
        return self.problem.cost(self.order)

    @property
    def service_names(self) -> tuple[str, ...]:
        """Names of the services in plan order."""
        return tuple(self.problem.service(index).name for index in self.order)

    def stage_costs(self) -> list["StageCost"]:
        """Per-stage cost breakdown."""
        return self.problem.stage_costs(self.order)

    def bottleneck_stage(self) -> "StageCost":
        """The stage attaining the bottleneck cost."""
        return self.problem.bottleneck_stage(self.order)

    def position_of(self, service_index: int) -> int:
        """Position of ``service_index`` within the plan."""
        try:
            return self.order.index(service_index)
        except ValueError:
            raise InvalidPlanError(f"service {service_index} is not part of the plan") from None

    def describe(self) -> str:
        """Multi-line human readable description used by examples and reports."""
        lines = [f"Plan (bottleneck cost {self.cost:.6g}):"]
        bottleneck = self.bottleneck_stage()
        for stage in self.stage_costs():
            marker = "  <-- bottleneck" if stage.position == bottleneck.position else ""
            name = self.problem.service(stage.service_index).name
            lines.append(
                f"  {stage.position}: {name:<16} rate={stage.input_rate:.4g} "
                f"proc={stage.processing:.4g} xfer={stage.transfer:.4g} "
                f"term={stage.total:.4g}{marker}"
            )
        return "\n".join(lines)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __str__(self) -> str:
        return " -> ".join(self.service_names)


@dataclass(frozen=True)
class PartialPlan:
    """A prefix of a plan together with the incremental state of the search.

    Attributes
    ----------
    order:
        The service indices of the prefix, in execution order.
    placed:
        The same indices as a frozenset, for O(1) membership tests.
    prefix_products:
        ``prefix_products[i]`` is the average number of tuples reaching
        position ``i`` per source tuple (``prod_{k<i} σ``).
    output_rate:
        Average number of tuples leaving the prefix per source tuple
        (``prod_{k in order} σ``).
    epsilon:
        The bottleneck cost ``ε`` of the prefix.  Terms of all positions except
        the last are *settled* (they include the transfer to their successor);
        the last position contributes only its processing part because its
        successor is not yet known.  This makes ``ε`` monotonically
        non-decreasing under extension (Lemma 1).
    bottleneck_position:
        Position (0-based) of the prefix's current bottleneck service.
    settled_epsilon / settled_position:
        The maximum over settled terms only; used internally to extend the plan
        incrementally.
    """

    problem: "OrderingProblem"
    order: tuple[int, ...]
    placed: frozenset[int]
    prefix_products: tuple[float, ...]
    output_rate: float
    epsilon: float
    bottleneck_position: int
    settled_epsilon: float = field(default=float("-inf"))
    settled_position: int = field(default=-1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, problem: "OrderingProblem") -> "PartialPlan":
        """The empty prefix of ``problem``."""
        return cls(
            problem=problem,
            order=(),
            placed=frozenset(),
            prefix_products=(),
            output_rate=1.0,
            epsilon=0.0,
            bottleneck_position=-1,
            settled_epsilon=float("-inf"),
            settled_position=-1,
        )

    @classmethod
    def from_order(cls, problem: "OrderingProblem", order: Sequence[int]) -> "PartialPlan":
        """Build a partial plan for an existing prefix (validating it)."""
        partial = cls.empty(problem)
        for index in order:
            partial = partial.extend(index)
        return partial

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of services placed so far."""
        return len(self.order)

    @property
    def is_empty(self) -> bool:
        """Whether no service has been placed yet."""
        return not self.order

    @property
    def is_complete(self) -> bool:
        """Whether every service of the problem has been placed."""
        return len(self.order) == self.problem.size

    @property
    def last(self) -> int | None:
        """Index of the most recently placed service, or ``None`` if empty."""
        return self.order[-1] if self.order else None

    def remaining(self) -> list[int]:
        """Indices of the services not yet placed, in index order."""
        return [index for index in range(self.problem.size) if index not in self.placed]

    def allowed_extensions(self) -> list[int]:
        """Remaining services that may legally come next (honouring precedence)."""
        remaining = self.remaining()
        precedence = self.problem.precedence
        if precedence is None:
            return remaining
        return precedence.allowed_extensions(self.placed, remaining)

    # -- extension ---------------------------------------------------------

    def extend(self, service_index: int) -> "PartialPlan":
        """Return the partial plan obtained by appending ``service_index``.

        The bottleneck cost ``ε`` is updated incrementally: appending a service
        *settles* the term of the previously last service (its outgoing
        transfer cost is now known) and adds the processing-only term of the
        new service.
        """
        if service_index in self.placed:
            raise InvalidPlanError(f"service {service_index} is already part of the prefix")
        if not 0 <= service_index < self.problem.size:
            raise InvalidPlanError(
                f"service index {service_index} out of range [0, {self.problem.size})"
            )
        problem = self.problem
        evaluator = problem.evaluator()
        costs = evaluator.costs
        selectivities = evaluator.selectivities

        # Same expression shapes as the evaluation kernel (and therefore as
        # cost_model.stage_costs): rate*c + rate*sigma*t, left to right.
        settled_epsilon = self.settled_epsilon
        settled_position = self.settled_position
        if self.order:
            previous_last = self.order[-1]
            previous_rate = self.prefix_products[-1]
            settled_term = (
                previous_rate * costs[previous_last]
                + previous_rate
                * selectivities[previous_last]
                * evaluator.rows[previous_last][service_index]
            )
            if settled_term > settled_epsilon:
                settled_epsilon = settled_term
                settled_position = len(self.order) - 1

        new_rate = self.output_rate
        if self.is_complete_after_append():
            partial_term = (
                new_rate * costs[service_index]
                + new_rate * selectivities[service_index] * evaluator.sink[service_index]
            )
        else:
            partial_term = new_rate * costs[service_index]

        if settled_epsilon >= partial_term:
            epsilon = settled_epsilon
            bottleneck_position = settled_position
        else:
            epsilon = partial_term
            bottleneck_position = len(self.order)

        return PartialPlan(
            problem=problem,
            order=self.order + (service_index,),
            placed=self.placed | {service_index},
            prefix_products=self.prefix_products + (new_rate,),
            output_rate=new_rate * selectivities[service_index],
            epsilon=epsilon,
            bottleneck_position=bottleneck_position,
            settled_epsilon=settled_epsilon,
            settled_position=settled_position,
        )

    def is_complete_after_append(self) -> bool:
        """Whether appending one more service would complete the plan."""
        return len(self.order) + 1 == self.problem.size

    def extend_all(self, order: Sequence[int]) -> "PartialPlan":
        """Append several services in the given order."""
        partial = self
        for index in order:
            partial = partial.extend(index)
        return partial

    def to_plan(self) -> Plan:
        """Convert a complete partial plan into a :class:`Plan`."""
        if not self.is_complete:
            raise InvalidPlanError(
                f"cannot convert an incomplete prefix of size {self.size} into a plan"
            )
        return self.problem.plan(self.order)

    def __str__(self) -> str:
        names = [self.problem.service(index).name for index in self.order]
        return " -> ".join(names) if names else "(empty)"
