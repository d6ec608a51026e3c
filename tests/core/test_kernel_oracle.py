"""The shared best-pair table and the allocation-free min-term pick vs their oracles.

:meth:`PlanEvaluator.pair_costs` and :meth:`PrefixState.cheapest_extension`
replace loops that built one :class:`PrefixState` per scored candidate
(kept verbatim in ``kernel_oracle.py``).  Every assertion is ``==``: the
table entries and picks must be the oracle's bit for bit, and every optimizer
reading them must return the plan, cost and statistics the oracle-driven
path returns, on both kernels.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import oracle_cheapest_extension, oracle_pair_costs

import repro.core.problem as problem_module
from repro.core import OrderingProblem, PrecedenceGraph
from repro.core.branch_and_bound import BranchAndBoundOptimizer, BranchAndBoundOptions
from repro.core.evaluation import (
    PlanEvaluator,
    PrefixState,
    disable_kernel_profiling,
    enable_kernel_profiling,
)
from repro.core.greedy import GreedyOptimizer, GreedyStrategy
from repro.core.local_search import HillClimbingOptimizer
from repro.core.vector import numpy_available

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="the vector kernel requires numpy")

_TIE_VALUES = (0.0, 0.5, 1.0, 2.0)


def build_problem(
    size: int, seed: int, ties: bool, with_sink: bool, with_precedence: bool
) -> OrderingProblem:
    """A seeded random problem; ``ties`` draws from a coarse grid so equal ``ε`` occur."""
    rng = random.Random(seed)

    def value(high: float) -> float:
        return rng.choice(_TIE_VALUES) if ties else rng.uniform(0.0, high)

    costs = [value(10.0) for _ in range(size)]
    selectivities = [
        rng.choice((0.5, 1.0, 2.0)) if ties else rng.uniform(0.05, 2.0) for _ in range(size)
    ]
    rows = [[0.0 if i == j else value(10.0) for j in range(size)] for i in range(size)]
    sink = [value(10.0) for _ in range(size)] if with_sink else None
    precedence = None
    if with_precedence and size >= 2:
        # Edges along a random topological order keep the DAG acyclic.
        topo = rng.sample(range(size), size)
        edges = [
            (topo[a], topo[b])
            for a in range(size)
            for b in range(a + 1, size)
            if rng.random() < 0.15
        ]
        if edges:
            precedence = PrecedenceGraph(size, edges)
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, precedence=precedence, sink_transfer=sink
    )


@st.composite
def problem_parameters(draw, min_size: int = 1, max_size: int = 24):
    return (
        draw(st.integers(min_size, max_size)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.booleans()),
    )


# -- the best-pair table ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(problem_parameters())
def test_pair_costs_are_bit_identical_to_the_oracle(parameters):
    evaluator = PlanEvaluator(build_problem(*parameters))
    assert evaluator.pair_costs() == oracle_pair_costs(evaluator)


@pytest.mark.parametrize("size", [2, 3])
def test_pair_costs_of_tiny_problems_match_the_oracle(size):
    # At n=2 every pair completes the plan, so its second term carries the
    # sink transfer; many seeds make rounding differences in that term show.
    for seed in range(300):
        evaluator = PlanEvaluator(build_problem(size, seed, False, True, seed % 2 == 0))
        assert evaluator.pair_costs() == oracle_pair_costs(evaluator)


@pytest.mark.parametrize("with_sink", [False, True])
def test_single_service_entry_is_its_full_term(with_sink):
    problem = OrderingProblem.from_parameters(
        [3.0], [0.5], [[0.0]], sink_transfer=[4.0] if with_sink else None
    )
    evaluator = problem.evaluator()
    expected = 3.0 + 0.5 * 4.0 if with_sink else 3.0
    assert evaluator.pair_costs() == (expected,) == oracle_pair_costs(evaluator)


def test_first_services_with_predecessors_get_entries(constrained_problem):
    # Services 2 and 3 cannot come first; the table still scores them.
    evaluator = constrained_problem.evaluator()
    assert evaluator.predecessor_masks[2] and evaluator.predecessor_masks[3]
    assert evaluator.pair_costs() == oracle_pair_costs(evaluator)
    assert len(evaluator.pair_costs()) == constrained_problem.size


def test_first_service_whose_every_second_is_constrained_out_keeps_its_own_epsilon(
    three_service_problem,
):
    # No acyclic graph constrains every second out, so the masks are set on
    # an evaluator directly: 1 needs 2 and 2 needs 1, whatever comes first.
    evaluator = PlanEvaluator(three_service_problem)
    evaluator.predecessor_masks = (0, 1 << 2, 1 << 1)
    table = evaluator.pair_costs()
    assert table == oracle_pair_costs(evaluator)
    assert table[0] == evaluator.root().extend(0).epsilon


# -- the min-term pick ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(problem_parameters(), st.data())
def test_cheapest_extension_is_the_oracle_pick(parameters, data):
    problem = build_problem(*parameters)
    state = problem.evaluator().root()
    depth = data.draw(st.integers(0, problem.size - 1))
    for _ in range(depth):
        state = state.extend(data.draw(st.sampled_from(state.allowed_extensions())))
    candidates = state.allowed_extensions()
    # Any non-empty subset in any order: ties must still break by index.
    subset = data.draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    for pool in (candidates, subset):
        assert state.cheapest_extension(pool) == oracle_cheapest_extension(state, pool)


def test_cheapest_extension_rejects_an_empty_pool(three_service_problem):
    with pytest.raises(ValueError):
        three_service_problem.evaluator().root().cheapest_extension([])


# -- optimizers on the table vs on the oracle ------------------------------------------


def _signature(result) -> tuple:
    statistics = result.statistics.as_dict()
    statistics.pop("elapsed_seconds")
    return result.order, result.cost, statistics


def _optimizers(kernel: str) -> list:
    return [GreedyOptimizer(strategy, seed=3) for strategy in GreedyStrategy.ALL] + [
        BranchAndBoundOptimizer(BranchAndBoundOptions(kernel=kernel)),
        HillClimbingOptimizer(max_iterations=50, seed=3, kernel=kernel),
    ]


@pytest.mark.parametrize("kernel", ["scalar", pytest.param("vector", marks=needs_numpy)])
@pytest.mark.parametrize("case", range(12))
def test_optimizers_match_the_oracle_driven_path(kernel, case, monkeypatch):
    rng = random.Random(case)
    parameters = (
        rng.randint(2, 11),
        rng.randrange(2**32),
        case % 3 == 0,
        case % 2 == 0,
        case % 4 < 2,
    )
    table_driven = [
        _signature(optimizer.optimize(build_problem(*parameters)))
        for optimizer in _optimizers(kernel)
    ]
    monkeypatch.setattr(PlanEvaluator, "pair_costs", oracle_pair_costs)
    monkeypatch.setattr(PrefixState, "cheapest_extension", oracle_cheapest_extension)
    oracle_driven = [
        _signature(optimizer.optimize(build_problem(*parameters)))
        for optimizer in _optimizers(kernel)
    ]
    assert table_driven == oracle_driven


# -- kernel counters -------------------------------------------------------------------


def test_a_table_build_counts_every_pair_and_a_reread_counts_nothing(four_service_problem):
    evaluator = PlanEvaluator(four_service_problem)
    profile = enable_kernel_profiling()
    try:
        before = profile.delta_evaluations
        evaluator.pair_costs()
        assert profile.delta_evaluations - before == 4 * 3
        before = profile.delta_evaluations
        evaluator.pair_costs()
        assert profile.delta_evaluations == before
    finally:
        disable_kernel_profiling()


def test_a_constrained_table_build_counts_only_allowed_pairs(constrained_problem):
    evaluator = PlanEvaluator(constrained_problem)
    allowed_pairs = sum(
        len(evaluator.root().extend(first).allowed_extensions()) for first in range(5)
    )
    profile = enable_kernel_profiling()
    try:
        evaluator.pair_costs()
        assert profile.delta_evaluations == allowed_pairs < 5 * 4
    finally:
        disable_kernel_profiling()


def test_cheapest_extension_counts_each_candidate_once(four_service_problem):
    state = four_service_problem.evaluator().root().extend(1)
    profile = enable_kernel_profiling()
    try:
        state.cheapest_extension([0, 2, 3])
        assert profile.delta_evaluations == 3
    finally:
        disable_kernel_profiling()


# -- one oracle cost per plan, and a cost check that can fail --------------------------


def _count_oracle_calls(monkeypatch) -> list[int]:
    calls = [0]
    oracle = problem_module.bottleneck_cost

    def counted(*args, **kwargs):
        calls[0] += 1
        return oracle(*args, **kwargs)

    monkeypatch.setattr(problem_module, "bottleneck_cost", counted)
    return calls


def test_greedy_costs_its_plan_with_the_oracle_once(four_service_problem, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    result = GreedyOptimizer(GreedyStrategy.MIN_TERM).optimize(four_service_problem)
    assert calls[0] == 1
    assert result.cost == result.plan.cost and calls[0] == 1


def test_branch_and_bound_costs_seed_and_answer_once_each(four_service_problem, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    BranchAndBoundOptimizer().optimize(four_service_problem)
    assert calls[0] == 2


@pytest.mark.parametrize(
    "optimizer",
    [GreedyOptimizer(GreedyStrategy.MIN_TERM), BranchAndBoundOptimizer()],
    ids=["greedy", "branch_and_bound"],
)
def test_a_kernel_cost_the_oracle_disagrees_with_raises(
    optimizer, four_service_problem, monkeypatch
):
    oracle = problem_module.bottleneck_cost
    monkeypatch.setattr(
        problem_module, "bottleneck_cost", lambda *args: oracle(*args) * (1.0 + 1e-6)
    )
    with pytest.raises(ValueError, match="inconsistent result"):
        optimizer.optimize(four_service_problem)
