"""Micro-benchmarks of the core primitives.

Unlike the experiment benchmarks (one-shot table regeneration), these are
repeated-measurement benchmarks of the operations a deployment performs in its
hot path: evaluating the bottleneck cost of a plan, extending a partial plan,
computing the residual bound, building a problem's best-pair table, growing a
greedy ``min_term`` plan, optimizing a mid-size instance, simulating a short
stream, fingerprinting a request, answering a warm ``POST /plan`` in process
(no socket), and racing the default portfolio on a never-seen n=24 problem (a
cache miss's optimizer work).

CI smoke-runs this file with ``python -m pytest benchmarks/bench_micro.py
--benchmark-disable -q``; drop the flag to get timings.
"""

from __future__ import annotations

import json

import pytest

from repro.core import PartialPlan, branch_and_bound, dynamic_programming
from repro.core.bounds import max_residual_cost
from repro.core.evaluation import PlanEvaluator
from repro.core.greedy import GreedyStrategy, greedy
from repro.serialization import problem_to_dict
from repro.serving import (
    PlanService,
    PlanServiceConfig,
    PortfolioOptimizer,
    PortfolioOptions,
    fingerprint_problem,
)
from repro.serving.http import dispatch_request
from repro.simulation import SimulationConfig, simulate_plan
from repro.workloads import default_spec, generate_problem

_PROBLEM_8 = generate_problem(default_spec(8), seed=5)
_PROBLEM_12 = generate_problem(default_spec(12), seed=5)
_PROBLEM_24 = generate_problem(default_spec(24), seed=5)
_ORDER_8 = tuple(range(8))
_PREFIX_12 = PartialPlan.from_order(_PROBLEM_12, tuple(range(6)))


def test_plan_cost_evaluation(benchmark):
    cost = benchmark(lambda: _PROBLEM_8.cost(_ORDER_8))
    assert cost > 0


def test_partial_plan_extension(benchmark):
    partial = PartialPlan.from_order(_PROBLEM_12, tuple(range(6)))
    result = benchmark(lambda: partial.extend(7))
    assert result.size == 7


def test_residual_bound_computation(benchmark):
    bound = benchmark(lambda: max_residual_cost(_PREFIX_12))
    assert bound.value >= 0


def test_pair_costs_24_services(benchmark):
    # A fresh evaluator per round: the table is memoized on the evaluator.
    table = benchmark.pedantic(
        PlanEvaluator.pair_costs,
        setup=lambda: ((PlanEvaluator(_PROBLEM_24),), {}),
        rounds=200,
    )
    assert len(table) == 24


def test_greedy_min_term_24_services(benchmark):
    result = benchmark(lambda: greedy(_PROBLEM_24, GreedyStrategy.MIN_TERM))
    assert len(result.order) == 24


def test_branch_and_bound_12_services(benchmark):
    result = benchmark(lambda: branch_and_bound(_PROBLEM_12))
    assert result.optimal


def test_dynamic_programming_12_services(benchmark):
    result = benchmark(lambda: dynamic_programming(_PROBLEM_12))
    assert result.optimal


def test_simulation_throughput(benchmark):
    report = benchmark.pedantic(
        lambda: simulate_plan(_PROBLEM_8, _ORDER_8, SimulationConfig(tuple_count=500)),
        rounds=3,
        iterations=1,
    )
    assert report.tuple_count == 500


def test_fingerprint_24_services(benchmark):
    fingerprint = benchmark(lambda: fingerprint_problem(_PROBLEM_24))
    assert fingerprint.size == 24


@pytest.fixture(scope="module")
def primed_service():
    """A plan service whose cache already holds the n=24 problem's plan."""
    with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
        yield plan_service


def test_warm_dispatch_24_services(benchmark, primed_service):
    body = json.dumps(problem_to_dict(_PROBLEM_24)).encode("utf-8")
    status, _ = dispatch_request(primed_service, "POST", "/plan", body)
    assert status == 200

    def warm_request() -> bytes:
        # Decode, fingerprint, cache hit and drift check, then the render.
        _, payload = dispatch_request(primed_service, "POST", "/plan", body)
        return json.dumps(payload).encode("utf-8")

    rendered = benchmark(warm_request)
    assert json.loads(rendered)["cache_hit"] is True


@pytest.fixture(scope="module")
def scalar_portfolio():
    """The default ladder and budget, with every kernel-aware member on scalar."""
    scalar = {name: {"kernel": "scalar"} for name in ("beam_search", "branch_and_bound")}
    with PortfolioOptimizer(PortfolioOptions(algorithm_options=scalar)) as portfolio:
        yield portfolio


def test_cold_portfolio_24_services(benchmark, scalar_portfolio):
    # A fresh problem per round, built outside the timed region, so every race
    # also pays for the evaluation kernel a cache miss builds.
    race = benchmark.pedantic(
        scalar_portfolio.optimize,
        setup=lambda: ((generate_problem(default_spec(24), seed=5),), {}),
        rounds=20,
    )
    assert race.best.optimal
