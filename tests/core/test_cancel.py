"""Tests of cooperative optimizer cancellation (repro.core.cancel)."""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

from repro.core import OrderingProblem, optimize
from repro.core.beam_search import BeamSearchOptimizer
from repro.core.cancel import CancelScope, active_scope, cancel_scope
from repro.core.optimizer import EXACT_ALGORITHMS
from repro.core.vector import BatchEvaluator, numpy_available
from repro.exceptions import OptimizationCancelledError

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="the vector kernel requires numpy")

ITERATIVE = [
    ("beam_search", {"kernel": "scalar"}),
    ("branch_and_bound", {"kernel": "scalar"}),
    ("dynamic_programming", {"kernel": "scalar"}),
    ("hill_climbing", {"kernel": "scalar"}),
    ("simulated_annealing", {}),
    ("exhaustive", {}),
]
VECTOR = [
    ("beam_search", {"kernel": "vector"}),
    ("branch_and_bound", {"kernel": "vector"}),
    ("dynamic_programming", {"kernel": "vector"}),
    ("hill_climbing", {"kernel": "vector"}),
]


def random_problem(size: int, seed: int) -> OrderingProblem:
    rng = random.Random(seed)
    return OrderingProblem.from_parameters(
        [rng.uniform(0.5, 5.0) for _ in range(size)],
        [rng.uniform(0.3, 1.2) for _ in range(size)],
        [[0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)],
    )


def cancelled_scope() -> CancelScope:
    scope = CancelScope()
    scope.cancel()
    return scope


def params(cases, marks=()):
    return [
        pytest.param(name, options, id=f"{name}-{options.get('kernel', 'scalar')}", marks=marks)
        for name, options in cases
    ]


class TestScope:
    def test_no_scope_is_active_by_default(self):
        assert active_scope() is None

    def test_scope_is_restored_on_exit(self):
        outer, inner = CancelScope(), CancelScope()
        with cancel_scope(outer):
            with cancel_scope(inner):
                assert active_scope() is inner
            assert active_scope() is outer
        assert active_scope() is None

    def test_check_raises_only_once_cancelled(self):
        scope = CancelScope()
        scope.check()
        scope.cancel()
        with pytest.raises(OptimizationCancelledError):
            scope.check()


    def test_deadline_scope_raises_past_its_deadline_and_not_before(self):
        scope = CancelScope(deadline=time.monotonic() + 0.2)
        scope.check()
        while time.monotonic() < scope.deadline:
            time.sleep(0.01)
        with pytest.raises(OptimizationCancelledError, match="deadline"):
            scope.check()

    def test_cancel_stops_a_deadline_scope_early(self):
        scope = CancelScope(deadline=time.monotonic() + 3600.0)
        scope.check()
        scope.cancel()
        with pytest.raises(OptimizationCancelledError):
            scope.check()


def expired_scope() -> CancelScope:
    return CancelScope(deadline=time.monotonic())


def far_deadline_scope() -> CancelScope:
    return CancelScope(deadline=time.monotonic() + 3600.0)


class TestExactAlgorithms:
    """A portfolio runs these inline, trusting their deadline checks."""

    @pytest.mark.parametrize("algorithm", sorted(EXACT_ALGORITHMS))
    @pytest.mark.parametrize(
        "kernel", ["scalar", pytest.param("vector", marks=needs_numpy)]
    )
    def test_expired_scope_stops_every_exact_algorithm(self, algorithm, kernel):
        options = {} if algorithm == "exhaustive" else {"kernel": kernel}
        with cancel_scope(expired_scope()):
            with pytest.raises(OptimizationCancelledError):
                optimize(random_problem(8, 1), algorithm=algorithm, **options)

    @pytest.mark.parametrize("algorithm", sorted(EXACT_ALGORITHMS))
    def test_completed_result_is_proven_optimal(self, algorithm):
        assert optimize(random_problem(8, 5), algorithm=algorithm).optimal


class TestOptimizersHonourTheScope:
    @pytest.mark.parametrize(
        "algorithm, options", params(ITERATIVE) + params(VECTOR, marks=needs_numpy)
    )
    def test_cancelled_scope_stops_the_optimizer(self, algorithm, options):
        with cancel_scope(cancelled_scope()):
            with pytest.raises(OptimizationCancelledError):
                optimize(random_problem(8, 1), algorithm=algorithm, **options)

    @pytest.mark.parametrize(
        "algorithm, options", params(ITERATIVE) + params(VECTOR, marks=needs_numpy)
    )
    def test_live_scope_changes_nothing(self, algorithm, options):
        """Plans, costs and statistics are bit-identical with and without a scope."""
        assert_unchanged_under(CancelScope(), algorithm, options)

    @pytest.mark.parametrize(
        "algorithm, options", params(ITERATIVE) + params(VECTOR, marks=needs_numpy)
    )
    def test_unexpired_deadline_changes_nothing(self, algorithm, options):
        assert_unchanged_under(far_deadline_scope(), algorithm, options)


def assert_unchanged_under(scope: CancelScope, algorithm: str, options: dict) -> None:
    problem = random_problem(8, 2)
    plain = optimize(problem, algorithm=algorithm, **options)
    with cancel_scope(scope):
        scoped = optimize(problem, algorithm=algorithm, **options)
    assert scoped.order == plain.order
    assert scoped.cost == plain.cost
    assert scoped.optimal == plain.optimal
    ignore_time = {"elapsed_seconds": 0.0}
    assert dataclasses.replace(scoped.statistics, **ignore_time) == dataclasses.replace(
        plain.statistics, **ignore_time
    )


class TestBeamStopsWithinOneLevel:
    def test_scalar_beam(self):
        problem = random_problem(10, 3)
        scope = CancelScope()
        optimizer = BeamSearchOptimizer(width=4, kernel="scalar")
        scored = []
        original = optimizer._score

        def score(state):
            scope.cancel()  # cancelled while the first level is being ranked
            scored.append(state)
            return original(state)

        optimizer._score = score
        with cancel_scope(scope), pytest.raises(OptimizationCancelledError):
            optimizer.optimize(problem)
        # Only the first level's candidates were ranked: no second level ran.
        assert len(scored) == problem.size

    @needs_numpy
    def test_vector_beam(self, monkeypatch):
        problem = random_problem(12, 4)
        scope = CancelScope()
        calls = []
        original = BatchEvaluator.score_front

        def score_front(self, front, final):
            scope.cancel()
            calls.append(len(front))
            return original(self, front, final)

        monkeypatch.setattr(BatchEvaluator, "score_front", score_front)
        with cancel_scope(scope), pytest.raises(OptimizationCancelledError):
            BeamSearchOptimizer(width=4, kernel="vector").optimize(problem)
        assert calls == [1]
