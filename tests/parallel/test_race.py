"""Tests of process-backed portfolio racing and its hard cancellation.

On both backends a portfolio runs its exact members inline first, each under
a deadline that is its fair share of the budget; only the members left after
that race, here in their own processes.  The cancellation tests check the
budget guarantee from both sides: an over-budget *exact* member (exhaustive
enumeration on an 11-service pruning-resistant instance, ~minutes of work)
stops at its deadline, and a racing member that never checks for
cancellation is *terminated* — not merely abandoned — at the deadline or on
a proof.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time

import pytest

from repro.core import OrderingProblem, optimize
from repro.serving import PortfolioOptimizer, PortfolioOptions, run_portfolio
from repro.exceptions import ServingError


def pruning_resistant_problem(size: int, seed: int = 0) -> OrderingProblem:
    """Near-unit selectivities keep exact searches from closing subtrees early."""
    rng = random.Random(seed)
    return OrderingProblem.from_parameters(
        [rng.uniform(1.0, 1.3) for _ in range(size)],
        [rng.uniform(0.9, 1.0) for _ in range(size)],
        [
            [0.0 if i == j else rng.uniform(0.5, 4.0) for j in range(size)]
            for i in range(size)
        ],
        name=f"resistant-n{size}",
    )


class TestProcessBackend:
    def test_backend_is_validated(self):
        with pytest.raises(ServingError):
            PortfolioOptions(backend="fibers")

    def test_matches_thread_backend_results(self, four_service_problem):
        threads = run_portfolio(
            four_service_problem, PortfolioOptions(budget_seconds=None, backend="threads")
        )
        processes = run_portfolio(
            four_service_problem, PortfolioOptions(budget_seconds=None, backend="processes")
        )
        assert processes.best.cost == threads.best.cost
        # Which members a proof cancels depends on timing; between results
        # and cancellations both backends account for every member.
        assert set(processes.results) | set(processes.cancelled) == set(threads.results) | set(
            threads.cancelled
        )
        assert processes.best.optimal

    def test_member_errors_are_recorded_not_fatal(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=None,
            algorithm_options={"exhaustive": {"max_size": 2}},
            backend="processes",
        )
        race = run_portfolio(four_service_problem, options)
        assert "exhaustive" in race.errors
        assert race.best.algorithm == "greedy_min_term"

    def test_results_attach_to_the_parent_instance(self, four_service_problem):
        race = run_portfolio(
            four_service_problem, PortfolioOptions(budget_seconds=None, backend="processes")
        )
        assert race.best.plan.problem is four_service_problem

    def test_optimizer_reuse_and_close(self, four_service_problem, three_service_problem):
        with PortfolioOptimizer(
            PortfolioOptions(budget_seconds=None, backend="processes")
        ) as portfolio:
            first = portfolio.optimize(four_service_problem)
            second = portfolio.optimize(three_service_problem)
            assert first.best.cost > 0 and second.best.cost > 0
        with pytest.raises(ServingError):
            portfolio.optimize(four_service_problem)


class TestHardCancellation:
    def test_over_budget_exact_member_is_terminated_at_the_deadline(self):
        """The race returns within budget despite an over-size exhaustive
        member, which stops at its inline deadline."""
        problem = pruning_resistant_problem(11)
        budget = 0.5
        options = PortfolioOptions(
            # No fast exact member: its proof would cancel exhaustive before
            # the deadline this test is about.
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=budget,
            # Lift the size guard so exhaustive really starts chewing on
            # 11! permutations (minutes of work on any machine).
            algorithm_options={"exhaustive": {"max_size": 12}},
            backend="processes",
        )
        started = time.perf_counter()
        race = run_portfolio(problem, options)
        elapsed = time.perf_counter() - started
        assert elapsed < budget + 4.0, "termination must not wait for the straggler"
        assert "exhaustive" in race.timed_out
        assert race.best.cost <= optimize(problem, algorithm="greedy_min_term").cost + 1e-9
        problem.validate_plan(race.best.order)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the in-test registry patch only reaches fork children",
    )
    def test_proof_terminates_a_slow_non_exact_member(self, three_service_problem, monkeypatch):
        from repro.core.optimizer import ALGORITHMS

        def slow_heuristic(problem, **options):
            time.sleep(30.0)
            return optimize(problem, algorithm="greedy_min_term")

        monkeypatch.setitem(ALGORITHMS, "slow_heuristic", slow_heuristic)
        # Beam search keeps all 6 orders of 3 services within its default
        # width, so the proof comes from a racing process, not from an inline
        # exact member (which would start no process at all).
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_heuristic", "beam_search"),
            budget_seconds=None,
            backend="processes",
        )
        started = time.perf_counter()
        race = run_portfolio(three_service_problem, options)
        assert time.perf_counter() - started < 10.0, "the race waited for the slow member"
        assert race.cancelled == ("slow_heuristic",)
        assert race.timed_out == ()
        assert race.best.algorithm == "beam_search" and race.best.optimal

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the in-test registry patch only reaches fork children",
    )
    def test_non_cooperative_member_is_terminated_at_the_deadline(
        self, four_service_problem, monkeypatch
    ):
        from repro.core.optimizer import ALGORITHMS

        def slow_heuristic(problem, **options):
            time.sleep(30.0)  # never checks a cancel scope
            return optimize(problem, algorithm="greedy_min_term")

        monkeypatch.setitem(ALGORITHMS, "slow_heuristic", slow_heuristic)
        budget = 0.3
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_heuristic"),
            budget_seconds=budget,
            backend="processes",
        )
        started = time.perf_counter()
        race = run_portfolio(four_service_problem, options)
        assert time.perf_counter() - started < budget + 4.0, "termination waited"
        assert race.timed_out == ("slow_heuristic",)
        assert race.cancelled == ()
        assert race.best.algorithm == "greedy_min_term"

    def test_inline_proof_starts_no_member_process(self, four_service_problem, monkeypatch):
        from repro.parallel import race as race_module

        def no_processes(method=None):
            pytest.fail("a member process was started after an inline proof")

        monkeypatch.setattr(race_module, "preferred_context", no_processes)
        race = run_portfolio(
            four_service_problem, PortfolioOptions(budget_seconds=None, backend="processes")
        )
        assert set(race.results) == {"greedy_min_term", "branch_and_bound"}
        assert race.cancelled == ("beam_search",)
        assert race.best.optimal

    def test_proven_seed_starts_no_member(self, four_service_problem):
        race = run_portfolio(
            four_service_problem,
            PortfolioOptions(
                algorithms=("branch_and_bound", "exhaustive"),
                budget_seconds=None,
                backend="processes",
            ),
        )
        assert set(race.results) == {"branch_and_bound"}
        assert race.cancelled == ("exhaustive",)

    def test_zero_budget_still_returns_the_anytime_seed(self, four_service_problem):
        race = run_portfolio(
            four_service_problem,
            PortfolioOptions(budget_seconds=0.0, backend="processes"),
        )
        assert "greedy_min_term" in race.results
        assert race.best.cost > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the in-test registry patch only reaches fork children",
    )
    def test_member_dying_without_reporting_is_an_error_not_a_hang(
        self, four_service_problem, monkeypatch
    ):
        from repro.core.optimizer import ALGORITHMS

        def die_silently(problem, **options):
            os._exit(17)  # no queue message, no exception — a hard crash

        monkeypatch.setitem(ALGORITHMS, "die_silently", die_silently)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "die_silently"),
            budget_seconds=None,  # 'wait for all': a hang here would be forever
            backend="processes",
        )
        race = run_portfolio(four_service_problem, options)
        assert "die_silently" in race.errors
        assert "died" in race.errors["die_silently"]
        assert race.best.algorithm == "greedy_min_term"
