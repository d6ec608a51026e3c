"""Tests of deadline-budgeted portfolio optimization."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrderingProblem, PrecedenceGraph, optimize
from repro.core.cancel import active_scope
from repro.core.optimizer import ALGORITHMS
from repro.exceptions import OptimizationCancelledError, ServingError
from repro.obs import parse_prometheus_text
from repro.obs.trace import activate_trace
from repro.serving import (
    PlanService,
    PlanServiceConfig,
    PortfolioOptimizer,
    PortfolioOptions,
    run_portfolio,
)


@st.composite
def problems(draw, min_size: int = 2, max_size: int = 7):
    """Random instances, with and without sink transfers and precedence."""
    size = draw(st.integers(min_size, max_size))
    costs = draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size))
    selectivities = draw(st.lists(st.floats(0.05, 2.0), min_size=size, max_size=size))
    flat = draw(st.lists(st.floats(0.0, 10.0), min_size=size * size, max_size=size * size))
    rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
    sink = None
    if draw(st.booleans()):
        sink = draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size))
    precedence = None
    if draw(st.booleans()):
        # Edges along a random topological order keep the DAG acyclic.
        topo = draw(st.permutations(range(size)))
        edges = [
            (topo[a], topo[b])
            for a in range(size)
            for b in range(a + 1, size)
            if draw(st.integers(0, 3)) == 0
        ]
        if edges:
            precedence = PrecedenceGraph(size, edges)
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, precedence=precedence, sink_transfer=sink
    )


def stoppable_heuristic(stopped: threading.Event):
    """A slow non-exact member that honours the cancel scope every 10 ms."""

    def runner(problem, **options):
        scope = active_scope()
        try:
            for _ in range(500):
                if scope is not None:
                    scope.check()
                time.sleep(0.01)
        except OptimizationCancelledError:
            stopped.set()
            raise
        return optimize(problem, algorithm="greedy_min_term")

    return runner


PRUNING_RESISTANT = dict(
    # Near-unit selectivities keep exact searches from closing subtrees early.
    selectivity_range=(0.9, 1.0),
    cost_range=(1.0, 1.3),
    transfer_range=(0.5, 4.0),
)


class TestOptions:
    def test_empty_portfolio_rejected(self):
        with pytest.raises(ServingError):
            PortfolioOptions(algorithms=())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ServingError):
            PortfolioOptions(algorithms=("branch_and_bound", "quantum_annealer"))

    def test_negative_budget_rejected(self):
        with pytest.raises(ServingError):
            PortfolioOptions(budget_seconds=-1.0)

    def test_duplicate_members_rejected(self):
        # The process backend tracks race members by name; duplicates would
        # orphan all but the last process of that name at the deadline.
        with pytest.raises(ServingError):
            PortfolioOptions(algorithms=("greedy_min_term", "exhaustive", "exhaustive"))


class TestRace:
    def test_best_result_is_at_least_as_good_as_every_member(self, four_service_problem):
        race = run_portfolio(four_service_problem, PortfolioOptions(budget_seconds=None))
        # A proof ends the race early, so a member still running then is
        # cancelled rather than completed.
        members = {"greedy_min_term", "beam_search", "branch_and_bound"}
        assert set(race.results) | set(race.cancelled) == members
        assert not set(race.results) & set(race.cancelled)
        for result in race.results.values():
            assert race.best.cost <= result.cost + 1e-9
        assert race.best.optimal  # branch-and-bound completed and is exact

    def test_zero_budget_still_returns_the_anytime_seed(self, four_service_problem):
        race = run_portfolio(four_service_problem, PortfolioOptions(budget_seconds=0.0))
        greedy = optimize(four_service_problem, algorithm="greedy_min_term")
        assert race.best.cost <= greedy.cost + 1e-9
        assert "greedy_min_term" in race.results

    def test_deadline_is_respected(self, four_service_problem, monkeypatch):
        slow_calls = []

        def slow_runner(problem, **options):
            slow_calls.append(problem)
            time.sleep(2.0)
            return optimize(problem, algorithm="exhaustive")

        monkeypatch.setitem(ALGORITHMS, "slow_exact", slow_runner)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_exact"), budget_seconds=0.1
        )
        started = time.perf_counter()
        race = run_portfolio(four_service_problem, options)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, "the race must return at the budget, not wait for stragglers"
        assert race.timed_out == ("slow_exact",)
        assert "slow_exact" not in race.results
        assert race.best.algorithm == "greedy_min_term"

    def test_member_errors_are_recorded_not_fatal(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=None,
            algorithm_options={"exhaustive": {"max_size": 2}},
        )
        race = run_portfolio(four_service_problem, options)
        assert "exhaustive" in race.errors
        assert race.best.algorithm == "greedy_min_term"

    def test_invalid_member_options_are_recorded_not_raised(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "beam_search"),
            budget_seconds=None,
            algorithm_options={"beam_search": {"bogus_option": 1}},
        )
        race = run_portfolio(four_service_problem, options)
        assert "beam_search" in race.errors
        assert "bogus_option" in race.errors["beam_search"]
        assert race.best.algorithm == "greedy_min_term"

    def test_per_algorithm_options_are_forwarded(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "beam_search"),
            budget_seconds=None,
            algorithm_options={"beam_search": {"width": 1}},
        )
        race = run_portfolio(four_service_problem, options)
        assert "beam_search" in race.results

    def test_refinement_is_nonnegative(self, four_service_problem):
        race = run_portfolio(four_service_problem, PortfolioOptions(budget_seconds=None))
        assert race.refinement >= 0.0
        assert race.elapsed_seconds >= 0.0


class TestEarlyExit:
    """A proven-optimal result ends the portfolio; the stragglers are stopped
    or never started."""

    def test_proof_ends_the_race_and_stops_the_straggler(
        self, four_service_problem, monkeypatch
    ):
        started = threading.Event()

        def recording(problem, **options):
            started.set()
            return optimize(problem, algorithm="greedy_min_term")

        monkeypatch.setitem(ALGORITHMS, "slow_heuristic", recording)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_heuristic", "branch_and_bound"),
            budget_seconds=None,
        )
        race = run_portfolio(four_service_problem, options)
        # Branch-and-bound runs inline before the race and proves optimality,
        # so the heuristic behind it in the ladder never starts.
        assert race.cancelled == ("slow_heuristic",)
        assert race.timed_out == ()
        assert race.best.optimal and race.best.algorithm == "branch_and_bound"
        assert not started.is_set(), "a member started after the proof"

    def test_race_phase_proof_stops_a_started_straggler(
        self, three_service_problem, monkeypatch
    ):
        stopped = threading.Event()
        monkeypatch.setitem(ALGORITHMS, "slow_heuristic", stoppable_heuristic(stopped))
        # Beam search keeps all 6 orders of 3 services within its default
        # width, so it proves optimality from inside the race.
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_heuristic", "beam_search"),
            budget_seconds=None,
        )
        started = time.perf_counter()
        race = run_portfolio(three_service_problem, options)
        assert time.perf_counter() - started < 2.5, "the race waited for the straggler"
        assert race.cancelled == ("slow_heuristic",)
        assert race.timed_out == ()
        assert race.best.optimal and race.best.algorithm == "beam_search"
        assert stopped.wait(2.0), "the cancelled member kept running"

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_exact_member_over_its_slice_times_out_and_heuristics_answer(
        self, backend, make_random_problem
    ):
        problem = make_random_problem(11, 0, **PRUNING_RESISTANT)
        budget = 0.5
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "exhaustive", "beam_search"),
            budget_seconds=budget,
            # 11! orders: minutes of work, so exhaustive overruns its slice
            # (half the budget) and stops there by itself.
            algorithm_options={"exhaustive": {"max_size": 12}},
            backend=backend,
        )
        started = time.perf_counter()
        race = run_portfolio(problem, options)
        elapsed = time.perf_counter() - started
        assert elapsed < budget + 0.5, "the exact member overran the budget"
        assert race.timed_out == ("exhaustive",)
        assert race.cancelled == ()
        assert set(race.results) == {"greedy_min_term", "beam_search"}
        assert race.best.cost <= race.results["beam_search"].cost

    def test_proven_seed_submits_nothing(self, four_service_problem, monkeypatch):
        calls = []

        def recording(problem, **options):
            calls.append(problem)
            return optimize(problem, algorithm="beam_search")

        monkeypatch.setitem(ALGORITHMS, "recording_beam", recording)
        options = PortfolioOptions(
            algorithms=("branch_and_bound", "recording_beam"), budget_seconds=None
        )
        race = run_portfolio(four_service_problem, options)
        assert set(race.results) == {"branch_and_bound"}
        assert race.cancelled == ("recording_beam",)
        assert calls == []

    def test_deadline_stragglers_are_stopped_too(self, four_service_problem, monkeypatch):
        stopped = threading.Event()
        monkeypatch.setitem(ALGORITHMS, "slow_heuristic", stoppable_heuristic(stopped))
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_heuristic"), budget_seconds=0.05
        )
        race = run_portfolio(four_service_problem, options)
        assert race.timed_out == ("slow_heuristic",)
        assert race.cancelled == ()
        assert stopped.wait(2.0)

    def test_cancellations_are_traced_and_counted(self, four_service_problem, monkeypatch):
        stopped = threading.Event()
        monkeypatch.setitem(ALGORITHMS, "slow_heuristic", stoppable_heuristic(stopped))
        config = PlanServiceConfig(
            algorithms=("greedy_min_term", "slow_heuristic", "branch_and_bound"),
            budget_seconds=None,
            observability=True,
        )
        with PlanService(config) as service, activate_trace() as active:
            service.submit(four_service_problem)
            parsed = parse_prometheus_text(service.obs.registry.render())
        assert parsed["repro_portfolio_cancelled_total"][(("member", "slow_heuristic"),)] == 1
        (race,) = [span for span in active.spans if span.name == "portfolio.race"]
        assert race.annotations["cancelled"] == 1

    def test_slice_expiries_are_counted(self, make_random_problem):
        config = PlanServiceConfig(
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=0.1,
            algorithm_options={"exhaustive": {"max_size": 12}},
        )
        with PlanService(config) as service:
            response = service.submit(make_random_problem(11, 0, **PRUNING_RESISTANT))
            parsed = parse_prometheus_text(service.obs.registry.render())
        assert response.algorithm == "greedy_min_term"
        assert parsed["repro_portfolio_timed_out_total"][(("member", "exhaustive"),)] == 1

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_early_exit_cost_equals_the_best_member_run_alone(self, problem):
        race = run_portfolio(problem, PortfolioOptions(budget_seconds=None))
        alone = min(
            optimize(problem, algorithm=name).cost
            for name in ("greedy_min_term", "beam_search", "branch_and_bound")
        )
        assert race.best.cost == alone


class TestLifecycle:
    def test_closed_optimizer_rejects_new_races(self, four_service_problem):
        portfolio = PortfolioOptimizer(PortfolioOptions(budget_seconds=None))
        portfolio.close()
        with pytest.raises(ServingError):
            portfolio.optimize(four_service_problem)

    def test_context_manager_closes(self, four_service_problem):
        with PortfolioOptimizer(PortfolioOptions(budget_seconds=None)) as portfolio:
            race = portfolio.optimize(four_service_problem)
            assert race.best.cost > 0
        with pytest.raises(ServingError):
            portfolio.optimize(four_service_problem)

    def test_executor_is_reused_across_races(self, four_service_problem, three_service_problem):
        with PortfolioOptimizer(PortfolioOptions(budget_seconds=None)) as portfolio:
            first = portfolio.optimize(four_service_problem)
            second = portfolio.optimize(three_service_problem)
            assert first.best.plan.problem is four_service_problem
            assert second.best.plan.problem is three_service_problem
