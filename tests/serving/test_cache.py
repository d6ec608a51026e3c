"""Unit tests of the LRU + TTL plan cache."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import OrderingProblem
from repro.exceptions import ServingError
from repro.serving import PlanCache, fingerprint_problem


def random_problem(size: int, seed: int) -> OrderingProblem:
    """A small random problem (mirrors the helper in the top-level conftest)."""
    rng = random.Random(seed)
    costs = [rng.uniform(0.1, 5.0) for _ in range(size)]
    selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


class FakeClock:
    """A manually advanced monotonic clock for deterministic TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def store(cache: PlanCache, problem: OrderingProblem, cost: float = 1.0):
    fingerprint = fingerprint_problem(problem)
    order = tuple(range(problem.size))
    cache.put(
        fingerprint,
        positions=fingerprint.to_positions(order),
        cost=cost,
        algorithm="test",
        optimal=False,
        problem=problem,
    )
    return fingerprint


class TestLru:
    def test_capacity_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        first = store(cache, random_problem(4, 0))
        second = store(cache, random_problem(4, 1))
        # Touch the first entry so the second becomes the LRU victim.
        assert cache.get(first).hit
        third = store(cache, random_problem(4, 2))
        assert len(cache) == 2
        assert cache.get(first).hit
        assert cache.get(third).hit
        assert not cache.get(second).hit
        assert cache.stats().evictions == 1

    def test_put_refreshes_existing_entry_without_growing(self):
        cache = PlanCache(capacity=2)
        problem = random_problem(4, 0)
        store(cache, problem, cost=5.0)
        store(cache, problem, cost=3.0)
        assert len(cache) == 1
        lookup = cache.get(fingerprint_problem(problem))
        assert lookup.entry is not None and lookup.entry.cost == 3.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ServingError):
            PlanCache(capacity=0)
        with pytest.raises(ServingError):
            PlanCache(capacity=1, ttl=0.0)

    def test_position_count_must_match_fingerprint(self):
        cache = PlanCache(capacity=2)
        problem = random_problem(4, 0)
        fingerprint = fingerprint_problem(problem)
        with pytest.raises(ServingError):
            cache.put(fingerprint, (0, 1), 1.0, "test", False, problem)


class TestTtl:
    def test_expired_entries_are_misses_by_default(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        problem = random_problem(4, 1)
        fingerprint = store(cache, problem)
        clock.advance(9.0)
        assert cache.get(fingerprint).hit
        clock.advance(2.0)
        lookup = cache.get(fingerprint)
        assert not lookup.hit
        assert cache.stats().expirations == 1
        assert len(cache) == 0

    def test_stale_while_revalidate_serves_expired_entries(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, stale_while_revalidate=True, clock=clock)
        problem = random_problem(4, 2)
        fingerprint = store(cache, problem)
        clock.advance(11.0)
        lookup = cache.get(fingerprint)
        assert lookup.hit and lookup.stale
        stats = cache.stats()
        assert stats.stale_hits == 1
        assert stats.revalidations == 1
        # The entry stays until a put replaces it.
        assert len(cache) == 1
        store(cache, problem)
        assert not cache.get(fingerprint).stale

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=None, clock=clock)
        fingerprint = store(cache, random_problem(4, 3))
        clock.advance(1e9)
        assert cache.get(fingerprint).hit


class TestDriftRevalidation:
    def test_drifted_problem_triggers_revalidation(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 4)
        fingerprint = store(cache, problem)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        drifted = OrderingProblem.from_parameters(
            [cost * 2.0 + 0.1 for cost in problem.costs],
            list(problem.selectivities),
            problem.transfer.as_lists(),
        )
        assert cache.needs_revalidation(
            entry, drifted, fingerprint_problem(drifted), drift_threshold=0.05
        )
        assert not cache.needs_revalidation(entry, problem, fingerprint, drift_threshold=0.05)
        assert cache.stats().revalidations == 1

    def test_unmatchable_service_sets_are_conservatively_revalidated(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 5)
        fingerprint = store(cache, problem)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        # A reference of another size cannot be lined up position by position.
        larger = random_problem(5, 5)
        assert cache.needs_revalidation(
            entry, larger, fingerprint_problem(larger), drift_threshold=0.05
        )

    def test_renamed_permuted_problem_shows_no_drift(self):
        """Drift is positional: names and indexing play no part."""
        cache = PlanCache(capacity=4)
        problem = random_problem(5, 8)
        store(cache, problem)
        permutation = [3, 0, 4, 1, 2]
        renamed = OrderingProblem.from_parameters(
            [problem.costs[i] for i in permutation],
            [problem.selectivities[i] for i in permutation],
            [[problem.transfer_cost(i, j) for j in permutation] for i in permutation],
            names=["p", "q", "r", "s", "t"],
        )
        fingerprint = fingerprint_problem(renamed)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        assert not cache.needs_revalidation(entry, renamed, fingerprint, drift_threshold=0.0)
        assert cache.stats().revalidations == 0


class TestCounters:
    def test_hit_rate_accounts_for_all_lookup_kinds(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 6)
        fingerprint = store(cache, problem)
        missing = fingerprint_problem(random_problem(5, 7))
        cache.get(fingerprint)
        cache.get(missing)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert set(stats.as_dict()) >= {"hits", "misses", "evictions", "hit_rate"}

    def test_concurrent_access_is_consistent(self):
        cache = PlanCache(capacity=16)
        problems = [random_problem(4, seed) for seed in range(8)]
        fingerprints = [store(cache, problem) for problem in problems]

        def hammer() -> None:
            for _ in range(200):
                for fingerprint, problem in zip(fingerprints, problems):
                    if not cache.get(fingerprint).hit:
                        store(cache, problem)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats.lookups == 4 * 200 * 8
        assert len(cache) == 8
