"""Tests of the pluggable cache stores (LocalStore, SharedStore).

The acceptance-critical property — `PlanCache` semantics are identical on the
extracted `LocalStore` — is covered by `test_cache.py` passing unmodified;
here the stores are exercised directly, plus the cross-process contract of
the file-backed `SharedStore`.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.core import OrderingProblem
from repro.exceptions import ServingError
from repro.serialization import problem_to_dict
from repro.serving import PlanCache, PlanService, PlanServiceConfig, fingerprint_problem
from repro.serving.cache import CachedPlan, DriftReference
from repro.serving.store import LocalStore, SharedStore


def random_problem(size: int, seed: int) -> OrderingProblem:
    rng = random.Random(seed)
    costs = [rng.uniform(0.1, 5.0) for _ in range(size)]
    selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


def entry_for(problem: OrderingProblem, cost: float = 1.0, created_at: float = 0.0):
    fingerprint = fingerprint_problem(problem)
    entry = CachedPlan(
        fingerprint=fingerprint,
        positions=fingerprint.to_positions(tuple(range(problem.size))),
        cost=cost,
        algorithm="test",
        optimal=False,
        reference=DriftReference.capture(problem, fingerprint),
        created_at=created_at,
    )
    return fingerprint.key, entry


@pytest.fixture(params=["local", "shared"])
def store(request, tmp_path):
    if request.param == "local":
        return LocalStore(capacity=3)
    return SharedStore(tmp_path / "plans", capacity=3)


class TestStoreContract:
    """Both backends honour the same CacheStore surface."""

    def test_put_get_roundtrip(self, store):
        key, entry = entry_for(random_problem(4, 0), cost=2.5)
        assert store.get(key) is None
        assert store.put(key, entry) == 0
        fetched = store.get(key)
        assert fetched is not None
        assert fetched.positions == entry.positions
        assert fetched.cost == 2.5
        assert fetched.algorithm == "test"
        assert fetched.fingerprint.key == key
        assert len(store) == 1

    def test_capacity_evicts_least_recently_used(self, store):
        entries = [entry_for(random_problem(4, seed)) for seed in range(4)]
        for key, entry in entries[:3]:
            assert store.put(key, entry) == 0
        store.touch(entries[0][0])  # the second entry becomes the LRU victim
        assert store.put(*entries[3]) == 1
        assert len(store) == 3
        assert store.get(entries[0][0]) is not None
        assert store.get(entries[1][0]) is None
        assert store.get(entries[3][0]) is not None

    def test_invalidate_and_scan_and_clear(self, store):
        first = entry_for(random_problem(4, 0))
        second = entry_for(random_problem(4, 1))
        store.put(*first)
        store.put(*second)
        assert sorted(store.scan()) == sorted([first[0], second[0]])
        assert store.invalidate(first[0])
        assert not store.invalidate(first[0])
        assert store.scan() == [second[0]]
        store.clear()
        assert len(store) == 0 and store.scan() == []

    def test_put_replaces_in_place_without_eviction(self, store):
        key, entry = entry_for(random_problem(4, 0), cost=5.0)
        store.put(key, entry)
        _, refreshed = entry_for(random_problem(4, 0), cost=3.0)
        assert store.put(key, refreshed) == 0
        assert len(store) == 1
        assert store.get(key).cost == 3.0

    def test_touch_on_missing_key_is_a_noop(self, store):
        store.touch("no-such-key")

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ServingError):
            LocalStore(capacity=0)
        with pytest.raises(ServingError):
            SharedStore(tmp_path / "x", capacity=0)

    def test_stats_hook_describes_the_backend(self, store):
        stats = store.stats()
        assert stats["backend"] in ("local", "shared")
        assert stats["capacity"] == 3


class TestSharedStore:
    def test_two_stores_on_one_directory_share_entries(self, tmp_path):
        writer = SharedStore(tmp_path / "plans", capacity=8)
        reader = SharedStore(tmp_path / "plans", capacity=8)
        problem = random_problem(5, 2)
        key, entry = entry_for(problem, cost=4.25)
        writer.put(key, entry)
        fetched = reader.get(key)
        assert fetched is not None
        assert fetched.cost == 4.25
        # The drift reference survives the JSON round trip exactly.
        assert fetched.reference == entry.reference
        assert list(fetched.reference.costs) == [
            problem.costs[index] for index in entry.fingerprint.canonical_order
        ]
        assert reader.invalidate(key)
        assert writer.get(key) is None

    def test_corrupt_entry_is_a_miss_and_gets_dropped(self, tmp_path):
        store = SharedStore(tmp_path / "plans", capacity=8)
        key, entry = entry_for(random_problem(4, 3))
        store.put(key, entry)
        (path,) = list((tmp_path / "plans").iterdir())
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None

    def test_version_skew_is_a_miss_and_a_put_repairs_it(self, tmp_path):
        store = SharedStore(tmp_path / "plans", capacity=8)
        key, entry = entry_for(random_problem(4, 4))
        store.put(key, entry)
        (path,) = list((tmp_path / "plans").iterdir())
        document = json.loads(path.read_text(encoding="utf-8"))
        document["v"] = 999
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.get(key) is None
        # No cleanup unlink (it could race a concurrent put); the next put
        # replaces the malformed file in place.
        store.put(key, entry)
        assert store.get(key) is not None
        assert len(store) == 1

    def test_v1_entry_reads_as_a_miss_and_is_replaced(self, tmp_path):
        """A pre-v2 entry (whole problem as drift reference) is a miss, not a 500."""
        problem = random_problem(4, 6)
        key, entry = entry_for(problem)
        SharedStore(tmp_path / "plans", capacity=8).put(key, entry)
        (path,) = list((tmp_path / "plans").iterdir())
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["reference"]
        document["v"] = 1
        document["problem"] = problem_to_dict(problem)
        path.write_text(json.dumps(document), encoding="utf-8")
        assert SharedStore(tmp_path / "plans", capacity=8).get(key) is None

        config = PlanServiceConfig(budget_seconds=None, cache_store_dir=str(tmp_path / "plans"))
        with PlanService(config) as service:
            assert not service.submit(problem).cache_hit
            assert service.submit(problem).cache_hit
        assert json.loads(path.read_text(encoding="utf-8"))["v"] == 2

    def test_no_temp_file_debris_after_puts(self, tmp_path):
        store = SharedStore(tmp_path / "plans", capacity=8)
        for seed in range(4):
            store.put(*entry_for(random_problem(4, seed)))
        names = [path.name for path in (tmp_path / "plans").iterdir()]
        assert all(name.endswith(".plan.json") for name in names)

    def test_plancache_semantics_on_shared_store(self, tmp_path):
        class FakeClock:
            now = 0.0

            def __call__(self) -> float:
                return self.now

        clock = FakeClock()
        cache = PlanCache(
            ttl=10.0,
            stale_while_revalidate=True,
            clock=clock,
            store=SharedStore(tmp_path / "plans", capacity=8),
        )
        problem = random_problem(4, 5)
        fingerprint = fingerprint_problem(problem)
        cache.put(
            fingerprint,
            positions=fingerprint.to_positions(tuple(range(4))),
            cost=1.0,
            algorithm="test",
            optimal=False,
            problem=problem,
        )
        assert cache.get(fingerprint).hit
        clock.now = 11.0
        lookup = cache.get(fingerprint)
        assert lookup.hit and lookup.stale
        stats = cache.stats()
        assert stats.hits == 1 and stats.stale_hits == 1 and stats.revalidations == 1
        assert cache.keys() == [fingerprint.key]

    def test_same_tick_puts_evict_in_true_lru_order(self, tmp_path):
        """Regression: equal mtimes (coarse filesystems) must not scramble LRU.

        With second-granular timestamps every entry written in the same second
        used to tie, making the eviction victim effectively random; the
        monotonic sequence tie-break restores true LRU order.
        """

        class SameTickStore(SharedStore):
            def _recency_ns(self, path):
                return 1_000_000_000  # every file lands on one timestamp tick

        store = SameTickStore(tmp_path / "plans", capacity=2)
        a = entry_for(random_problem(4, 10))
        b = entry_for(random_problem(4, 11))
        c = entry_for(random_problem(4, 12))
        store.put(*a)
        store.put(*b)
        store.touch(a[0])  # a is now more recent than b despite the mtime tie
        assert store.put(*c) == 1
        assert store.get(a[0]) is not None
        assert store.get(b[0]) is None  # b, the true LRU, was the victim
        assert store.get(c[0]) is not None

    def test_steady_state_put_does_not_rescan_the_directory(self, tmp_path):
        """Regression: eviction used to rescan the whole directory per insert."""

        class CountingStore(SharedStore):
            scans = 0

            def _entry_paths(self):
                self.scans += 1
                return super()._entry_paths()

        store = CountingStore(tmp_path / "plans", capacity=4)
        for seed in range(10):
            store.put(*entry_for(random_problem(4, seed)))
        # One scan to build the index on first use; evicting steady-state puts
        # run off the cached index without touching the directory listing.
        assert store.scans == 1
        assert len(store._index) == 4  # len(store) itself lists the directory
        # ... until the periodic forced resync (every 64 puts) bounds the
        # drift a same-timestamp-tick sibling write could have caused.
        for seed in range(10, 70):
            store.put(*entry_for(random_problem(4, seed)))
        assert store.scans == 2
        assert len(store) == 4

    def test_external_change_invalidates_the_cached_index(self, tmp_path):
        first = SharedStore(tmp_path / "plans", capacity=2)
        second = SharedStore(tmp_path / "plans", capacity=2)
        a = entry_for(random_problem(4, 13))
        b = entry_for(random_problem(4, 14))
        c = entry_for(random_problem(4, 15))
        first.put(*a)
        time.sleep(0.05)  # let the directory mtime tick past first's record
        second.put(*b)  # external to `first`: bumps the directory mtime
        time.sleep(0.05)
        # first's next put must notice b, rescan, and evict the true LRU (a).
        assert first.put(*c) == 1
        assert first.get(a[0]) is None
        assert first.get(b[0]) is not None
        assert first.get(c[0]) is not None
        assert len(first) == 2

    def test_mtime_recency_survives_processes(self, tmp_path):
        """Recency set by one store instance steers another's eviction."""
        first = SharedStore(tmp_path / "plans", capacity=2)
        second = SharedStore(tmp_path / "plans", capacity=2)
        a = entry_for(random_problem(4, 6))
        b = entry_for(random_problem(4, 7))
        c = entry_for(random_problem(4, 8))
        first.put(*a)
        first.put(*b)
        # Bump a's mtime well past b's so the other instance evicts b.
        os.utime(first._path(a[0]), times=(2_000_000_000, 2_000_000_000))
        assert second.put(*c) == 1
        assert second.get(a[0]) is not None
        assert second.get(b[0]) is None
