"""Pluggable storage backends behind :class:`~repro.serving.cache.PlanCache`.

The cache separates *policy* from *storage*: :class:`PlanCache` keeps its
TTL / stale-while-revalidate / drift semantics and counters, while the entry
storage — the recency-ordered key → :class:`~repro.serving.cache.CachedPlan`
map with LRU eviction — lives behind the small :class:`CacheStore` protocol:

* ``get(key)`` / ``put(key, entry)`` / ``invalidate(key)`` — the KV surface;
  ``put`` returns how many entries it evicted so the cache's counters stay
  exact on any backend,
* ``touch(key)`` — LRU promotion, split from ``get`` so the cache can decide
  (expiry!) before refreshing recency,
* ``scan()`` — every stored key, which is what the sharding tier's rebalance
  measurements and aggregated stats iterate,
* ``stats()`` — a backend-described stats hook merged into the cache's own.

Two implementations ship:

* :class:`LocalStore` — the in-process ``OrderedDict`` the cache always used,
  now extracted; one lock, exact LRU order.
* :class:`SharedStore` — a file-backed KV (one JSON document per entry,
  atomic ``os.replace`` writes, recency tracked through ``st_mtime_ns`` plus
  an in-process monotonic tie-break) that several
  :class:`~repro.serving.service.PlanService` shard *processes* can
  point at the same directory, so shards share warm plans and a rebalanced
  key is warm on its new shard the moment it moves.  Writes are last-writer-
  wins and unlink races are tolerated, which is exactly the cache's contract:
  an entry may legally vanish between ``get`` and ``touch``.  Cross-process
  recency is mtime-granular, so LRU order is approximate under concurrent
  readers — evictions still happen, only their victim choice blurs.

Entries round-trip through JSON, never pickle: payloads stay inspectable on
disk and survive interpreter upgrades.  The document format is versioned
(:data:`_ENTRY_VERSION`); a file of any other version — e.g. a ``v: 1``
entry that still carried the whole drift-reference problem — reads as a
miss and is replaced by the next put.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
import threading
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.exceptions import ServingError
from repro.serving.fingerprint import ProblemFingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only (cache.py imports us)
    from repro.serving.cache import CachedPlan

__all__ = ["CacheStore", "LocalStore", "SharedStore"]

_ENTRY_VERSION = 2
"""Version of a stored entry document.  ``v: 2`` stores the compact
canonical-order :class:`~repro.serving.cache.DriftReference`; ``v: 1`` stored
the whole problem and is no longer read."""

_ENTRY_SUFFIX = ".plan.json"
"""Filename suffix of one stored entry in a :class:`SharedStore` directory."""

_PUTS_PER_INDEX_RESYNC = 64
"""Every this many puts a :class:`SharedStore` rescans unconditionally: a
sibling's write landing in the *same* filesystem timestamp tick as the
recorded directory mtime is invisible to the cheap change check, so the
forced rescan bounds how long such a missed entry can skew capacity
accounting (amortised cost: one scan per 64 inserts)."""


@runtime_checkable
class CacheStore(Protocol):
    """Storage protocol behind :class:`~repro.serving.cache.PlanCache`.

    Implementations own recency ordering and capacity eviction; the cache
    layers expiry, staleness and drift policy on top.
    """

    def get(self, key: str) -> "CachedPlan | None":
        """The entry stored under ``key`` (no recency side effect), or ``None``."""
        ...

    def put(self, key: str, entry: "CachedPlan") -> int:
        """Store ``entry`` under ``key`` (most recent); return entries evicted."""
        ...

    def invalidate(self, key: str, expected: "CachedPlan | None" = None) -> bool:
        """Drop ``key``; return whether an entry was removed.

        With ``expected``, only the entry previously returned by :meth:`get`
        is dropped (compare-and-delete) — the caller's expiry decision must
        not delete a *fresh* entry a concurrent ``put`` raced in.
        """
        ...

    def touch(self, key: str) -> None:
        """Mark ``key`` most recently used (no-op when it vanished meanwhile)."""
        ...

    def scan(self) -> list[str]:
        """Every stored key (unspecified order)."""
        ...

    def clear(self) -> None:
        """Drop every entry."""
        ...

    def __len__(self) -> int:
        ...

    def stats(self) -> dict[str, object]:
        """Backend-described stats hook (merged into the cache's counters)."""
        ...


class LocalStore:
    """The in-process LRU store: one ``OrderedDict`` under one lock."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ServingError(f"store capacity must be at least 1, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str) -> "CachedPlan | None":
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, entry: "CachedPlan") -> int:
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = entry
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            return evicted

    def invalidate(self, key: str, expected: "CachedPlan | None" = None) -> bool:
        with self._lock:
            if expected is not None and self._entries.get(key) is not expected:
                return False  # a fresh put raced in; keep it
            return self._entries.pop(key, None) is not None

    def touch(self, key: str) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)

    def scan(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, object]:
        return {"backend": "local", "capacity": self.capacity}


def _entry_to_document(key: str, entry: "CachedPlan") -> dict[str, object]:
    fingerprint = entry.fingerprint
    reference = entry.reference
    return {
        "v": _ENTRY_VERSION,
        "key": key,
        "fingerprint": {
            "digest": fingerprint.digest,
            "precision": fingerprint.precision,
            "size": fingerprint.size,
            "canonical_order": list(fingerprint.canonical_order),
        },
        "positions": list(entry.positions),
        "cost": entry.cost,
        "algorithm": entry.algorithm,
        "optimal": entry.optimal,
        "reference": {
            "costs": reference.costs.tolist(),
            "selectivities": reference.selectivities.tolist(),
            "transfer": reference.transfer.tolist(),
        },
        "created_at": entry.created_at,
    }


def _entry_from_document(document: dict[str, object]) -> "tuple[str, CachedPlan]":
    from repro.serving.cache import CachedPlan, DriftReference

    if document.get("v") != _ENTRY_VERSION:
        raise ServingError(f"unsupported store entry version {document.get('v')!r}")
    fp = document["fingerprint"]
    fingerprint = ProblemFingerprint(
        digest=fp["digest"],
        precision=fp["precision"],
        size=fp["size"],
        canonical_order=tuple(fp["canonical_order"]),
    )
    reference = document["reference"]
    entry = CachedPlan(
        fingerprint=fingerprint,
        positions=tuple(document["positions"]),
        cost=float(document["cost"]),
        algorithm=str(document["algorithm"]),
        optimal=bool(document["optimal"]),
        reference=DriftReference(
            array("d", reference["costs"]),
            array("d", reference["selectivities"]),
            array("d", reference["transfer"]),
        ),
        created_at=float(document["created_at"]),
    )
    return str(document["key"]), entry


class SharedStore:
    """A file-backed KV store shareable by several shard processes.

    One JSON document per entry under ``directory``; writes go through a
    temporary file plus :func:`os.replace`, so a reader never observes a
    half-written entry.  Recency is the file's ``st_mtime_ns`` (``touch``
    bumps it), which makes LRU eviction approximate but multi-process
    coherent without any cross-process lock.  Within one process the store
    breaks mtime ties with a monotonic sequence number, so entries written
    inside the same filesystem timestamp tick (second-granular on some
    filesystems) still evict in true LRU order instead of effectively at
    random.

    Eviction runs off a cached in-process index of ``(recency, name)``
    pairs instead of rescanning the directory on every insert: the index is
    rebuilt when the *directory* mtime no longer matches the value recorded
    after this store's own last mutation — i.e. when some other process (or
    store instance) added or removed entries — and unconditionally every
    ``_PUTS_PER_INDEX_RESYNC`` puts, because a sibling's write landing in
    the same timestamp tick as the recorded value would otherwise go
    unnoticed.  A sibling's ``touch`` does not change the directory mtime,
    so its recency bump is picked up lazily; the victim choice blurs exactly
    as the mtime contract already allows, and capacity drift from a missed
    same-tick write is bounded by the periodic rescan.

    The directory is *one* cache: ``capacity`` bounds the directory-wide
    entry count (not per pointing process), and ``__len__`` / ``scan``
    report directory-wide state — N shards over one directory share one
    capacity and all see every entry, which is the point.
    """

    def __init__(self, directory: str | os.PathLike[str], capacity: int = 1024) -> None:
        if capacity < 1:
            raise ServingError(f"store capacity must be at least 1, got {capacity!r}")
        self.capacity = capacity
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # filename -> (recency_ns, seq); rebuilt when the directory changed
        # under us, otherwise maintained incrementally (no directory scan).
        self._index: dict[str, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, str]] = []  # (recency_ns, seq, name)
        self._seq = 0
        self._dir_mtime_ns: int | None = None  # None = index not built yet
        self._puts_since_resync = 0

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.directory / f"{digest}{_ENTRY_SUFFIX}"

    def _entry_paths(self) -> list[Path]:
        return [path for path in self.directory.iterdir() if path.name.endswith(_ENTRY_SUFFIX)]

    # -- CacheStore protocol -----------------------------------------------

    def get(self, key: str) -> "CachedPlan | None":
        document = self._read_document(self._path(key))
        if document is None:
            return None
        try:
            stored_key, entry = _entry_from_document(document)
        except Exception:
            # A malformed document (version skew, hand-edited file) is a
            # plain miss.  No cleanup unlink: the next put replaces the file
            # in place anyway, and an unconditional unlink here could race a
            # concurrent fresh put under the same path and delete it.
            return None
        if stored_key != key:
            return None  # hash-collision paranoia: never serve a foreign key
        return entry

    def put(self, key: str, entry: "CachedPlan") -> int:
        payload = json.dumps(_entry_to_document(key, entry), separators=(",", ":"))
        path = self._path(key)
        with self._lock:
            self._puts_since_resync += 1
            if self._puts_since_resync >= _PUTS_PER_INDEX_RESYNC:
                self._puts_since_resync = 0
                self._dir_mtime_ns = None  # force the rescan (same-tick writes)
            # Sync before mutating: our own write below changes the directory
            # mtime, and only the post-mutation value must be recorded.
            self._sync_index_locked()
            handle, temp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(payload)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except FileNotFoundError:
                    pass
                raise
            self._note_recency_locked(path)
            evicted = self._evict_beyond_capacity_locked(keep=path.name)
            self._note_dir_mtime_locked()
            return evicted

    def invalidate(self, key: str, expected: "CachedPlan | None" = None) -> bool:
        path = self._path(key)
        if expected is not None:
            # Best-effort compare-and-delete: re-read and match created_at so
            # an expiry decision does not drop a fresh racing put.  A write
            # landing between the check and the unlink is still lost — the
            # cross-process window is inherent to a lockless file KV, and the
            # cost is one redundant re-optimization, never a wrong answer.
            current = self.get(key)
            if current is None or current.created_at != expected.created_at:
                return False
        with self._lock:
            try:
                os.unlink(path)
            except FileNotFoundError:
                return False
            self._index.pop(path.name, None)
            self._note_dir_mtime_locked()
        return True

    def touch(self, key: str) -> None:
        path = self._path(key)
        with self._lock:
            try:
                os.utime(path)
            except FileNotFoundError:
                return
            if self._dir_mtime_ns is not None:
                # Keep the index's recency exact for our own touches; a
                # sibling process's utime is invisible here (it does not bump
                # the directory mtime), which only blurs its victim priority.
                self._note_recency_locked(path)

    def scan(self) -> list[str]:
        keys = []
        for path in self._entry_paths():
            document = self._read_document(path)
            if document is not None and "key" in document:
                keys.append(str(document["key"]))
        return keys

    def clear(self) -> None:
        with self._lock:
            for path in self._entry_paths():
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
            self._index.clear()
            self._heap.clear()
            self._note_dir_mtime_locked()

    def __len__(self) -> int:
        return len(self._entry_paths())

    def stats(self) -> dict[str, object]:
        return {
            "backend": "shared",
            "capacity": self.capacity,
            "directory": str(self.directory),
        }

    # -- internals ---------------------------------------------------------

    def _read_document(self, path: Path) -> dict[str, object] | None:
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            document = json.loads(text)
        except ValueError:
            return None
        return document if isinstance(document, dict) else None

    def _recency_ns(self, path: Path) -> int:
        """The filesystem recency of ``path`` (hook; tests simulate coarse clocks)."""
        return path.stat().st_mtime_ns

    def _sync_index_locked(self) -> None:
        """Rebuild the eviction index iff the directory changed externally.

        The check is one ``stat`` of the directory: entry creation/removal by
        anyone bumps its mtime, and :meth:`put` / :meth:`invalidate` /
        :meth:`clear` record the post-mutation value, so a match means the
        index is current and the steady-state put never rescans.
        """
        try:
            dir_mtime = os.stat(self.directory).st_mtime_ns
        except FileNotFoundError:
            self._index.clear()
            self._heap.clear()
            self._dir_mtime_ns = None
            return
        if self._dir_mtime_ns is not None and dir_mtime == self._dir_mtime_ns:
            return
        fresh: dict[str, tuple[int, int]] = {}
        for path in self._entry_paths():
            try:
                ns = self._recency_ns(path)
            except FileNotFoundError:
                continue  # concurrently invalidated
            known = self._index.get(path.name)
            # Keep our own tie-break when the on-disk recency is unchanged;
            # an externally modified file falls back to mtime-only order.
            fresh[path.name] = known if (known is not None and known[0] == ns) else (ns, 0)
        self._index = fresh
        self._heap = [(ns, seq, name) for name, (ns, seq) in fresh.items()]
        heapq.heapify(self._heap)
        self._dir_mtime_ns = dir_mtime

    def _note_recency_locked(self, path: Path) -> None:
        """Mark ``path`` most recent: on-disk mtime plus a monotonic tie-break."""
        try:
            ns = self._recency_ns(path)
        except FileNotFoundError:
            return
        self._seq += 1
        self._index[path.name] = (ns, self._seq)
        heapq.heappush(self._heap, (ns, self._seq, path.name))
        # Lazy deletion leaves one superseded tuple per touch/replace in the
        # heap; compact before a hit-heavy workload turns that into a leak.
        if len(self._heap) > 4 * len(self._index) + 64:
            self._heap = [(n, s, name) for name, (n, s) in self._index.items()]
            heapq.heapify(self._heap)

    def _note_dir_mtime_locked(self) -> None:
        try:
            self._dir_mtime_ns = os.stat(self.directory).st_mtime_ns
        except FileNotFoundError:
            self._dir_mtime_ns = None

    def _pop_lru_locked(self, spare: str) -> str | None:
        """Remove and return the LRU index entry, never ``spare`` (lazy heap)."""
        withheld: tuple[int, int, str] | None = None
        victim: str | None = None
        while self._heap:
            ns, seq, name = heapq.heappop(self._heap)
            if self._index.get(name) != (ns, seq):
                continue  # superseded by a later touch/put, or already gone
            if name == spare:
                withheld = (ns, seq, name)
                continue
            del self._index[name]
            victim = name
            break
        if withheld is not None:
            heapq.heappush(self._heap, withheld)
        return victim

    def _evict_beyond_capacity_locked(self, keep: str) -> int:
        evicted = 0
        while len(self._index) > self.capacity:
            victim = self._pop_lru_locked(spare=keep)
            if victim is None:
                break
            try:
                os.unlink(self.directory / victim)
            except FileNotFoundError:
                continue  # concurrently invalidated; not our eviction
            evicted += 1
        return evicted
