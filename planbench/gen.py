"""Seeded request generation for the plan-server benchmark.

Every request body is built here, before any timing starts, from the
workload name and ``--seed`` alone: the same pair always yields byte-identical
bodies.  The server only ever sees these bytes.

A request is an :class:`Op`: the HTTP path, the body, and for each plan the
body asks for a :class:`Member` — which generated problem it is (``key``) and,
for a renamed resubmission, the permutation that maps the submitted service
indices back to the original problem's indices.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.serialization import problem_to_dict
from repro.workloads import generate_problem
from repro.workloads.suites import default_spec

WORKLOADS = ("warm-hits", "cold-mix", "shards-zipf")

WARM_PROBLEMS = 64
WARM_SIZE = 24
COLD_SIZES = (12, 24)  # inclusive; n=16 stays in range on purpose
COLD_WARMUP = 8
ZIPF_PROBLEMS = 4096
ZIPF_SIZE = 12
ZIPF_EXPONENT = 1.1
STORE_CAPACITY = 1024  # the repro serve default --cache-capacity
RENAME_EVERY = 8
BATCH_EVERY = 16
BATCH_SIZE = 8
PREFILL_BATCH = 32
PROBE_SIZE = 16
PROBE_REQUESTS = 128
STORE_DIR = "{store}"  # replaced by a fresh directory at each launch
# The timed cold-mix and shards-zipf servers optimize on the scalar kernel.
# Under the default ``auto`` kernel the portfolio members race on one shared
# vector-kernel workspace and a few requests fail at random (a 500), so two
# runs of the same code would never agree on their failure count.  The race
# is measured on its own by :func:`vector_race_probe` instead.
SCALAR = ["--kernel", "scalar"]

# Upper bounds on request rates, used only to size the pre-built request
# list: a run that exhausts it ends early and says so.  They sit well above
# the rates measured at the baseline.
MAX_RATE = {"warm-hits": 2000, "cold-mix": 150, "shards-zipf": 1500}


@dataclass(frozen=True)
class Member:
    """One plan inside a request."""

    key: int
    """Index of the generated problem in :attr:`Workload.documents`."""

    perm: tuple[int, ...] | None = None
    """For a renamed resubmission: submitted index ``i`` is original index
    ``perm[i]``.  ``None`` when the problem is submitted as generated."""


@dataclass(frozen=True)
class Op:
    path: str
    body: bytes
    members: tuple[Member, ...]


@dataclass
class Workload:
    serve_args: list[str]
    documents: list[dict]
    """Every generated problem document, by key."""
    prefill: list[Op]
    """Requests sent before timing (cache warm-up; never measured)."""
    timed: list[Op]
    """The timed request stream, consumed in order until time runs out."""
    submitted: dict[tuple[int, tuple[int, ...] | None], dict] = field(default_factory=dict)
    """Renamed documents by ``(key, perm)`` (identity documents live in
    :attr:`documents`)."""

    def document(self, member: Member) -> dict:
        if member.perm is None:
            return self.documents[member.key]
        return self.submitted[(member.key, member.perm)]


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"planbench:{workload}:{seed}:{stream}")


def _encode(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _problem_document(size: int, problem_seed: int) -> dict:
    return problem_to_dict(generate_problem(default_spec(size), seed=problem_seed))


def renamed(document: dict, perm: Sequence[int], tag: str) -> dict:
    """``document`` with its services permuted by ``perm`` and renamed.

    Submitted service ``i`` is original service ``perm[i]``; every parameter
    moves with its service, so the problem is structurally identical (same
    fingerprint) while every name and index differs.
    """
    position = {original: new for new, original in enumerate(perm)}
    services = [
        {**document["services"][original], "name": f"{tag}{new}"}
        for new, original in enumerate(perm)
    ]
    transfer = [[document["transfer"][a][b] for b in perm] for a in perm]
    sink = document.get("sink_transfer")
    return {
        **document,
        "services": services,
        "transfer": transfer,
        "precedence": [[position[a], position[b]] for a, b in document["precedence"]],
        "sink_transfer": [sink[original] for original in perm] if sink is not None else None,
    }


def _plan_op(key: int, body: bytes) -> Op:
    return Op("/plan", body, (Member(key),))


def warm_hits(seed: int, seconds: float) -> Workload:
    rng = _rng("warm-hits", seed, "problems")
    documents = [
        _problem_document(WARM_SIZE, rng.randrange(2**31)) for _ in range(WARM_PROBLEMS)
    ]
    bodies = [_encode(document) for document in documents]
    draws = _rng("warm-hits", seed, "order")
    count = int(MAX_RATE["warm-hits"] * seconds) + 1
    keys = [draws.randrange(WARM_PROBLEMS) for _ in range(count)]
    timed = [_plan_op(key, bodies[key]) for key in keys]
    prefill = [_plan_op(key, bodies[key]) for key in range(WARM_PROBLEMS)]
    return Workload([], documents, prefill, timed)


def cold_mix(seed: int, seconds: float) -> Workload:
    rng = _rng("cold-mix", seed, "problems")
    count = COLD_WARMUP + int(MAX_RATE["cold-mix"] * seconds) + 1
    # Sizes are drawn in shuffled blocks that hold every size once, so each
    # run sees the same size mix and seeds differ only in the instances.
    sizes: list[int] = []
    documents = []
    seen = set()
    while len(documents) < count:
        if not sizes:
            sizes = list(range(COLD_SIZES[0], COLD_SIZES[1] + 1))
            rng.shuffle(sizes)
        problem_seed = rng.randrange(2**31)
        if problem_seed in seen:
            continue
        seen.add(problem_seed)
        documents.append(_problem_document(sizes.pop(), problem_seed))
    ops = [_plan_op(key, _encode(document)) for key, document in enumerate(documents)]
    return Workload(["--async", *SCALAR], documents, ops[:COLD_WARMUP], ops[COLD_WARMUP:])


def zipf_cdf(count: int, exponent: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight
        cdf.append(running / total)
    cdf[-1] = 1.0
    return cdf


def shards_zipf(seed: int, seconds: float) -> Workload:
    import bisect

    rng = _rng("shards-zipf", seed, "problems")
    problem_seeds: list[int] = []
    seen = set()
    while len(problem_seeds) < ZIPF_PROBLEMS:
        problem_seed = rng.randrange(2**31)
        if problem_seed not in seen:
            seen.add(problem_seed)
            problem_seeds.append(problem_seed)
    # Key k has popularity rank k: key 0 is the most requested problem.
    documents = [_problem_document(ZIPF_SIZE, problem_seed) for problem_seed in problem_seeds]
    bodies = [_encode(document) for document in documents]

    def batch_op(keys: Sequence[int]) -> Op:
        body = b'{"problems":[' + b",".join(bodies[key] for key in keys) + b"]}"
        return Op("/plan/batch", body, tuple(Member(key) for key in keys))

    # Prefill past the store's capacity, least popular first, so the store is
    # full, evictions have started and the most popular plans are the most
    # recently used when timing begins.
    prefill_keys = list(range(STORE_CAPACITY + 2 * PREFILL_BATCH))[::-1]
    prefill = [
        batch_op(prefill_keys[start : start + PREFILL_BATCH])
        for start in range(0, len(prefill_keys), PREFILL_BATCH)
    ]

    cdf = zipf_cdf(ZIPF_PROBLEMS, ZIPF_EXPONENT)
    draws = _rng("shards-zipf", seed, "stream")
    workload = Workload(
        [
            "--async",
            "--shards",
            "2",
            "--shard-backend",
            "processes",
            "--share-cache-dir",
            STORE_DIR,
            *SCALAR,
        ],
        documents,
        prefill,
        [],
    )

    def draw() -> int:
        return bisect.bisect_left(cdf, draws.random())

    count = int(MAX_RATE["shards-zipf"] * seconds) + 1
    for index in range(count):
        if index % BATCH_EVERY == BATCH_EVERY - 1:
            workload.timed.append(batch_op([draw() for _ in range(BATCH_SIZE)]))
        elif index % RENAME_EVERY == 3:  # 3 and 11 (mod 16): never a batch slot
            key = draw()
            perm = tuple(draws.sample(range(ZIPF_SIZE), ZIPF_SIZE))
            document = renamed(documents[key], perm, f"R{index}_")
            workload.submitted[(key, perm)] = document
            workload.timed.append(Op("/plan", _encode(document), (Member(key, perm),)))
        else:
            key = draw()
            workload.timed.append(_plan_op(key, bodies[key]))
    return workload


def vector_race_probe(seed: int) -> Workload:
    """Cold n=16 problems for a ``repro serve --async`` on the default kernel.

    The timed cold-mix and shards-zipf servers run on the scalar kernel
    (:data:`SCALAR`).  This short probe keeps the vector-kernel race in view:
    it sends every request once, untimed, and the share refused is reported.
    """
    rng = _rng("vector-race", seed, "problems")
    documents = [
        _problem_document(PROBE_SIZE, rng.randrange(2**31)) for _ in range(PROBE_REQUESTS)
    ]
    timed = [_plan_op(key, _encode(document)) for key, document in enumerate(documents)]
    return Workload(["--async"], documents, [], timed)


def build(name: str, seed: int, seconds: float) -> Workload:
    if name == "warm-hits":
        return warm_hits(seed, seconds)
    if name == "cold-mix":
        return cold_mix(seed, seconds)
    if name == "shards-zipf":
        return shards_zipf(seed, seconds)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
