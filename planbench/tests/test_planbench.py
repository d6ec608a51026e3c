"""Tests of the plan-server benchmark itself.

Run from the repository root:  python3 -m pytest planbench/tests -q
The smoke runs launch real servers and take about two minutes in all.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
from client import Record  # noqa: E402
from layers import PER_LAYER_UNITS, self_times  # noqa: E402
from repro.core.optimizer import optimize  # noqa: E402
from repro.serialization import problem_from_dict  # noqa: E402
from verify import Outcome, References, Verifier  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

ISSUE_END_TO_END = {
    "setup_s", "plans_per_s", "latency_p50_ms", "latency_p99_ms", "optimal_share", "rss_mb",
}


def _bodies(workload: gen.Workload) -> list[bytes]:
    return [op.body for op in workload.prefill + workload.timed]


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_bodies(name):
    first = gen.build(name, 7, 0.05)
    again = gen.build(name, 7, 0.05)
    assert _bodies(first) == _bodies(again)
    assert [op.members for op in first.timed] == [op.members for op in again.timed]
    assert _bodies(gen.build(name, 8, 0.05)) != _bodies(first)


def test_workload_shapes_follow_the_spec():
    cold = gen.build("cold-mix", 3, 1.0)
    sizes = {len(document["services"]) for document in cold.documents}
    assert min(sizes) >= 12 and max(sizes) <= 24 and 16 in sizes
    assert len({op.body for op in cold.prefill + cold.timed}) == len(cold.prefill + cold.timed)

    zipf = gen.build("shards-zipf", 3, 0.2)
    timed = zipf.timed
    assert sum(op.path == "/plan/batch" for op in timed) == len(timed) // gen.BATCH_EVERY
    renamed = [op for op in timed if op.members[0].perm is not None]
    assert len(renamed) in range(len(timed) // 8 - 1, len(timed) // 8 + 2)
    assert all(len(op.members) == gen.BATCH_SIZE for op in timed if op.path == "/plan/batch")


def test_only_the_probe_serves_on_the_default_kernel():
    # The timed cold servers run scalar, so the vector-kernel race cannot make
    # their failure counts random; the probe keeps the race in view.
    assert "--kernel" not in gen.build("warm-hits", 3, 0.01).serve_args
    for name in ("cold-mix", "shards-zipf"):
        assert gen.build(name, 3, 0.01).serve_args[-2:] == gen.SCALAR
    probe = gen.vector_race_probe(3)
    assert probe.serve_args == ["--async"] and not probe.prefill
    assert {len(document["services"]) for document in probe.documents} == {gen.PROBE_SIZE}
    assert _bodies(probe) == _bodies(gen.vector_race_probe(3))
    assert _bodies(probe) != _bodies(gen.vector_race_probe(4))


def test_cold_sizes_come_in_blocks_that_hold_every_size():
    cold = gen.build("cold-mix", 3, 1.0)
    low, high = gen.COLD_SIZES
    block = high - low + 1
    sizes = [len(document["services"]) for document in cold.documents]
    for start in range(0, len(sizes) - block + 1, block):
        assert sorted(sizes[start : start + block]) == list(range(low, high + 1))


def test_renamed_problem_is_the_same_problem():
    workload = gen.build("shards-zipf", 4, 0.1)
    (key, perm), document = next(iter(workload.submitted.items()))
    original = problem_from_dict(workload.documents[key])
    renamed = problem_from_dict(document)
    order = optimize(renamed, "branch_and_bound", kernel="scalar").order
    assert renamed.cost(order) == original.cost(tuple(perm[i] for i in order))
    assert {service.name for service in renamed.services}.isdisjoint(
        service.name for service in original.services
    )


def test_benchmark_json_names_every_metric_with_a_unit():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert {metric["name"] for metric in SPEC["end_to_end"]} == ISSUE_END_TO_END
    assert {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]} == PER_LAYER_UNITS


def _answer(problem, order, *, cost=None, optimal=False, cache_hit=False, fingerprint="f"):
    return {
        "order": list(order),
        "services": [problem.service(index).name for index in order],
        "cost": problem.cost(order) if cost is None else cost,
        "algorithm": "test",
        "optimal": optimal,
        "cache_hit": cache_hit,
        "stale": False,
        "fingerprint": fingerprint,
        "latency_seconds": 0.001,
        "coalesced": False,
    }


def _check(verifier, op, answer, outcome, started=0.0):
    body = json.dumps(answer).encode()
    return verifier.check([(op, Record(0, started, started + 0.01, 200, body))], outcome)[0]


def test_verifier_counts_corrupted_answers_as_failures():
    workload = gen.build("warm-hits", 5, 0.01)
    op = workload.prefill[0]
    problem = problem_from_dict(workload.documents[0])
    best = optimize(problem, "branch_and_bound", kernel="scalar")
    verifier = Verifier(workload, References(None))
    outcome = Outcome()
    assert _check(verifier, op, _answer(problem, best.order, optimal=True), outcome)
    assert outcome.optimal == 1

    swapped = list(best.order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    cases = {
        "cost_mismatch": _answer(problem, best.order, cost=math.nextafter(best.cost, 1.0)),
        "not_a_permutation": _answer(problem, best.order[:1] * problem.size, cost=best.cost),
        "names_mismatch": {**_answer(problem, best.order), "services": ["x"] * problem.size},
        "hit_changed_plan": _answer(problem, swapped, cache_hit=True),
    }
    if problem.cost(swapped) != best.cost:
        cases["false_optimal_claim"] = _answer(problem, swapped, optimal=True)
        cases["cost_mismatch_swapped"] = {**_answer(problem, swapped), "cost": best.cost}
    for reason, answer in cases.items():
        outcome = Outcome()
        assert not _check(verifier, op, answer, outcome), reason
        assert outcome.verified == 0 and outcome.wrong_answers == 1, reason
        assert reason.split("_swapped")[0] in outcome.failures, outcome.failures

    outcome = Outcome()
    refused = Record(0, 0.0, 0.01, 500, b'{"error": "boom"}')
    assert verifier.check([(op, refused)], outcome) == [False]
    assert outcome.failures == {"http_500": 1} and outcome.wrong_answers == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, 1, 0, 1, None, None],
        ["a", 1.0, 4.0, 2, 1, 1, None, None],
        ["b", 3.0, 6.0, 3, 1, 1, None, None],  # overlaps a: counted once
        ["c", 5.0, 5.5, 4, 3, 1, None, None],
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(0.5)


def _ignore_sigint():
    # As a background job of a non-interactive shell: SIGINT ignored.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run(root, workload, trace, seconds="1"):
    return subprocess.run(
        [
            sys.executable, "planbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", seconds, "--trace", str(trace),
        ],
        cwd=root, capture_output=True, text=True, timeout=300, preexec_fn=_ignore_sigint,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_smoke_run_prints_every_metric(name, trace):
    result = _run(ROOT, name, trace)
    assert result.returncode == 0, result.stderr[-3000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    group = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    assert {name: value["unit"] for name, value in last["metrics"].items()} == expected
    assert all(isinstance(value["value"], float) for value in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "planbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run(tmp_path, "warm-hits", 0)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
