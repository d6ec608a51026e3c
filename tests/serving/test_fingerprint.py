"""Property tests for problem fingerprinting.

The contract: fingerprints are invariant under re-indexing of the same
services (the cache's whole point), sensitive to parameter changes beyond the
quantization step, and the canonical-position translation round-trips plans
between equivalent problems.
"""

from __future__ import annotations

import random

import pytest
from fingerprint_oracle import oracle_fingerprint
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommunicationCostMatrix, OrderingProblem, PrecedenceGraph, Service
from repro.exceptions import ServingError
from repro.serving import fingerprint_problem, quantize


@st.composite
def problems_and_permutations(draw):
    size = draw(st.integers(2, 6))
    costs = draw(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=size, max_size=size))
    selectivities = draw(
        st.lists(st.floats(0.1, 1.5, allow_nan=False), min_size=size, max_size=size)
    )
    flat = draw(
        st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=size * size, max_size=size * size)
    )
    rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
    problem = OrderingProblem.from_parameters(costs, selectivities, rows)
    permutation = draw(st.permutations(list(range(size))))
    return problem, tuple(permutation)


def permute_problem(problem: OrderingProblem, permutation: tuple[int, ...]) -> OrderingProblem:
    """The same problem with services listed in ``permutation`` order."""
    services = [problem.service(index) for index in permutation]
    rows = [
        [problem.transfer_cost(permutation[i], permutation[j]) for j in range(problem.size)]
        for i in range(problem.size)
    ]
    sink = (
        [problem.sink_cost(index) for index in permutation]
        if problem.sink_transfer is not None
        else None
    )
    return OrderingProblem(services, CommunicationCostMatrix(rows), sink_transfer=sink)


class TestQuantize:
    def test_quantization_grid(self):
        assert quantize(0.1 + 0.2, 6) == quantize(0.3, 6)
        assert quantize(1.2345678, 3) == 1235
        assert quantize(0.0, 6) == 0

    def test_negative_precision_rejected(self):
        with pytest.raises(ServingError):
            quantize(1.0, -1)


class TestPermutationInvariance:
    @settings(max_examples=50, deadline=None)
    @given(problems_and_permutations())
    def test_reindexing_preserves_the_digest(self, case):
        problem, permutation = case
        permuted = permute_problem(problem, permutation)
        assert fingerprint_problem(problem).digest == fingerprint_problem(permuted).digest

    @settings(max_examples=50, deadline=None)
    @given(problems_and_permutations())
    def test_canonical_positions_translate_plans_between_equivalents(self, case):
        problem, permutation = case
        permuted = permute_problem(problem, permutation)
        original = fingerprint_problem(problem)
        mirrored = fingerprint_problem(permuted)

        order = tuple(range(problem.size))
        positions = original.to_positions(order)
        translated = mirrored.from_positions(positions)
        # The translated plan visits the same *services* (hence the same cost).
        assert [permuted.service(i).name for i in translated] == [
            problem.service(i).name for i in order
        ]
        assert permuted.cost(translated) == pytest.approx(problem.cost(order))

    def test_roundtrip_is_identity_on_the_same_problem(self, four_service_problem):
        fingerprint = fingerprint_problem(four_service_problem)
        order = (2, 0, 3, 1)
        assert fingerprint.from_positions(fingerprint.to_positions(order)) == order


class TestSensitivity:
    def test_cost_change_beyond_the_grid_changes_the_digest(self, three_service_problem):
        problem = three_service_problem
        changed = OrderingProblem.from_parameters(
            [problem.costs[0] + 0.5, *problem.costs[1:]],
            list(problem.selectivities),
            problem.transfer.as_lists(),
        )
        assert fingerprint_problem(problem).digest != fingerprint_problem(changed).digest

    def test_change_below_the_grid_is_absorbed(self, three_service_problem):
        problem = three_service_problem
        nudged = OrderingProblem.from_parameters(
            [problem.costs[0] + 1e-9, *problem.costs[1:]],
            list(problem.selectivities),
            problem.transfer.as_lists(),
        )
        assert (
            fingerprint_problem(problem, precision=3).digest
            == fingerprint_problem(nudged, precision=3).digest
        )

    def test_precision_is_part_of_the_key(self, three_service_problem):
        coarse = fingerprint_problem(three_service_problem, precision=2)
        fine = fingerprint_problem(three_service_problem, precision=8)
        assert coarse.key != fine.key

    def test_precedence_is_part_of_the_digest(self, three_service_problem):
        precedence = PrecedenceGraph(3)
        precedence.add(0, 2)
        constrained = three_service_problem.with_precedence(precedence)
        assert (
            fingerprint_problem(three_service_problem).digest
            != fingerprint_problem(constrained).digest
        )

    def test_names_only_matter_when_requested(self, three_service_problem):
        renamed = OrderingProblem.from_parameters(
            list(three_service_problem.costs),
            list(three_service_problem.selectivities),
            three_service_problem.transfer.as_lists(),
            names=["a", "b", "c"],
        )
        assert (
            fingerprint_problem(three_service_problem).digest
            == fingerprint_problem(renamed).digest
        )
        assert (
            fingerprint_problem(three_service_problem, include_names=True).digest
            != fingerprint_problem(renamed, include_names=True).digest
        )

    def test_unknown_index_in_plan_is_rejected(self, three_service_problem):
        fingerprint = fingerprint_problem(three_service_problem)
        with pytest.raises(ServingError):
            fingerprint.to_positions((0, 1, 7))
        with pytest.raises(ServingError):
            fingerprint.from_positions((0, 1, 7))


# A few shared values make equal parameters (and so signature ties broken
# only by name) common; free floats exercise the quantization grid.
_PARAMETER = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.25]), st.floats(0.0, 5.0))


@st.composite
def oracle_cases(draw):
    size = draw(st.integers(1, 24))
    # Services are drawn from a few templates, so several share every
    # parameter; with a uniform matrix such services differ only by name.
    templates = draw(st.integers(1, size))
    template_of = [draw(st.integers(0, templates - 1)) for _ in range(size)]
    costs = [draw(_PARAMETER) for _ in range(templates)]
    selectivities = [draw(st.sampled_from([0.1, 0.5, 1.0, 1.5])) for _ in range(templates)]
    sinks = [draw(_PARAMETER) for _ in range(templates)]
    if draw(st.booleans()):
        value = draw(_PARAMETER)
        rows = [[0.0 if i == j else value for j in range(size)] for i in range(size)]
    else:
        # Up to 552 entries: a seeded generator keeps drawing them cheap.
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))

        def entry() -> float:
            return rng.choice([0.0, 0.5, 1.0, 2.25]) if rng.random() < 0.5 else rng.uniform(0, 5)

        rows = [[0.0 if i == j else entry() for j in range(size)] for i in range(size)]
    names = draw(st.permutations([f"ws{index}" for index in range(size)]))
    services = [
        Service(
            name=names[index],
            cost=costs[template_of[index]],
            selectivity=selectivities[template_of[index]],
            threads=draw(st.integers(1, 2)),
        )
        for index in range(size)
    ]
    sink = [sinks[template_of[index]] for index in range(size)] if draw(st.booleans()) else None
    precedence = None
    if size > 1 and draw(st.booleans()):
        # Edges follow a random topological order, so the graph stays acyclic.
        topological = draw(st.permutations(list(range(size))))
        precedence = PrecedenceGraph(size)
        for _ in range(draw(st.integers(1, size))):
            pair = st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True)
            first, second = sorted(draw(pair))
            precedence.add(topological[first], topological[second])
    problem = OrderingProblem(
        services, CommunicationCostMatrix(rows), precedence=precedence, sink_transfer=sink
    )
    return problem, draw(st.integers(0, 6)), draw(st.booleans())


GOLDEN_ORDER = (2, 1, 0, 3)
GOLDEN_DIGEST = "39c63cae3230cc27dc6bd732a90ed8eb7e7614b64e199842d3efd75ea9baaae9"
GOLDEN_NAMED_DIGEST_P2 = "ae0548027dccc143a1586c583c322e235dd654bc539a9c38d78ba60cfa0d9bef"


class TestOracleParity:
    """Stored entries and shard routing are keyed by digest: the single-pass
    rewrite must agree with the original implementation exactly."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    def test_digest_and_canonical_order_match_the_oracle(self, case):
        problem, precision, include_names = case
        expected = oracle_fingerprint(problem, precision, include_names)
        actual = fingerprint_problem(problem, precision, include_names)
        assert actual.digest == expected.digest
        assert actual.canonical_order == expected.canonical_order
        assert actual == expected

    def test_golden_digest(self):
        """A pinned digest: changing it invalidates every stored cache entry."""
        precedence = PrecedenceGraph(4)
        precedence.add(2, 0)
        problem = OrderingProblem(
            [
                Service(name="scan", cost=1.5, selectivity=0.4),
                Service(name="join-b", cost=0.75, selectivity=0.9, threads=2),
                Service(name="join-a", cost=0.75, selectivity=0.9, threads=2),
                Service(name="filter", cost=2.0, selectivity=0.1234567),
            ],
            CommunicationCostMatrix(
                [
                    [0.0, 1.0, 1.0, 0.3],
                    [0.5, 0.0, 2.0, 0.5],
                    [0.5, 2.0, 0.0, 0.5],
                    [0.25, 1.0, 1.0, 0.0],
                ]
            ),
            precedence=precedence,
            sink_transfer=[0.1, 0.2, 0.2, 0.05],
        )
        fingerprint = fingerprint_problem(problem)
        assert fingerprint.canonical_order == GOLDEN_ORDER
        assert fingerprint.digest == GOLDEN_DIGEST
        assert fingerprint_problem(problem, precision=2, include_names=True).digest == (
            GOLDEN_NAMED_DIGEST_P2
        )

    def test_negative_precision_is_rejected(self, three_service_problem):
        with pytest.raises(ServingError, match="precision must be non-negative"):
            fingerprint_problem(three_service_problem, precision=-1)
