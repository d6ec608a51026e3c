"""Canonical, permutation-invariant fingerprints of ordering problems.

A plan cache is only useful if structurally identical problems map to the same
key regardless of how their services happen to be indexed: the estimation
layer, the declarative query planner and ad-hoc callers all build
:class:`~repro.core.problem.OrderingProblem` instances in whatever order their
inputs arrive.  :func:`fingerprint_problem` therefore

1. **quantizes** every numeric parameter (costs, selectivities, transfer
   matrix, sink transfers) to a configurable number of decimal digits, so
   problems whose parameters differ only by estimation noise below the
   quantization step share a cache entry, and
2. **canonicalizes** the service order: services are sorted by their quantized
   parameter signature (cost, selectivity, sink transfer, the multisets of
   outgoing and incoming transfer costs), with the service name as the final
   deterministic tie-break.  Re-indexing the same services — the common case of
   "the same query arrived again" — always yields the same canonical order.

Both steps share a single quantization pass, since this runs on every
request, warm hits included: each parameter is turned into an integer once,
a service's signature is read off its quantized transfer row and column
(diagonal excluded), and the hashed canonical document is assembled from the
same integers.  Digests and canonical orders are exactly those of the
original per-service formulation (kept in the tests as an oracle), so stored
cache entries and shard routing are unaffected.

The returned :class:`ProblemFingerprint` also records the canonical
permutation, which is what lets the cache store plans *positionally*: a cached
plan is a sequence of canonical positions, translated back into the indices of
whichever equivalent problem is asking (see :meth:`ProblemFingerprint.to_order`
/ :meth:`ProblemFingerprint.from_order`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

from repro.core.problem import OrderingProblem
from repro.exceptions import ServingError

__all__ = ["ProblemFingerprint", "fingerprint_problem", "quantize"]

DEFAULT_PRECISION = 6
"""Default number of decimal digits kept by :func:`quantize`."""


def quantize(value: float, precision: int = DEFAULT_PRECISION) -> int:
    """Quantize ``value`` to an integer grid of ``10**-precision`` steps.

    Working on integers (rather than rounded floats) keeps the JSON payload
    that is hashed free of float-representation noise: ``0.1 + 0.2`` and
    ``0.3`` quantize to the same integer.
    """
    scale = _grid(precision)
    return round(float(value) * scale)


def _grid(precision: int) -> int:
    """The quantization scale ``10**precision`` (precision must be non-negative)."""
    if precision < 0:
        raise ServingError(f"precision must be non-negative, got {precision!r}")
    return 10**precision


@dataclass(frozen=True)
class ProblemFingerprint:
    """A content hash of an :class:`OrderingProblem` plus its canonical permutation.

    Two fingerprints with equal :attr:`digest` describe problems whose
    quantized parameters are identical after canonical reordering; their
    cached plans are interchangeable once translated through
    :meth:`to_order` / :meth:`from_order`.
    """

    digest: str
    """Hex SHA-256 of the canonical quantized problem document."""

    precision: int
    """Decimal digits the parameters were quantized to."""

    size: int
    """Number of services of the fingerprinted problem."""

    canonical_order: tuple[int, ...]
    """Problem service indices listed in canonical order: entry ``p`` is the
    problem index of the service at canonical position ``p``."""

    @property
    def key(self) -> str:
        """The cache key (digest qualified by the quantization precision)."""
        return f"{self.digest}:p{self.precision}"

    def to_positions(self, order: Sequence[int]) -> tuple[int, ...]:
        """Translate a plan over problem indices into canonical positions."""
        position_of = {index: position for position, index in enumerate(self.canonical_order)}
        try:
            return tuple(position_of[index] for index in order)
        except KeyError as missing:
            raise ServingError(f"plan references unknown service index {missing}") from None

    def from_positions(self, positions: Sequence[int]) -> tuple[int, ...]:
        """Translate canonical positions back into this problem's service indices."""
        try:
            return tuple(self.canonical_order[position] for position in positions)
        except IndexError:
            raise ServingError(
                f"canonical plan {positions!r} does not fit a {self.size}-service problem"
            ) from None


def fingerprint_problem(
    problem: OrderingProblem,
    precision: int = DEFAULT_PRECISION,
    include_names: bool = False,
) -> ProblemFingerprint:
    """Fingerprint ``problem`` for the plan cache.

    Parameters
    ----------
    problem:
        The instance to hash.
    precision:
        Decimal digits kept when quantizing parameters.  Lower values bucket
        nearby problems together (more cache hits, staler plans); the cache's
        drift-based revalidation compensates.
    include_names:
        When true, service names participate in the hash, so equal structure
        under different names yields different fingerprints.  Names always act
        as the deterministic tie-break of the canonical order either way.
    """
    scale = _grid(precision)
    size = problem.size
    names = [service.name for service in problem.services]
    # The single quantization pass, on the grid of quantize(): every later
    # step reads these integers.
    costs = [round(value * scale) for value in problem.costs]
    selectivities = [round(value * scale) for value in problem.selectivities]
    sink = (
        [round(value * scale) for value in problem.sink_transfer]
        if problem.sink_transfer is not None
        else None
    )
    rows = [[round(value * scale) for value in problem.transfer.row(i)] for i in range(size)]
    columns = list(zip(*rows))

    def signature(index: int) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...], str]:
        # cost, selectivity, sink, the multisets of outgoing and incoming
        # transfer costs (diagonal excluded), then the name as tie-break.
        row, column = rows[index], columns[index]
        return (
            costs[index],
            selectivities[index],
            sink[index] if sink is not None else 0,
            tuple(sorted(row[:index] + row[index + 1 :])),
            tuple(sorted(column[:index] + column[index + 1 :])),
            names[index],
        )

    canonical = tuple(sorted(range(size), key=signature))
    position_of = {index: position for position, index in enumerate(canonical)}

    document: dict[str, object] = {
        "v": 1,
        "precision": precision,
        "size": size,
        "costs": [costs[index] for index in canonical],
        "selectivities": [selectivities[index] for index in canonical],
        "transfer": [[rows[i][j] for j in canonical] for i in canonical],
        "sink": [sink[index] for index in canonical] if sink is not None else None,
        "threads": [problem.service(index).threads for index in canonical],
        "precedence": sorted(
            (position_of[before], position_of[after])
            for before, after in (
                problem.precedence.edges() if problem.precedence is not None else ()
            )
        ),
    }
    if include_names:
        document["names"] = [names[index] for index in canonical]

    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return ProblemFingerprint(
        digest=digest,
        precision=precision,
        size=size,
        canonical_order=canonical,
    )
