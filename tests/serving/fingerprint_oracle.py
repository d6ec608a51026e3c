"""The pre-rewrite ``fingerprint_problem``, kept verbatim as a test oracle.

Stored cache entries and shard routing are keyed by fingerprint digests, so
the production function must keep producing exactly these digests and
canonical orders.  This copy re-quantizes every transfer cost through
``problem.transfer_cost`` once per signature; it is slow on purpose and must
not be edited.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.problem import OrderingProblem
from repro.serving.fingerprint import DEFAULT_PRECISION, ProblemFingerprint, quantize


def _signature(
    problem: OrderingProblem, index: int, precision: int
) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...], str]:
    """The quantized sort key of one service (name is the last tie-break)."""
    size = problem.size
    outgoing = tuple(
        sorted(quantize(problem.transfer_cost(index, j), precision) for j in range(size) if j != index)
    )
    incoming = tuple(
        sorted(quantize(problem.transfer_cost(j, index), precision) for j in range(size) if j != index)
    )
    return (
        quantize(problem.costs[index], precision),
        quantize(problem.selectivities[index], precision),
        quantize(problem.sink_cost(index), precision),
        outgoing,
        incoming,
        problem.service(index).name,
    )


def oracle_fingerprint(
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
    size = problem.size
    canonical = tuple(
        sorted(range(size), key=lambda index: _signature(problem, index, precision))
    )
    position_of = {index: position for position, index in enumerate(canonical)}

    document: dict[str, object] = {
        "v": 1,
        "precision": precision,
        "size": size,
        "costs": [quantize(problem.costs[index], precision) for index in canonical],
        "selectivities": [
            quantize(problem.selectivities[index], precision) for index in canonical
        ],
        "transfer": [
            [quantize(problem.transfer_cost(i, j), precision) for j in canonical]
            for i in canonical
        ],
        "sink": [quantize(problem.sink_cost(index), precision) for index in canonical]
        if problem.sink_transfer is not None
        else None,
        "threads": [problem.service(index).threads for index in canonical],
        "precedence": sorted(
            (position_of[before], position_of[after])
            for before, after in (
                problem.precedence.edges() if problem.precedence is not None else ()
            )
        ),
    }
    if include_names:
        document["names"] = [problem.service(index).name for index in canonical]

    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return ProblemFingerprint(
        digest=digest,
        precision=precision,
        size=size,
        canonical_order=canonical,
    )
