"""Per-layer metrics from a traced run's spans and ``GET /stats`` counters.

A request is a ``POST`` root span (``http.dispatch``) that started inside the
timed window; the in-process request time is the sum of those roots'
durations.  A span's self time is its duration minus the part of its
interval covered by its children (the union, so overlapping portfolio
members are not counted twice).  The root's own self time is the part of a
request no named layer covers: ``trace.residual_share``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

MEMBERS = ("greedy_min_term", "beam_search", "branch_and_bound")
KERNEL_KINDS = ("full", "bounded", "delta", "batch")

# Modelled bytes per evaluation, from the kernels' array sizes (8-byte
# floats and ints): a batch-scored candidate fills five (batch, n) workspace
# rows; a scalar evaluation reads a cost, a selectivity and a transfer entry
# per service.
BATCH_BYTES_PER_SERVICE = 5 * 8
SCALAR_BYTES_PER_SERVICE = 3 * 8

# Span name -> layer name in the breakdown.
LAYER_OF = {
    "http.dispatch": "unattributed",
    "decode.json": "decode",
    "decode.problem": "decode",
    "http.render": "render",
    "fingerprint": "fingerprint",
    "cache.get": "cache",
    "cache.drift": "cache",
    "cache.put": "cache",
    "store.get": "store",
    "store.put": "store",
    "service.submit": "service",
    "service.batch": "service",
    "service.queue": "service.queue",
    "portfolio": "portfolio",
    "router.submit": "router",
    "router.batch": "router",
    "shard.call": "shard",
}

PER_LAYER_UNITS = {
    "http.overhead_ms_p50": "ms",
    "decode.ms_p50": "ms",
    "fingerprint.ms_p50": "ms",
    "fingerprint.calls_per_request": "count",
    "cache.get_ms_p50": "ms",
    "cache.drift_ms_p50": "ms",
    "cache.put_ms_p50": "ms",
    "cache.hit_rate": "ratio",
    "cache.revalidations_per_hit": "ratio",
    "cache.evictions": "count",
    "store.get_ms_p50": "ms",
    "store.put_ms_p50": "ms",
    "service.self_ms_p50": "ms",
    "service.queue_ms_p50": "ms",
    "service.rejected": "count",
    "portfolio.ms_p50": "ms",
    "portfolio.ms_p99": "ms",
    "portfolio.member_errors_per_race": "ratio",
    **{f"portfolio.wins.{member}": "count" for member in MEMBERS},
    **{f"optimizer.{member}.ms_p50": "ms" for member in MEMBERS},
    **{f"kernel.evals_per_request.{kind}": "count" for kind in KERNEL_KINDS},
    "kernel.bytes_per_request": "bytes",
    "shard.hop_ms_p50": "ms",
    "shard.balance": "ratio",
    "router.batch_ms_p50": "ms",
    "trace.overhead_pct": "%",
    "trace.residual_share": "ratio",
    # From the vector-race probe (run.py), not from the traced workload.
    "kernel.vector_race_failure_share": "ratio",
}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[list]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _span_id, parent_id, *_ in spans:
        if parent_id:
            children[parent_id].append((start, end))
    result = {}
    for _name, start, end, span_id, *_ in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if e > start and s < end
        ]
        result[span_id] = (end - start) - _union_length(clipped)
    return result


def window_requests(spans: Sequence[list], window: tuple[float, float]) -> dict[int, list]:
    """Root ``POST`` spans that started inside ``window``, by request id."""
    start, end = window
    return {
        span[5]: span
        for span in spans
        if span[0] == "http.dispatch"
        and span[4] == 0
        and (span[7] or {}).get("method") == "POST"
        and start <= span[1] <= end
    }


def _counters(stats: dict) -> dict[str, float]:
    """Cache, request, routing and kernel counters of a ``/stats`` snapshot."""
    cache = stats.get("cache", {})
    counters = {
        name: float(cache.get(name, 0))
        for name in ("hits", "stale_hits", "misses", "evictions", "revalidations")
    }
    counters["rejected"] = float(stats.get("requests", {}).get("rejected", 0))
    kernels = [shard.get("kernel", {}) for shard in stats.get("per_shard", {}).values()]
    if not kernels:
        kernels = [stats.get("kernel", {})]
    for kind in KERNEL_KINDS:
        counters[f"kernel.{kind}"] = float(
            sum(kernel.get(f"{kind}_evaluations", 0) for kernel in kernels)
        )
    for shard, count in stats.get("routing", {}).get("by_shard", {}).items():
        counters[f"routed.{shard}"] = float(count)
    return counters


def stats_delta(before: dict, after: dict) -> dict[str, float]:
    first, last = _counters(before), _counters(after)
    return {name: last[name] - first.get(name, 0.0) for name in last}


def analyse(
    spans: Sequence[list],
    window: tuple[float, float],
    delta: dict[str, float],
    client_p50_ms: float,
    untraced_client_p50_ms: float,
    mean_size: float,
) -> tuple[dict[str, float], list[tuple[str, float, float]]]:
    """Per-layer metrics, and the breakdown rows ``(layer, self p50 ms, share)``."""
    requests = window_requests(spans, window)
    own = [span for span in spans if span[5] in requests]
    selfs = self_times(own)
    count = max(len(requests), 1)
    request_time = sum(root[2] - root[1] for root in requests.values())

    durations: dict[str, list[float]] = defaultdict(list)
    per_request: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    layer_total: dict[str, float] = defaultdict(float)
    for span in own:
        name, start, end, span_id, _parent, request_id, _error, _attrs = span
        durations[name].append(end - start)
        layer = LAYER_OF.get(name, "optimizer" if name.startswith("optimizer.") else name)
        per_request[layer][request_id] += selfs[span_id]
        layer_total[layer] += selfs[span_id]
        if name.startswith("decode."):
            per_request["decode.inclusive"][request_id] += end - start

    def p50_ms(name: str) -> float:
        return 1000.0 * quantile(durations.get(name, []), 0.5)

    races = [span for span in own if span[0] == "portfolio" and span[7]]
    plan_roots = [root for root in requests.values() if root[7].get("path") == "/plan"]
    hops = [
        (span[2] - span[1]) - span[7]["latency"]
        for span in own
        if span[0] == "router.submit" and span[7]
    ]
    routed = [value for name, value in delta.items() if name.startswith("routed.")]
    lookups_hit = delta["hits"] + delta["stale_hits"]
    lookups = lookups_hit + delta["misses"]
    service_selfs = [
        selfs[span[3]] for span in own if span[0] in ("service.submit", "service.batch")
    ]

    metrics = {
        "http.overhead_ms_p50": client_p50_ms
        - 1000.0 * quantile([root[2] - root[1] for root in plan_roots], 0.5),
        "decode.ms_p50": 1000.0 * quantile(list(per_request["decode.inclusive"].values()), 0.5),
        "fingerprint.ms_p50": p50_ms("fingerprint"),
        "fingerprint.calls_per_request": len(durations.get("fingerprint", [])) / count,
        "cache.get_ms_p50": p50_ms("cache.get"),
        "cache.drift_ms_p50": p50_ms("cache.drift"),
        "cache.put_ms_p50": p50_ms("cache.put"),
        "cache.hit_rate": lookups_hit / lookups if lookups else 0.0,
        "cache.revalidations_per_hit": delta["revalidations"] / lookups_hit if lookups_hit else 0.0,
        "cache.evictions": delta["evictions"],
        "store.get_ms_p50": p50_ms("store.get"),
        "store.put_ms_p50": p50_ms("store.put"),
        "service.self_ms_p50": 1000.0 * quantile(service_selfs, 0.5),
        "service.queue_ms_p50": p50_ms("service.queue"),
        "service.rejected": delta["rejected"],
        "portfolio.ms_p50": p50_ms("portfolio"),
        "portfolio.ms_p99": 1000.0 * quantile(durations.get("portfolio", []), 0.99),
        "portfolio.member_errors_per_race": (
            sum(span[7]["errors"] for span in races) / len(races) if races else 0.0
        ),
    }
    for member in MEMBERS:
        metrics[f"portfolio.wins.{member}"] = float(
            sum(1 for span in races if span[7]["winner"] == member)
        )
    for member in MEMBERS:
        metrics[f"optimizer.{member}.ms_p50"] = p50_ms(f"optimizer.{member}")
    scalar_evals = 0.0
    for kind in KERNEL_KINDS:
        metrics[f"kernel.evals_per_request.{kind}"] = delta[f"kernel.{kind}"] / count
        if kind != "batch":
            scalar_evals += delta[f"kernel.{kind}"]
    metrics["kernel.bytes_per_request"] = (
        mean_size
        * (
            delta["kernel.batch"] * BATCH_BYTES_PER_SERVICE
            + scalar_evals * SCALAR_BYTES_PER_SERVICE
        )
        / count
    )
    metrics["shard.hop_ms_p50"] = 1000.0 * quantile(hops, 0.5)
    metrics["shard.balance"] = (
        max(routed) / (sum(routed) / len(routed)) if routed and sum(routed) > 0 else 1.0
    )
    metrics["router.batch_ms_p50"] = p50_ms("router.batch")
    metrics["trace.overhead_pct"] = (
        100.0 * (client_p50_ms - untraced_client_p50_ms) / untraced_client_p50_ms
        if untraced_client_p50_ms
        else 0.0
    )
    metrics["trace.residual_share"] = (
        layer_total["unattributed"] / request_time if request_time else 0.0
    )

    breakdown = []
    for layer in sorted(layer_total, key=lambda name: -layer_total[name]):
        if layer == "decode.inclusive":
            continue
        values = list(per_request[layer].values())
        share = layer_total[layer] / request_time if request_time else 0.0
        breakdown.append((layer, 1000.0 * quantile(values, 0.5), share))
    return metrics, breakdown
