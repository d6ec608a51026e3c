"""End-to-end benchmark of ``repro serve``: one command, three workloads.

    python3 planbench/run.py --workload warm-hits --seed 1 --seconds 15 --trace 0

Run from the repository root.  It launches the real ``repro serve`` from
``src/`` as a subprocess, drives it over at most two keep-alive connections
in a closed loop, verifies every answer, and prints as its last line one JSON
object: ``correct``, ``attempted`` / ``failed`` (plans; a batch counts each
member) and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics.  See ``planbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_LAUNCHES = 7
PREFILL_ATTEMPTS = 5
WORK = os.path.join(ROOT, ".planbench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "plans_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "optimal_share": "ratio",
    "rss_mb": "MB",
}


def _log(message: str) -> None:
    print(message, flush=True)


def _src_digest() -> str:
    digest = hashlib.sha256()
    for directory, _dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        _dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def _active_kernel(stats: dict) -> str | None:
    kernel = stats.get("kernel")
    if kernel is None:
        shards = list(stats.get("per_shard", {}).values())
        kernel = shards[0].get("kernel") if shards else None
    return kernel.get("active") if kernel else None


class Phase:
    """One served instance: launch, warm up, time a window, stop, verify.

    With ``seconds=None`` the window sends every timed request once.
    """

    def __init__(
        self, workload, references, seconds: float | None, work: str, traced: bool
    ) -> None:
        self.workload = workload
        self.references = references
        self.seconds = seconds
        self.work = work
        self.spans_path = os.path.join(work, "spans.json") if traced else None

    def launch(self):
        from client import Server, serve_command
        from gen import STORE_DIR

        store = os.path.join(self.work, f"store-{time.monotonic_ns()}")
        args = [store if arg == STORE_DIR else arg for arg in self.workload.serve_args]
        return Server(
            serve_command(ROOT, args, self.spans_path), ROOT, os.path.join(self.work, "server.log")
        )

    def warm_up(self, port: int) -> list:
        """Send the warm-up requests, resending any that were not answered 200.

        Warm-up only fills the cache, so a refused request is sent again (up
        to ``PREFILL_ATTEMPTS`` times in all); every answer, the failed ones
        too, is verified and reported with the warm-up outcome.
        """
        from client import drive

        pending = list(self.workload.prefill)
        sent = []
        for _ in range(PREFILL_ATTEMPTS):
            records = drive(port, pending, seconds=None)
            sent += [(pending[record.op], record) for record in records]
            pending = [pending[record.op] for record in records if record.status != 200]
            if not pending:
                break
        return sent

    def run(self, extra_launches: int) -> dict:
        from client import BenchError, drive
        from verify import Outcome, Verifier

        setups = []
        for _ in range(extra_launches):
            server = self.launch()
            setups.append(server.setup_seconds)
            server.stop()
        server = self.launch()
        setups.append(server.setup_seconds)
        try:
            prefill = self.warm_up(server.port)
            stats_before = server.get_json("/stats")
            cpu_before, wall_before = time.process_time(), time.perf_counter()
            window = drive(server.port, self.workload.timed, self.seconds)
            cpu_after, wall_after = time.process_time(), time.perf_counter()
            rss_mb = server.rss_mb()
            stats_after = server.get_json("/stats")
        finally:
            code = server.stop()
        if code != 0:
            raise BenchError(f"server exited with code {code} (see {self.work}/server.log)")
        if not window:
            raise BenchError("no request was sent in the timed window")

        ops = self.workload.timed
        window_requests = [(ops[r.op], r) for r in window]
        verifier = Verifier(self.workload, self.references)
        verifier.scan(prefill + window_requests)
        warmup = Outcome()
        verifier.check(prefill, warmup)
        outcome = Outcome()
        passed = verifier.check(window_requests, outcome)

        latencies = [
            record.ended - record.started
            for (op, record), ok in zip(window_requests, passed)
            if ok and op.path == "/plan"
        ]
        start = min(record.started for record in window)
        end = max(record.ended for record in window)
        spans = None
        if self.spans_path is not None:
            with open(self.spans_path) as handle:
                spans = json.load(handle)
        return {
            "setups": setups,
            "stats_before": stats_before,
            "stats_after": stats_after,
            "window": (start, end),
            "duration": end - start,
            "exhausted": len(window) >= len(ops),
            "requests": len(window),
            "outcome": outcome,
            "warmup": warmup,
            "latencies": latencies,
            "rss_mb": rss_mb,
            "client_cpu_share": (cpu_after - cpu_before) / (wall_after - wall_before),
            "mean_size": statistics.fmean(
                len(self.workload.documents[m.key]["services"])
                for (op, _record) in window_requests
                for m in op.members
            ),
            "spans": spans,
        }


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def end_to_end(phase: dict) -> dict[str, float]:
    from layers import quantile

    outcome = phase["outcome"]
    latencies = phase["latencies"]
    return {
        "setup_s": statistics.median(phase["setups"]),
        "plans_per_s": outcome.verified / phase["duration"],
        "latency_p50_ms": _ms(quantile(latencies, 0.5)),
        "latency_p99_ms": _ms(quantile(latencies, 0.99)),
        "optimal_share": outcome.optimal / outcome.plans if outcome.plans else 0.0,
        "rss_mb": phase["rss_mb"],
    }


def _phase_report(phase: dict) -> dict:
    outcome, warmup = phase["outcome"], phase["warmup"]
    return {
        "requests": phase["requests"],
        "plans_attempted": outcome.plans,
        "plans_succeeded": outcome.verified,
        "plans_failed": outcome.plans - outcome.verified,
        "failures_by_reason": outcome.failures,
        "error_messages": outcome.errors,
        "latency_samples": len(phase["latencies"]),
        "window_seconds": phase["duration"],
        "request_list_exhausted": phase["exhausted"],
        "replaced_hits_checked_by_cost": outcome.replaced_hits,
        "warmup_plans": warmup.plans,
        "warmup_failures_by_reason": warmup.failures,
        "warmup_error_messages": warmup.errors,
        "setup_samples_s": phase["setups"],
        "client_cpu_share_of_one_core": phase["client_cpu_share"],
        "active_kernel": _active_kernel(phase["stats_after"]),
        "stats_after": {
            key: phase["stats_after"].get(key) for key in ("cache", "requests", "routing")
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A shell that starts us in the background ignores SIGINT, and an
    # ignored signal stays ignored across exec: the server would then never
    # drain on SIGINT.  A handled signal is reset to the default at exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gen
    from client import CONNECTIONS, BenchError
    from layers import PER_LAYER_UNITS, analyse, quantile, stats_delta
    from repro.utils.provenance import runtime_provenance
    from verify import References

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        built = time.perf_counter()
        workload = gen.build(args.workload, args.seed, args.seconds)
        _log(f"# built {len(workload.timed)} timed requests in {time.perf_counter() - built:.2f} s")
        references = References(
            os.path.join(WORK, "references", f"{args.workload}-{args.seed}.json")
        )
        probe_references = References(
            os.path.join(WORK, "references", f"vector-race-{args.seed}.json")
        )
        probe = None
        try:
            if args.trace:
                half = args.seconds / 2
                plain = Phase(workload, references, half, work, traced=False).run(0)
                traced = Phase(workload, references, half, work, traced=True).run(0)
                phases = [plain, traced]
                plain_p50 = _ms(quantile(plain["latencies"], 0.5))
                traced_p50 = _ms(quantile(traced["latencies"], 0.5))
                metrics, breakdown = analyse(
                    traced["spans"],
                    traced["window"],
                    stats_delta(traced["stats_before"], traced["stats_after"]),
                    traced_p50,
                    plain_p50,
                    traced["mean_size"],
                )
                probe = Phase(
                    gen.vector_race_probe(args.seed), probe_references, None, work, traced=False
                ).run(0)
                refused = probe["outcome"].plans - probe["outcome"].verified
                metrics["kernel.vector_race_failure_share"] = refused / probe["outcome"].plans
                units = PER_LAYER_UNITS
                _log("# layer breakdown: self time p50 per request, share of request time")
                for layer, p50, share in breakdown:
                    _log(f"#   {layer:<14} {p50:9.3f} ms  {100 * share:6.1f} %")
                spans_out = os.path.join(WORK, "spans", f"{args.workload}-{args.seed}.json")
                os.makedirs(os.path.dirname(spans_out), exist_ok=True)
                shutil.copyfile(os.path.join(work, "spans.json"), spans_out)
                _log(f"# spans written to {os.path.relpath(spans_out, ROOT)}")
            else:
                phase = Phase(workload, references, args.seconds, work, traced=False).run(
                    SETUP_LAUNCHES - 1
                )
                phases = [phase]
                metrics = end_to_end(phase)
                units = END_TO_END_UNITS
        finally:
            references.save()
            probe_references.save()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted = sum(phase["outcome"].plans for phase in phases)
    failed = sum(phase["outcome"].plans - phase["outcome"].verified for phase in phases)
    # The probe's refusals are its metric, not failed operations of the
    # workload; a wrong answer from it still makes the run incorrect.
    checked = phases if probe is None else [*phases, probe]
    wrong = sum(phase["outcome"].wrong_answers + phase["warmup"].wrong_answers for phase in checked)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_digest": _src_digest(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "runtime": runtime_provenance(),
        "connections": CONNECTIONS,
        "phases": [_phase_report(phase) for phase in phases],
        "vector_race_probe": None if probe is None else _phase_report(probe),
    }
    _log("# report " + json.dumps(report, sort_keys=True))
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(results, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump({**report, "metrics": metrics}, handle, indent=1, sort_keys=True)
    for phase in phases:
        _log(
            f"# plans attempted {phase['outcome'].plans} succeeded {phase['outcome'].verified} "
            f"failed {phase['outcome'].plans - phase['outcome'].verified} "
            f"{phase['outcome'].failures}"
        )
    for name, value in metrics.items():
        _log(f"# {name} = {value:.6g} {units[name]}")
    shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
