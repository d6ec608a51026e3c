"""The parallel execution engine: wire codec, worker pool, process racing.

Everything built before this subsystem runs on one core: the evaluation
kernel (:mod:`repro.core.evaluation`) made a single plan evaluation fast, and
the serving portfolio (:mod:`repro.serving.portfolio`) races algorithms on
GIL-bound threads it cannot cancel.  This package adds the multi-core layer:

* :mod:`repro.parallel.codec` (+ the wire codec in :mod:`repro.serialization`)
  — problems and results cross process boundaries as compact tuples of flat
  arrays and precedence bitmasks, never as pickled object graphs,
* :mod:`repro.parallel.pool` — :class:`OptimizerPool`, a persistent worker
  pool with warm per-problem evaluator caches and a batch-deduplicating
  :meth:`~OptimizerPool.optimize_many` for bulk plan compilation,
* :mod:`repro.parallel.race` — :func:`race_processes`, deadline racing whose
  stragglers are *terminated* at the budget, which is what lets members that
  never check for cancellation join a latency-bounded portfolio safely.

The serving layer consumes this package through
:attr:`repro.serving.portfolio.PortfolioOptions.backend` and
:meth:`repro.serving.service.PlanService.optimize_batch`; experiments and
benchmarks through :func:`repro.experiments.harness.optimize_suite`.
"""

from repro.parallel.codec import (
    result_from_wire,
    result_to_wire,
    statistics_from_wire,
    statistics_to_wire,
)
from repro.parallel.pool import (
    OptimizerPool,
    default_worker_count,
    optimize_many,
    preferred_context,
)
from repro.parallel.race import race_processes

__all__ = [
    "OptimizerPool",
    "default_worker_count",
    "optimize_many",
    "preferred_context",
    "race_processes",
    "result_from_wire",
    "result_to_wire",
    "statistics_from_wire",
    "statistics_to_wire",
]
