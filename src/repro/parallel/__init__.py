"""Parallel comparison by per-policy construction fan-out.

Construction is ~99 % of a comparison and the only independent work in
the paper's pipeline, so that is what fans out: one supervised pool task
per policy builds its FDD, and the parent interns the returned roots
into one store and runs the difference walk, counting and enumeration
serially — every number is the serial engine's.
:func:`compare_parallel` fans out the two sides of a pair;
:func:`compare_many` fans out the ``t`` team versions of Section 7.3's
cross comparison and walks the ``t(t-1)/2`` pairs in the parent.  See
:mod:`repro.parallel.engine` for guard-budget propagation and
``docs/performance.md`` for measured numbers.

Process fan-out is crash-resilient: dispatch runs through
:func:`supervise` (per-task deadlines, heartbeat hang detection,
bounded retry with backoff, checksummed result envelopes), and a task
whose retries are exhausted degrades to serial in-parent execution,
recorded as a :class:`Degradation` on the result — see
``docs/robustness.md`` for the state machine.

Workers live in a persistent, lazily-started pool
(:mod:`repro.parallel.pool`) shared by every fan-out in the process —
comparison constructions, audit fleets, and batch classification all
lease from the same :class:`WorkerPool`, amortizing process start cost
across calls.  :func:`shutdown_pools` tears the workers down gracefully
(the CLI calls it on exit); :func:`get_pool` exposes the pool for stats
and warm-up.

:func:`classify_parallel` reuses the pool for serving-side batch
classification: the compiled matcher is published once per call as a
snapshot (shared memory when the platform provides it) and shipped to
each worker at most once, so tasks carry only a snapshot id and a
packet slice.
"""

from repro.parallel.classify import classify_parallel
from repro.parallel.engine import (
    ConstructionResult,
    PairComparison,
    ParallelComparison,
    compare_many,
    compare_parallel,
    comparison_summary,
    default_jobs,
)
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools
from repro.parallel.supervisor import (
    Degradation,
    ShardFailure,
    SupervisorConfig,
    supervise,
)

__all__ = [
    "ConstructionResult",
    "Degradation",
    "PairComparison",
    "ParallelComparison",
    "ShardFailure",
    "SupervisorConfig",
    "WorkerPool",
    "classify_parallel",
    "compare_many",
    "compare_parallel",
    "comparison_summary",
    "default_jobs",
    "get_pool",
    "shutdown_pools",
    "supervise",
]
