"""Supervision overhead — supervised vs bare dispatch, fault-free.

The supervised worker pool (``repro.parallel.supervisor``) adds
per-task deadlines, heartbeat threads, retry bookkeeping, and
checksummed result envelopes around every process fan-out.  All of that
lives off the construction hot path — on the parent's event loop and
the workers' heartbeat threads — so the design target is <2% overhead
when no fault fires (see the supervision section of
``docs/performance.md``).

This benchmark times :func:`repro.parallel.supervise` against the bare
:meth:`repro.parallel.WorkerPool.run` on the same construction tasks —
``compare_many``'s, one per policy of four team versions, at
``jobs=4`` — and the engine's in-process dispatch at ``jobs=1`` against
calling the tasks directly (the supervisor must never engage there),
asserting identical diagrams and zero degradations.  Timings are the
fastest of order-balanced CPU-time samples, and the overhead is the
supervised run's extra parent CPU over the bare run's total (see
``supervision_overhead_experiment``); the archived report carries the
measured numbers.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.bench import (
    banner,
    bench_scale,
    render_table,
    supervision_overhead_experiment,
)
from repro.parallel import compare_many
from repro.synth import generate_firewall_pair


def test_bench_supervision_overhead(benchmark, report_saver, json_saver):
    rows = supervision_overhead_experiment()

    for row in rows:
        assert row.identical_output, f"supervised output diverged on {row.workload}"
        assert row.degradations == 0, f"{row.workload} degraded — not a fault-free run"
        assert row.overhead_pct < 2.0, (
            f"supervision overhead {row.overhead_pct:.2f}% on {row.workload} "
            "exceeds the 2% fault-free target"
        )

    json_saver(
        "supervision_overhead",
        [{"key": row.workload, **asdict(row)} for row in rows],
        meta={"seed": 13, "engine": "repro.parallel supervise vs WorkerPool.run"},
    )
    table = render_table(
        ["workload", "jobs", "bare (ms)", "supervised (ms)", "overhead (%)"],
        [
            (
                row.workload,
                row.jobs,
                f"{row.bare_ms:.2f}",
                f"{row.supervised_ms:.2f}",
                f"{row.overhead_pct:+.2f}",
            )
            for row in rows
        ],
    )
    report = "\n".join(
        [
            banner(
                "Supervision overhead: supervise vs WorkerPool.run, fault-free",
                "compare_many construction tasks, t=4; target <2%;"
                " diagrams asserted identical, zero degradations",
            ),
            table,
        ]
    )
    report_saver("supervision_overhead", report)

    size = 200 if bench_scale() == "paper" else 60
    team = [*generate_firewall_pair(size, seed=13), *generate_firewall_pair(size, seed=14)]
    benchmark.pedantic(
        lambda: compare_many(team, jobs=4),
        rounds=3 if bench_scale() == "paper" else 1,
        iterations=1,
    )
