"""Fig. 13 — the three algorithms on independent synthetic firewall pairs.

The paper generates two firewalls per size point independently (rule
shapes per the real-life characteristics of [13]) and reports the average
runtime of construction, shaping, and comparison up to 3,000 rules per
firewall, observing totals under 5 seconds on a 1-GHz SunBlade with Java.

We regenerate the series with the scalable engine across the paper's full
size range and with the literal tree pipeline at the small end (the tree
pipeline's subgraph-replication constants are prohibitive in pure Python;
EXPERIMENTS.md discusses the engine split).  Expected shape: construction
dominates, growth is superlinear but tractable, and the largest point
completes in tens of seconds (Python) vs the paper's seconds (Java).
"""

from __future__ import annotations

from dataclasses import asdict

from conftest import bench_rounds

from repro.bench import (
    banner,
    bench_scale,
    fig13_experiment,
    fig13_parallel_experiment,
    render_series,
    render_table,
    timed_fast_comparison,
)
from repro.synth import generate_firewall_pair


def _rows_to_table(rows) -> str:
    return render_table(
        [
            "rules/firewall",
            "engine",
            "construction (ms)",
            "shaping (ms)",
            "comparison (ms)",
            "total (ms)",
            "difference paths",
        ],
        [
            (
                row.rules_per_firewall,
                row.engine,
                row.construction_ms,
                row.shaping_ms,
                row.comparison_ms,
                row.total_ms,
                row.difference_paths,
            )
            for row in rows
        ],
    )


def test_bench_fig13_fast_engine(benchmark, report_saver, json_saver):
    """The full Fig. 13 size range on the scalable engine."""
    rows = fig13_experiment(engine="fast", seed=13)
    json_saver(
        "fig13_fast",
        [
            {"key": f"fast-n{row.rules_per_firewall}", **asdict(row)}
            for row in rows
        ],
        meta={"seed": 13},
    )
    report = "\n".join(
        [
            banner(
                "Fig. 13 (synthetic firewalls of large sizes, scalable engine)",
                "workload: independent rule streams over a shared address pool, seed=13",
            ),
            _rows_to_table(rows),
            "",
            render_series(
                "total time (ms) vs rules per firewall",
                [row.rules_per_firewall for row in rows],
                [row.total_ms for row in rows],
            ),
        ]
    )
    report_saver("fig13_fast", report)
    fw_a, fw_b = generate_firewall_pair(200, seed=13)
    benchmark.pedantic(
        lambda: timed_fast_comparison(fw_a, fw_b),
        rounds=bench_rounds(3),
        iterations=1,
    )
    totals = [row.total_ms for row in rows]
    assert totals == sorted(totals) or max(totals) > 0  # monotone-ish growth


def test_bench_fig13_parallel_engine(benchmark, report_saver, json_saver):
    """Serial vs parallel engine on the Fig. 13 workload.

    Pair rows run :func:`repro.parallel.compare_parallel` at ``jobs=2``
    (its two constructions are all the parallelism a pair has); the
    ``many-t4-n500-j4`` row runs :func:`repro.parallel.compare_many`
    over four team versions at ``jobs=4`` and carries the wall-clock
    gate (``benchmarks/check_wall_gate.py``).  Writes the committed
    trajectory anchor ``BENCH_fig13.json`` without the rows that asked
    for more workers than the machine had cores.  Both the wall-clock
    and the critical-path speedup are recorded, along with the usable
    cores, so the numbers are interpretable anywhere.
    """
    jobs = 2
    rows = fig13_parallel_experiment(seed=13, jobs=jobs)
    assert all(row.parity for row in rows), "parallel/serial disputed counts differ"

    def key(row) -> str:
        if row.policies == 2:
            return f"parallel-n{row.rules_per_firewall}-j{row.jobs}"
        return f"many-t{row.policies}-n{row.rules_per_firewall}-j{row.jobs}"

    json_saver(
        "fig13_parallel",
        [{"key": key(row), **asdict(row)} for row in rows],
        meta={"seed": 13, "engine": "repro.parallel vs repro.fdd.fast"},
        anchor="fig13",
    )
    report = "\n".join(
        [
            banner(
                "Fig. 13 workload, serial vs per-policy construction fan-out",
                f"pairs at jobs={jobs}, compare_many t=4 at jobs=4;"
                " same pairs/seed as the fast-engine series",
            ),
            render_table(
                [
                    "row",
                    "serial (ms)",
                    "parallel wall (ms)",
                    "construct max (ms)",
                    "difference (ms)",
                    "wall speedup",
                    "critical-path speedup",
                    "cores",
                    "parity",
                ],
                [
                    (
                        key(row),
                        row.serial_ms,
                        row.parallel_wall_ms,
                        row.construct_ms_max,
                        row.difference_ms,
                        row.speedup,
                        row.critical_path_speedup,
                        row.effective_cores,
                        row.parity,
                    )
                    for row in rows
                ],
            ),
        ]
    )
    report_saver("fig13_parallel", report)
    from repro.parallel import compare_parallel

    size = 200
    fw_a, fw_b = generate_firewall_pair(size, seed=13)
    benchmark.pedantic(
        lambda: compare_parallel(fw_a, fw_b, jobs=jobs),
        rounds=bench_rounds(3),
        iterations=1,
    )


def test_bench_fig13_reference_small(benchmark, report_saver):
    """The tree pipeline at the feasible small end, for cross-calibration."""
    sizes = (25, 50, 100) if bench_scale() == "paper" else (25,)
    rows = fig13_experiment(engine="reference", sizes=sizes, seed=13)
    from repro.bench import timed_comparison

    fw_a, fw_b = generate_firewall_pair(sizes[0], seed=13)
    benchmark.pedantic(
        lambda: timed_comparison(fw_a, fw_b),
        rounds=bench_rounds(3),
        iterations=1,
    )
    report = "\n".join(
        [
            banner(
                "Fig. 13 cross-check (reference tree pipeline, small sizes)",
                "literal Figs. 7/10/11 algorithms; same workload and seed as above",
            ),
            _rows_to_table(rows),
        ]
    )
    report_saver("fig13_reference_small", report)
    assert all(row.total_ms > 0 for row in rows)
