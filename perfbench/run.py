#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0

Workloads: ``compare``, ``compare-jobs``, ``serve``, ``audit`` (see
``perfbench/README.md`` for what each exercises and why).  The library
is imported in-process from ``src/``; inputs are generated from
``--seed`` with ``repro.synth`` before anything is timed, and every
answer is checked against an independent reference.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs untraced, then replays the same ops with a span
around every public call into each layer, and reports per-layer times
and counts, the unattributed remainder and the tracing overhead; the
spans and the per-layer record are written under ``perfbench/records/``
for ``perfbench/report_layers.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it describes the run (machine, input complexity, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    REFERENCE_PROBE_MS,
    HostSpeed,
    Tracer,
    peak_rss_mb,
    reset_peak_rss,
)

WORKLOADS = ("compare", "compare-jobs", "serve", "audit")
DEFAULT_SEED = 1
#: Never used while the benchmark was tuned; the checks pass on it too.
HELD_OUT_SEED = 1009

#: End-to-end metrics: every run reports every one (see README.md for
#: what the primary and secondary request are on each workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms.mean": "ms",
    "latency_ms.tail": "ms",
    "secondary_ms.mean": "ms",
    "throughput_per_s": "1/s",
}

#: End-to-end times scaled to the reference host speed (see
#: ``common.HostSpeed``), and the one rate, which is divided instead.
SCALED_TIMES = ("latency_ms.mean", "latency_ms.tail", "secondary_ms.mean")
SCALED_RATES = ("throughput_per_s",)

LAYERS = (
    "policy.frontends",
    "policy.ir",
    "fdd.store",
    "fdd.fast",
    "analysis",
    "fdd.canonical",
    "classify",
    "serve",
    "parallel",
    "audit",
    "lint",
    "simplify",
)

#: Per-layer metrics of the traced run: name -> unit.  A workload that
#: does not exercise a layer reports 0 for its metrics.
PER_LAYER = {
    "policy.frontends.parse_ms": "ms",
    "policy.ir.lower_ms": "ms",
    "fdd.store.construct_ms": "ms",
    "fdd.store.nodes_created": "count",
    "fdd.store.edges_created": "count",
    "fdd.store.interned_sets": "count",
    "fdd.store.append_memo": "count",
    "fdd.store.op_memo": "count",
    "fdd.fast.difference_ms": "ms",
    "fdd.fast.count_ms": "ms",
    "fdd.fast.enumerate_ms": "ms",
    "fdd.fast.diff_nodes": "count",
    "analysis.aggregate_ms": "ms",
    "analysis.render_ms": "ms",
    "analysis.impact_ms": "ms",
    "analysis.regions": "count",
    "fdd.canonical.fingerprint_ms": "ms",
    "classify.compile_ms": "ms",
    "classify.kernel_build_ms": "ms",
    "classify.segments": "count",
    "classify.size_bytes": "B",
    "classify.scalar_ns_per_packet": "ns",
    "classify.batch_ns_per_packet": "ns",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.evictions": "count",
    "serve.compiles": "count",
    "parallel.pool_start_ms": "ms",
    "parallel.construct_wall_ms": "ms",
    "parallel.construct_ms_sum": "ms",
    "parallel.construct_ms_max": "ms",
    "parallel.publish_ms": "ms",
    "parallel.shard_wall_ms": "ms",
    "parallel.shards": "count",
    "parallel.degradations": "count",
    "audit.fdd_constructions": "count",
    "audit.computed": "count",
    "audit.fully_cached": "count",
    "audit.cache_hits": "count",
    "audit.cache_misses": "count",
    "audit.cache_stores": "count",
    "lint.run_ms": "ms",
    "lint.findings": "count",
    "simplify.run_ms": "ms",
    "simplify.redundancy_ms": "ms",
    "simplify.generate_ms": "ms",
    "simplify.rules_removed": "count",
    "inputs.rules": "count",
    "inputs.live_rules": "count",
    "inputs.boundaries": "count",
    "inputs.fdd_nodes": "count",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Share of ``--seconds`` the traced run spends untraced before it
#: replays the same ops traced.
UNTRACED_SHARE = 0.4


def make_workload(name: str, seed: int, work: str, speed: HostSpeed):
    if name in ("compare", "compare-jobs"):
        from w_compare import CompareWorkload

        return CompareWorkload(seed, speed, parallel=name == "compare-jobs")
    if name == "serve":
        from w_serve import ServeWorkload

        return ServeWorkload(seed, speed)
    from w_audit import AuditWorkload

    return AuditWorkload(seed, work, speed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is the held-out seed)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            f"error: no library source at {os.path.join(root, 'src', 'repro')};"
            " run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    # Everything the run writes (audit caches, multiprocessing's scratch
    # directory) stays inside the checkout and is removed at the end.
    work = os.path.join(root, ".perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        return _run(args, root, work)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the process ``multiprocessing`` starts to track
    shared-memory segments (the parallel engine publishes snapshots in
    them); it would otherwise outlive the run by a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(args, root: str, work: str) -> int:
    speed = HostSpeed()
    workload = make_workload(args.workload, args.seed, work, speed)
    # Input generation's garbage goes before the resident set is measured.
    gc.collect()
    start_rss_mb = reset_peak_rss()
    try:
        setup_probes = speed.mark()
        setup_s = workload.setup(root)
        run_probes = speed.mark()
        if args.trace:
            record = _traced(workload, args)
        else:
            workload.run(args.seconds)
        peak_mb = peak_rss_mb()
    finally:
        workload.close()
    failed = workload.check()
    attempted = workload.attempted()
    e2e, notes = workload.metrics()
    e2e["setup_s"] = (setup_s, "s")
    e2e["peak_rss_mb"] = (peak_mb, "MB")
    raw = {name: value for name, (value, _unit) in e2e.items()}
    setup_factor = speed.factor(setup_probes, run_probes)
    run_factor = speed.factor(run_probes)
    scaled = {name: value * run_factor for name, value in raw.items() if name in SCALED_TIMES}
    scaled.update({name: raw[name] / run_factor for name in SCALED_RATES})
    scaled["setup_s"] = setup_s * setup_factor
    e2e.update({name: (value, e2e[name][1]) for name, value in scaled.items()})

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": workload.machine(),
        "setup": workload.setup_detail,
        "notes": notes,
        "failed_ratio": failed / attempted,
        "start_rss_mb": start_rss_mb,
        "host_speed": {
            "reference_probe_ms": REFERENCE_PROBE_MS,
            "setup_factor": setup_factor,
            "run_factor": run_factor,
            "probes": len(speed.samples),
            "unscaled": {name: raw[name] for name in scaled},
        },
    }
    if args.trace:
        metrics = {name: record["metrics"].get(name, 0.0) for name in PER_LAYER}
        record.update(info)
        _write_record(root, args, record)
        units = PER_LAYER
    else:
        info["inputs"] = workload.inputs(full=False)
        metrics = {name: e2e[name][0] for name in END_TO_END}
        units = END_TO_END
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def _traced(workload, args) -> dict:
    """Untraced phase, then the same ops traced; the per-layer record."""
    untraced = workload.run(args.seconds * UNTRACED_SHARE)
    untraced_metrics, _notes = workload.metrics()
    tracer = Tracer()
    with tracer.patch(workload.trace_patches(tracer)):
        traced = workload.run(
            args.seconds * (1 - UNTRACED_SHARE), tracer=tracer, max_ops=workload.ops_in(untraced)
        )
    base = workload.primary_mean(untraced)
    metrics = workload.layer_metrics(tracer)
    metrics.update(workload.inputs(full=True))
    selfs = tracer.layer_self_ms(LAYERS)
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = selfs[layer]
    metrics["trace.unattributed_ms"] = selfs["unattributed"]
    metrics["trace.overhead_pct"] = (workload.primary_mean(traced) - base) / base * 100.0
    return {
        "metrics": metrics,
        "end_to_end_untraced": {name: value for name, (value, _) in untraced_metrics.items()},
        "spans": tracer.summary(),
        "span_count": len(tracer),
        "_tracer": tracer,
    }


def _write_record(root: str, args, record: dict) -> None:
    """The per-layer record (JSON) and every span (gzipped JSON lines)."""
    tracer = record.pop("_tracer")
    out_dir = os.path.join(root, "perfbench", "records")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    record["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    with gzip.open(stem + ".spans.jsonl.gz", "wt", encoding="utf-8") as handle:
        for name, start, end, parent, op in tracer.rows():
            handle.write(json.dumps([name, start, end, parent, op]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
