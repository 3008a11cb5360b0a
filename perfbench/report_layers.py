#!/usr/bin/env python3
"""Render per-layer markdown tables from recorded traced runs.

Recorded runs in, tables out: every ``perfbench/run.py --trace 1`` run
writes ``perfbench/records/<workload>-seed<seed>.json``; this script
reads such records (all of them by default) and prints

* the self time per op of each layer, per workload, with the
  unattributed remainder and the tracing overhead;
* the per-layer counts and per-call times, per workload;
* the spans of each workload: calls, inclusive and self time.

When several records share a workload (different seeds), each cell is
the median over them.

Usage::

    python3 perfbench/report_layers.py [RECORD.json ...] [--out FILE]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_ORDER = ("compare", "compare-jobs", "serve", "audit")


def load_records(paths: list[str]) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        by_workload.setdefault(record["workload"], []).append(record)
    return dict(
        sorted(
            by_workload.items(),
            key=lambda item: WORKLOAD_ORDER.index(item[0]) if item[0] in WORKLOAD_ORDER else 99,
        )
    )


def median_metric(records: list[dict], name: str) -> float:
    return statistics.median(record["metrics"].get(name, 0.0) for record in records)


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 100:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" if i == 0 else "---:" for i in range(len(headers))) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def self_time_table(by_workload: dict[str, list[dict]]) -> str:
    """Layers x workloads: self ms per op, and the share of the op."""
    workloads = list(by_workload)
    layers = sorted(
        {
            name[len("self_ms."):]
            for records in by_workload.values()
            for record in records
            for name in record["metrics"]
            if name.startswith("self_ms.")
        }
    )
    totals = {
        workload: sum(median_metric(records, f"self_ms.{layer}") for layer in layers)
        + median_metric(records, "trace.unattributed_ms")
        for workload, records in by_workload.items()
    }
    rows = []
    for layer in layers + ["(unattributed)"]:
        name = "trace.unattributed_ms" if layer == "(unattributed)" else f"self_ms.{layer}"
        cells = []
        for workload in workloads:
            value = median_metric(by_workload[workload], name)
            share = 100.0 * value / totals[workload] if totals[workload] else 0.0
            cells.append(f"{fmt(value)} ({share:.0f}%)" if value else "—")
        rows.append([layer] + cells)
    rows.append(["**traced op total**"] + [fmt(totals[w]) for w in workloads])
    rows.append(
        ["**tracing overhead**"]
        + [f"{median_metric(by_workload[w], 'trace.overhead_pct'):+.1f}%" for w in workloads]
    )
    return table(["layer: self ms per op (share)"] + workloads, rows)


def counts_table(by_workload: dict[str, list[dict]]) -> str:
    """Every other per-layer metric, per workload (nonzero somewhere)."""
    workloads = list(by_workload)
    names = sorted(
        {
            name
            for records in by_workload.values()
            for record in records
            for name in record["metrics"]
            if not name.startswith(("self_ms.", "trace."))
        }
    )
    rows = []
    for name in names:
        values = [median_metric(by_workload[w], name) for w in workloads]
        if any(values):
            rows.append([name] + [fmt(v) if v else "—" for v in values])
    return table(["metric"] + workloads, rows)


def spans_table(records: list[dict]) -> str:
    """One workload's spans (first record): calls, inclusive, self."""
    record = records[0]
    spans = record["spans"]
    rows = [
        [name, str(entry["calls"]), fmt(entry["total_ms"]), fmt(entry["self_ms"])]
        for name, entry in sorted(spans.items(), key=lambda item: -item[1]["self_ms"])
    ]
    return table(["span", "calls", "inclusive ms", "self ms"], rows)


def render(by_workload: dict[str, list[dict]]) -> str:
    parts = ["# Per-layer breakdown of the traced runs", ""]
    seeds = {
        workload: ", ".join(str(record["seed"]) for record in records)
        for workload, records in by_workload.items()
    }
    machine = next(iter(by_workload.values()))[0]["machine"]
    parts.append(
        f"Host: {machine['usable_cores']} usable of {machine['cpu_count']} cores,"
        f" Python {machine['python']}, numpy {machine['numpy']}."
        " Seeds: " + "; ".join(f"{w} {s}" for w, s in seeds.items()) + "."
    )
    parts += ["", "## Self time per op", "", self_time_table(by_workload), ""]
    parts += [
        "Self time is a span's duration minus the time its child spans cover;"
        " the unattributed remainder is the op's own time outside every layer"
        " span.  The overhead is the traced minus the untraced mean latency"
        " of the primary request, over the same ops.",
        "",
        "## Counts and per-call times",
        "",
        counts_table(by_workload),
        "",
    ]
    for workload, records in by_workload.items():
        parts += [f"## Spans: {workload} (seed {records[0]['seed']})", "", spans_table(records), ""]
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", help="record files (default: perfbench/records/*.json)")
    parser.add_argument("--out", help="write the markdown here instead of stdout")
    args = parser.parse_args(argv)
    paths = args.records or sorted(glob.glob(os.path.join(HERE, "records", "*.json")))
    if not paths:
        print("error: no traced-run records; run perfbench/run.py --trace 1 first", file=sys.stderr)
        return 2
    text = render(load_records(paths))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
