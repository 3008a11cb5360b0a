#!/usr/bin/env python
"""Assert the parallel wall-clock speedup target, or skip out loud.

Usage::

    python benchmarks/check_wall_gate.py CURRENT.json \
        [--row many-t4-n500-j4] [--min-speedup 2.0]

The parallel engine's acceptance bar is an *absolute* one: the cross
comparison of four 500-rule team versions (``compare_many``, whose four
constructions are independent tasks) must beat serial ``compare_many``
by ``--min-speedup`` wall-clock at ``jobs=4`` — which the relative
trajectory gate (``check_regress.py``) cannot express.  This check reads the named row of a trajectory JSON
written by the benchmark harness and:

* **fails** (exit 1) when the runner has at least ``jobs`` usable cores
  and the row's ``speedup`` is below the target, or when the row is
  missing or unreadable;
* **passes** with an explicit printed skip reason — never silently —
  when the runner reports fewer usable cores than the row's ``jobs``:
  the target is structurally unwinnable there, and a silent green would
  hide that the gate never ran.

Parity is asserted unconditionally: core starvation slows the math down
but never excuses getting it wrong.  Exit status: 0 pass/skip, 1 gate
failed or row missing, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.trajectory import load_trajectory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="trajectory JSON of the run under test")
    parser.add_argument(
        "--row",
        default="many-t4-n500-j4",
        help="key of the row carrying the wall-clock gate",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required serial/parallel wall-clock ratio (default 2.0)",
    )
    args = parser.parse_args(argv)

    try:
        current = load_trajectory(args.current)
    except (OSError, ValueError) as error:
        print(f"check_wall_gate: {error}", file=sys.stderr)
        return 2

    row = next(
        (r for r in current.get("rows", []) if r.get("key") == args.row), None
    )
    if row is None:
        print(
            f"check_wall_gate: FAIL — row {args.row!r} not found in"
            f" {Path(args.current).name} (the gated size was not measured)"
        )
        return 1

    if not row.get("parity", False):
        print(
            f"check_wall_gate: FAIL — {args.row}: parallel/serial disputed"
            " counts differ (parity must hold regardless of cores)"
        )
        return 1

    jobs = row.get("jobs")
    cores = row.get("effective_cores") or (current.get("machine") or {}).get(
        "cpu_count"
    )
    speedup = row.get("speedup", 0.0)
    if isinstance(jobs, int) and isinstance(cores, int) and cores < jobs:
        print(
            f"check_wall_gate: SKIPPED — {args.row}: runner has {cores}"
            f" usable core(s) < {jobs} jobs, so the >= "
            f"{args.min_speedup:.1f}x wall-clock target is structurally"
            f" unwinnable here (measured {speedup:.2f}x, parity OK)."
            " Run on a machine with >= "
            f"{jobs} cores to exercise the gate."
        )
        return 0
    if speedup >= args.min_speedup:
        print(
            f"check_wall_gate: OK — {args.row}: {speedup:.2f}x >= "
            f"{args.min_speedup:.1f}x wall-clock on {cores} usable core(s)"
        )
        return 0
    print(
        f"check_wall_gate: FAIL — {args.row}: {speedup:.2f}x < "
        f"{args.min_speedup:.1f}x wall-clock with {cores} usable core(s)"
        f" for {jobs} jobs"
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
