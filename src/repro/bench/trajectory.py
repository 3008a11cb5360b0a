"""Machine-readable perf trajectories for the benchmark harness.

Every benchmark in ``benchmarks/`` renders a human-readable text report;
this module adds the machine-readable twin: a JSON document with a
machine fingerprint, the benchmark scale, and one row per measured
point, written next to the text report (``benchmarks/results/*.json``)
and, for the two trajectory anchors, at the repository root
(``BENCH_fig13.json``, ``BENCH_micro.json``) where they are committed so
the perf history travels with the code.

The row convention is deliberately dumb: a row is a flat JSON object
with a unique ``"key"`` string and any number of metrics.  Metrics whose
names end in ``_ms`` or ``_us`` (wall-clock) are *regression-checked* by
:func:`compare_trajectories` — a row in the current run that is more
than ``threshold`` slower than the same-keyed row in the baseline is a
regression.  Counters (no time suffix) are carried for context and
*mismatch-checked* only when listed in ``exact`` (e.g. disputed-packet
counts must never drift).  Higher-is-better speedup fields are gated
only on explicit opt-in (``speedups``/``wall_speedups``), and
wall-clock speedups are skipped on boxes with fewer usable cores than
workers (rows record :func:`effective_cores` to make that decidable).

``benchmarks/check_regress.py`` is the CLI wrapper CI uses to gate on
this comparison.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Regression",
    "effective_cores",
    "machine_fingerprint",
    "trajectory_payload",
    "write_trajectory",
    "load_trajectory",
    "compare_trajectories",
]

#: Metric-name suffixes treated as wall-clock timings (lower is better).
_TIMING_SUFFIXES = ("_ms", "_us", "_s")


def machine_fingerprint() -> dict:
    """Where the numbers came from: enough to judge comparability.

    Timings are only comparable across runs on similar machines; the
    fingerprint makes an apples-to-oranges comparison visible instead of
    silently alarming (``check_regress.py`` warns when fingerprints
    differ but still compares — CI runners are homogeneous enough).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def effective_cores() -> int:
    """CPU cores actually usable by this process.

    The same count as :func:`repro.parallel.default_jobs` (the
    scheduler affinity mask, not ``os.cpu_count()``, which over-counts
    on pinned containers and CI runners).  Parallel benchmark rows
    record it so a wall-clock speedup measured on a box with fewer cores
    than workers is recognizably unwinnable (see
    :func:`compare_trajectories`'s ``wall_speedups``).
    """
    from repro.parallel.engine import default_jobs

    return default_jobs()


def trajectory_payload(name: str, rows: list[dict], *, meta: dict | None = None) -> dict:
    """Assemble the canonical JSON document for one benchmark's rows.

    Every row must carry a unique ``"key"`` string; everything else in a
    row is a metric or context field.
    """
    keys = [row.get("key") for row in rows]
    if None in keys:
        raise ValueError(f"trajectory {name!r}: every row needs a 'key' field")
    if len(set(keys)) != len(keys):
        raise ValueError(f"trajectory {name!r}: duplicate row keys {keys}")
    payload = {
        "benchmark": name,
        "format": 1,
        "scale": os.environ.get("REPRO_BENCH_SCALE", "paper"),
        "machine": machine_fingerprint(),
        "rows": rows,
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_trajectory(
    path: str | Path, name: str, rows: list[dict], *, meta: dict | None = None
) -> Path:
    """Write one benchmark's trajectory JSON to ``path`` and return it."""
    path = Path(path)
    payload = trajectory_payload(name, rows, meta=meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_trajectory(path: str | Path) -> dict:
    """Read a trajectory document written by :func:`write_trajectory`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for field in ("benchmark", "rows"):
        if field not in payload:
            raise ValueError(f"{path}: not a trajectory document (missing {field!r})")
    return payload


@dataclass(frozen=True)
class Regression:
    """One metric that got slower (or an exact field that drifted)."""

    row_key: str
    metric: str
    baseline: float
    current: float
    #: ``current / baseline`` for timings; ``float('nan')`` never occurs —
    #: exact-field drifts report ratio 0.0.
    ratio: float
    kind: str  # "slower" | "drift" | "missing-row" | "speedup-drop"

    def describe(self) -> str:
        if self.kind == "missing-row":
            return f"{self.row_key}: row missing from current run"
        if self.kind == "drift":
            return (
                f"{self.row_key}.{self.metric}: value drifted"
                f" {self.baseline!r} -> {self.current!r}"
            )
        if self.kind == "speedup-drop":
            return (
                f"{self.row_key}.{self.metric}: speedup fell"
                f" {self.baseline:.2f}x -> {self.current:.2f}x"
            )
        return (
            f"{self.row_key}.{self.metric}: {self.baseline:.3f} ->"
            f" {self.current:.3f} ({self.ratio:.2f}x)"
        )


def _is_timing(metric: str) -> bool:
    return metric.endswith(_TIMING_SUFFIXES)


def compare_trajectories(
    baseline: dict,
    current: dict,
    *,
    threshold: float = 0.25,
    min_ms: float = 1.0,
    exact: tuple[str, ...] = (),
    speedups: tuple[str, ...] = (),
    wall_speedups: tuple[str, ...] = (),
    notes: list[str] | None = None,
) -> list[Regression]:
    """Regressions of ``current`` relative to ``baseline``.

    Rows are matched by ``key``; rows present only in one document are a
    regression only when the *baseline* has them (new rows are growth,
    not drift).  For matched rows, every shared timing metric must
    satisfy ``current <= baseline * (1 + threshold)``; timings where both
    sides are under ``min_ms`` milliseconds are skipped (pure timer
    noise).  Fields named in ``exact`` must be equal on both sides.

    Speedup metrics are higher-is-better and gated only by explicit
    opt-in (several benchmarks carry informational ``speedup_vs_*``
    context fields that must *not* alarm): fields named in ``speedups``
    must satisfy ``current >= baseline * (1 - threshold)``.  Fields in
    ``wall_speedups`` are gated the same way **except** in two
    core-starvation cases, each skipped with the reason appended to
    ``notes``: when the *current* row's parallelism exceeds the cores
    the process can actually use (row ``jobs`` > row
    ``effective_cores``, falling back to the document's machine
    ``cpu_count``) the target is unwinnable here, and when the
    *baseline* row was itself recorded core-starved its wall-clock
    number is meaningless as an anchor (a 1-core recording makes any
    parallel run look like a regression — or, worse, a win).
    Critical-path and exact gates on the same row stay active.
    """
    by_key = {row["key"]: row for row in current.get("rows", [])}
    machine_cores = (current.get("machine") or {}).get("cpu_count")
    baseline_cores = (baseline.get("machine") or {}).get("cpu_count")
    regressions: list[Regression] = []
    for base_row in baseline.get("rows", []):
        key = base_row["key"]
        cur_row = by_key.get(key)
        if cur_row is None:
            regressions.append(Regression(key, "", 0.0, 0.0, 0.0, "missing-row"))
            continue
        for metric, base_value in base_row.items():
            if metric == "key" or metric not in cur_row:
                continue
            cur_value = cur_row[metric]
            if metric in exact:
                if cur_value != base_value:
                    regressions.append(
                        Regression(key, metric, base_value, cur_value, 0.0, "drift")
                    )
                continue
            if metric in speedups or metric in wall_speedups:
                if not isinstance(base_value, (int, float)) or not isinstance(
                    cur_value, (int, float)
                ):
                    continue
                if metric in wall_speedups:
                    jobs = cur_row.get("jobs")
                    cores = cur_row.get("effective_cores", machine_cores)
                    if (
                        isinstance(jobs, int)
                        and isinstance(cores, int)
                        and cores < jobs
                    ):
                        if notes is not None:
                            notes.append(
                                f"{key}.{metric}: skipped wall-clock speedup"
                                f" gate ({cores} usable core(s) <"
                                f" {jobs} jobs — target unwinnable here)"
                            )
                        continue
                    base_jobs = base_row.get("jobs")
                    anchor_cores = base_row.get(
                        "effective_cores", baseline_cores
                    )
                    if (
                        isinstance(base_jobs, int)
                        and isinstance(anchor_cores, int)
                        and anchor_cores < base_jobs
                    ):
                        if notes is not None:
                            notes.append(
                                f"{key}.{metric}: skipped wall-clock speedup"
                                f" gate (anchor recorded on"
                                f" {anchor_cores} usable core(s) <"
                                f" {base_jobs} jobs — anchor is not a"
                                f" meaningful wall-clock reference;"
                                f" re-record it on a multi-core box)"
                            )
                        continue
                if cur_value < base_value * (1.0 - threshold):
                    regressions.append(
                        Regression(
                            key,
                            metric,
                            float(base_value),
                            float(cur_value),
                            cur_value / base_value if base_value else 0.0,
                            "speedup-drop",
                        )
                    )
                continue
            if not _is_timing(metric):
                continue
            if not isinstance(base_value, (int, float)) or not isinstance(
                cur_value, (int, float)
            ):
                continue
            scale = {"_us": 1e-3, "_ms": 1.0, "_s": 1e3}[
                "_" + metric.rsplit("_", 1)[-1]
            ]
            if base_value * scale < min_ms and cur_value * scale < min_ms:
                continue
            if cur_value > base_value * (1.0 + threshold):
                regressions.append(
                    Regression(
                        key,
                        metric,
                        float(base_value),
                        float(cur_value),
                        cur_value / base_value if base_value else float("inf"),
                        "slower",
                    )
                )
    return regressions
