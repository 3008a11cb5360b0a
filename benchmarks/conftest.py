"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and saves
its rows under ``benchmarks/results/``; the terminal-summary hook then
replays all reports at the end of the run so `pytest benchmarks/
--benchmark-only` prints the paper-style series without needing ``-s``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

_SESSION_REPORTS: list[tuple[str, str]] = []


def save_report(name: str, text: str) -> Path:
    """Persist one experiment report and queue it for terminal replay."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    _SESSION_REPORTS.append((name, text))
    return path


def save_json(name: str, rows: list[dict], *, meta: dict | None = None,
              anchor: str | None = None) -> Path:
    """Persist a benchmark's machine-readable twin (see
    :mod:`repro.bench.trajectory`).

    Writes ``benchmarks/results/<name>.json`` always; when ``anchor`` is
    given, additionally writes the repo-root trajectory anchor
    (``BENCH_<anchor>.json``) that gets committed — but only at paper
    scale, so a quick smoke run cannot clobber the committed numbers.
    Rows that ran more ``jobs`` than their ``effective_cores`` stay out
    of the anchor: a core-starved measurement is no reference.
    """
    from repro.bench.trajectory import write_trajectory

    RESULTS_DIR.mkdir(exist_ok=True)
    path = write_trajectory(RESULTS_DIR / f"{name}.json", name, rows, meta=meta)
    if anchor and os.environ.get("REPRO_BENCH_SCALE", "paper") == "paper":
        anchored = [
            row
            for row in rows
            if row.get("jobs", 1) <= row.get("effective_cores", row.get("jobs", 1))
        ]
        write_trajectory(REPO_ROOT / f"BENCH_{anchor}.json", name, anchored, meta=meta)
    return path


@pytest.fixture(scope="session")
def report_saver():
    """Fixture handing benchmarks the :func:`save_report` helper."""
    return save_report


@pytest.fixture(scope="session")
def json_saver():
    """Fixture handing benchmarks the :func:`save_json` helper."""
    return save_json


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SESSION_REPORTS:
        return
    terminalreporter.section("paper experiment reports (also in benchmarks/results/)")
    for name, text in _SESSION_REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)


def bench_rounds(default: int = 3) -> int:
    """Rounds for pytest-benchmark pedantic runs (1 in quick mode)."""
    return 1 if os.environ.get("REPRO_BENCH_SCALE", "paper") == "quick" else default
