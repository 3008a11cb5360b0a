"""Shared benchmark machinery: statistics, machine record, set-up timing,
and the span tracer used by ``--trace 1`` runs.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
report a missing library cleanly before any workload module is loaded.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager

#: A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10
#: Highest percentile reported as a tail.  Only ``serve``'s single
#: lookups (~2.5 us, millions per run) reach it.  Their p99 moved by up
#: to 12% between runs of one seed and spread over ten seeds by 19%,
#: most of the 25% bound; their p95 moved by 5% between runs of one seed.
TAIL_CAP = 95.0
#: Repetitions of every timed set-up step (the median is reported).
SETUP_REPEATS = 5
#: Band on the nodes a policy's construction allocates (the store's
#: interned internal nodes, intermediate ones included: the work
#: construction does), which every drawn policy must fall in (see
#: :func:`draw_in_band`).  The default generator mix reaches its middle
#: from ~100 rules on (more rules mostly append dead ones); the
#: 64-network dense mix reaches it with fewer, more specific rules.
NODE_BAND = (1200, 1800)
#: Discrepancy cells (disagreeing decision paths of the difference
#: diagram) every drawn pair must have: enumeration, aggregation and
#: rendering scale with them, and at a fixed node band they still vary
#: ~10x between seeds.
CELL_BAND = (1000, 8000)
#: Draws before a band is given up on (acceptance is ~20% or more).
MAX_DRAWS = 500


def usable_cores() -> int:
    """Cores this process may run on (the ``nproc`` count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def pool_jobs() -> int:
    """Worker count for the parallel workloads: one per usable core.

    At least 2, so that the pool path runs even on a 1-core host (the
    run is then flagged, see :func:`machine_record`), and at most 8 to
    bound the memory the workers take on a large host.
    """
    return max(2, min(8, usable_cores()))


def machine_record(jobs: int | None) -> dict:
    """The host a result was measured on, recorded in every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    record = {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
    if jobs is not None:
        record["jobs"] = jobs
        # A jobs-N run on fewer than N cores measures time slicing, not
        # parallelism: it must never be read as a speed-up.
        record["parallelism_exercised"] = record["usable_cores"] >= jobs
    return record


def reset_peak_rss() -> float | None:
    """Restart this process's resident-set high-water mark (Linux); the
    resident set in MB it restarts from.

    Called after inputs and reference answers are built, so the peak
    covers set-up and the measured run, not the oracles.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return None
    resident = _status_kb("self", "VmRSS:")
    return None if resident is None else resident / 1024.0


def _status_kb(pid: str, field: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _high_water_kb(pid: str) -> int | None:
    return _status_kb(pid, "VmHWM:")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes.

    Workers run beside the parent, so their peaks add.  Without
    ``/proc``, falls back to the lifetime peaks ``getrusage`` reports.
    """
    import multiprocessing

    own = _high_water_kb("self")
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    workers = (_high_water_kb(str(child.pid)) for child in multiprocessing.active_children())
    return (own + sum(kb for kb in workers if kb is not None)) / 1024.0


#: What the probe takes, in ms, at the speed every reported time is
#: scaled to: its typical time on the 2-core Xeon host the benchmark was
#: built on, where it read 2.4 to 5.1 ms as the host's speed changed.
REFERENCE_PROBE_MS = 4.0
#: Least wall time between two probes of :meth:`HostSpeed.tick`.
PROBE_EVERY_S = 0.25
_PROBE_TABLE = [(index, index * 3 + 1) for index in range(512)]


def _probe_kernel() -> int:
    """Fixed interpreter work, in the proportions the library's hot paths
    have: indexing, tuple unpacking, small tuple, dict and list
    allocation."""
    table = _PROBE_TABLE
    kept = []
    total = 0
    for index in range(9000):
        lo, hi = table[index & 511]
        total += hi - lo if lo & 1 else hi
        kept.append({"key": (lo, index >> 3), "span": [lo, hi]})
        if len(kept) > 256:
            kept = []
    return total + len(kept)


class HostSpeed:
    """The host's current speed, probed between the benchmark's requests.

    The shared host a run gets changes speed by up to ~1.6x within
    seconds and between runs (its neighbours' load), and every part of
    the program slows with it.  The benchmark therefore runs a fixed
    piece of interpreter work (:func:`_probe_kernel`) every
    :data:`PROBE_EVERY_S` or so, between requests and never inside a
    timed one, and scales each reported time by
    ``REFERENCE_PROBE_MS / mean probe ms`` of the same stretch of the
    run: the time the request would have taken at the reference speed.
    The probe never calls the library, so a change to the library moves
    the scaled times exactly as it moves the raw ones; the raw values
    are reported beside them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        # The collector stays off so that a full collection of the
        # workload's heap is never charged to the probe.
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _probe_kernel()
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((ended - started) * 1e3)
        self.last = ended

    def tick(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def mark(self) -> int:
        """Index of the next probe: the start of a stretch."""
        return len(self.samples)

    def factor(self, start: int = 0, end: int | None = None) -> float:
        """Reference over measured speed for the probes ``[start, end)``:
        multiply a time by it, divide a rate by it."""
        samples = self.samples[start:end]
        return REFERENCE_PROBE_MS / statistics.fmean(samples)


def time_fresh_import(root: str, modules: list[str], speed: HostSpeed) -> float:
    """Median wall time of a fresh interpreter importing ``modules``.

    The import is part of what a user waits for before the first
    request, but it only happens once per process; a child interpreter
    lets it be timed several times in one run.
    """
    code = (
        "import sys; sys.path.insert(0, 'src'); "
        + "; ".join(f"import {name}" for name in modules)
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
        samples.append(time.perf_counter() - started)
    speed.probe()
    return statistics.median(samples)


def median_setup(step, speed: HostSpeed) -> tuple[float, object]:
    """Run ``step()`` :data:`SETUP_REPEATS` times; median seconds and
    the last result (the one the workload keeps)."""
    samples = []
    result = None
    for _ in range(SETUP_REPEATS):
        speed.probe()
        started = time.perf_counter()
        result = step()
        samples.append(time.perf_counter() - started)
    speed.probe()
    return statistics.median(samples), result


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest supported tail.

    The highest percentile with at least :data:`TAIL_BEYOND` samples
    above it, capped at :data:`TAIL_CAP`.  Up to ``2 * TAIL_BEYOND``
    samples no percentile above the median qualifies, and the median is
    returned as the tail.
    """
    ordered = sorted(values)
    count = len(ordered)
    percentile = 100.0 * (count - TAIL_BEYOND) / count
    if percentile <= 50.0:
        return statistics.median(ordered), 50.0
    if percentile > TAIL_CAP:
        index = math.ceil(TAIL_CAP / 100.0 * count) - 1
        return ordered[index], TAIL_CAP
    return ordered[count - TAIL_BEYOND - 1], percentile


def mean_or_zero(values) -> float:
    """Mean of ``values``, or 0 for none (a layer a workload skips)."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def balanced_mean(samples) -> float:
    """Mean over groups of each group's mean, from ``(group, value)``.

    A run that stops partway through a cycle of inputs holds more
    samples of some inputs than of others; weighting every input equally
    keeps the mean a property of the input set, not of where the time
    limit cut the cycle.
    """
    groups: dict = {}
    for group, value in samples:
        groups.setdefault(group, []).append(value)
    return statistics.fmean(statistics.fmean(values) for values in groups.values())


def latency_metrics(primary: list[float], secondary: list[float]) -> tuple[dict, dict]:
    """The latency metrics of a run, and the notes that go with them.

    The metrics are means, not medians: on a host whose speed switches
    between two levels every few seconds, the median of a 20 s run lands
    on whichever level held for more than half of it, so it jumps
    between runs by the full ratio of the levels; the mean moves with
    the share of time at each level, a fraction of that.  The medians
    are kept in the notes.
    """
    tail_ms, tail_pct = tail(primary)
    return {
        "latency_ms.mean": (statistics.fmean(primary), "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "secondary_ms.mean": (statistics.fmean(secondary), "ms"),
    }, {
        "latency_ms.p50": statistics.median(primary),
        "secondary_ms.p50": statistics.median(secondary),
        "tail_percentile": round(tail_pct, 3),
        "samples": len(primary),
        "secondary_samples": len(secondary),
    }


class Tracer:
    """In-memory span recorder for the traced run.

    A span is a name, start and end (ns), the index of its parent span
    and the id of the workload op it belongs to; spans of one op share
    the id.  ``wrap`` returns a traced version of a callable and
    ``patch`` installs such wrappers on module or class attributes for
    the duration of a block, so calls the library makes internally (a
    server's construction, a simplifier's generation step) are
    attributed too.
    """

    def __init__(self) -> None:
        # Parallel columns keep a span at ~40 bytes: a serving run
        # records hundreds of thousands of them.
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list[int] = []
        self.op = -1
        #: (op id, id(store)) -> that store's latest ``stats()``.  A
        #: store freed within an op may hand its id to a later one, whose
        #: counters then replace its own: the totals are a lower bound.
        self.store_stats: dict[tuple[int, int], dict] = {}

    def __len__(self) -> int:
        return len(self.names)

    @contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """One workload op: the root span every layer span nests under."""
        self.op = op_id
        with self.span("op"):
            yield

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def traced(self, owner, attribute: str, name: str):
        """``(owner, attribute, wrapper)`` for :meth:`patch`."""
        return owner, attribute, self.wrap(getattr(owner, attribute), name)

    @contextmanager
    def patch(self, replacements):
        """Install ``(owner, attribute, replacement)`` for a block.

        Owners are modules or classes; the library resolves these names
        at call time, so the replacements see its internal calls too.
        """
        saved = [
            (owner, attribute, owner.__dict__[attribute])
            for owner, attribute, _ in replacements
        ]
        try:
            for owner, attribute, replacement in replacements:
                setattr(owner, attribute, replacement)
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def rows(self):
        """``(name, start_ns, end_ns, parent, op)`` for every span."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ops)

    def self_times(self) -> list[int]:
        """Per-span self time (ns): duration minus child coverage.

        Children of one span never overlap (one thread), so the time
        they cover is the sum of their durations.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_ns = [0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_ns[parent] += duration
        return [own - child for own, child in zip(durations, child_ns)]

    def per_op(self, name: str) -> float:
        """Mean inclusive ms of ``name`` per op that called it."""
        total = 0
        ops = set()
        for span_name, start, end, _parent, op in self.rows():
            if span_name == name:
                total += end - start
                ops.add(op)
        return total / len(ops) / 1e6 if ops else 0.0

    def per_call_ns(self, name: str) -> tuple[float, int]:
        """Mean inclusive ns per call of ``name``, and the call count."""
        total = 0
        calls = 0
        for span_name, start, end, _parent, _op in self.rows():
            if span_name == name:
                total += end - start
                calls += 1
        return (total / calls if calls else 0.0), calls

    def layer_self_ms(self, layers: tuple[str, ...]) -> dict[str, float]:
        """Mean self ms per op for each layer, plus the unattributed
        remainder (the op span's own self time)."""
        totals = {layer: 0 for layer in layers}
        unattributed = 0
        ops = set()
        for name, op, own in zip(self.names, self.ops, self.self_times()):
            ops.add(op)
            if name == "op":
                unattributed += own
                continue
            layer = layer_of(name, layers)
            if layer is not None:
                totals[layer] += own
        count = max(1, len(ops))
        out = {layer: total / count / 1e6 for layer, total in totals.items()}
        out["unattributed"] = unattributed / count / 1e6
        return out

    def summary(self) -> dict[str, dict]:
        """Calls, inclusive and self ms per span name."""
        out: dict[str, dict] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += own / 1e6
        return out

    def store_totals(self) -> dict[str, float]:
        """Mean per op of the summed ``NodeStore.stats()`` of its stores."""
        per_op: dict[int, dict[str, int]] = {}
        for (op, _store), stats in self.store_stats.items():
            bucket = per_op.setdefault(op, {})
            for key, value in stats.items():
                bucket[key] = bucket.get(key, 0) + value
        if not per_op:
            return {}
        keys = {key for bucket in per_op.values() for key in bucket}
        return {
            key: sum(bucket.get(key, 0) for bucket in per_op.values()) / len(per_op)
            for key in keys
        }

    def traced_construct(self, store_cls):
        """``NodeStore.construct`` replacement that also records the
        store's counters after each construction."""
        tracer = self
        original = store_cls.construct

        def construct(store, *args, **kwargs):
            with tracer.span("fdd.store.construct"):
                result = original(store, *args, **kwargs)
            tracer.store_stats[(tracer.op, id(store))] = store.stats()
            return result

        return store_cls, "construct", construct


def layer_of(span_name: str, layers: tuple[str, ...]) -> str | None:
    """The longest layer name that prefixes ``span_name``."""
    best = None
    for layer in layers:
        if span_name == layer or span_name.startswith(layer + "."):
            if best is None or len(layer) > len(best):
                best = layer
    return best


def interval_boundaries(firewalls) -> int:
    """Distinct interval endpoints, summed over fields ("Rules in Play").

    Counts every ``lo`` and ``hi + 1`` of every rule interval, per field,
    over the union of the given policies.
    """
    per_field: list[set[int]] = []
    for firewall in firewalls:
        for rule in firewall.rules:
            sets = rule.predicate.sets
            while len(per_field) < len(sets):
                per_field.append(set())
            for index, values in enumerate(sets):
                points = per_field[index]
                for interval in values.intervals:
                    points.add(interval.lo)
                    points.add(interval.hi + 1)
    return sum(len(points) for points in per_field)


def draw_in_band(make, band: tuple[int, int], rng, accept=None, draws: int = MAX_DRAWS):
    """Draw policies ``make(seed)`` until one's construction allocates a
    number of nodes in ``band``.

    Construction cost follows the nodes it allocates, not the rule count
    ("Rules in Play"): at 1000 rules the default mix spans ~15 to ~15k
    across generator seeds, and ~0.1 s to ~5 s of construction.  A run
    holds only a handful of policies, so without a band its timings
    would be set by which sizes its seed happened to draw; with it, every
    seed's inputs cost the same to build.  Oversized draws stop at the
    band's top through a store-level node budget.  ``accept(fdd)`` may
    reject a draw on further grounds.  Returns ``(policy, fdd)``, or
    ``None`` when ``draws`` draws found none.
    """
    from repro.exceptions import BudgetExceededError
    from repro.fdd.store import NodeStore
    from repro.guard import Budget, GuardContext

    low, high = band
    for _ in range(draws):
        firewall = make(rng.randrange(1 << 30))
        # Two terminals (accept, discard) are allocated besides the
        # internal nodes.
        store = NodeStore(guard=GuardContext(Budget(max_nodes=high + 2)))
        try:
            fdd = store.construct(firewall)
        except BudgetExceededError:
            continue
        store.guard = None
        if store.stats()["internals"] >= low and (accept is None or accept(fdd)):
            return firewall, fdd
    return None


def internal_nodes(fdd) -> int:
    """Distinct internal nodes of a diagram."""
    seen: set[int] = set()
    stack = [fdd.root]
    while stack:
        node = stack.pop()
        edges = getattr(node, "edges", None)
        if edges is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(edge.target for edge in edges)
    return len(seen)
