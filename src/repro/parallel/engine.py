"""Parallel comparison by per-policy construction fan-out.

Construction is ~99 % of a store-engine comparison: on the Fig. 13
workload a 1000-rule policy takes ~400 ms to construct, the difference
walk a few milliseconds.  The only independent work in the paper's
pipeline is building each policy's FDD — both sides of a pair
comparison, or the ``t`` team versions of Section 7.3's cross
comparison — so that, and only that, is what fans out:

1. **One construction task per policy.**  Each task builds the policy's
   reduced FDD in a fresh :class:`~repro.fdd.store.NodeStore` (in a
   pooled worker, or in-process when ``jobs <= 1``) and returns its
   root — a node graph of a few tens of KB when pickled.
2. **Serial finish in the parent.**  The parent interns every returned
   root into one store (linear in the diagram, about a millisecond)
   and then runs :func:`~repro.fdd.fast.build_difference`, model
   counting and enumeration exactly as :func:`~repro.fdd.fast.compare_fast`
   does.  Hash-consing makes the interned diagram the unique reduced
   diagram of the policy, so every number — disputed volumes, node and
   path counts, discrepancy cells and their order — is the serial
   engine's.

:func:`compare_parallel` runs this over the two policies of a pair
(≤ 2× on construction); :func:`compare_many` runs it over ``t``
policies and then walks the ``t(t-1)/2`` pairs in the parent over the
one shared store (≤ ``t``× on construction).

Guard budgets propagate: every construction task receives the parent's
*remaining* budget (deadline already discounted by elapsed time), spends
under its own :class:`~repro.guard.GuardContext`, and its spend is
re-ticked against the parent as soon as its result arrives, so the
aggregate is enforced against the original budget; the parent's own
walk then spends on the parent guard directly.  The first
:class:`~repro.exceptions.BudgetExceededError` (or cancellation) stops
the remaining tasks before re-raising.

Process fan-out always runs **supervised**
(:func:`repro.parallel.supervisor.supervise`): crashed or hung workers
and corrupted result envelopes are detected and retried with backoff,
and a task whose retries are exhausted is re-executed serially in the
parent under the remaining budget and recorded as a
:class:`~repro.parallel.supervisor.Degradation` on the result.  Every
dispatch (including retries and the serial fallback) re-derives the
task's budget from the parent's remaining headroom, so no retry
sequence can outspend the caller's original budget.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from repro.analysis.discrepancy import Discrepancy
from repro.exceptions import SchemaError
from repro.fdd.fast import DifferenceFDD, build_difference
from repro.fdd.fdd import FDD
from repro.fdd.node import Node
from repro.fdd.store import NodeStore
from repro.fields import FieldSchema
from repro.guard import Budget, FaultInjector, GuardContext
from repro.parallel.supervisor import (
    Degradation,
    ShardFailure,
    SupervisorConfig,
    supervise,
)
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall

__all__ = [
    "ConstructionResult",
    "ParallelComparison",
    "PairComparison",
    "default_jobs",
    "comparison_summary",
    "compare_parallel",
    "compare_many",
]


def default_jobs() -> int:
    """Worker count when the caller does not choose: the usable cores.

    ``os.cpu_count()`` counts the machine's cores; containers and CI
    runners routinely pin a process to fewer, and the scheduler
    affinity mask is the honest number.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Construction tasks (run inside worker processes — must stay
# module-level and picklable for spawn)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ConstructTask:
    """Construct one policy's FDD, in a worker process or in-process."""

    index: int
    firewall: Firewall
    budget: Budget | None
    fault: FaultInjector | None


@dataclass(frozen=True)
class ConstructionResult:
    """One policy's construction task: its root and what it cost."""

    #: The policy's position in the compared list.
    index: int
    #: The constructed diagram's root, as built by the task (a worker's
    #: copy arrives unpickled; the parent interns it before use).
    root: Node
    #: The task guard's spend counters (empty when it ran unguarded).
    progress: dict = field(default_factory=dict)
    #: Wall-clock the task spent constructing, milliseconds.
    elapsed_ms: float = 0.0


def _construct(task: _ConstructTask) -> ConstructionResult:
    """Build one policy into a fresh store; only the root travels back."""
    guard = None
    if task.budget is not None or task.fault is not None:
        guard = GuardContext(
            task.budget if task.budget is not None else Budget.unlimited(),
            fault=task.fault,
        )
    start = time.perf_counter()
    root = NodeStore().construct(task.firewall, guard=guard).root
    return ConstructionResult(
        index=task.index,
        root=root,
        progress=guard.progress() if guard is not None else {},
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def _make_rebudget(parent: GuardContext | None):
    """Dispatch hook: refresh a task's budget to the parent's remaining
    headroom, so a retried (or degraded) task can never be handed more
    than the aggregate has left."""
    if parent is None:
        return None

    def rebudget(task):
        return replace(task, budget=parent.remaining_budget())

    return rebudget


def _make_on_result(parent: GuardContext | None):
    """Completion hook: tick a task's spend against the parent guard as
    soon as its result arrives, so later dispatches and retries see an
    up-to-date aggregate."""
    if parent is None:
        return None

    def on_result(result):
        if result.progress:
            parent.tick_nodes(result.progress.get("nodes_expanded", 0))
            parent.tick_splits(result.progress.get("edges_split", 0))
            parent.tick_discrepancies(
                result.progress.get("discrepancies_found", 0)
            )

    return on_result


def _parent_guard(
    budget: Budget | None, fault: FaultInjector | None
) -> GuardContext | None:
    if budget is None and fault is None:
        return None
    return GuardContext(
        budget if budget is not None else Budget.unlimited(), fault=fault
    )


def _construct_all(
    firewalls: list[Firewall],
    *,
    jobs: int,
    parent: GuardContext | None,
    fault: FaultInjector | None,
    start_method: str | None,
    supervision: SupervisorConfig | None,
    chaos=None,
) -> tuple[
    list[ConstructionResult],
    tuple[Degradation, ...],
    tuple[ShardFailure, ...],
    dict,
]:
    """Construct every policy, one task each; returns the results in
    policy order, the supervisor's records and the phase timings.

    ``jobs <= 1`` runs the tasks in-process, in order (no pool, and a
    chaos plan has no worker to fault); otherwise they fan out through
    :func:`supervise`, whose records index the policy list.
    """
    tasks = [
        _ConstructTask(index, firewall, None, fault)
        for index, firewall in enumerate(firewalls)
    ]
    rebudget = _make_rebudget(parent)
    on_result = _make_on_result(parent)
    degradations: tuple[Degradation, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    start = time.perf_counter()
    results: list[ConstructionResult] = []
    if jobs <= 1:
        for task in tasks:
            result = _construct(rebudget(task) if rebudget else task)
            if on_result is not None:
                on_result(result)
            results.append(result)
    else:
        results, found_degradations, found_failures = supervise(
            _construct,
            tasks,
            jobs=jobs,
            config=supervision,
            start_method=start_method,
            guard=parent,
            rebudget=rebudget,
            on_result=on_result,
            chaos=chaos,
        )
        degradations = tuple(found_degradations)
        failures = tuple(found_failures)
    elapsed = [result.elapsed_ms for result in results]
    phase_ms = {
        "construct_wall_ms": (time.perf_counter() - start) * 1000.0,
        "construct_ms_sum": sum(elapsed),
        "construct_ms_max": max(elapsed, default=0.0),
    }
    return results, degradations, failures, phase_ms


def _intern_roots(
    results: list[ConstructionResult],
) -> tuple[NodeStore, list[Node]]:
    """Intern every returned root into one store: the parent's walks
    then see one maximally-shared diagram per policy, as in serial."""
    store = NodeStore()
    return store, [store.intern(result.root) for result in results]


def _resolve_jobs(jobs: int | None) -> int:
    return default_jobs() if jobs is None else max(1, jobs)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairComparison:
    """Summary of one team pair's comparison (Section 7.3, parallel)."""

    index_a: int
    index_b: int
    disputed_packets: int
    by_decisions: dict[tuple[Decision, Decision], int]
    node_count: int
    path_count: int
    #: Guard spend of this pair's difference walk.
    progress: dict = field(default_factory=dict)
    #: Wall-clock of this pair's difference walk and count, milliseconds.
    elapsed_ms: float = 0.0
    #: True when the construction of either policy exhausted its worker
    #: retries and was re-run serially in the parent (numbers remain
    #: exact).
    degraded: bool = False

    def equivalent(self) -> bool:
        """True when the pair agrees on every packet."""
        return self.disputed_packets == 0


@dataclass
class ParallelComparison:
    """The result of a parallel comparison — the serial engine's numbers.

    Disputed-packet totals, the per-decision-pair breakdown, the node and
    path counts of the difference diagram, and the discrepancy cells are
    exactly those :func:`repro.fdd.fast.compare_fast` produces.
    """

    schema: FieldSchema
    jobs: int
    #: One record per construction task, in policy order.
    shards: tuple[ConstructionResult, ...]
    disputed_packets: int
    by_decisions: dict[tuple[Decision, Decision], int]
    #: Internal nodes / decision paths of the difference diagram.
    node_count: int
    path_count: int
    #: The discrepancy cells in the serial engine's order, or ``None``
    #: when enumeration was not requested.
    discrepancies: tuple[Discrepancy, ...] | None
    #: The parent guard's outcome record (budget, aggregated spend), or
    #: ``None`` for unguarded runs.
    outcome: dict | None
    #: Wall-clock breakdown, milliseconds: the construction wave
    #: (``construct_wall_ms``; per-task ``construct_ms_sum`` /
    #: ``construct_ms_max``) and the parent's serial finish
    #: (``difference_ms``: interning, difference walk, count and
    #: enumeration).
    phase_ms: dict = field(default_factory=dict)
    #: Construction tasks that exhausted their retries and were
    #: re-executed serially in the parent.  The numbers stay exact — a
    #: degradation records a loss of parallelism, not of correctness —
    #: but callers (and the CLI, exit code 5) surface it.
    degradations: tuple[Degradation, ...] = ()
    #: Every failed dispatch attempt the supervisor observed, including
    #: the ones whose retry later succeeded.  Diagnostic only.
    failures: tuple[ShardFailure, ...] = ()

    def equivalent(self) -> bool:
        """True when the two policies agree on every packet."""
        return self.disputed_packets == 0

    def degraded(self) -> bool:
        """True when at least one task fell back to serial execution."""
        return bool(self.degradations)

    def degradation_report(self) -> list[dict]:
        """JSON-safe degradations record (for reports and the CLI)."""
        return [
            {
                "shard": item.shard_index,
                "reason": item.reason,
                "retries": item.retries,
                "detail": item.detail,
            }
            for item in self.degradations
        ]

    def summary(self) -> dict:
        """Canonical JSON-safe summary; byte-comparable to the serial
        engine's :func:`comparison_summary` output."""
        return _summary_dict(self.schema, self.by_decisions)


def _summary_dict(
    schema: FieldSchema, by_decisions: dict[tuple[Decision, Decision], int]
) -> dict:
    return {
        "universe": schema.universe_size(),
        "disputed_packets": sum(by_decisions.values()),
        "equivalent": not by_decisions,
        "by_decisions": {
            f"{pair[0].name}->{pair[1].name}": volume
            for pair, volume in sorted(
                by_decisions.items(),
                key=lambda item: (item[0][0].name, item[0][1].name),
            )
        },
    }


def comparison_summary(diff: DifferenceFDD) -> dict:
    """The serial engine's comparison summary in the canonical JSON-safe
    shape (:meth:`ParallelComparison.summary` produces the same bytes
    for the same pair of policies)."""
    return _summary_dict(diff.schema, diff.disputed_by_decisions())


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def compare_parallel(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    jobs: int | None = None,
    budget: Budget | None = None,
    fault: FaultInjector | None = None,
    enumerate_discrepancies: bool = False,
    discrepancy_limit: int | None = None,
    start_method: str | None = None,
    supervision: SupervisorConfig | None = None,
    chaos=None,
) -> ParallelComparison:
    """Parallel equivalent of :func:`repro.fdd.fast.compare_fast`.

    Constructs the two policies as two supervised pool tasks, then
    builds, counts and (with ``enumerate_discrepancies``) enumerates
    the difference in the calling process.  Every number equals the
    serial engine's.  ``jobs`` defaults to the usable cores; ``jobs <=
    1`` runs in-process.  ``start_method`` picks the
    ``multiprocessing`` context (``"fork"``, ``"spawn"``, ... —
    ``None`` means the platform default; everything shipped to workers
    is spawn-safe).  ``supervision`` tunes retries, deadlines and
    heartbeats; ``chaos`` is a test-only :class:`repro.chaos.ChaosPlan`
    addressing the construction tasks (0 = ``fw_a``, 1 = ``fw_b``).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> compare_parallel(fa, fb, jobs=1).disputed_packets
    3
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    jobs = _resolve_jobs(jobs)
    parent = _parent_guard(budget, fault)
    results, degradations, failures, phase_ms = _construct_all(
        [fw_a, fw_b],
        jobs=jobs,
        parent=parent,
        fault=fault,
        start_method=start_method,
        supervision=supervision,
        chaos=chaos,
    )
    start = time.perf_counter()
    store, (root_a, root_b) = _intern_roots(results)
    schema = fw_a.schema
    diff = build_difference(
        FDD(schema, root_a), FDD(schema, root_b), guard=parent, store=store
    )
    by_decisions = diff.disputed_by_decisions()
    cells = None
    if enumerate_discrepancies:
        cells = tuple(diff.discrepancies(limit=discrepancy_limit, guard=parent))
    phase_ms["difference_ms"] = (time.perf_counter() - start) * 1000.0
    return ParallelComparison(
        schema=schema,
        jobs=jobs,
        shards=tuple(results),
        disputed_packets=sum(by_decisions.values()),
        by_decisions=by_decisions,
        node_count=diff.node_count(),
        path_count=diff.path_count(),
        discrepancies=cells,
        outcome=parent.outcome() if parent is not None else None,
        phase_ms=phase_ms,
        degradations=degradations,
        failures=failures,
    )


def compare_many(
    firewalls: list[Firewall],
    *,
    jobs: int | None = None,
    budget: Budget | None = None,
    fault: FaultInjector | None = None,
    start_method: str | None = None,
    supervision: SupervisorConfig | None = None,
) -> dict[tuple[int, int], PairComparison]:
    """All pairwise comparisons of ``t`` team versions (Section 7.3).

    Constructs the ``t`` policies as ``t`` supervised pool tasks (each
    policy once, however many pairs it is in), then walks the
    ``t * (t - 1) / 2`` unordered pairs in the calling process over one
    shared store, whose product caches every pair reuses.  Returns
    ``{(i, j): PairComparison}`` for ``i < j``, each equal to the
    serial engine's comparison of that pair.  Budgets aggregate over
    constructions and walks exactly as in :func:`compare_parallel`.  A
    pair is marked ``degraded`` when either of its policies'
    constructions fell back to serial execution.
    """
    if len(firewalls) < 2:
        raise SchemaError("cross comparison needs at least two firewalls")
    schema = firewalls[0].schema
    for fw in firewalls:
        if fw.schema != schema:
            raise SchemaError("all versions must share one field schema")
    jobs = _resolve_jobs(jobs)
    parent = _parent_guard(budget, fault)
    results, degradations, _failures, _phase_ms = _construct_all(
        list(firewalls),
        jobs=jobs,
        parent=parent,
        fault=fault,
        start_method=start_method,
        supervision=supervision,
    )
    store, roots = _intern_roots(results)
    degraded = {item.shard_index for item in degradations}
    on_result = _make_on_result(parent)
    pairs: dict[tuple[int, int], PairComparison] = {}
    for i in range(len(firewalls)):
        for j in range(i + 1, len(firewalls)):
            guard = None
            if parent is not None:
                guard = GuardContext(parent.remaining_budget(), fault=fault)
            start = time.perf_counter()
            diff = build_difference(
                FDD(schema, roots[i]), FDD(schema, roots[j]), guard=guard, store=store
            )
            by_decisions = diff.disputed_by_decisions()
            pair = PairComparison(
                index_a=i,
                index_b=j,
                disputed_packets=sum(by_decisions.values()),
                by_decisions=by_decisions,
                node_count=diff.node_count(),
                path_count=diff.path_count(),
                progress=guard.progress() if guard is not None else {},
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
                degraded=i in degraded or j in degraded,
            )
            if on_result is not None:
                on_result(pair)
            pairs[(i, j)] = pair
    return pairs
