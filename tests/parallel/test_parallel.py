"""Tests for the parallel comparison engine (:mod:`repro.parallel`).

The core correctness property is *serial parity*: the engine constructs
each policy as its own task and finishes the comparison serially in the
parent, so every number — the canonical summary, node and path counts,
and the discrepancy cells in order — must equal the serial engine's,
for any ``jobs``, under guard budgets and injected faults, and under
both fork and spawn pools.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import given, settings

from repro.exceptions import (
    BudgetExceededError,
    CancelledError,
    FaultInjectedError,
    NotComprehensiveError,
    ParseError,
    SchemaError,
    SupervisionError,
)
from repro.fdd.fast import compare_fast
from repro.fields import toy_schema
from repro.guard import Budget, FaultInjector
from repro.intervals import IntervalSet
from repro.parallel import (
    compare_many,
    compare_parallel,
    comparison_summary,
    default_jobs,
)
from tests.conftest import brute_force_diff, firewalls

SCHEMA = toy_schema(29, 9, 9)


def make_firewall(seed: int, n_rules: int = 6, schema=SCHEMA):
    """Deterministic random comprehensive firewall (no hypothesis)."""
    import random

    from repro.policy import ACCEPT, DISCARD, Firewall, Predicate, Rule

    rng = random.Random(seed)
    rules = []
    for _ in range(n_rules - 1):
        sets = []
        for field in schema:
            hi_max = field.domain.hi
            lo = rng.randint(0, hi_max)
            hi = rng.randint(lo, hi_max)
            values = IntervalSet.span(lo, hi)
            if rng.random() < 0.3:
                lo2 = rng.randint(0, hi_max)
                values = values.union(IntervalSet.span(lo2, rng.randint(lo2, hi_max)))
            sets.append(values)
        rules.append(Rule(Predicate(schema, tuple(sets)), rng.choice([ACCEPT, DISCARD])))
    rules.append(Rule(Predicate(schema, tuple(f.domain_set for f in schema)), rng.choice([ACCEPT, DISCARD])))
    return Firewall(schema, rules)


def serial_summary(fw_a, fw_b) -> dict:
    return comparison_summary(compare_fast(fw_a, fw_b))


def canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


# ----------------------------------------------------------------------
# Usable cores
# ----------------------------------------------------------------------


class TestDefaultJobs:
    def test_counts_the_affinity_mask_not_the_machine(self, monkeypatch):
        from repro.bench.trajectory import effective_cores

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_jobs() == 1
        assert effective_cores() == 1


# ----------------------------------------------------------------------
# Serial parity (in-process: jobs <= 1 runs the same tasks without a pool)
# ----------------------------------------------------------------------


class TestSummaryParity:
    @given(
        firewalls(SCHEMA, max_rules=6),
        firewalls(SCHEMA, max_rules=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_summary_is_byte_identical_to_serial(self, fw_a, fw_b):
        serial = serial_summary(fw_a, fw_b)
        par = compare_parallel(fw_a, fw_b, jobs=1)
        assert canonical(par.summary()) == canonical(serial)

    @given(
        firewalls(toy_schema(7, 5), max_rules=4),
        firewalls(toy_schema(7, 5), max_rules=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_disputed_count_matches_brute_force(self, fw_a, fw_b):
        par = compare_parallel(fw_a, fw_b, jobs=1)
        assert par.disputed_packets == len(brute_force_diff(fw_a, fw_b))

    @given(
        firewalls(SCHEMA, max_rules=5),
        firewalls(SCHEMA, max_rules=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_discrepancy_volumes_match_serial(self, fw_a, fw_b):
        diff = compare_fast(fw_a, fw_b)
        par = compare_parallel(fw_a, fw_b, jobs=1, enumerate_discrepancies=True)
        assert par.discrepancies == tuple(diff.discrepancies())
        assert (par.node_count, par.path_count) == (
            diff.node_count(),
            diff.path_count(),
        )

    def test_single_edge_collapse_is_reanchored(self):
        # Policies that ignore field 0 entirely: the product walk
        # collapses the root level, which the engine must count over
        # the full field-0 domain exactly as the serial engine does.
        from repro.policy import ACCEPT, DISCARD

        fw_a = type(self)._const_fw(ACCEPT)
        fw_b = type(self)._const_fw(DISCARD, narrow=True)
        serial = serial_summary(fw_a, fw_b)
        for jobs in (1, 2):
            par = compare_parallel(fw_a, fw_b, jobs=jobs)
            assert canonical(par.summary()) == canonical(serial)

    @staticmethod
    def _const_fw(default, *, narrow=False):
        from repro.policy import ACCEPT, Firewall, Rule

        rules = []
        if narrow:
            rules.append(Rule.build(SCHEMA, ACCEPT, F2=(2, 4)))
        rules.append(Rule.build(SCHEMA, default))
        return Firewall(SCHEMA, rules)

    def test_discrepancy_limit_truncates_in_serial_order(self):
        fw_a, fw_b = make_firewall(13, 8), make_firewall(14, 8)
        cells = compare_fast(fw_a, fw_b).discrepancies()
        assert len(cells) > 2
        par = compare_parallel(
            fw_a, fw_b, jobs=1, enumerate_discrepancies=True, discrepancy_limit=2
        )
        assert par.discrepancies == tuple(cells[:2])

    def test_mismatched_schemas_rejected(self):
        fw = make_firewall(1)
        other = make_firewall(2, schema=toy_schema(5, 5))
        with pytest.raises(SchemaError):
            compare_parallel(fw, other, jobs=1)


# ----------------------------------------------------------------------
# Guard propagation
# ----------------------------------------------------------------------


class TestGuardPropagation:
    def _pair(self):
        return make_firewall(11, 8), make_firewall(12, 8)

    def test_tiny_budget_trips(self):
        fw_a, fw_b = self._pair()
        with pytest.raises(BudgetExceededError) as excinfo:
            compare_parallel(fw_a, fw_b, jobs=1, budget=Budget(max_nodes=2))
        assert excinfo.value.resource == "fdd-nodes"

    def test_aggregate_spend_is_enforced_across_shards(self):
        # Each construction task individually fits in the budget, but
        # their sum plus the parent's walk does not: the aggregate trips.
        fw_a, fw_b = self._pair()
        unguarded = compare_parallel(
            fw_a, fw_b, jobs=1, budget=Budget(max_nodes=10**9)
        )
        total = unguarded.outcome["nodes_expanded"]
        per_task = max(task.progress["nodes_expanded"] for task in unguarded.shards)
        assert per_task < total
        with pytest.raises(BudgetExceededError):
            compare_parallel(fw_a, fw_b, jobs=1, budget=Budget(max_nodes=total - 1))

    def test_within_budget_outcome_aggregates_shard_spend(self):
        fw_a, fw_b = self._pair()
        par = compare_parallel(
            fw_a, fw_b, jobs=1, budget=Budget(max_nodes=10**9)
        )
        assert par.outcome is not None
        assert par.outcome["exhausted"] is None
        # Both constructions' spend is re-ticked on the parent, which
        # then spends the difference walk itself.
        construction = sum(task.progress["nodes_expanded"] for task in par.shards)
        assert len(par.shards) == 2
        assert construction < par.outcome["nodes_expanded"]
        assert canonical(par.summary()) == canonical(serial_summary(fw_a, fw_b))

    def test_injected_fault_trips_like_serial(self):
        fw_a, fw_b = self._pair()
        serial_fault = FaultInjector()
        serial_fault.arm("fast.rule", after=2)
        with pytest.raises(FaultInjectedError):
            from repro.fdd.fast import construct_fdd_fast
            from repro.guard import GuardContext

            guard = GuardContext(Budget.unlimited(), fault=serial_fault)
            construct_fdd_fast(fw_a, guard=guard)
            construct_fdd_fast(fw_b, guard=guard)

        parallel_fault = FaultInjector()
        parallel_fault.arm("fast.rule", after=2)
        with pytest.raises(FaultInjectedError) as excinfo:
            compare_parallel(fw_a, fw_b, jobs=1, fault=parallel_fault)
        assert excinfo.value.site == "fast.rule"


# ----------------------------------------------------------------------
# Real process pools
# ----------------------------------------------------------------------


class TestProcessPools:
    def _pair(self):
        return make_firewall(21, 10), make_firewall(22, 10)

    def _assert_serial_parity(self, fw_a, fw_b, par):
        diff = compare_fast(fw_a, fw_b)
        assert canonical(par.summary()) == canonical(comparison_summary(diff))
        assert par.discrepancies == tuple(diff.discrepancies())
        assert (par.node_count, par.path_count) == (
            diff.node_count(),
            diff.path_count(),
        )
        assert par.failures == ()

    def test_fork_pool_matches_serial(self):
        fw_a, fw_b = self._pair()
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="fork", enumerate_discrepancies=True
        )
        self._assert_serial_parity(fw_a, fw_b, par)

    def test_spawn_pool_matches_serial(self):
        # Spawn re-imports everything in the worker: proves all shipped
        # objects (firewalls, budgets, tasks, roots) are truly picklable.
        fw_a, fw_b = self._pair()
        par = compare_parallel(
            fw_a, fw_b, jobs=2, start_method="spawn", enumerate_discrepancies=True
        )
        self._assert_serial_parity(fw_a, fw_b, par)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_summaries_identical_at_every_jobs(self, jobs, start_method):
        fw_a, fw_b = self._pair()
        expected = canonical(serial_summary(fw_a, fw_b))
        par = compare_parallel(fw_a, fw_b, jobs=jobs, start_method=start_method)
        assert canonical(par.summary()) == expected
        assert par.failures == ()
        team = [make_firewall(90 + i, 6) for i in range(3)]
        many = compare_many(team, jobs=jobs, start_method=start_method)
        for (i, j), pair in many.items():
            diff = compare_fast(team[i], team[j])
            assert pair.by_decisions == diff.disputed_by_decisions()
            assert not pair.degraded

    def test_budget_trip_crosses_process_boundary(self):
        fw_a, fw_b = self._pair()
        with pytest.raises(BudgetExceededError) as excinfo:
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                start_method="fork",
                budget=Budget(max_nodes=2),
            )
        assert excinfo.value.resource == "fdd-nodes"
        assert excinfo.value.limit == 2

    def test_aggregate_budget_trips_across_processes(self):
        # Each worker's construction fits; the aggregate does not.
        fw_a, fw_b = self._pair()
        total = compare_parallel(
            fw_a, fw_b, jobs=1, budget=Budget(max_nodes=10**9)
        ).outcome["nodes_expanded"]
        with pytest.raises(BudgetExceededError):
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                start_method="fork",
                budget=Budget(max_nodes=total - 1),
            )

    def test_injected_fault_crosses_process_boundary(self):
        from repro.parallel import SupervisorConfig

        fw_a, fw_b = self._pair()
        fault = FaultInjector()
        fault.arm("fast.rule", after=2)
        # A deterministic fault fails every worker attempt, then the
        # serial fallback in the parent re-raises it.
        with pytest.raises(FaultInjectedError) as excinfo:
            compare_parallel(
                fw_a,
                fw_b,
                jobs=2,
                start_method="fork",
                fault=fault,
                supervision=SupervisorConfig(max_retries=0),
            )
        assert excinfo.value.site == "fast.rule"


# ----------------------------------------------------------------------
# compare_many
# ----------------------------------------------------------------------


class TestCompareMany:
    def _assert_pairs_match_serial(self, team, results):
        assert set(results) == {
            (i, j) for i in range(len(team)) for j in range(i + 1, len(team))
        }
        for (i, j), pair in results.items():
            diff = compare_fast(team[i], team[j])
            assert pair.disputed_packets == diff.disputed_packet_count()
            assert pair.by_decisions == diff.disputed_by_decisions()
            assert (pair.node_count, pair.path_count) == (
                diff.node_count(),
                diff.path_count(),
            )
            assert pair.equivalent() == (pair.disputed_packets == 0)
            assert not pair.degraded

    def test_all_pairs_match_serial(self):
        team = [make_firewall(30 + i, 5) for i in range(4)]
        self._assert_pairs_match_serial(team, compare_many(team, jobs=1))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_pairs_match_serial(self, start_method):
        team = [make_firewall(30 + i, 5) for i in range(4)]
        results = compare_many(team, jobs=2, start_method=start_method)
        self._assert_pairs_match_serial(team, results)

    def test_budget_aggregates_over_constructions_and_walks(self):
        from repro.fdd.store import NodeStore
        from repro.guard import GuardContext

        team = [make_firewall(30 + i, 5) for i in range(3)]
        construction = 0
        for fw in team:
            guard = GuardContext(Budget.unlimited())
            NodeStore().construct(fw, guard=guard)
            construction += guard.progress()["nodes_expanded"]
        pairs = compare_many(team, jobs=1, budget=Budget(max_nodes=10**9))
        total = construction + sum(
            pair.progress["nodes_expanded"] for pair in pairs.values()
        )
        compare_many(team, jobs=2, start_method="fork", budget=Budget(max_nodes=total))
        with pytest.raises(BudgetExceededError):
            compare_many(
                team, jobs=2, start_method="fork", budget=Budget(max_nodes=total - 1)
            )

    def test_needs_two_firewalls(self):
        with pytest.raises(SchemaError):
            compare_many([make_firewall(40)], jobs=1)


# ----------------------------------------------------------------------
# Exception transport (pickling through Pool result queues)
# ----------------------------------------------------------------------


#: Every picklable guard/transport exception, with all attributes set.
_PICKLABLE_ERRORS = [
    BudgetExceededError(
        "node budget exceeded: 11 > 10",
        resource="fdd-nodes",
        spent=11,
        limit=10,
        progress={"nodes_expanded": 11},
    ),
    CancelledError(site="fast.rule"),
    FaultInjectedError("fast.product"),
    NotComprehensiveError("no rule matches", witness=(1, 2, 3)),
    ParseError("bad token", line=7),
    SupervisionError(
        "shard 3 failed after 2 attempt(s): worker-crash",
        shard=3,
        reason="worker-crash",
        attempts=2,
    ),
]

#: Attributes the round trip must preserve (whichever exist per error).
_PRESERVED_ATTRS = (
    "resource",
    "spent",
    "limit",
    "progress",
    "site",
    "witness",
    "line",
    "shard",
    "reason",
    "attempts",
)


def _round_trip_error(error):
    """Worker target: re-pickle the exception in a child process."""
    return pickle.loads(pickle.dumps(error))


def _raise_error(error):
    """Worker target: raise the exception (Pool pickles it back)."""
    raise error


def _assert_clone(clone, error) -> None:
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    for attr in _PRESERVED_ATTRS:
        if hasattr(error, attr):
            assert getattr(clone, attr) == getattr(error, attr)


class TestExceptionPickling:
    @pytest.mark.parametrize("error", _PICKLABLE_ERRORS)
    def test_round_trip_preserves_attributes(self, error):
        _assert_clone(pickle.loads(pickle.dumps(error)), error)

    def test_spawn_worker_round_trip_preserves_attributes(self):
        # Fork inherits the parent's memory, so only spawn proves the
        # reduce hooks rebuild these errors in a fresh interpreter —
        # both as return values and raised through the result queue.
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        with ctx.Pool(1) as pool:
            for error in _PICKLABLE_ERRORS:
                _assert_clone(pool.apply(_round_trip_error, (error,)), error)
                with pytest.raises(type(error)) as excinfo:
                    pool.apply(_raise_error, (error,))
                _assert_clone(excinfo.value, error)
