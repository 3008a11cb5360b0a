"""The ``audit`` workload: fleet audits with a fresh on-disk cache.

A seeded fleet of :data:`FLEET_POLICIES` small native policies is
audited against one baseline with the default checkset (lint,
simplify, compare, impact), ``jobs`` pool workers and a fresh
``ResultCache`` per cycle.  A cycle is a cold pass, then a seeded
quarter of the policies is edited (``perturb``) and a second pass mixes
cache reads with recomputation and cache writes.

Policies stay small because simplification is super-linear in the
number of decision paths of a policy's diagram: a few hundred ms at ten
rules, seconds at two dozen.  Each fleet policy is drawn at a fixed
path-count band for the same reason the compare pairs are drawn at a
fixed node band (see ``common.draw_in_band``).

Checks: every result is ``ok``; a policy's fingerprint and its
simplified policy's fingerprint equal ``semantic_fingerprint`` of the
input; the compare stage's disputed volume equals the BDD baseline's;
in the second pass unchanged policies give the cold pass's stage
results, and only edited policies construct diagrams.
"""

from __future__ import annotations

import random
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from common import (
    MAX_DRAWS,
    HostSpeed,
    Tracer,
    balanced_mean,
    interval_boundaries,
    machine_record,
    mean_or_zero,
    latency_metrics,
    median_setup,
    pool_jobs,
    time_fresh_import,
)

import repro.analysis.impact as impact_mod
import repro.audit.pipeline as pipeline_mod
import repro.lint as lint_mod
import repro.simplify as simplify_mod
from repro.analysis.effective import effective_rules
from repro.audit import ResultCache, load_manifest
from repro.audit.checkset import resolve_checkset
from repro.bdd.compare import compare_with_bdd
from repro.fdd.canonical import semantic_fingerprint
from repro.fdd.store import NodeStore
from repro.policy import dumps
from repro.synth import SyntheticFirewallGenerator, perturb

#: One policy's stages cost up to 2x another's within the path band, so
#: the fleet is large enough for a pass to average over that.
FLEET_POLICIES = 24
RULES = 10
#: Decision-path band of each fleet policy's diagram, edited versions
#: included.
PATH_BAND = (24, 32)
EDIT_FRACTION = 0.25
#: Seeded permutations of the fleet, each split into four quarters; the
#: cycles edit the quarters in turn, so every policy is edited equally
#: often and the second pass does not hinge on which policies one draw
#: picked.  One permutation keeps a run's cycles (five or more) covering
#: every quarter.
EDIT_ROUNDS = 1
#: Host-speed probes before each pass (see ``common.HostSpeed``).  The
#: workers run on every core, and the cores' speeds differ from moment
#: to moment (one can run at half the other's), so a single probe per
#: pass, on whichever core the parent has, gives a noisy estimate.
PROBES_PER_PASS = 4
#: Cycles replayed traced before the serial per-stage calls.
TRACED_CYCLES = 1


def path_count(root) -> int:
    memo: dict[int, int] = {}

    def count(node) -> int:
        edges = getattr(node, "edges", None)
        if edges is None:
            return 1
        found = memo.get(id(node))
        if found is None:
            found = sum(count(edge.target) for edge in edges)
            memo[id(node)] = found
        return found

    return count(root)


def in_band(firewall) -> bool:
    paths = path_count(NodeStore().construct(firewall).root)
    return PATH_BAND[0] <= paths <= PATH_BAND[1]


def draw_policy(rng: random.Random, name: str):
    """A ``RULES``-rule policy whose diagram's path count is in band."""
    for _ in range(MAX_DRAWS):
        firewall = SyntheticFirewallGenerator(seed=rng.randrange(1 << 30)).generate(RULES, name=name)
        if in_band(firewall):
            return firewall
    raise RuntimeError(f"no {RULES}-rule policy in the path band in {MAX_DRAWS} draws")


def draw_edit(rng: random.Random, firewall):
    """A ``perturb`` edit of ``firewall`` whose path count is in band."""
    for _ in range(MAX_DRAWS):
        edited, _record = perturb(firewall, EDIT_FRACTION, seed=rng.randrange(1 << 30))
        if in_band(edited):
            return edited.with_name(firewall.name)
    raise RuntimeError(f"no edit of {firewall.name} in the path band in {MAX_DRAWS} draws")


class AuditWorkload:
    def __init__(self, seed: int, work: str, speed: HostSpeed):
        self.speed = speed
        rng = random.Random(seed)
        self.work = Path(work)
        self.fleet_dir = self.work / "fleet"
        self.fleet_dir.mkdir(parents=True)
        self.baseline = SyntheticFirewallGenerator(seed=rng.randrange(1 << 30)).generate(
            RULES, name="baseline"
        )
        self.baseline_path = self.work / "baseline.fw"
        self.baseline_path.write_text(dumps(self.baseline, "standard"))
        self.names = [f"tenant-{index % 2}/policy-{index:02d}.fw" for index in range(FLEET_POLICIES)]
        self.policies = {name: draw_policy(rng, name) for name in self.names}
        for name in self.names:
            (self.fleet_dir / name).parent.mkdir(exist_ok=True)
        self.texts = {name: dumps(fw, "standard") for name, fw in self.policies.items()}
        self._write_fleet({})
        self.refs = {name: self._reference(fw) for name, fw in self.policies.items()}
        #: Edit sets: name -> (text, reference) for a quarter of the fleet.
        self.edit_sets = []
        quarter = FLEET_POLICIES // 4
        for _ in range(EDIT_ROUNDS):
            order = rng.sample(self.names, FLEET_POLICIES)
            for start in range(0, FLEET_POLICIES, quarter):
                edits = {}
                for name in order[start:start + quarter]:
                    edited = draw_edit(rng, self.policies[name])
                    edits[name] = (dumps(edited, "standard"), self._reference(edited))
                self.edit_sets.append(edits)
        self.jobs = pool_jobs()
        self.cold_ms: list[float] = []
        self.second_ms: list[tuple[int, float]] = []  # (edit set, ms)
        self.reports: list = []
        self.passes = 0
        #: Serial per-policy stage runs of the traced run.
        self.serial_ops = 0
        self.serial_failed = 0
        self.cycle_stats: list[dict] = []
        self.setup_detail: dict = {}

    def _reference(self, firewall) -> tuple[str, int]:
        """(semantic fingerprint, BDD disputed volume against baseline)."""
        disputed = compare_with_bdd(self.baseline, firewall, cube_limit=1).disputed_packets
        return semantic_fingerprint(firewall), disputed

    # ------------------------------------------------------------------
    def setup(self, root: str) -> float:
        import_s = time_fresh_import(
            root, ["repro", "repro.audit", "repro.parallel"], self.speed
        )
        from repro.parallel import get_pool, shutdown_pools

        warm_dir = self.work / "warm"
        warm_dir.mkdir()
        for index, name in enumerate(self.names[:2]):
            (warm_dir / f"warm-{index}.fw").write_text(self.texts[name])
        warm_manifest = load_manifest(warm_dir)

        def start_pool():
            # Start the workers and round-trip a two-policy audit (one
            # policy would run in-process) through them.
            shutdown_pools()
            get_pool().ensure(self.jobs)
            cache_dir = self.work / "warm-cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            pipeline_mod.audit_fleet(
                warm_manifest, checkset=resolve_checkset("lint"), cache=ResultCache(cache_dir), jobs=self.jobs
            )

        def load():
            return load_manifest(self.fleet_dir, baseline=str(self.baseline_path))

        pool_s, _ = median_setup(start_pool, self.speed)
        manifest_s, self.manifest = median_setup(load, self.speed)
        self.setup_detail.update(import_s=import_s, pool_start_s=pool_s, manifest_s=manifest_s)
        return import_s + pool_s + manifest_s

    def close(self) -> None:
        from repro.parallel import shutdown_pools

        shutdown_pools()

    def _write_fleet(self, edits: dict) -> None:
        for name in self.names:
            text = edits[name][0] if name in edits else self.texts[name]
            (self.fleet_dir / name).write_text(text)

    # ------------------------------------------------------------------
    def run(self, seconds: float, *, tracer: Tracer | None = None, max_ops: int | None = None):
        """Run cycles from cycle 0; returns the phase's cold-pass ms."""
        cold_phase: list[float] = []
        started = time.perf_counter()
        cycle = 0
        while time.perf_counter() - started < seconds and (max_ops is None or cycle < max_ops):
            edits = self.edit_sets[cycle % len(self.edit_sets)]
            cache_dir = self.work / "cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            self._write_fleet({})
            try:
                cold, cold_ms, cold_cache = self._pass(cache_dir, tracer, 2 * cycle)
                self._write_fleet(edits)
                second, second_ms, second_cache = self._pass(cache_dir, tracer, 2 * cycle + 1)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.reports.append(None)
                self.passes += 2
                cycle += 1
                continue
            self.passes += 2
            cold_phase.append(cold_ms)
            self.cold_ms.append(cold_ms)
            self.second_ms.append((cycle % len(self.edit_sets), second_ms))
            self.reports.append((cold, second, edits))
            self.cycle_stats.append(
                {
                    "cold": cold.stats.to_dict(),
                    "second": second.stats.to_dict(),
                    "cache": {
                        key: cold_cache[key] + second_cache[key]
                        for key in ("hits", "misses", "stores")
                    },
                }
            )
            cycle += 1
        self._write_fleet({})
        return cold_phase

    def _pass(self, cache_dir: Path, tracer: Tracer | None, op: int):
        cache = ResultCache(cache_dir)
        for _ in range(PROBES_PER_PASS):
            self.speed.probe()
        t0 = time.perf_counter()
        if tracer is None:
            report = pipeline_mod.audit_fleet(self.manifest, cache=cache, jobs=self.jobs)
        else:
            with tracer.operation(op):
                report = pipeline_mod.audit_fleet(self.manifest, cache=cache, jobs=self.jobs)
        ms = (time.perf_counter() - t0) * 1e3
        return report, ms, cache.stats()

    # ------------------------------------------------------------------
    def check(self) -> int:
        """Failed passes: raised, or any check below broken."""
        failed = self.serial_failed
        for entry in self.reports:
            if entry is None:
                failed += 2
                continue
            cold, second, edits = entry
            failed += not self._pass_correct(cold, {})
            failed += not (
                self._pass_correct(second, edits) and self._second_consistent(cold, second, edits)
            )
        return failed

    def _pass_correct(self, report, edits: dict) -> bool:
        if report.stats.errors or len(report.results) != FLEET_POLICIES:
            return False
        for result in report.results:
            fingerprint, disputed = edits[result.name][1] if result.name in edits else self.refs[result.name]
            simplified = result.stages.get("simplify", {})
            compare = result.stages.get("compare", {})
            if (
                result.status != "ok"
                or result.fingerprint != fingerprint
                or simplified.get("fingerprint") != fingerprint
                or simplified.get("rules_after", RULES + 1) > simplified.get("rules_before", 0)
                or compare.get("disputed_packets") != disputed
                or "lint" not in result.stages
                or "impact" not in result.stages
            ):
                return False
        return True

    def _second_consistent(self, cold, second, edits: dict) -> bool:
        before = {result.name: result.stages for result in cold.results}
        for result in second.results:
            if result.name not in edits and result.stages != before[result.name]:
                return False
        edited = len(edits)
        stats = second.stats
        return (
            stats.computed == edited
            and stats.fully_cached == FLEET_POLICIES - edited
            and edited <= stats.fdd_constructions <= 2 * edited
        )

    def attempted(self) -> int:
        return self.passes + self.serial_ops

    def ops_in(self, cold_phase) -> int:
        return TRACED_CYCLES

    def primary_mean(self, cold_phase) -> float:
        return statistics.fmean(cold_phase)

    def metrics(self):
        second = [ms for _, ms in self.second_ms]
        metrics, notes = latency_metrics(self.cold_ms, second)
        notes["secondary_ms.pass_mean"] = metrics["secondary_ms.mean"][0]
        # Every edit set weighs the same (see balanced_mean).
        metrics["secondary_ms.mean"] = (balanced_mean(self.second_ms), "ms")
        cycle_s = (metrics["latency_ms.mean"][0] + metrics["secondary_ms.mean"][0]) / 1e3
        metrics["throughput_per_s"] = (2 * FLEET_POLICIES / cycle_s, "1/s")
        notes.update(
            primary="cold audit pass over the fleet (fresh cache)",
            secondary="second pass after editing a quarter of the fleet",
            throughput="policies audited per second over a cold and a second pass",
            fleet={"policies": FLEET_POLICIES, "rules": RULES, "jobs": self.jobs},
        )
        return metrics, notes

    def inputs(self, *, full: bool) -> dict:
        """Complexity of the fleet (sums over its policies)."""
        firewalls = list(self.policies.values())
        out = {
            "inputs.rules": float(sum(len(fw) for fw in firewalls)),
            "inputs.boundaries": float(sum(interval_boundaries([fw]) for fw in firewalls)),
        }
        if full:
            nodes = 0
            for fw in firewalls:
                store = NodeStore()
                store.construct(fw)
                nodes += store.stats()["internals"]
            out["inputs.fdd_nodes"] = float(nodes)
            out["inputs.live_rules"] = float(
                sum(len(fw) - len(effective_rules(fw).dead_indices()) for fw in firewalls)
            )
        return out

    def machine(self) -> dict:
        return machine_record(self.jobs)

    # ------------------------------------------------------------------
    def trace_patches(self, tracer: Tracer) -> list:
        return [
            tracer.traced(pipeline_mod, "audit_fleet", "audit.audit_fleet"),
            tracer.traced(lint_mod, "run_lint", "lint.run_lint"),
            tracer.traced(simplify_mod, "simplify_firewall", "simplify.simplify_firewall"),
            tracer.traced(simplify_mod, "remove_redundant_rules", "simplify.remove_redundant_rules"),
            tracer.traced(simplify_mod, "generate_firewall", "simplify.generate_firewall"),
            tracer.traced(impact_mod, "analyze_change", "analysis.analyze_change"),
            tracer.traced_construct(NodeStore),
        ]

    def layer_metrics(self, tracer: Tracer) -> dict:
        """Pool passes give the audit counters; the stages themselves run
        in workers, so each policy's stages are then called here,
        serially, under the same spans."""
        cycles = self.cycle_stats[-TRACED_CYCLES:]
        out = {
            "audit.fdd_constructions": mean_or_zero(c["cold"]["fdd_constructions"] + c["second"]["fdd_constructions"] for c in cycles),
            "audit.computed": mean_or_zero(c["cold"]["computed"] + c["second"]["computed"] for c in cycles),
            "audit.fully_cached": mean_or_zero(c["cold"]["fully_cached"] + c["second"]["fully_cached"] for c in cycles),
            "audit.cache_hits": mean_or_zero(c["cache"]["hits"] for c in cycles),
            "audit.cache_misses": mean_or_zero(c["cache"]["misses"] for c in cycles),
            "audit.cache_stores": mean_or_zero(c["cache"]["stores"] for c in cycles),
        }
        findings = []
        removed = []
        first_op = 2 * TRACED_CYCLES
        with tracer.patch(self.trace_patches(tracer)):
            for offset, name in enumerate(self.names):
                firewall = self.policies[name]
                with tracer.operation(first_op + offset):
                    store = NodeStore()
                    store.construct(firewall)
                    report = lint_mod.run_lint(firewall)
                    result = simplify_mod.simplify_firewall(firewall)
                    impact_mod.analyze_change(self.baseline, firewall)
                self.serial_ops += 1
                if semantic_fingerprint(result.firewall) != self.refs[name][0]:
                    self.serial_failed += 1
                findings.append(len(report.diagnostics))
                removed.append(result.rules_before - result.rules_after)
        store = tracer.store_totals()
        out.update(
            {
                "lint.run_ms": tracer.per_op("lint.run_lint"),
                "lint.findings": mean_or_zero(findings),
                "simplify.run_ms": tracer.per_op("simplify.simplify_firewall"),
                "simplify.redundancy_ms": tracer.per_op("simplify.remove_redundant_rules"),
                "simplify.generate_ms": tracer.per_op("simplify.generate_firewall"),
                "simplify.rules_removed": mean_or_zero(removed),
                "analysis.impact_ms": tracer.per_op("analysis.analyze_change"),
                "fdd.store.construct_ms": tracer.per_op("fdd.store.construct"),
            }
        )
        for key in ("nodes_created", "edges_created", "interned_sets", "append_memo", "op_memo"):
            out[f"fdd.store.{key}"] = store.get(key, 0.0)
        return out

