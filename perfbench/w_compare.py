"""The ``compare`` and ``compare-jobs`` workloads: policy text in, table out.

Each op takes one policy pair as dump text in one of the four dialects
and runs the store path that ``repro impact`` and ``analyze_change``
take: parse, lower, construct both diagrams in one fresh store, product
walk, model count, enumerate, aggregate, render.  ``compare-jobs`` runs
the same pairs through ``compare_parallel`` on a pool started during
set-up.

Pair kinds (:data:`PAIRS_PER_KIND` seeded pairs of each, rotated over
the dialects); every policy is drawn at the same diagram size
(``common.NODE_BAND``), and every pair but the edit at the same
difference size (``common.CELL_BAND``):

* ``independent`` — two independently generated policies over one
  address universe, as ``generate_firewall_pair`` makes them (Fig. 13),
  at n = 100 and 150.  The default rule mix saturates: past ~100 rules
  most appended rules are dead and the diagram barely grows, so the
  extra rules cost appends, not nodes.
* ``dense`` — a 64-network address pool at n = 80 and 100: the same
  diagram size from fewer, more specific rules, bound by label algebra.
* ``edit`` — ``perturb`` at x = 2% of a 150-rule policy (Fig. 12,
  change impact).

Every answer is checked against the BDD baseline (computed once per pair
before any timing) and by first-match evaluation of each region's
lowest-corner packet.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import traceback

from common import (
    CELL_BAND,
    MAX_DRAWS,
    HostSpeed,
    NODE_BAND,
    Tracer,
    balanced_mean,
    draw_in_band,
    internal_nodes,
    interval_boundaries,
    machine_record,
    mean_or_zero,
    latency_metrics,
    median_setup,
    pool_jobs,
    time_fresh_import,
)

import repro.analysis.aggregate as aggregate_mod
import repro.analysis.discrepancy as discrepancy_mod
import repro.fdd.fast as fast_mod
import repro.policy.frontends as frontends_mod
from repro.analysis.effective import effective_rules
from repro.bdd.compare import compare_with_bdd
from repro.fdd.fast import DifferenceFDD
from repro.fdd.store import NodeStore
from repro.policy.frontends import emit_policy
from repro.policy.ir import IRPolicy
from repro.synth import GeneratorConfig, SyntheticFirewallGenerator, perturb

DIALECTS = ("native", "iptables", "nftables", "cisco")
#: (kind, rules) of the pairs in one cycle; the dense mix uses a larger
#: address pool so far fewer rules go dead.
PAIR_KINDS = (
    ("independent", 100),
    ("dense", 80),
    ("independent", 150),
    ("edit", 150),
    ("dense", 100),
)
DENSE_CONFIG = GeneratorConfig(network_pool_size=64)
EDIT_FRACTION = 0.02
#: Pairs drawn per entry of :data:`PAIR_KINDS`.  Within the bands one
#: pair's op still costs up to 2x another's of the same kind, so a run
#: averages over several per kind to keep its means a property of the
#: kinds, not of which pairs its seed drew.
PAIRS_PER_KIND = 2
#: Draws of a pair's second policy before the pair starts over.
PAIR_DRAWS = 4


def disputed_cells(difference: DifferenceFDD) -> int:
    """How many cells ``difference.discrepancies()`` would enumerate."""
    memo: dict[int, int] = {}

    def count(node) -> int:
        edges = getattr(node, "edges", None)
        if edges is None:
            return int(node[0] != node[1])
        found = memo.get(id(node))
        if found is None:
            found = sum(count(child) for _, child in edges)
            memo[id(node)] = found
        return found

    return count(difference.root)


class ComparePair:
    """One seeded pair: the source policies, their texts per dialect,
    and the reference answers."""

    def __init__(self, kind: str, rules: int, rng: random.Random):
        self.kind = kind
        config = DENSE_CONFIG if kind == "dense" else None
        for _ in range(MAX_DRAWS):
            # Both policies share an address universe, as in
            # ``generate_firewall_pair``; their rule streams are
            # independent.  Some universes never give a difference in the
            # cell band, so a pair whose second policy does not come
            # within a few draws starts over.
            pool_seed = rng.randrange(1 << 30)

            def make(seed: int):
                generator = SyntheticFirewallGenerator(config, seed=seed, pool_seed=pool_seed)
                return generator.generate(rules, name=f"{kind}-{rules}")

            drawn = draw_in_band(make, NODE_BAND, rng)
            if drawn is None:
                continue
            self.fw_a, fdd_a = drawn
            if kind == "edit":
                self.fw_b, _ = perturb(self.fw_a, EDIT_FRACTION, seed=rng.randrange(1 << 30))
                self.nodes = 2 * internal_nodes(fdd_a)
                break

            def cells_in_band(fdd_b) -> bool:
                cells = disputed_cells(fast_mod.build_difference(fdd_a, fdd_b))
                return CELL_BAND[0] <= cells <= CELL_BAND[1]

            drawn = draw_in_band(make, NODE_BAND, rng, accept=cells_in_band, draws=PAIR_DRAWS)
            if drawn is not None:
                self.fw_b, fdd_b = drawn
                self.nodes = internal_nodes(fdd_a) + internal_nodes(fdd_b)
                break
        else:
            raise RuntimeError(f"no {kind} pair in the node and cell bands")
        self.texts = {
            dialect: (emit_policy(self.fw_a, dialect), emit_policy(self.fw_b, dialect))
            for dialect in DIALECTS
        }
        #: The independent oracle: the BDD baseline's disputed count
        #: (both policies only accept or discard, so the BDD's
        #: permit/deny view loses nothing).
        self.disputed = compare_with_bdd(self.fw_a, self.fw_b, cube_limit=1).disputed_packets
        #: corner packet -> (decision a, decision b), filled lazily.
        self.corner_decisions: dict[tuple, tuple] = {}

    def decisions_at(self, packet: tuple) -> tuple:
        found = self.corner_decisions.get(packet)
        if found is None:
            found = (self.fw_a.evaluate(packet), self.fw_b.evaluate(packet))
            self.corner_decisions[packet] = found
        return found


class CompareWorkload:
    """Closed loop, one client: one pair op after another."""

    def __init__(self, seed: int, speed: HostSpeed, *, parallel: bool):
        self.speed = speed
        self.parallel = parallel
        self.jobs = pool_jobs() if parallel else None
        rng = random.Random(seed)
        self.pairs = [
            ComparePair(kind, rules, rng)
            for _ in range(PAIRS_PER_KIND)
            for kind, rules in PAIR_KINDS
        ]
        self.samples: list[tuple[int, float]] = []  # (pair index, ms)
        self.verdict_ms: list[tuple[int, float]] = []  # (pair index, ms)
        #: Per op: (pair index, disputed, cells, regions, table), or None
        #: when the op raised.
        self.outputs: list[tuple | None] = []
        self.loop_s = 0.0
        self.setup_detail: dict = {}

    # ------------------------------------------------------------------
    def setup(self, root: str) -> float:
        modules = ["repro", "repro.policy.frontends", "repro.analysis"]
        if self.parallel:
            modules.append("repro.parallel")
        import_s = time_fresh_import(root, modules, self.speed)
        self.setup_detail["import_s"] = import_s
        if not self.parallel:
            return import_s
        from repro.parallel import shutdown_pools

        def start_pool():
            shutdown_pools()
            self._warm_pool()

        pool_s, _ = median_setup(start_pool, self.speed)
        self.setup_detail["pool_start_s"] = pool_s
        return import_s + pool_s

    def _warm_pool(self) -> None:
        """Start ``jobs`` workers and round-trip a small comparison."""
        from repro.parallel import compare_parallel, get_pool
        from repro.synth import team_a_firewall, team_b_firewall

        get_pool().ensure(self.jobs)
        compare_parallel(team_a_firewall(), team_b_firewall(), jobs=self.jobs)

    def close(self) -> None:
        if self.parallel:
            from repro.parallel import shutdown_pools

            shutdown_pools()

    # ------------------------------------------------------------------
    def op_input(self, op: int) -> tuple[int, str]:
        cycle, index = divmod(op, len(self.pairs))
        return index, DIALECTS[(cycle + index) % len(DIALECTS)]

    def run_op(self, op: int):
        """One pair op; returns its outputs and the time (perf counter)
        the verdict, the disputed-packet count, was known."""
        index, dialect = self.op_input(op)
        text_a, text_b = self.pairs[index].texts[dialect]
        ir_a = frontends_mod.parse_policy(text_a, dialect)
        ir_b = frontends_mod.parse_policy(text_b, dialect)
        fw_a = ir_a.to_firewall()
        fw_b = ir_b.to_firewall()
        if self.parallel:
            from repro.parallel import engine as engine_mod

            result = engine_mod.compare_parallel(
                fw_a, fw_b, jobs=self.jobs, enumerate_discrepancies=True
            )
            disputed = result.disputed_packets
            verdict_at = time.perf_counter()
            cells = list(result.discrepancies)
            extra = (result.phase_ms, len(result.shards), len(result.degradations))
            diff_nodes = result.node_count
        else:
            store = NodeStore()
            fdd_a = store.construct(fw_a)
            fdd_b = store.construct(fw_b)
            difference = fast_mod.build_difference(fdd_a, fdd_b, store=store)
            disputed = difference.disputed_packet_count()
            verdict_at = time.perf_counter()
            cells = difference.discrepancies()
            extra = None
            diff_nodes = difference
        regions = aggregate_mod.aggregate_discrepancies(cells)
        table = discrepancy_mod.format_discrepancy_table(regions)
        return index, disputed, cells, regions, table, extra, diff_nodes, verdict_at

    def run(self, seconds: float, *, tracer: Tracer | None = None, max_ops: int | None = None):
        """Run ops from op 0 until ``seconds`` pass or ``max_ops`` ran;
        returns the phase's ``[(pair index, ms)]``."""
        samples: list[tuple[int, float]] = []
        self.phase_extra: list = []
        self.phase_diff_nodes: list[int] = []
        self.phase_regions: list[int] = []
        started = time.perf_counter()
        op = 0
        while time.perf_counter() - started < seconds and (max_ops is None or op < max_ops):
            self.speed.tick()
            index, _dialect = self.op_input(op)
            try:
                t0 = time.perf_counter()
                if tracer is None:
                    out = self.run_op(op)
                else:
                    with tracer.operation(op):
                        out = self.run_op(op)
                ms = (time.perf_counter() - t0) * 1e3
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.outputs.append(None)
                samples.append((index, float("nan")))
                op += 1
                continue
            index, disputed, cells, regions, table, extra, diff_nodes, verdict_at = out
            self.outputs.append((index, disputed, cells, regions, table))
            samples.append((index, ms))
            self.verdict_ms.append((index, (verdict_at - t0) * 1e3))
            if extra is not None:
                self.phase_extra.append(extra)
            if tracer is not None:
                self.phase_diff_nodes.append(
                    diff_nodes.node_count() if isinstance(diff_nodes, DifferenceFDD) else diff_nodes
                )
                self.phase_regions.append(len(regions))
            op += 1
        self.loop_s += time.perf_counter() - started
        self.samples.extend(samples)
        return samples

    # ------------------------------------------------------------------
    def check(self) -> int:
        """Count wrong or raised ops; every output is re-checked here,
        after the timed loop."""
        failed = 0
        for output in self.outputs:
            if output is None or not self._correct(*output):
                failed += 1
        self.outputs = []
        return failed

    def _correct(self, index, disputed, cells, regions, table) -> bool:
        pair = self.pairs[index]
        if disputed != pair.disputed:
            return False
        if sum(cell.size() for cell in cells) != pair.disputed:
            return False
        if sum(region.size() for region in regions) != pair.disputed:
            return False
        for region in regions:
            corner = tuple(values.min() for values in region.sets)
            if pair.decisions_at(corner) != (region.decision_a, region.decision_b):
                return False
        expected_lines = len(regions) + 2 if regions else 1
        return len(table.splitlines()) == expected_lines

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """End-to-end metrics of every op run so far."""
        completed = [(index, ms) for index, ms in self.samples if ms == ms]
        latencies = [ms for _, ms in completed]
        metrics, notes = latency_metrics(latencies, [ms for _, ms in self.verdict_ms])
        notes["latency_ms.op_mean"] = metrics["latency_ms.mean"][0]
        notes["secondary_ms.op_mean"] = metrics["secondary_ms.mean"][0]
        # Every pair weighs the same in the means (see balanced_mean).
        metrics["latency_ms.mean"] = (balanced_mean(completed), "ms")
        metrics["secondary_ms.mean"] = (balanced_mean(self.verdict_ms), "ms")
        metrics["throughput_per_s"] = (1e3 / metrics["latency_ms.mean"][0], "1/s")
        notes.update(
            primary="pair op (text in, table out)",
            secondary="time to verdict: text in, disputed-packet count known",
            throughput="pairs per second over the pair set (1000 / latency_ms.mean)",
            loop_pairs_per_s=len(latencies) / self.loop_s,
        )
        return metrics, notes

    def attempted(self) -> int:
        return len(self.samples)

    def ops_in(self, samples) -> int:
        return len(samples)

    def primary_mean(self, samples) -> float:
        return statistics.fmean(ms for _, ms in samples if ms == ms)

    def inputs(self, *, full: bool) -> dict:
        """Workload complexity per pair op, averaged over the pair set;
        ``full`` adds the live-rule count, which needs an analysis per
        policy."""
        out = {
            "inputs.rules": mean_or_zero(len(p.fw_a) + len(p.fw_b) for p in self.pairs),
            "inputs.boundaries": mean_or_zero(
                interval_boundaries([p.fw_a, p.fw_b]) for p in self.pairs
            ),
            # Internal nodes of the drawn policies' diagrams (an edited
            # policy is counted as its base).
            "inputs.fdd_nodes": mean_or_zero(p.nodes for p in self.pairs),
        }
        if full:
            out["inputs.live_rules"] = mean_or_zero(
                sum(
                    len(fw) - len(effective_rules(fw).dead_indices())
                    for fw in (pair.fw_a, pair.fw_b)
                )
                for pair in self.pairs
            )
        return out

    def machine(self) -> dict:
        return machine_record(self.jobs)

    # ------------------------------------------------------------------
    def trace_patches(self, tracer: Tracer) -> list:
        from repro.parallel import engine as engine_mod

        return [
            tracer.traced(frontends_mod, "parse_policy", "policy.frontends.parse_policy"),
            tracer.traced(IRPolicy, "to_firewall", "policy.ir.to_firewall"),
            tracer.traced_construct(NodeStore),
            tracer.traced(fast_mod, "build_difference", "fdd.fast.build_difference"),
            tracer.traced(DifferenceFDD, "disputed_packet_count", "fdd.fast.disputed_packet_count"),
            tracer.traced(DifferenceFDD, "discrepancies", "fdd.fast.discrepancies"),
            tracer.traced(aggregate_mod, "aggregate_discrepancies", "analysis.aggregate_discrepancies"),
            tracer.traced(discrepancy_mod, "format_discrepancy_table", "analysis.format_discrepancy_table"),
            tracer.traced(engine_mod, "compare_parallel", "parallel.compare_parallel"),
        ]

    def layer_metrics(self, tracer: Tracer) -> dict:
        store = tracer.store_totals()
        out = {
            "policy.frontends.parse_ms": tracer.per_op("policy.frontends.parse_policy"),
            "policy.ir.lower_ms": tracer.per_op("policy.ir.to_firewall"),
            "fdd.store.construct_ms": tracer.per_op("fdd.store.construct"),
            "fdd.fast.difference_ms": tracer.per_op("fdd.fast.build_difference"),
            "fdd.fast.count_ms": tracer.per_op("fdd.fast.disputed_packet_count"),
            "fdd.fast.enumerate_ms": tracer.per_op("fdd.fast.discrepancies"),
            "fdd.fast.diff_nodes": mean_or_zero(self.phase_diff_nodes),
            "analysis.aggregate_ms": tracer.per_op("analysis.aggregate_discrepancies"),
            "analysis.render_ms": tracer.per_op("analysis.format_discrepancy_table"),
            "analysis.regions": mean_or_zero(self.phase_regions),
        }
        for key in ("nodes_created", "edges_created", "interned_sets", "append_memo", "op_memo"):
            out[f"fdd.store.{key}"] = store.get(key, 0.0)
        if self.parallel:
            out.update(self._parallel_metrics())
        else:
            out.update(self._parallel_phase(len(self.phase_regions)))
        return out

    def _parallel_metrics(self) -> dict:
        phases = [extra[0] for extra in self.phase_extra]
        out = {
            f"parallel.{key}": mean_or_zero(phase.get(key, 0.0) for phase in phases)
            for key in ("construct_wall_ms", "construct_ms_sum", "construct_ms_max", "publish_ms", "shard_wall_ms")
        }
        out["parallel.shards"] = mean_or_zero(extra[1] for extra in self.phase_extra)
        out["parallel.degradations"] = float(sum(extra[2] for extra in self.phase_extra))
        out["parallel.pool_start_ms"] = self.setup_detail["pool_start_s"] * 1e3
        return out

    def _parallel_phase(self, ops: int) -> dict:
        """Replay the traced ops through ``compare_parallel``.

        The traced ``compare`` run measures the parallel engine's layer
        on the same inputs, so its phases read directly against
        ``fdd.store.construct_ms``; its own spans go to a separate
        tracer, leaving the serial per-layer numbers untouched.
        """
        from repro.parallel import shutdown_pools

        self.parallel = True
        self.jobs = pool_jobs()
        try:
            def start_pool():
                shutdown_pools()
                self._warm_pool()

            pool_s, _ = median_setup(start_pool, self.speed)
            self.setup_detail["pool_start_s"] = pool_s
            tracer = Tracer()
            with tracer.patch(self.trace_patches(tracer)):
                self.run(float("inf"), tracer=tracer, max_ops=ops)
            return self._parallel_metrics()
        finally:
            shutdown_pools()
            self.parallel = False

