"""The ``serve`` workload: packet lookups against a loaded policy set.

A :class:`~repro.serve.PolicyServer` at its default capacity of eight
holds six policies, three 150-rule ones from the default mix and three
100-rule ones from the dense mix, each drawn at a fixed diagram size
(``common.draw_in_band``).
One client sends requests in a closed loop, in rounds.  A round holds
:data:`SINGLES_PER_ROUND` single-packet ``classify`` calls,
:data:`BATCHES_PER_ROUND` ``classify_batch`` calls of
:data:`BATCH_PACKETS` packets (above ``KERNEL_MIN_BATCH``, so they take
the numpy kernel), and one reload, in a seeded order.  Policies are
picked with Zipf-skewed popularity, whose ranking is re-drawn every
round (the hot policy changes over time, and a run's lookups average
over the whole set); a reload loads the next edited
version (1% perturbed, three versions per policy, cycled) of a policy
under the same name, in round-robin order.

Construction stays out of every lookup and appears only in set-up and
reloads, so this workload bypasses what ``compare`` exercises.  Every
decision is checked against first-match ``Firewall.evaluate`` on the
policy version live at that moment, precomputed per version over each
policy's packet pool before anything is timed.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import traceback
from array import array

from common import (
    NODE_BAND,
    HostSpeed,
    Tracer,
    balanced_mean,
    draw_in_band,
    internal_nodes,
    interval_boundaries,
    machine_record,
    latency_metrics,
    median_setup,
    time_fresh_import,
)

import repro.classify.kernels as kernels_mod
import repro.serve.server as server_mod
from repro.analysis.effective import effective_rules
from repro.classify import CompiledMatcher
from repro.fdd.store import NodeStore
from repro.serve import PolicyServer
from repro.synth import (
    BoundaryTraceGenerator,
    GeneratorConfig,
    SyntheticFirewallGenerator,
    perturb,
)

#: (address pool size or None for the default mix, rules) per policy.
POLICIES = ((None, 150),) * 3 + ((64, 100),) * 3
VERSIONS = 3
EDIT_FRACTION = 0.01
POOL_PACKETS = 512
BATCH_PACKETS = 2048
SINGLES_PER_ROUND = 30_000
BATCHES_PER_ROUND = 30
ZIPF_S = 1.1
#: Requests between two checks whether the host's speed is due a probe.
PROBE_CHECK_EVERY = 1024
#: Rounds replayed traced: each traced lookup records three spans.
TRACED_ROUNDS = 3

#: Single-lookup latencies held per phase (see :class:`LookupSamples`).
KEPT_SAMPLES = 1 << 17

SINGLE, BATCH, RELOAD = 0, 1, 2


class LookupSamples:
    """Single-lookup latencies of one phase.

    Keeps the exact count and sum, and every ``stride``-th value, halved
    whenever :data:`KEPT_SAMPLES` are held: memory must not grow with
    the number of requests a fast host completes, since peak RSS is a
    metric.  The kept values are an evenly spaced sample for the tail.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.stride = 1
        self.kept = array("q")

    def add(self, ns: int) -> None:
        self.count += 1
        self.total_ns += ns
        if self.count % self.stride == 0:
            self.kept.append(ns)
            if len(self.kept) >= KEPT_SAMPLES:
                self.kept = self.kept[1::2]
                self.stride *= 2



class ServeWorkload:
    def __init__(self, seed: int, speed: HostSpeed):
        self.speed = speed
        rng = random.Random(seed)
        self.names = [f"policy-{index}" for index in range(len(POLICIES))]
        #: versions[p][v]: the policy text's source, already edited.
        self.versions = []
        self.pools = []
        #: refs[p][v][i]: first-match decision of pool packet i.
        self.refs = []
        self.nodes = []
        for pool_size, rules in POLICIES:
            config = GeneratorConfig(network_pool_size=pool_size) if pool_size else None

            def make(seed: int):
                return SyntheticFirewallGenerator(config, seed=seed).generate(rules)

            drawn = draw_in_band(make, NODE_BAND, rng)
            if drawn is None:
                raise RuntimeError(f"no {rules}-rule policy in the node band")
            base, fdd = drawn
            self.nodes.append(internal_nodes(fdd))
            chain = [base]
            for _ in range(VERSIONS - 1):
                edited, _record = perturb(chain[-1], EDIT_FRACTION, seed=rng.randrange(1 << 30))
                chain.append(edited)
            pool = [
                tuple(packet)
                for packet in BoundaryTraceGenerator(base, seed=rng.randrange(1 << 30)).packets(
                    POOL_PACKETS
                )
            ]
            self.versions.append(chain)
            self.pools.append(pool)
            self.refs.append([[fw.evaluate(packet) for packet in pool] for fw in chain])
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(POLICIES))]
        self.popularity = [weight / sum(weights) for weight in weights]
        self.batch_orders = [
            [rng.randrange(POOL_PACKETS) for _ in range(BATCH_PACKETS)] for _ in range(4)
        ]
        self.batches = [
            [[pool[i] for i in order] for order in self.batch_orders] for pool in self.pools
        ]
        self.round_seed = rng.randrange(1 << 30)
        self.server: PolicyServer | None = None
        self.live = [0] * len(POLICIES)
        self.reloads = 0
        self.lookup_phases: list[LookupSamples] = []
        self.reload_ms: list[tuple[int, float]] = []  # (policy, ms)
        self.bulk_ns = 0
        self.bulk_packets = 0
        self.requests = 0
        self.failed = 0
        self.setup_detail: dict = {}

    # ------------------------------------------------------------------
    def setup(self, root: str) -> float:
        import_s = time_fresh_import(
            root, ["repro", "repro.serve", "repro.classify.kernels"], self.speed
        )
        load_s, self.server = median_setup(self._load_all, self.speed)
        self.setup_detail.update(import_s=import_s, load_s=load_s)
        return import_s + load_s

    def _load_all(self) -> PolicyServer:
        server = PolicyServer()
        for name, chain in zip(self.names, self.versions):
            server.load(chain[0], name=name)
            server.matcher(name).batch_kernel()
        self.live = [0] * len(POLICIES)
        self.reloads = 0
        return server

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def schedule(self, round_index: int) -> list[tuple[int, int, int]]:
        """One round's requests: ``(kind, policy, argument)``."""
        rng = random.Random(self.round_seed + round_index)
        count = len(POLICIES)
        ranking = list(range(count))
        rng.shuffle(ranking)
        policies = rng.choices(ranking, weights=self.popularity, k=SINGLES_PER_ROUND)
        packets = rng.choices(range(POOL_PACKETS), k=SINGLES_PER_ROUND)
        requests = [(SINGLE, p, i) for p, i in zip(policies, packets)]
        for _ in range(BATCHES_PER_ROUND):
            policy = rng.choices(ranking, weights=self.popularity)[0]
            requests.insert(
                rng.randrange(len(requests) + 1),
                (BATCH, policy, rng.randrange(len(self.batch_orders))),
            )
        requests.insert(rng.randrange(len(requests) + 1), (RELOAD, -1, 0))
        return requests

    def run(self, seconds: float, *, tracer: Tracer | None = None, max_ops: int | None = None):
        """Run rounds from round 0; returns the phase's lookup samples."""
        server = self.server
        names = self.names
        pools = self.pools
        perf_ns = time.perf_counter_ns
        lookups = LookupSamples()
        self.phase_batch_packets = 0
        started = time.perf_counter()
        round_index = 0
        while time.perf_counter() - started < seconds and (max_ops is None or round_index < max_ops):
            for kind, policy, arg in self.schedule(round_index):
                self.requests += 1
                if not self.requests % PROBE_CHECK_EVERY:
                    self.speed.tick()
                try:
                    if tracer is not None:
                        with tracer.operation(self.requests):
                            self._request(server, kind, policy, arg, lookups)
                    elif kind == SINGLE:
                        refs = self.refs[policy][self.live[policy]]
                        t0 = perf_ns()
                        decision = server.classify(names[policy], pools[policy][arg])
                        lookups.add(perf_ns() - t0)
                        if decision != refs[arg]:
                            self.failed += 1
                    else:
                        self._request(server, kind, policy, arg, lookups)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    self.failed += 1
            round_index += 1
        self.lookup_phases.append(lookups)
        return lookups

    def _request(self, server, kind, policy, arg, lookups) -> None:
        perf_ns = time.perf_counter_ns
        if kind == SINGLE:
            t0 = perf_ns()
            decision = server.classify(self.names[policy], self.pools[policy][arg])
            lookups.add(perf_ns() - t0)
            if decision != self.refs[policy][self.live[policy]][arg]:
                self.failed += 1
        elif kind == BATCH:
            packets = self.batches[policy][arg]
            t0 = perf_ns()
            decisions = server.classify_batch(self.names[policy], packets)
            self.bulk_ns += perf_ns() - t0
            self.bulk_packets += len(packets)
            self.phase_batch_packets += len(packets)
            refs = self.refs[policy][self.live[policy]]
            if decisions != [refs[i] for i in self.batch_orders[arg]]:
                self.failed += 1
        else:
            policy = self.reloads % len(POLICIES)
            version = (self.live[policy] + 1) % VERSIONS
            name = self.names[policy]
            t0 = perf_ns()
            server.load(self.versions[policy][version], name=name)
            server.matcher(name).batch_kernel()
            self.reload_ms.append((policy, (perf_ns() - t0) / 1e6))
            self.live[policy] = version
            self.reloads += 1

    # ------------------------------------------------------------------
    def check(self) -> int:
        return self.failed

    def attempted(self) -> int:
        return self.requests

    def ops_in(self, lookups) -> int:
        return TRACED_ROUNDS

    def primary_mean(self, lookups: LookupSamples) -> float:
        return lookups.total_ns / lookups.count / 1e6

    def metrics(self):
        kept_ms = [ns / 1e6 for phase in self.lookup_phases for ns in phase.kept]
        metrics, notes = latency_metrics(kept_ms, [ms for _, ms in self.reload_ms])
        notes["secondary_ms.reload_mean"] = metrics["secondary_ms.mean"][0]
        # Every policy's reloads weigh the same (see balanced_mean).
        metrics["secondary_ms.mean"] = (balanced_mean(self.reload_ms), "ms")
        count = sum(phase.count for phase in self.lookup_phases)
        total_ns = sum(phase.total_ns for phase in self.lookup_phases)
        metrics["latency_ms.mean"] = (total_ns / count / 1e6, "ms")
        notes.update(samples=count, tail_samples_kept=len(kept_ms))
        metrics["throughput_per_s"] = (self.bulk_packets / (self.bulk_ns / 1e9), "1/s")
        notes.update(
            primary="single-packet classify request",
            secondary="reload: load an edited version and build its batch kernel",
            throughput="packets per second of classify_batch time",
            batch_packets=self.bulk_packets,
            server=self.server.stats() if self.server is not None else None,
        )
        return metrics, notes

    def inputs(self, *, full: bool) -> dict:
        """Complexity of the initially loaded policy set (sums)."""
        firewalls = [chain[0] for chain in self.versions]
        out = {
            "inputs.rules": float(sum(len(fw) for fw in firewalls)),
            "inputs.boundaries": float(sum(interval_boundaries([fw]) for fw in firewalls)),
            "inputs.fdd_nodes": float(sum(self.nodes)),
        }
        if full:
            out["inputs.live_rules"] = float(
                sum(len(fw) - len(effective_rules(fw).dead_indices()) for fw in firewalls)
            )
        return out

    def machine(self) -> dict:
        return machine_record(None)

    # ------------------------------------------------------------------
    def trace_patches(self, tracer: Tracer) -> list:
        self._stats_before = dict(self.server.stats())
        return [
            tracer.traced(PolicyServer, "classify", "serve.classify"),
            tracer.traced(PolicyServer, "classify_batch", "serve.classify_batch"),
            tracer.traced(PolicyServer, "load", "serve.load"),
            tracer.traced(CompiledMatcher, "classify", "classify.classify"),
            tracer.traced(CompiledMatcher, "classify_batch", "classify.classify_batch"),
            tracer.traced(kernels_mod, "build_batch_kernel", "classify.build_batch_kernel"),
            tracer.traced(server_mod, "compile_fdd", "classify.compile_fdd"),
            tracer.traced(server_mod, "fingerprint_canonical", "fdd.canonical.fingerprint_canonical"),
            tracer.traced_construct(NodeStore),
        ]

    def layer_metrics(self, tracer: Tracer) -> dict:
        after = self.server.stats()
        out = {
            f"serve.{key}": float(after[key] - self._stats_before[key])
            for key in ("hits", "misses", "evictions", "compiles")
        }
        scalar_ns, _calls = tracer.per_call_ns("classify.classify")
        batch_ns, batch_calls = tracer.per_call_ns("classify.classify_batch")
        packets = self.phase_batch_packets
        out.update(
            {
                "classify.scalar_ns_per_packet": scalar_ns,
                "classify.batch_ns_per_packet": batch_ns * batch_calls / packets if packets else 0.0,
                "classify.compile_ms": tracer.per_op("classify.compile_fdd"),
                "classify.kernel_build_ms": tracer.per_op("classify.build_batch_kernel"),
                "fdd.canonical.fingerprint_ms": tracer.per_op("fdd.canonical.fingerprint_canonical"),
                "fdd.store.construct_ms": tracer.per_op("fdd.store.construct"),
            }
        )
        store = tracer.store_totals()
        for key in ("nodes_created", "edges_created", "interned_sets", "append_memo", "op_memo"):
            out[f"fdd.store.{key}"] = store.get(key, 0.0)
        live = [self.server.matcher(name).stats() for name in self.names]
        out["classify.segments"] = statistics.mean(stats["segments"] for stats in live)
        out["classify.size_bytes"] = statistics.mean(stats["size_bytes"] for stats in live)
        return out
