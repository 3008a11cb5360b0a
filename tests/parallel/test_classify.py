"""Parallel classification: artifact shipping and in-order merging."""

import pickle

import pytest

from repro.classify import compile_firewall
from repro.fields import PacketSampler
from repro.parallel import classify_parallel
from repro.synth import SyntheticFirewallGenerator


@pytest.fixture(scope="module")
def setup():
    firewall = SyntheticFirewallGenerator(seed=11).generate(40)
    matcher = compile_firewall(firewall)
    packets = PacketSampler(firewall.schema, seed=11).uniform_many(203)
    return matcher, packets, matcher.classify_batch(packets)


class TestInline:
    """Chunking and in-order merging.  A single chunk (``jobs=1``, or a
    batch too small to split) classifies in-process; more chunks go
    through the pool."""

    def test_matches_serial_batch(self, setup):
        matcher, packets, expected = setup
        assert classify_parallel(matcher, packets, jobs=1) == expected

    def test_uneven_chunking_preserves_order(self, setup):
        matcher, packets, expected = setup
        # 203 packets across 4 jobs: chunks of 51/51/51/50.
        assert classify_parallel(matcher, packets, jobs=4) == expected

    def test_more_jobs_than_packets(self, setup):
        matcher, packets, expected = setup
        few = packets[:3]
        assert classify_parallel(matcher, few, jobs=8) == expected[:3]

    def test_empty_batch(self, setup):
        matcher, _, _ = setup
        assert classify_parallel(matcher, [], jobs=4) == []

    def test_iterable_input(self, setup):
        matcher, packets, expected = setup
        assert (
            classify_parallel(matcher, iter(packets), jobs=1)
            == expected
        )


class TestPool:
    def test_worker_processes_match_serial(self, setup):
        matcher, packets, expected = setup
        assert classify_parallel(matcher, packets, jobs=2) == expected

    def test_artifact_round_trips_to_workers(self, setup):
        # The worker-side contract: what ships is the pickled artifact.
        matcher, packets, expected = setup
        clone = pickle.loads(pickle.dumps(matcher))
        assert classify_parallel(clone, packets, jobs=2) == expected
