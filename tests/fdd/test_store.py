"""NodeStore: interning identities, functional append, memoized algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import compare_with_bdd
from repro.fields import toy_schema
from repro.guard import Budget, GuardContext
from repro.intervals import IntervalSet
from repro.policy import ACCEPT, ACCEPT_LOG, DISCARD, Firewall, Predicate, Rule
from repro.fdd import store as store_module
from repro.fdd.canonical import semantic_fingerprint
from repro.fdd.construction import construct_fdd
from repro.fdd.fast import build_difference, construct_fdd_fast
from repro.fdd.reduce import reduce_fdd
from repro.fdd.store import NodeStore

SCHEMA = toy_schema(9, 9)


def make_firewall(rules):
    return Firewall(SCHEMA, rules)


class TestInterning:
    def test_terminals_are_unique_per_decision(self):
        store = NodeStore()
        assert store.terminal(ACCEPT) is store.terminal(ACCEPT)
        assert store.terminal(ACCEPT) is not store.terminal(DISCARD)

    def test_structurally_equal_internals_are_identical(self):
        store = NodeStore()
        leaf = store.terminal(ACCEPT)
        a = store.internal(0, [(IntervalSet.span(0, 4), leaf)])
        b = store.internal(0, [(IntervalSet.span(0, 4), leaf)])
        assert a is b

    def test_parallel_edges_to_one_child_merge(self):
        store = NodeStore()
        leaf = store.terminal(ACCEPT)
        node = store.internal(
            0, [(IntervalSet.span(0, 3), leaf), (IntervalSet.span(4, 9), leaf)]
        )
        assert len(node.edges) == 1
        assert node.edges[0].label == IntervalSet.span(0, 9)

    def test_owns_reports_store_membership(self):
        store = NodeStore()
        other = NodeStore()
        node = store.terminal(ACCEPT)
        assert store.owns(node)
        assert not other.owns(node)

    def test_intern_is_idempotent_and_o1_on_owned_nodes(self):
        store = NodeStore()
        fdd = construct_fdd_fast(
            make_firewall(
                [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
            ),
            store,
        )
        assert store.intern(fdd.root) is fdd.root

    def test_intern_external_tree_merges_isomorphic_subgraphs(self):
        fw = make_firewall(
            [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
        )
        tree = construct_fdd(fw)  # mutable reference tree, no sharing
        store = NodeStore()
        shared = store.intern(tree.root)
        fast = construct_fdd_fast(fw, store)
        assert shared is fast.root  # same store => same canonical node
        # The input tree is untouched.
        assert not store.owns(tree.root)

    def test_allocation_counters_count_real_allocations_only(self):
        store = NodeStore()
        leaf = store.terminal(ACCEPT)
        store.terminal(ACCEPT)  # interning hit
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])  # hit
        assert store.nodes_created == 2
        assert store.edges_created == 1
        stats = store.stats()
        assert stats["terminals"] == 1
        assert stats["internals"] == 1

    def test_store_guard_ticks_on_allocation(self):
        guard = GuardContext(Budget.unlimited())
        store = NodeStore(guard=guard)
        leaf = store.terminal(ACCEPT)
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])
        store.internal(0, [(IntervalSet.span(0, 9), leaf)])  # hit: no tick
        assert guard.progress()["nodes_expanded"] == 2


class TestAppend:
    def test_dead_rule_returns_the_same_root(self):
        store = NodeStore()
        root = store.chain(
            tuple(Rule.build(SCHEMA, ACCEPT).predicate.sets), ACCEPT
        )
        dead = Rule.build(SCHEMA, DISCARD, F1=(2, 4))
        assert store.append(root, dead.predicate.sets, DISCARD) is root

    def test_effective_rule_returns_a_new_root(self):
        store = NodeStore()
        first = Rule.build(SCHEMA, ACCEPT, F1=(0, 3))
        root = store.chain(tuple(first.predicate.sets), ACCEPT)
        second = Rule.build(SCHEMA, DISCARD)
        assert store.append(root, second.predicate.sets, DISCARD) is not root

    def test_append_matches_reference_semantics(self):
        fw = make_firewall(
            [
                Rule.build(SCHEMA, ACCEPT, F1=(0, 3), F2=(1, 5)),
                Rule.build(SCHEMA, DISCARD, F1=(2, 7)),
                Rule.build(SCHEMA, ACCEPT),
            ]
        )
        fast = construct_fdd_fast(fw)
        for p in [(0, 0), (2, 3), (3, 9), (7, 0), (9, 9)]:
            assert fast.evaluate(p) == fw(p)

    def test_append_guard_budget_trips(self):
        from repro.exceptions import BudgetExceededError

        store = NodeStore()
        first = Rule.build(SCHEMA, ACCEPT, F1=(0, 3))
        root = store.chain(tuple(first.predicate.sets), ACCEPT)
        guard = GuardContext(Budget(max_nodes=1))
        with pytest.raises(BudgetExceededError):
            store.append(
                root,
                Rule.build(SCHEMA, DISCARD).predicate.sets,
                DISCARD,
                guard=guard,
            )


    def test_append_onto_an_external_tree(self):
        # The public append atomizes over the node's reachable labels, so
        # it also works on a reference tree the store has never seen.
        from repro.fdd.construction import build_decision_path

        fw = make_firewall(
            [
                Rule.build(SCHEMA, ACCEPT, F1=(0, 3), F2=(1, 5)),
                Rule.build(SCHEMA, ACCEPT_LOG, F2=(4, 8)),
                Rule.build(SCHEMA, DISCARD),
            ]
        )
        store = NodeStore()
        first = fw.rules[0]
        root = build_decision_path(SCHEMA, first.predicate.sets, first.decision, 0)
        for rule in fw.rules[1:]:
            root = store.append(root, rule.predicate.sets, rule.decision)
        assert root is construct_fdd_fast(fw, store).root
        dead = Rule.build(SCHEMA, ACCEPT, F1=(2, 6))
        tree = construct_fdd(fw).root
        assert store.append(tree, dead.predicate.sets, ACCEPT) is store.intern(tree)


class TestPartialRoots:
    def test_one_root_per_rule_and_dead_rules_keep_the_root(self):
        fw = make_firewall(
            [
                Rule.build(SCHEMA, ACCEPT, F1=(0, 3)),
                Rule.build(SCHEMA, DISCARD, F1=(1, 2)),  # dead
                Rule.build(SCHEMA, DISCARD),
            ]
        )
        store = NodeStore()
        roots = list(store.partial_roots(fw))
        assert len(roots) == 3
        assert roots[1] is roots[0]
        assert roots[2] is not roots[1]
        assert roots[2] is store.construct(fw).root

    def test_checkpoint_site_passed_once_per_appended_rule(self):
        from repro.guard import FaultInjector

        fw = make_firewall(
            [Rule.build(SCHEMA, ACCEPT, F1=(0, k)) for k in range(4)]
            + [Rule.build(SCHEMA, DISCARD)]
        )
        fault = FaultInjector()
        guard = GuardContext(fault=fault)
        list(NodeStore().partial_roots(fw, guard=guard, site="probe.rule"))
        assert fault.visits == {"probe.rule": len(fw.rules) - 1}


#: Atom cuts of the two policies below: they share only the domain bounds.
_EVEN_CUTS = (0, 2, 4, 6, 8, 10, 12, 14, 16)
_ODD_CUTS = (0, 1, 3, 5, 7, 9, 11, 13, 15, 16)
SCHEMA16 = toy_schema(15, 15)


def _cut_policies(cuts):
    span = st.lists(st.sampled_from(cuts), min_size=2, max_size=2, unique=True).map(
        lambda pair: IntervalSet.span(min(pair), max(pair) - 1)
    )
    values = st.lists(span, min_size=1, max_size=2).map(IntervalSet.union_all)
    rule = st.builds(
        lambda f1, f2, decision: Rule(Predicate(SCHEMA16, (f1, f2)), decision),
        values,
        values,
        st.sampled_from([ACCEPT, DISCARD]),
    )
    return st.tuples(
        st.lists(rule, max_size=6), st.sampled_from([ACCEPT, DISCARD])
    ).map(
        lambda items: Firewall(
            SCHEMA16, items[0] + [Rule(Predicate.match_all(SCHEMA16), items[1])]
        )
    )


class TestSharedStoreAtoms:
    @given(_cut_policies(_EVEN_CUTS), _cut_policies(_ODD_CUTS))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_cuts_in_one_store_count_like_the_bdd(self, fw_a, fw_b):
        # Each construction cuts atoms from its own policy; the second
        # runs in a store already holding the first one's nodes.
        store = NodeStore()
        fdd_a = store.construct(fw_a)
        fdd_b = store.construct(fw_b)
        diff = build_difference(fdd_a, fdd_b, store=store)
        assert (
            diff.disputed_packet_count()
            == compare_with_bdd(fw_a, fw_b).disputed_packets
        )
        assert semantic_fingerprint(fdd_b) == semantic_fingerprint(fw_b)


class TestPairwiseMemo:
    def test_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(store_module, "PAIRWISE_MEMO_LIMIT", 2)
        store = NodeStore()
        sets = [IntervalSet.span(k, k + 3) for k in range(4)]
        store.intersect(sets[0], sets[1])
        store.union(sets[0], sets[1])
        assert store.stats()["op_memo"] == 2
        assert store.intersect(sets[2], sets[3]) == IntervalSet.span(3, 5)
        assert store.stats()["op_memo"] == 1
        assert store.intersect(sets[3], sets[2]) is store.intersect(sets[2], sets[3])


class TestMapTerminals:
    def test_relabels_and_shares(self):
        store = NodeStore()
        fdd = construct_fdd_fast(
            make_firewall(
                [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
            ),
            store,
        )
        flipped = store.map_terminals(fdd.root, {DISCARD: ACCEPT_LOG})
        from repro.fdd.fdd import FDD

        out = FDD(SCHEMA, flipped)
        assert out.evaluate((3, 0)) == ACCEPT_LOG
        assert out.evaluate((0, 0)) == ACCEPT
        # Identity mapping is a no-op node-wise.
        assert store.map_terminals(fdd.root, {}) is fdd.root

    def test_relabel_is_memoized(self):
        store = NodeStore()
        fdd = construct_fdd_fast(
            make_firewall(
                [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
            ),
            store,
        )
        once = store.map_terminals(fdd.root, {DISCARD: ACCEPT_LOG})
        twice = store.map_terminals(fdd.root, {DISCARD: ACCEPT_LOG})
        assert once is twice


class TestReduceDelegation:
    def test_reduce_into_shared_store_reuses_nodes(self):
        fw = make_firewall(
            [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
        )
        store = NodeStore()
        fast = construct_fdd_fast(fw, store)
        reduced = reduce_fdd(construct_fdd(fw), store=store)
        assert reduced.root is fast.root

    def test_reduce_default_store_is_private(self):
        fw = make_firewall(
            [Rule.build(SCHEMA, DISCARD, F1=(2, 4)), Rule.build(SCHEMA, ACCEPT)]
        )
        reduced = reduce_fdd(construct_fdd(fw))
        reduced.validate()
        for p in [(0, 0), (3, 3), (9, 9)]:
            assert reduced.evaluate(p) == fw(p)
