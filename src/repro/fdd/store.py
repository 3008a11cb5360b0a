"""The shared hash-consed node store: one core for both FDD engines.

Every scalable algorithm in the library (fast construction, reduction,
canonicalization, the product comparison, the parallel engine) rests on
the same two ideas:

* **Interning** — nodes are unique per structural signature (decision for
  terminals; ``(field, ((label, child), ...))`` for internals), so equal
  subgraphs are the *same object* and structural equality is an ``id``
  comparison;
* **Memoization keyed by identity** — with interning in place, per-store
  memo tables over node ids make appending a rule, taking a product, or
  relabelling terminals linear in *shared* nodes instead of paths.

:class:`NodeStore` owns both: interned :class:`~repro.intervals.IntervalSet`
labels, the node tables, and the algorithm memo tables (append, product,
terminal relabelling, and the product walk's pairwise label memo).  The
store keeps every interned object alive, so ``id``-based memo keys can
never be silently reused while the store exists.

Construction does its label algebra on **atoms**
(:class:`_AtomAppender`): each field's domain is cut once, per
construction, at the endpoints of the policy's own rules, and an edge
label becomes a Python-int bitset over those atoms, so intersection,
union and difference are ``&``, ``|`` and ``&~``.  A bitset becomes an
interned :class:`~repro.intervals.IntervalSet` only when a node is
interned, so the nodes — and everything that reads them — are exactly
those of interval-label construction.

Nodes handed out by a store are *shared and immutable by convention*:
mutating them corrupts the signature tables.  The mutable-tree reference
pipeline (:mod:`repro.fdd.construction` and friends) copies before
mutating, so store-backed diagrams can flow into it safely.

The store also carries guard-integrated accounting: ``nodes_created`` /
``edges_created`` count real allocations (interning hits are free), and
an optional store-level :class:`~repro.guard.GuardContext` ticks one node
per allocation — used by interning workloads such as
:func:`repro.fdd.reduce.reduce_fdd` that have no per-visit guard of their
own.  Traversal-heavy algorithms (construction, product walks) instead
tick their per-call guards once per *visit*, which is the budget currency
the rest of the library uses.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.guard import GuardContext
from repro.intervals import Interval, IntervalSet
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.fdd.fdd import FDD
from repro.fdd.node import Edge, InternalNode, Node, TerminalNode, iter_nodes

__all__ = ["NodeStore", "PAIRWISE_MEMO_LIMIT", "APPEND_MEMO_LIMIT"]


#: Bound on the product walk's pairwise label memo (:meth:`NodeStore.intersect`
#: / :meth:`NodeStore.union`).  Keys are ``(op, id, id)`` triples over
#: *interned* sets; past the limit the table is dropped and rebuilt.
PAIRWISE_MEMO_LIMIT = 1 << 16

#: Bound on the per-store append memo.  Entries accumulate across rules
#: (that is what makes re-appending an identical rule to an identical
#: node free), but a multi-thousand-rule construction must not retain
#: every per-rule walk forever; past the limit the table is dropped and
#: rebuilt, which only costs re-computation, never correctness.
APPEND_MEMO_LIMIT = 1 << 17

#: Op tags for the pairwise memo keys (smaller than strings to hash).
_OP_AND, _OP_OR = 1, 2


def _atom_bounds(
    num_fields: int, labels: Iterable[tuple[int, IntervalSet]]
) -> list[list[int]]:
    """Per-field sorted atom boundaries: every ``lo`` and ``hi + 1`` of
    the ``(field, label)`` pairs.

    Atom ``i`` of a field is ``[bounds[i], bounds[i + 1] - 1]``, so every
    given label — and every set built from them by intersection, union
    and difference — is a union of atoms.
    """
    points: list[set[int]] = [set() for _ in range(num_fields)]
    for field, values in labels:
        cut = points[field]
        for interval in values.intervals:
            cut.add(interval.lo)
            cut.add(interval.hi + 1)
    return [sorted(cut) for cut in points]


def _lowest_atom(part: list) -> int:
    """Sort key of a ``[mask, child]`` edge: its lowest set bit, i.e. the
    edge's first atom (atoms are ordered, so this is label-minimum order)."""
    mask = part[0]
    return mask & -mask


class NodeStore:
    """Interns FDD nodes — and their interval-set labels — by structure.

    Terminals intern by decision; internal nodes by
    ``(field, ((label, id(child)), ...))`` with the edge list sorted by
    label minimum and every label interned (:meth:`intern_set`: equal
    labels resolve to one pointer-stable instance).  Because children are
    interned before parents, equal subgraphs always resolve to the *same
    object*, making structural equality an ``id`` comparison — the
    property the memoized algorithms rely on.

    On top of the tables the store offers the shared node algebra:
    :meth:`chain` / :meth:`append` / :meth:`construct` /
    :meth:`partial_roots` (functional rule appending on atom bitsets —
    the fast construction engine), :meth:`intern` (recursive interning of
    an external diagram — reduction), and :meth:`map_terminals`
    (memoized terminal relabelling).  The product caches
    (:attr:`pair_table` / :attr:`pair_memo`, plus the pairwise label memo
    behind :meth:`intersect` / :meth:`union`) are used by
    :func:`repro.fdd.fast.build_difference`, so repeated products over one
    store — e.g. every pair of :func:`repro.parallel.compare_many` — share
    every repeated sub-product.
    """

    def __init__(self, *, guard: GuardContext | None = None) -> None:
        self._terminals: dict[Decision, TerminalNode] = {}
        self._internals: dict[tuple, InternalNode] = {}
        #: ids of nodes this store handed out (fast ownership test; the
        #: nodes are kept alive by the tables, so ids are stable).
        self._owned: set[int] = set()
        #: set -> the canonical (interned) instance for that value content.
        self._sets: dict[IntervalSet, IntervalSet] = {}
        #: (op, id(a), id(b)) -> interned result; cleared when full.
        self._op_memo: dict[tuple[int, int, int], IntervalSet] = {}
        #: (id(node), rule_key) -> appended node (see :meth:`append`).
        self._append_memo: dict[tuple, Node] = {}
        #: (id(node), relabel table) -> relabelled node.
        self._relabel_memo: dict[tuple, Node] = {}
        #: Product-walk caches for :func:`repro.fdd.fast.build_difference`:
        #: structural signature -> product node, and (id, id) pair -> result.
        self.pair_table: dict = {}
        self.pair_memo: dict = {}
        #: Optional store-level guard: ticks one node per *allocation*.
        #: Set it for interning workloads (reduce) that have no per-visit
        #: guard; leave it ``None`` under construction/product guards,
        #: which tick per visit themselves.
        self.guard = guard
        #: Real allocations (interning hits do not count).
        self.nodes_created = 0
        self.edges_created = 0

    # ------------------------------------------------------------------
    # Labels: interning + the product walk's pairwise memo
    # ------------------------------------------------------------------
    def intern_set(self, values: IntervalSet) -> IntervalSet:
        """The canonical instance holding ``values``'s value content.

        Identical labels become pointer-equal; the returned instance is
        kept alive by the store, so its ``id`` is a stable memo key.
        """
        found = self._sets.get(values)
        if found is None:
            self._sets[values] = values
            return values
        return found

    def _memo_op(self, op: int, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        a = self.intern_set(a)
        b = self.intern_set(b)
        ia, ib = id(a), id(b)
        key = (op, ia, ib) if ia <= ib else (op, ib, ia)
        memo = self._op_memo
        found = memo.get(key)
        if found is None:
            if len(memo) >= PAIRWISE_MEMO_LIMIT:
                memo.clear()
            found = self.intern_set(a.intersect(b) if op == _OP_AND else a.union(b))
            memo[key] = found
        return found

    def intersect(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoized ``a & b`` over interned operands (commutative key)."""
        return self._memo_op(_OP_AND, a, b)

    def union(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """Memoized ``a | b`` over interned operands (commutative key)."""
        return self._memo_op(_OP_OR, a, b)

    # ------------------------------------------------------------------
    # Node interning
    # ------------------------------------------------------------------
    def terminal(self, decision: Decision) -> TerminalNode:
        """The unique terminal node for ``decision``."""
        found = self._terminals.get(decision)
        if found is None:
            found = TerminalNode(decision)
            self._terminals[decision] = found
            self._owned.add(id(found))
            self.nodes_created += 1
            if self.guard is not None:
                self.guard.tick_nodes()
        return found

    def internal(
        self, field_index: int, edges: Sequence[tuple[IntervalSet, Node]]
    ) -> Node:
        """The unique internal node with the given (merged) edges.

        Edges pointing at the same child are merged by unioning labels.
        Single-child nodes are *kept* (not collapsed into the child): the
        construction algorithm's partial FDDs rely on every field being
        present on every path, exactly as in the reference implementation.
        """
        merged: dict[int, list] = {}
        for label, child in edges:
            entry = merged.get(id(child))
            if entry is None:
                merged[id(child)] = [label, child]
            else:
                entry[0] = entry[0].union(label)
        parts = sorted(
            ((self.intern_set(label), child) for label, child in merged.values()),
            key=lambda item: item[0].min(),
        )
        return self._node(field_index, parts)

    def _node(
        self, field_index: int, parts: Sequence[tuple[IntervalSet, Node]]
    ) -> InternalNode:
        """Intern a node from merged, label-sorted, interned edges."""
        signature = (
            field_index,
            tuple([(id(label), id(child)) for label, child in parts]),
        )
        found = self._internals.get(signature)
        if found is None:
            found = InternalNode(field_index, [Edge(label, child) for label, child in parts])
            self._internals[signature] = found
            self._owned.add(id(found))
            self.nodes_created += 1
            self.edges_created += len(parts)
            if self.guard is not None:
                self.guard.tick_nodes()
        return found

    def owns(self, node: Node) -> bool:
        """True when ``node`` was interned by (and is kept alive by) this
        store, so identity comparisons against other store nodes are
        meaningful."""
        return id(node) in self._owned

    # ------------------------------------------------------------------
    # Shared-node algebra
    # ------------------------------------------------------------------
    def chain(
        self,
        rule_sets: Sequence[IntervalSet],
        decision: Decision,
        index: int = 0,
    ) -> Node:
        """The one-path partial FDD of a rule suffix, fully interned.

        The store-backed counterpart of
        :func:`repro.fdd.construction.build_decision_path`: a chain of
        internal nodes for fields ``index .. d-1`` ending in the decision
        terminal.
        """
        node: Node = self.terminal(decision)
        for i in range(len(rule_sets) - 1, index - 1, -1):
            node = self.internal(i, [(rule_sets[i], node)])
        return node

    def append(
        self,
        node: Node,
        rule_sets: Sequence[IntervalSet],
        decision: Decision,
        *,
        guard: GuardContext | None = None,
    ) -> Node:
        """Functionally append one rule to a partial FDD rooted at ``node``.

        The store-backed counterpart of the paper's APPEND (Fig. 7):
        returns the interned root of the diagram with the rule appended,
        leaving ``node`` untouched.  Because interning makes structural
        equality identity, the result *is* ``node`` itself **iff** the
        rule adds no decision path — i.e. every packet matching the rule
        was already decided by earlier rules (the rule is ineffective).
        :mod:`repro.analysis.effective` decides effectiveness with
        exactly this identity test.  An external ``node`` is interned
        first.

        The label algebra runs on atoms cut at the endpoints of every
        label reachable from ``node`` and of the rule (:meth:`construct`
        cuts once per policy instead).  Memoized per ``(node, rule)`` in a
        per-store table, so shared subtrees are processed once per rule,
        and re-appending an identical rule to an identical node (across
        calls) is free.  ``guard`` ticks one node per visit, mirroring the
        reference construction's budget currency.
        """
        node = self.intern(node)
        labels = list(enumerate(rule_sets))
        for reached in iter_nodes(node):
            if isinstance(reached, InternalNode):
                labels.extend(
                    (reached.field_index, edge.label) for edge in reached.edges
                )
        bounds = _atom_bounds(len(rule_sets), labels)
        return _AtomAppender(self, bounds, guard).append(node, rule_sets, decision)

    def partial_roots(
        self,
        firewall: Firewall,
        *,
        guard: GuardContext | None = None,
        site: str = "fast.rule",
    ) -> Iterator[Node]:
        """Yield the root of the partial FDD after each rule, in order.

        The one append loop behind :meth:`construct` and
        :func:`repro.analysis.effective.effective_rules`: chain the first
        rule, then append the rest on atoms cut once from the policy's
        own rule endpoints and field domains.  A yielded root is the
        previous one itself iff that rule is dead.  ``guard`` ticks one
        node per visit and passes checkpoint ``site`` before every
        appended rule.

        Cutting per policy is sound in a store shared with other
        policies: every label reachable from a partial root is built
        from this policy's rule sets by intersection, union and
        difference, and append-memo or signature hits return nodes with
        equal labels.
        """
        rules = firewall.rules
        num_fields = len(firewall.schema)
        labels = [(i, firewall.schema.domain(i)) for i in range(num_fields)]
        for rule in rules:
            labels.extend(enumerate(rule.predicate.sets))
        bounds = _atom_bounds(num_fields, labels)
        appender = _AtomAppender(self, bounds, guard)
        first = rules[0]
        root = self.chain(first.predicate.sets, first.decision)
        yield root
        for rule in rules[1:]:
            if guard is not None:
                guard.checkpoint(site)
            root = appender.append(root, rule.predicate.sets, rule.decision)
            yield root

    def construct(
        self, firewall: Firewall, *, guard: GuardContext | None = None
    ) -> FDD:
        """Build the firewall's maximally-shared ordered FDD in this store.

        The engine behind :func:`repro.fdd.fast.construct_fdd_fast`: the
        last of :meth:`partial_roots`.  Because every node is interned,
        the output is *already reduced* (no two distinct isomorphic
        subgraphs, no parallel edges to one child) — it is the canonical
        reduced ordered FDD of the policy.
        """
        for root in self.partial_roots(firewall, guard=guard):
            pass
        return FDD(firewall.schema, root)

    def intern(self, root: Node) -> Node:
        """Intern an external diagram: the maximally-shared equal subgraph.

        Recursively rebuilds ``root``'s subgraph out of store nodes;
        isomorphic subgraphs collapse to one shared node and parallel
        edges to one child merge — this *is* FDD reduction
        (:func:`repro.fdd.reduce.reduce_fdd` delegates here).  Idempotent
        and O(1) on nodes the store already owns.  The input is not
        modified.
        """
        if id(root) in self._owned:
            return root
        # External node ids are only stable for the duration of this call
        # (nothing keeps the input alive afterwards), so the walk memo is
        # per-call; owned-node ids are stable and short-circuit above.
        interned_by_id: dict[int, Node] = {}

        def rec(node: Node) -> Node:
            if id(node) in self._owned:
                return node
            found = interned_by_id.get(id(node))
            if found is not None:
                return found
            if isinstance(node, TerminalNode):
                made: Node = self.terminal(node.decision)
            else:
                made = self.internal(
                    node.field_index,
                    [(edge.label, rec(edge.target)) for edge in node.edges],
                )
            interned_by_id[id(node)] = made
            return made

        return rec(root)

    def map_terminals(
        self, root: Node, mapping: dict[Decision, Decision]
    ) -> Node:
        """A shared diagram with terminal decisions rewritten by ``mapping``.

        Decisions absent from ``mapping`` are kept.  Memoized per
        ``(node, mapping)`` in a per-store table (label algebra of the
        negated/relabelled diagram is untouched, so the rewrite is linear
        in shared nodes); external inputs are interned first.
        """
        root = self.intern(root)
        table = tuple(sorted(mapping.items(), key=lambda kv: kv[0].name))
        memo = self._relabel_memo

        def rec(node: Node) -> Node:
            key = (id(node), table)
            found = memo.get(key)
            if found is not None:
                return found
            if isinstance(node, TerminalNode):
                made: Node = self.terminal(mapping.get(node.decision, node.decision))
            else:
                made = self.internal(
                    node.field_index,
                    [(edge.label, rec(edge.target)) for edge in node.edges],
                )
            memo[key] = made
            return made

        return rec(root)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Allocation and table-size counters (bench and guard reports)."""
        return {
            "nodes_created": self.nodes_created,
            "edges_created": self.edges_created,
            "terminals": len(self._terminals),
            "internals": len(self._internals),
            "interned_sets": len(self._sets),
            "op_memo": len(self._op_memo),
            "append_memo": len(self._append_memo),
            "pair_memo": len(self.pair_memo),
        }

    def __repr__(self) -> str:
        return (
            f"<NodeStore {len(self._internals)} internals,"
            f" {len(self._terminals)} terminals,"
            f" {len(self._sets)} interned sets>"
        )


class _AtomAppender:
    """One construction's append loop, with labels as atom bitsets.

    ``bounds[f]`` cuts field ``f`` into atoms (see :func:`_atom_bounds`);
    bit ``i`` of a mask stands for atom ``i``.  Every label the loop meets
    must be a union of atoms — true for any label reachable from a
    partial root of the policy the bounds were cut from.  The caches live
    as long as the appender (one construction): a node's edge masks, and
    each mask's interned :class:`IntervalSet` per field.  Nodes are
    interned through :meth:`NodeStore._node` with the same signatures as
    interval-label construction, so the store sees identical nodes.
    """

    def __init__(
        self,
        store: NodeStore,
        bounds: list[list[int]],
        guard: GuardContext | None,
    ) -> None:
        self.store = store
        self.guard = guard
        self.bounds = bounds
        self.atom_of = [{point: i for i, point in enumerate(cut)} for cut in bounds]
        #: id(node) -> its edges as (mask, child) pairs, in edge order.
        self.edge_masks: dict[int, Sequence] = {}
        #: per field: mask -> interned label.
        self.labels: list[dict[int, IntervalSet]] = [{} for _ in bounds]

    def mask(self, field_index: int, values: IntervalSet) -> int:
        """The atom bitset of ``values`` (a union of the field's atoms)."""
        atom_of = self.atom_of[field_index]
        mask = 0
        for interval in values.intervals:
            mask |= (1 << atom_of[interval.hi + 1]) - (1 << atom_of[interval.lo])
        return mask

    def label(self, field_index: int, mask: int) -> IntervalSet:
        """The interned :class:`IntervalSet` of a non-empty atom bitset."""
        cache = self.labels[field_index]
        found = cache.get(mask)
        if found is None:
            cut = self.bounds[field_index]
            runs = []
            rest = mask
            while rest:
                low = rest & -rest
                # Adding the lowest bit carries through its run of ones.
                above = rest + low
                runs.append(
                    Interval(
                        cut[low.bit_length() - 1],
                        cut[(above & -above).bit_length() - 1] - 1,
                    )
                )
                rest &= above
            found = self.store.intern_set(IntervalSet(runs))
            cache[mask] = found
        return found

    def edges_of(self, node: InternalNode) -> Sequence:
        """``node``'s edges as (mask, child) pairs, converted once."""
        found = self.edge_masks.get(id(node))
        if found is None:
            field_index = node.field_index
            found = tuple(
                (self.mask(field_index, edge.label), edge.target)
                for edge in node.edges
            )
            self.edge_masks[id(node)] = found
        return found

    def node(self, field_index: int, edges: list[tuple[int, Node]]) -> Node:
        """:meth:`NodeStore.internal` on masks: merge parallel edges with
        ``|``, order by first atom, intern."""
        merged: dict[int, list] = {}
        for mask, child in edges:
            entry = merged.get(id(child))
            if entry is None:
                merged[id(child)] = [mask, child]
            else:
                entry[0] |= mask
        parts = sorted(merged.values(), key=_lowest_atom)
        label = self.label
        made = self.store._node(
            field_index, [(label(field_index, mask), child) for mask, child in parts]
        )
        self.edge_masks.setdefault(id(made), parts)
        return made

    def append(
        self, root: Node, rule_sets: Sequence[IntervalSet], decision: Decision
    ) -> Node:
        """:meth:`NodeStore.append` of one rule to the interned ``root``."""
        store = self.store
        guard = self.guard
        rule_sets = tuple(store.intern_set(s) for s in rule_sets)
        rule_key = (tuple(id(s) for s in rule_sets), decision)
        rule_masks = [self.mask(i, s) for i, s in enumerate(rule_sets)]
        memo = store._append_memo
        if len(memo) > APPEND_MEMO_LIMIT:
            memo.clear()
        chains: dict[int, Node] = {}
        edges_of = self.edges_of

        def rec(node: Node, index: int) -> Node:
            if guard is not None:
                guard.tick_nodes()
            if isinstance(node, TerminalNode):
                return node
            key = (id(node), rule_key)
            found = memo.get(key)
            if found is not None:
                return found
            rule_mask = rule_masks[index]
            new_edges: list[tuple[int, Node]] = []
            covered = 0
            changed = False
            for mask, child in edges_of(node):
                covered |= mask
                common = mask & rule_mask
                if common:
                    target = rec(child, index + 1)
                    if target is not child:
                        changed = True
                        if common != mask:
                            new_edges.append((mask ^ common, child))
                        new_edges.append((common, target))
                        continue
                new_edges.append((mask, child))
            uncovered = rule_mask & ~covered
            if uncovered:
                changed = True
                tail = chains.get(index)
                if tail is None:
                    tail = chains[index] = store.chain(rule_sets, decision, index + 1)
                new_edges.append((uncovered, tail))
            # Unchanged edges re-intern to ``node`` itself: skip the lookup.
            result = self.node(node.field_index, new_edges) if changed else node
            memo[key] = result
            return result

        return rec(root, 0)
