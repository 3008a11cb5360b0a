"""Golden fingerprints: construction output pinned byte for byte.

``tests/data/fingerprints.json`` records, for a fixed corpus, the
``semantic_fingerprint``, the dead-rule indices of ``effective_rules``
and the allocation counts of a fresh-store construction.  Any change to
the store's append algorithm must leave every one of them unchanged.

The corpus: the example policies, the per-dialect golden dumps, synthetic
policies of the default and the dense (64-network pool) mix at 80-150
rules, and a Theorem-1 blowup chaser (overlapping windows on every field,
which drive the path count toward the (2n-1)^d bound).

Regenerate (only when a change is *meant* to alter the output)::

    PYTHONPATH=src python -m tests.fdd.test_fingerprints_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.effective import effective_rules
from repro.fdd.canonical import semantic_fingerprint
from repro.fdd.store import NodeStore
from repro.fields import toy_schema
from repro.policy import ACCEPT, DISCARD, Firewall, Rule, load
from repro.policy.frontends import parse_policy
from repro.synth import GeneratorConfig, SyntheticFirewallGenerator

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "fingerprints.json"

_DIALECT_DUMPS = {
    "iptables": "golden.iptables",
    "nftables": "golden.nft",
    "cisco": "golden.cisco",
    "native": "golden.native",
}

#: (mix, seed, rules) of the synthetic corpus.
_SYNTH = (
    ("default", 1, 80),
    ("default", 3, 150),
    ("default", 4, 120),
    ("default", 5, 100),
    ("dense", 1, 100),
    ("dense", 2, 80),
    ("dense", 3, 120),
    ("dense", 4, 120),
)


#: Per-field window order of the Theorem-1 chaser's rules.
_WINDOW_ORDER = (
    (2, 6, 0, 1, 5, 4, 3, 8, 7),
    (4, 6, 5, 0, 7, 8, 3, 1, 2),
    (3, 0, 2, 1, 4, 8, 5, 7, 6),
)


def _theorem1_chaser() -> Firewall:
    """Nine overlapping 29-wide windows per field, placed in a different
    order on each field with alternating decisions, so no rule is dead and
    the windows' endpoints split every field into many segments."""
    schema = toy_schema(63, 63, 63)
    rules = []
    for k in range(len(_WINDOW_ORDER[0])):
        spans = [f"{3 * order[k]}-{3 * order[k] + 28}" for order in _WINDOW_ORDER]
        rules.append(
            Rule.build(
                schema,
                ACCEPT if k % 2 else DISCARD,
                F1=spans[0],
                F2=spans[1],
                F3=spans[2],
            )
        )
    rules.append(Rule.build(schema, DISCARD))
    return Firewall(schema, rules, name="theorem1-chaser")


def corpus() -> dict[str, Firewall]:
    """Every policy the golden file pins, by stable name."""
    policies: dict[str, Firewall] = {}
    for path in sorted((ROOT / "examples").glob("*.fw")):
        policies[f"example/{path.name}"] = load(path)
    for dialect, name in _DIALECT_DUMPS.items():
        text = (DATA / "frontends" / name).read_text(encoding="utf-8")
        policies[f"dialect/{dialect}"] = parse_policy(text, dialect).to_firewall()
    dense = GeneratorConfig(network_pool_size=64)
    for mix, seed, rules in _SYNTH:
        config = dense if mix == "dense" else None
        firewall = SyntheticFirewallGenerator(config, seed=seed).generate(rules)
        policies[f"synth/{mix}-s{seed}-n{rules}"] = firewall
    policies["theorem1/windows-9"] = _theorem1_chaser()
    return policies


def record(firewall: Firewall) -> dict:
    """The pinned facts of one policy."""
    store = NodeStore()
    store.construct(firewall)
    return {
        "fingerprint": semantic_fingerprint(firewall),
        "dead": effective_rules(firewall).dead_indices(),
        "nodes_created": store.nodes_created,
        "edges_created": store.edges_created,
    }


CORPUS = corpus()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_corpus(expected):
    assert sorted(expected) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fingerprint_dead_rules_and_allocations_unchanged(name, expected):
    assert record(CORPUS[name]) == expected[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: record(fw) for name, fw in CORPUS.items()}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
