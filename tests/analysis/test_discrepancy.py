"""Tests for discrepancy records and their rendering."""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis import Discrepancy, format_discrepancy_table
from repro.fields import standard_schema, toy_schema
from repro.intervals import IntervalSet
from repro.policy import ACCEPT, DISCARD

SCHEMA = toy_schema(9, 9)


def disc(f1, f2, a=ACCEPT, b=DISCARD):
    return Discrepancy(SCHEMA, (IntervalSet.of(f1), IntervalSet.of(f2)), a, b)


def _echo(value):
    return value


class TestDiscrepancy:
    def test_cells_carry_no_instance_dict(self):
        assert not hasattr(disc((0, 3), (5, 6)), "__dict__")

    def test_pickle_round_trip_under_spawn(self):
        cells = [disc((0, 3), (5, 6)), disc((7, 9), (0, 0), DISCARD, ACCEPT)]
        assert pickle.loads(pickle.dumps(cells)) == cells
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            returned = list(pool.map(_echo, cells))
        assert returned == cells
        assert [cell.size() for cell in returned] == [8, 3]

    def test_requires_different_decisions(self):
        with pytest.raises(AssertionError):
            disc((0, 1), (0, 1), ACCEPT, ACCEPT)

    def test_size_and_contains(self):
        d = disc((0, 3), (5, 6))
        assert d.size() == 8
        assert d.contains((2, 5))
        assert not d.contains((4, 5))

    def test_rules(self):
        d = disc((0, 3), (5, 6))
        assert d.rule_a().decision == ACCEPT
        assert d.rule_b().decision == DISCARD
        assert d.rule_a().predicate == d.predicate

    def test_describe(self):
        text = disc((0, 3), (5, 6)).describe()
        assert "a says accept" in text and "b says discard" in text

    def test_real_schema_rendering(self):
        schema = standard_schema()
        d = Discrepancy(
            schema,
            tuple(
                f.parse_value_set(v)
                for f, v in zip(
                    schema, ["224.168.0.0/16", "192.168.0.1", "any", "25", "tcp"]
                )
            ),
            ACCEPT,
            DISCARD,
        )
        text = d.describe()
        assert "224.168.0.0/16" in text and "25 (smtp)" in text


class TestTable:
    def test_empty(self):
        assert "no functional discrepancies" in format_discrepancy_table([])

    def test_columns(self):
        table = format_discrepancy_table(
            [disc((0, 3), (5, 6))], name_a="left", name_b="right", title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "left" in lines[1] and "right" in lines[1]
        assert len(lines) == 4
