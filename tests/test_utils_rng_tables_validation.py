"""Tests for repro.utils.rng, repro.utils.tables and repro.utils.validation."""

import pytest

from repro.utils.rng import RngFactory
from repro.utils.tables import format_records, format_table
from repro.utils import validation


class TestRngFactory:
    def test_reproducible_streams(self):
        a = RngFactory(42).child("x")
        b = RngFactory(42).child("x")
        assert a.random() == b.random()

    def test_children_are_independent(self):
        factory = RngFactory(0)
        g1, g2 = factory.children(2)
        assert g1.random() != g2.random()

    def test_fork_gives_different_streams(self):
        factory = RngFactory(1)
        fork = factory.fork()
        assert factory.child().random() != fork.child().random()

    def test_spawn_counter(self):
        factory = RngFactory(3)
        factory.child()
        factory.children(2)
        factory.fork()
        assert factory.spawned == 4

    def test_children_negative_count(self):
        with pytest.raises(ValueError):
            RngFactory(0).children(-1)


class TestTables:
    def test_basic_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "-" in lines[1]
        assert "2.5" in lines[2]
        assert lines[3].strip().endswith("-")

    def test_title(self):
        text = format_table(["col"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_wrong_row_length(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_records(self):
        records = [{"x": 1, "y": 2.0}, {"x": 3, "y": 4.0}]
        text = format_records(records)
        assert "x" in text and "y" in text and "3" in text

    def test_format_records_empty(self):
        assert format_records([], title="nothing") == "nothing"

    def test_format_records_column_selection(self):
        records = [{"x": 1, "y": 2.0}]
        text = format_records(records, columns=["y"])
        assert "x" not in text.splitlines()[0]


class TestValidation:
    def test_check_positive(self):
        assert validation.check_positive("v", 3) == 3.0
        with pytest.raises(ValueError):
            validation.check_positive("v", 0)

    def test_check_non_negative(self):
        assert validation.check_non_negative("v", 0) == 0.0
        with pytest.raises(ValueError):
            validation.check_non_negative("v", -1)

    def test_check_probability(self):
        assert validation.check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            validation.check_probability("p", 1.5)

    def test_check_positive_int(self):
        assert validation.check_positive_int("n", 5) == 5
        with pytest.raises(ValueError):
            validation.check_positive_int("n", 0)
        with pytest.raises(ValueError):
            validation.check_positive_int("n", 2.5)

    def test_check_non_negative_int(self):
        assert validation.check_non_negative_int("n", 0) == 0
        with pytest.raises(ValueError):
            validation.check_non_negative_int("n", -1)
