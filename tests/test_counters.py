"""Tests for instrumentation counters and reporting."""

import pytest

from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table, format_table


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("x")
        c.add("x", 2.5)
        assert c["x"] == 3.5
        assert c.get("missing") == 0
        assert "x" in c and "missing" not in c

    def test_reset(self):
        c = Counters()
        c.add("a")
        c.add("b")
        c.reset("a")
        assert c["a"] == 0 and c["b"] == 1
        c.reset()
        assert c["b"] == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a["x"] == 5 and a["y"] == 1
        assert b["x"] == 3  # unchanged

    def test_as_dict_and_iter(self):
        c = Counters()
        c.add("a", 1)
        c.add("b", 2)
        assert c.as_dict() == {"a": 1, "b": 2}
        assert set(iter(c)) == {"a", "b"}


class TestReporting:
    def test_table_rendering(self):
        t = Table("demo", ["eps", "calls"])
        t.add_row(0.25, 120)
        t.add_row(0.125, 960.0)
        text = t.render()
        assert "demo" in text and "eps" in text and "960" in text

    def test_table_rejects_wrong_arity(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_format_table_handles_floats(self):
        text = format_table("t", ["v"], [[0.000123], [12345.6]])
        assert "0.000123" in text and "1.23e+04" in text
