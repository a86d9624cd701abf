"""Instrumentation: counters and report formatting for the benchmark harness."""

from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table, format_table

__all__ = ["Counters", "Table", "format_table"]
