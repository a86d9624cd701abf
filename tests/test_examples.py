"""Smoke tests for the example scripts (deliverable: runnable examples)."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_all_examples_compile():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 5
    for script in scripts:
        py_compile.compile(str(script), doraise=True)


def test_quickstart_runs_and_reports_quality():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    assert "approximation factor" in result.stdout
    assert "matching validated." in result.stdout


def test_trace_replay_quickstart_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "trace_replay.py")],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    assert "round-trips byte-identically: True" in result.stdout
    assert "karate club" in result.stdout


def test_congest_demo_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "congest_demo.py")],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Corollary A.2" in result.stdout
