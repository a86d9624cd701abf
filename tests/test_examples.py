"""Smoke tests for the example scripts (deliverable: runnable examples)."""

import os
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
    # pins the Corollary A.2 accounting: one raw oracle call, then the
    # boosted run split into oracle and Aprocess rounds
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "congest_demo.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert result.returncode == 0, result.stderr
    raw, boosted = ({line.strip() for line in section.splitlines()}
                    for section in result.stdout.split("\n\n[")[1:3])
    assert "size   : 54 (factor 1.111)" in raw
    assert "rounds : 12" in raw
    assert "msgs   : 2110" in raw
    assert "boosted to (1+0.25), Corollary A.2]" in boosted
    assert ("size                  : 60 (factor 1.000, target <= 1.25)"
            in boosted)
    assert "oracle invocations    : 18" in boosted
    assert "CONGEST rounds total  : 1766" in boosted
    assert "- inside the oracle : 78" in boosted
    assert ("- Aprocess (struct. aggregation, the extra eps^-3 factor) : "
            "1688") in boosted


def test_mpc_boosting_runs_and_reports_accounting():
    # pins the Corollary A.1 accounting of both schedules on the MPC
    # oracle, including fmu22_boost driving MPCMatchingOracle
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "mpc_boosting.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert result.returncode == 0, result.stderr
    ours, fmu, _bounds = result.stdout.split("\n\n[")[1:]
    assert "factor 1.000" in ours
    assert "oracle invocations  : 634" in ours
    assert "MPC rounds (oracle) : 1270" in ours
    assert "MPC rounds (total)  : 3738" in ours
    assert "factor 1.000" in fmu
    assert "oracle invocations  : 642" in fmu
    assert "MPC rounds (oracle) : 1286" in fmu
