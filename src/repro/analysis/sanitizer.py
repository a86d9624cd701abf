"""Runtime determinism sanitizer: hash-seed and worker-count invariance.

The static rules catch the *patterns* that caused past nondeterminism; this
module checks the *property* itself.  It runs one seeded smoke scenario
through ``python -m repro.bench run`` several times -- varying only
``PYTHONHASHSEED`` on one axis and ``--jobs`` on the other -- and demands
byte-identical BENCH records once the honest wall-clock fields are dropped.

Each axis is isolated against the same baseline run (hashseed "0",
``--jobs 1``): a failure therefore names which axis broke, which is the
first question anyone debugging a determinism regression asks.  The repo's
tier-1 smoke gate runs this via :mod:`tests.test_bench`; ``python -m
repro.analysis sanitize`` runs it standalone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import find_repo_root

#: scenario exercised by default: runs the full dynamic stack (maintainer,
#: epochs, oracle), so it covers the most code per second of smoke budget
DEFAULT_SCENARIO = "table2_dynamic"

#: top-level record fields that honestly differ between runs
_VOLATILE_KEYS = ("wall_s", "timestamp")
#: counter suffixes that carry wall-clock measurements (latency scenarios)
_VOLATILE_COUNTER_SUFFIXES = ("_s", "_ms", "_seconds")


def normalize_record(record: Dict[str, object]) -> Dict[str, object]:
    """A BENCH record minus every field allowed to differ between runs."""
    out = {k: v for k, v in record.items() if k not in _VOLATILE_KEYS}
    counters = out.get("counters")
    if isinstance(counters, dict):
        out["counters"] = {
            k: v for k, v in counters.items()
            if not any(k.endswith(sfx) for sfx in _VOLATILE_COUNTER_SUFFIXES)}
    return out


def canonical_bytes(records: Sequence[Dict[str, object]]) -> bytes:
    """Canonical JSON encoding of normalized records (the compared value)."""
    normalized = [normalize_record(r) for r in records]
    return json.dumps(normalized, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class SanitizerRun:
    """One subprocess invocation of the bench harness."""

    hashseed: str
    jobs: int

    @property
    def label(self) -> str:
        return f"PYTHONHASHSEED={self.hashseed} --jobs {self.jobs}"


@dataclass
class SanitizerResult:
    scenario: str
    seed: int
    baseline: SanitizerRun = SanitizerRun("0", 1)
    failures: List[str] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"determinism sanitizer: scenario={self.scenario} "
                 f"seed={self.seed} baseline [{self.baseline.label}]"]
        for label in self.compared:
            lines.append(f"  identical vs [{label}]")
        for failure in self.failures:
            lines.append(f"  MISMATCH {failure}")
        lines.append("OK" if self.ok else "FAILED")
        return "\n".join(lines)


def _first_diff(a: Sequence[Dict[str, object]],
                b: Sequence[Dict[str, object]]) -> str:
    """A short human description of where two record lists diverge."""
    if len(a) != len(b):
        return f"record count {len(a)} != {len(b)}"
    for idx, (ra, rb) in enumerate(zip(a, b)):
        na, nb = normalize_record(ra), normalize_record(rb)
        if na == nb:
            continue
        keys = sorted(set(na) | set(nb))
        for key in keys:
            if na.get(key) != nb.get(key):
                return (f"record {idx} field {key!r}: "
                        f"{na.get(key)!r} != {nb.get(key)!r}")
    return "unknown divergence"


def run_bench_once(scenario: str, *, hashseed: str, jobs: int, seed: int,
                   repo_root: Optional[Path] = None,
                   timeout: float = 600.0) -> List[Dict[str, object]]:
    """Run the scenario in a subprocess and return its BENCH records."""
    root = Path(repo_root) if repo_root is not None else find_repo_root()
    src = root / "src"
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["REPRO_BENCH_OUT"] = tmp
        env["PYTHONPATH"] = (str(src) + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else str(src))
        cmd = [sys.executable, "-m", "repro.bench", "run",
               "--scenario", scenario, "--smoke",
               "--seed", str(seed), "--jobs", str(jobs)]
        proc = subprocess.run(cmd, cwd=str(root), env=env,
                              capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(
                f"bench run failed (PYTHONHASHSEED={hashseed}, "
                f"--jobs {jobs}): rc={proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
        out_file = Path(tmp) / f"BENCH_{scenario}.json"
        if not out_file.exists():
            raise RuntimeError(f"bench run produced no {out_file.name}; "
                               f"files: {sorted(os.listdir(tmp))}")
        payload = json.loads(out_file.read_text(encoding="utf-8"))
    records = payload if isinstance(payload, list) else payload["records"]
    return list(records)


def run_sanitizer(scenario: str = DEFAULT_SCENARIO, *, seed: int = 0,
                  alt_hashseed: str = "1", alt_jobs: int = 2,
                  repo_root: Optional[Path] = None,
                  timeout: float = 600.0) -> SanitizerResult:
    """Baseline run plus one variant per axis; byte-compare each pair."""
    baseline_run = SanitizerRun("0", 1)
    variants = [SanitizerRun(alt_hashseed, 1),   # hash-seed axis
                SanitizerRun("0", alt_jobs)]     # worker-count axis
    result = SanitizerResult(scenario=scenario, seed=seed,
                             baseline=baseline_run)
    base_records = run_bench_once(scenario, hashseed=baseline_run.hashseed,
                                  jobs=baseline_run.jobs, seed=seed,
                                  repo_root=repo_root, timeout=timeout)
    base_bytes = canonical_bytes(base_records)
    for variant in variants:
        records = run_bench_once(scenario, hashseed=variant.hashseed,
                                 jobs=variant.jobs, seed=seed,
                                 repo_root=repo_root, timeout=timeout)
        if canonical_bytes(records) == base_bytes:
            result.compared.append(variant.label)
        else:
            result.failures.append(
                f"[{variant.label}]: {_first_diff(base_records, records)}")
    return result


def compare_record_sets(a: Sequence[Dict[str, object]],
                        b: Sequence[Dict[str, object]]) -> Tuple[bool, str]:
    """Byte-compare two record lists; (ok, first-diff description)."""
    if canonical_bytes(a) == canonical_bytes(b):
        return True, ""
    return False, _first_diff(a, b)
