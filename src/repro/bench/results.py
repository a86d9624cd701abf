"""JSON result emission and loading for the benchmark harness.

A suite run writes one file, ``BENCH_<suite>.json`` at the repo root: the
machine-readable records the regression tooling diffs (``python -m
repro.bench compare``).  An eps sweep puts all its records in that one file;
``compare`` keys records by eps.

``REPRO_BENCH_ROOT`` overrides repo-root discovery and ``REPRO_BENCH_OUT``
redirects all output (tests point it at a tmpdir so runs stay side-effect
free).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

RECORD_KEYS = ("scenario", "params", "wall_s", "counters", "python",
               "timestamp")


def find_repo_root() -> Path:
    """The directory holding ``benchmarks/`` (and the ``BENCH_*.json`` files)."""
    env = os.environ.get("REPRO_BENCH_ROOT")
    if env:
        return Path(env)
    # src/repro/bench/results.py -> src/repro/bench -> src/repro -> src -> root
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "benchmarks").is_dir():
        return candidate
    return Path.cwd()


def output_root() -> Path:
    env = os.environ.get("REPRO_BENCH_OUT")
    return Path(env) if env else find_repo_root()


def validate_record(record: Mapping[str, object]) -> Mapping[str, object]:
    """Check one record against the schema; returns it unchanged."""
    missing = [key for key in RECORD_KEYS if key not in record]
    if missing:
        raise ValueError(f"benchmark record is missing keys {missing}: "
                         f"{sorted(record)}")
    if not isinstance(record["params"], Mapping):
        raise ValueError("record 'params' must be a mapping")
    if not isinstance(record["counters"], Mapping):
        raise ValueError("record 'counters' must be a mapping")
    if not isinstance(record["wall_s"], (int, float)):
        raise ValueError("record 'wall_s' must be a number")
    if "latency" in record and not isinstance(record["latency"], Mapping):
        # optional section emitted by dynamic scenarios that sample
        # per-update latency: {"p50": s, "p99": s, "max": s, "count": n}
        raise ValueError("record 'latency' must be a mapping when present")
    return record


def suite_payload(records: Sequence[Mapping[str, object]], suite: str,
                  meta: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "suite": suite, "schema": list(RECORD_KEYS),
        "records": [validate_record(r) for r in records]}
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_suite(records: Sequence[Mapping[str, object]], suite: str,
                root: Path = None,
                meta: Optional[Mapping[str, object]] = None) -> Path:
    """Write ``BENCH_<suite>.json``; returns its path.

    ``meta`` (optional) lands as a suite-level ``"meta"`` object -- the CLI
    records how the suite was executed there (``jobs``, total
    ``suite_wall_s``), which per-record fields cannot express.
    """
    root = Path(root) if root is not None else output_root()
    root.mkdir(parents=True, exist_ok=True)
    suite_path = root / f"BENCH_{suite}.json"
    with open(suite_path, "w", encoding="utf-8") as handle:
        json.dump(suite_payload(records, suite, meta=meta), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return suite_path


def load_records(path) -> List[Dict[str, object]]:
    """Load and validate records from a suite file (or a bare record list)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload.get("records") if isinstance(payload, Mapping) else payload
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a record list or a "
                         "{'records': [...]} payload")
    return [dict(validate_record(r)) for r in records]
