"""Baseline diffing: flag perf regressions between two suite JSON files.

``python -m repro.bench compare old.json new.json --fail-over 1.2`` matches
records by (scenario, eps, smoke), computes the
``new / old`` ratio of the chosen metric (wall-clock by default, any counter
via ``--metric``) and fails when any ratio exceeds the threshold.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

Key = Tuple[object, ...]


def record_key(record: Mapping[str, object]) -> Key:
    """``(scenario, eps, smoke)``: what tells two records of one suite file
    apart.  Any other ``params`` key a file carries is ignored, so a record
    still matches its row in a file written with a different ``params``
    schema."""
    params = record.get("params", {})
    return (record.get("scenario"), params.get("eps"), params.get("smoke"))


def _by_key(records: Sequence[Mapping[str, object]],
            side: str) -> Dict[Key, Mapping[str, object]]:
    """Index one side's records by :func:`record_key`; a key that occurs
    twice raises instead of silently keeping only its last record."""
    by_key: Dict[Key, Mapping[str, object]] = {}
    for record in records:
        key = record_key(record)
        if key in by_key:
            raise ValueError(f"{side} records share the key {key}; each "
                             "key must name exactly one record")
        by_key[key] = record
    return by_key


def metric_value(record: Mapping[str, object], metric: str):
    if metric == "wall_s":
        return record.get("wall_s")
    if "." in metric:
        # dotted path into a nested record section, e.g. "latency.p99"
        section, _, field = metric.partition(".")
        nested = record.get(section)
        if isinstance(nested, Mapping):
            value = nested.get(field)
            if value is not None:
                return value
    return record.get("counters", {}).get(metric)


def compare_records(old: Sequence[Mapping[str, object]],
                    new: Sequence[Mapping[str, object]],
                    fail_over: float = 1.2,
                    metric: str = "wall_s") -> List[Dict[str, object]]:
    """Per matched record: old/new metric values, ratio, regression flag.

    Records present on only one side are reported with status ``"added"`` /
    ``"removed"`` and never count as regressions (a missing baseline is not a
    slowdown).  Records where either side lacks the metric are skipped the
    same way.  Raises :class:`ValueError` when a record key occurs twice on
    either side.
    """
    old_by_key = _by_key(old, "old")
    new_by_key = _by_key(new, "new")
    rows: List[Dict[str, object]] = []
    for key in sorted(set(old_by_key) | set(new_by_key),
                      key=lambda k: tuple(str(part) for part in k)):
        scenario = key[0]
        if key not in old_by_key:
            rows.append({"scenario": scenario, "status": "added",
                         "old": None, "new": None, "ratio": None,
                         "regressed": False})
            continue
        if key not in new_by_key:
            rows.append({"scenario": scenario, "status": "removed",
                         "old": None, "new": None, "ratio": None,
                         "regressed": False})
            continue
        old_v = metric_value(old_by_key[key], metric)
        new_v = metric_value(new_by_key[key], metric)
        if old_v is None or new_v is None:
            rows.append({"scenario": scenario, "status": "no-metric",
                         "old": old_v, "new": new_v, "ratio": None,
                         "regressed": False})
            continue
        if old_v <= 0:
            ratio = 1.0 if new_v <= 0 else math.inf
        else:
            ratio = new_v / old_v
        rows.append({"scenario": scenario, "status": "compared",
                     "old": float(old_v), "new": float(new_v),
                     "ratio": ratio, "regressed": ratio > fail_over})
    return rows


def regressions(rows: Sequence[Mapping[str, object]]) -> List[Mapping[str, object]]:
    return [row for row in rows if row.get("regressed")]
