"""Fault injection and checkpoint/resume.

The package splits into two layers:

* :mod:`repro.resilience.faults` (a deterministic :class:`FaultPlan` of
  maintainer-update crashes and simulator message faults), which the
  simulators import directly -- it pulls in nothing beyond the standard
  library and :mod:`repro.utils`, so threading a plan through
  ``repro.exec`` or the simulators creates no import cycles;
* **maintainer checkpointing** (:mod:`repro.resilience.checkpoint`,
  :mod:`repro.resilience.harness`) which depends on ``repro.dynamic`` and
  NumPy and is therefore loaded lazily through module ``__getattr__``.
"""

from __future__ import annotations

from repro.resilience.faults import FaultPlan

_LAZY = {
    "CheckpointError": "repro.resilience.checkpoint",
    "MaintainerCheckpoint": "repro.resilience.checkpoint",
    "CHECKPOINT_VERSION": "repro.resilience.checkpoint",
    "RecoveryStats": "repro.resilience.harness",
    "run_with_recovery": "repro.resilience.harness",
}

__all__ = ["FaultPlan", *sorted(_LAZY)]


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
