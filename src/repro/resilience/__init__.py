"""Fault injection, retry/timeout policies and checkpoint/resume.

The package splits into two layers:

* **stdlib-only primitives** (:mod:`repro.resilience.faults`,
  :mod:`repro.resilience.retry`, :mod:`repro.resilience.timeouts`) that the
  bench runner, its pool worker and the simulators import directly -- they
  pull in nothing beyond ``hashlib``/``signal``, so threading a
  :class:`FaultPlan` through ``repro.exec`` or the simulators creates no
  import cycles;
* **maintainer checkpointing** (:mod:`repro.resilience.checkpoint`,
  :mod:`repro.resilience.harness`) which depends on ``repro.dynamic`` and
  NumPy and is therefore loaded lazily through module ``__getattr__``.
"""

from __future__ import annotations

from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.timeouts import TaskTimeout, deadline

_LAZY = {
    "CheckpointError": "repro.resilience.checkpoint",
    "MaintainerCheckpoint": "repro.resilience.checkpoint",
    "CHECKPOINT_VERSION": "repro.resilience.checkpoint",
    "RecoveryStats": "repro.resilience.harness",
    "run_with_recovery": "repro.resilience.harness",
}

__all__ = ["FaultPlan", "RetryPolicy", "TaskTimeout", "deadline",
           *sorted(_LAZY)]


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
