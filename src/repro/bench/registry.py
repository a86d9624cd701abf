"""Scenario registry for the unified benchmark harness.

A *scenario* is one registered sweep of a benchmark module (``benchmarks/
bench_*.py``); a :class:`RunSpec` pins one concrete execution of it
(workload x algorithm x eps x seed x repeats).  The runner
(:mod:`repro.bench.runner`) times scenario executions and turns them into the
JSON records that ``python -m repro.bench`` emits.

Scenarios register themselves at import time with the :func:`register`
decorator; :mod:`repro.bench.discovery` imports every ``bench_*.py`` module so
the registry is populated before a CLI run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.instrumentation.counters import Counters


def smoke_mode() -> bool:
    """Whether ``REPRO_BENCH_SMOKE=1`` asks for seconds-scale configurations."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@dataclass(frozen=True)
class RunSpec:
    """One concrete scenario execution.

    ``eps`` is ``None`` when the caller did not pin it; scenarios resolve
    their own default via :meth:`resolved_eps`.  ``workload`` / ``algorithm``
    are free-form selectors a scenario may interpret (most have a single
    natural workload and ignore them).
    """

    scenario: str
    suite: str
    workload: str = "default"
    algorithm: str = "default"
    eps: Optional[float] = None
    seed: int = 0
    repeats: int = 1
    warmup: int = 0
    smoke: bool = False

    def resolved_eps(self, default: float = 0.25) -> float:
        return default if self.eps is None else self.eps

    def params(self) -> Dict[str, object]:
        """The ``params`` object of the emitted JSON record."""
        return {
            "suite": self.suite,
            "workload": self.workload,
            "algorithm": self.algorithm,
            "eps": self.eps,
            "seed": self.seed,
            "repeats": max(1, self.repeats),
            "warmup": max(0, self.warmup),
            "smoke": self.smoke,
        }


#: A scenario body: runs the measured work, charging ``counters``; any mapping
#: it returns is merged into the record's ``counters`` (derived values such as
#: approximation ratios that no library counter tracks).
ScenarioFn = Callable[[RunSpec, Counters], Optional[Mapping[str, float]]]


@dataclass(frozen=True)
class Scenario:
    """A registered benchmark sweep."""

    name: str
    suite: str
    fn: ScenarioFn
    description: str = ""
    #: which free-form RunSpec selectors ("workload", "algorithm") the
    #: scenario interprets; passing a non-default value for an undeclared
    #: selector is rejected by the runner, because the emitted record carries
    #: the selector verbatim and running anything else would mislabel it.
    selectors: Tuple[str, ...] = ()


_REGISTRY: Dict[str, Scenario] = {}


def register(name: str, suite: str, description: str = "",
             selectors: Tuple[str, ...] = ()):
    """Decorator registering ``fn`` as scenario ``name`` in ``suite``.

    Re-registering a name overwrites the previous entry, so a benchmark
    module imported under two names (``__main__`` plus discovery) stays
    idempotent.
    """

    def decorator(fn: ScenarioFn) -> ScenarioFn:
        _REGISTRY[name] = Scenario(name=name, suite=suite, fn=fn,
                                   description=description,
                                   selectors=tuple(selectors))
        return fn

    return decorator


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; registered: "
                       f"{sorted(_REGISTRY) or '(none)'}") from None


def scenarios(suite: Optional[str] = None) -> List[Scenario]:
    """All registered scenarios (optionally restricted to one suite), by name."""
    out = [s for s in _REGISTRY.values() if suite is None or s.suite == suite]
    return sorted(out, key=lambda s: s.name)


def suite_names() -> List[str]:
    return sorted({s.suite for s in _REGISTRY.values()})
