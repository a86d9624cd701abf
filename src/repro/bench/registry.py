"""Scenario registry for the unified benchmark harness.

A *scenario* is one registered sweep of a benchmark module (``benchmarks/
bench_*.py``); a :class:`RunSpec` pins one concrete execution of it
(eps x seed x repeats x smoke).  The runner
(:mod:`repro.bench.runner`) times scenario executions and turns them into the
JSON records that ``python -m repro.bench`` emits.

Scenarios register themselves at import time with the :func:`register`
decorator; :mod:`repro.bench.discovery` imports every ``bench_*.py`` module so
the registry is populated before a CLI run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.instrumentation.counters import Counters


@dataclass(frozen=True)
class RunSpec:
    """One concrete scenario execution.

    ``eps`` is ``None`` when the caller did not pin it; scenarios resolve
    their own default via :meth:`resolved_eps`.  ``repeats`` must be at
    least 1 and ``warmup`` at least 0, else construction raises
    :class:`ValueError`.
    """

    scenario: str
    suite: str
    eps: Optional[float] = None
    seed: int = 0
    repeats: int = 1
    warmup: int = 0
    smoke: bool = False

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")

    def resolved_eps(self, default: float = 0.25) -> float:
        return default if self.eps is None else self.eps

    def params(self) -> Dict[str, object]:
        """The ``params`` object of the emitted JSON record."""
        return {
            "suite": self.suite,
            "eps": self.eps,
            "seed": self.seed,
            "repeats": self.repeats,
            "warmup": self.warmup,
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


_REGISTRY: Dict[str, Scenario] = {}


def register(name: str, suite: str, description: str = ""):
    """Decorator registering ``fn`` as scenario ``name`` in ``suite``.

    Re-registering a name overwrites the previous entry, so a benchmark
    module imported under two names (``__main__`` plus discovery) stays
    idempotent.
    """

    def decorator(fn: ScenarioFn) -> ScenarioFn:
        _REGISTRY[name] = Scenario(name=name, suite=suite, fn=fn,
                                   description=description)
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
