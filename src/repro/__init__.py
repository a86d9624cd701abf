"""repro: reproduction of "A framework for boosting matching approximation:
parallel, distributed, and dynamic" (Mitrović & Sheu, SPAA 2025).

Top-level convenience re-exports; see the sub-packages for the full API:

* :mod:`repro.graph` -- graph containers and workload generators,
* :mod:`repro.matching` -- greedy/exact matching substrates and verification,
* :mod:`repro.core` -- the paper's structures, semi-streaming algorithm and
  the static (Section 5) and weak-oracle (Section 6) boosting frameworks,
* :mod:`repro.mpc`, :mod:`repro.congest` -- model substrates and the
  Corollary A.1/A.2 instantiations,
* :mod:`repro.dynamic` -- the Section 7 fully dynamic / offline algorithms,
* :mod:`repro.baselines` -- prior-work boosting frameworks used as comparators,
* :mod:`repro.instrumentation` -- counters and benchmark reporting.
"""

from __future__ import annotations

__version__ = "1.0.0"

# Re-exports load on first attribute access, so importing a stdlib-only
# sub-package (``repro.analysis``) does not pull in NumPy.
_LAZY = {
    "Graph": "repro.graph",
    "DynamicGraph": "repro.graph",
    "Matching": "repro.matching",
    "maximum_matching": "repro.matching",
    "greedy_maximal_matching": "repro.matching",
    "ParameterProfile": "repro.core",
    "semi_streaming_matching": "repro.core",
    "boost_matching": "repro.core",
    "boost_matching_weak": "repro.core",
    "BoostingFramework": "repro.core",
    "WeakOracleBoostingFramework": "repro.core",
    "Counters": "repro.instrumentation",
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
