"""The paper's primary contribution: structures, phases, and boosting frameworks.

Layout (mirroring the paper):

* :mod:`~repro.core.config` -- the parameter schedule (scales, phases,
  pass-bundles, stages, iteration counts), with both the paper's proof-level
  constants and a practical profile.
* :mod:`~repro.core.structures` -- free-vertex structures ``S_alpha``
  (alternating trees over contracted blossoms), labels, and the per-phase
  global state (Section 4.1 - 4.4).
* :mod:`~repro.core.operations` -- the three basic operations ``Augment``,
  ``Contract`` and ``Overtake`` (Section 4.5).
* :mod:`~repro.core.phase` -- ``Alg-Phase``: pass-bundles, Extend-Active-Path,
  Contract-and-Augment, Backtrack-Stuck-Structures (Sections 4.6 - 4.8),
  parameterised by a *driver* so the same machinery runs in streaming mode
  (direct edge scans) or oracle mode (Sections 5 and 6).
* :mod:`~repro.core.streaming` -- the [MMSS25] semi-streaming algorithm
  (Algorithm 1), the starting point of the framework.
* :mod:`~repro.core.oracles` -- the ``Amatching`` oracle protocol and concrete
  Theta(1)-approximate oracles with invocation counting.
* :mod:`~repro.core.boosting` -- the static boosting framework of Section 5
  (Theorem 1.1).
* :mod:`~repro.core.dynamic_boosting` -- the weak-oracle boosting framework of
  Section 6 (Theorem 6.2).
"""

from repro.core.config import ParameterProfile
from repro.core.oracles import (
    MatchingOracle,
    GreedyMatchingOracle,
    RandomGreedyMatchingOracle,
    CountingOracle,
)
from repro.core.streaming import semi_streaming_matching
from repro.core.boosting import BoostingFramework, boost_matching
from repro.core.dynamic_boosting import WeakOracleBoostingFramework, boost_matching_weak

__all__ = [
    "ParameterProfile",
    "MatchingOracle",
    "GreedyMatchingOracle",
    "RandomGreedyMatchingOracle",
    "CountingOracle",
    "semi_streaming_matching",
    "BoostingFramework",
    "boost_matching",
    "WeakOracleBoostingFramework",
    "boost_matching_weak",
]
