"""Section 7: fully dynamic and offline (1+eps)-approximate matching.

Contents:

* :mod:`~repro.dynamic.interfaces` -- the dynamic-algorithm protocol and
  its shared update accounting;
* :mod:`~repro.dynamic.weak_oracles` -- concrete ``Aweak`` implementations
  (greedy-induced, OMv-backed);
* :mod:`~repro.dynamic.omv` -- the online matrix-vector substrate
  (Definition 7.5/7.6) and the Lemma 7.9-style induced-matching routine;
* :mod:`~repro.dynamic.fully_dynamic` -- the Theorem 7.1-style maintainer
  (periodic rebuild through the Section 6 framework);
* :mod:`~repro.dynamic.offline` -- the offline variant (Theorem 7.15 flavour);
* :mod:`~repro.dynamic.baselines` -- the McGregor-style comparator of
  Table 2.
"""

from repro.dynamic.interfaces import DynamicMatchingAlgorithm
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle, OMvWeakOracle
from repro.dynamic.omv import OMvMatrix, ApproximateOMv
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.offline import OfflineDynamicMatching
from repro.dynamic.baselines import ExponentialBoostingDynamic

__all__ = [
    "DynamicMatchingAlgorithm",
    "GreedyInducedWeakOracle",
    "OMvWeakOracle",
    "OMvMatrix",
    "ApproximateOMv",
    "FullyDynamicMatching",
    "OfflineDynamicMatching",
    "ExponentialBoostingDynamic",
]
