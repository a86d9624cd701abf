"""Prior-work boosting frameworks used as comparators in the benchmarks.

* :mod:`~repro.baselines.mcgregor` -- the [McG05]-style layered framework with
  an exponential 1/eps dependence (the basis of the prior dynamic reductions
  in Table 2);
* :mod:`~repro.baselines.fmu22` -- the [FMU22]-style simulation schedule with a
  poly(1/eps) number of oracle iterations per procedure (the Table 1
  comparator this paper improves to O(log(1/eps)) per procedure).
"""

from repro.baselines.mcgregor import mcgregor_boost
from repro.baselines.fmu22 import fmu22_boost, fmu22_scheduled_calls, FMU22Driver

__all__ = [
    "mcgregor_boost",
    "fmu22_boost",
    "fmu22_scheduled_calls",
    "FMU22Driver",
]
