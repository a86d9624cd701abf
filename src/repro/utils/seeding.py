"""One seed-derivation convention for the whole repository.

Every module that draws randomness used to carry its own ``_rng(seed)``
helper, and the modules that needed *independent* streams (e.g. the planted
churn workload, whose graph noise must not perturb which planted edges get
churned) each re-implemented the same derivation dance.  This module is the
single definition:

* :func:`rng` -- the root stream: ``random.Random(seed)``, bit-for-bit what
  the per-module helpers produced.
* :func:`derived_seeds` -- *named substreams*: child
  seeds drawn from the root in the order the names are given, so
  ``derived_seeds(seed, "graph", "churn")`` reproduces the historical

      root = random.Random(seed)
      graph_seed = root.randrange(2 ** 63)
      churn_seed = root.randrange(2 ** 63)

  draw sequence exactly.  Substreams are deterministic in ``(seed, position)``;
  the names document which consumer owns which draw and make call sites
  self-checking (asking for the same substreams in a different order is a
  *different* derivation, visible in review).

Seeded outputs everywhere in the repo are pinned by tests; this module must
never change its draw sequence.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

#: Child seeds are drawn uniformly from ``[0, 2**63)`` -- the historical
#: convention of the workload generators (kept so existing seeded outputs
#: are preserved).
_CHILD_SEED_BOUND = 2 ** 63


def rng(seed: Optional[int]) -> random.Random:
    """The root RNG for ``seed`` (``None`` seeds from the OS, as ever)."""
    return random.Random(seed)


def derived_seeds(seed: Optional[int], *names: str) -> Dict[str, int]:
    """Derive one child seed per name, drawn from the root in name order.

    The result maps each name to an independent child seed; two substreams
    derived from the same root never share state, and adding a name at the
    *end* of the list never perturbs the seeds of the earlier names.
    """
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate substream names: {names}")
    root = rng(seed)
    return {name: root.randrange(_CHILD_SEED_BOUND) for name in names}
