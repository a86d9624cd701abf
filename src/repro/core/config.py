"""Parameter schedules for the framework.

The paper's algorithm is organised as

    scales h = 1/2, 1/4, ..., eps^2/64          (Algorithm 1, line 2)
      phases t = 1 .. 144/(h*eps)               (Algorithm 1, line 3)
        pass-bundles tau = 1 .. 72/(h*eps)      (Algorithm 2, line 5)
          [oracle mode] stages s = 0 .. l_max,  (Algorithm 5)
            iterations   1 .. 22*c*ln(1/eps)    (Algorithms 4 and 5)

with l_max = 3/eps, structure-size limit limit_h = 6/h + 1 and the structure
size bound Delta_h = 36 h / eps (Lemma 4.5).

Those constants are proof artefacts: they are chosen so that union bounds and
negligibility arguments close, and they are wildly conservative (the paper
itself notes that e.g. delta = eps^107 "can be greatly reduced by a more
careful analysis", Remark 3).  Executing the literal schedule on any graph a
Python process can hold would perform astronomically many no-op passes.

:class:`ParameterProfile` therefore exposes two constructors:

* :meth:`ParameterProfile.paper` -- the literal formulas, for inspection and
  for the invocation-count *accounting* reported in the Table 1 benchmark;
* :meth:`ParameterProfile.practical` -- the same schedule *shape* with small
  multiplicative constants and early-exit enabled, used for actually running
  the algorithms.  All approximation-quality tests run against this profile
  and verify the output empirically against the exact optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List


def _next_power_of_two_inverse(eps: float) -> float:
    """Round eps down so that 1/eps is a power of two (Section 3 assumption)."""
    if not 0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 0.5], got {eps}")
    k = math.ceil(math.log2(1.0 / eps))
    return 1.0 / (2 ** k)


@dataclass(frozen=True)
class ParameterProfile:
    """A concrete parameter schedule.

    Attributes
    ----------
    eps:
        Target approximation parameter (possibly rounded so 1/eps is a power
        of two).
    ell_max:
        Maximum label / structure depth, ``3/eps`` in the paper.
    scales:
        The list of scales ``h`` (decreasing powers of two).
    phase_factor, bundle_factor:
        ``phases(h) = ceil(phase_factor / (h * eps))`` and similarly for
        pass-bundles; the paper uses 144 and 72.
    sim_iterations:
        Iterations per simulated procedure (Algorithms 4/5); the paper uses
        ``22 c ln(1/eps)``.
    limit_factor:
        ``limit_h = limit_factor / h + 1`` (paper: 6).
    delta:
        The ``delta`` handed to the weak oracle in Section 6 (paper: eps^107;
        practical: Theta(eps)).
    early_exit:
        Allow skipping the remainder of a scale once a phase finds no
        augmentation (sound: phases are deterministic restarts, so an
        unproductive phase would repeat forever).
    max_phase_cap, max_bundle_cap:
        Hard caps to keep practical runs bounded.
    """

    eps: float
    ell_max: int
    scales: List[float]
    phase_factor: float
    bundle_factor: float
    sim_iterations: int
    limit_factor: float
    delta: float
    early_exit: bool = True
    max_phase_cap: int = 10 ** 9
    max_bundle_cap: int = 10 ** 9
    oracle_c: float = 2.0
    #: phase-engine selector: ``"array"`` (vectorized candidate generation,
    #: the default) or ``"reference"`` (the scalar path, kept as the parity
    #: oracle).  Both engines are byte-identical -- same matchings, same
    #: counters, same rng stream; any other name is rejected by
    #: :class:`~repro.core.structures.PhaseState`.
    engine: str = "array"
    #: epoch-repair selector for the dynamic maintainers: ``"rebuild"`` (the
    #: default -- every epoch boundary reconstructs the per-phase state from
    #: scratch) or ``"incremental"`` (reuse a persistent
    #: :class:`~repro.core.repair.RepairContext` so a rebuild touches only
    #: the state the updates since the previous rebuild actually dirtied).
    #: Both modes execute the identical algorithm and are byte-identical --
    #: same matchings, same counters, same rng stream -- which the repair
    #: parity suite pins, mirroring the ``engine`` seam.
    repair: str = "rebuild"
    #: incremental-repair fallback threshold: when more than this many
    #: distinct edges changed since the frozen-graph views were last synced,
    #: the :class:`~repro.core.repair.RepairContext` recompiles them
    #: wholesale instead of patching (patching is O(m + k) per sync; past
    #: this point the wholesale O(m log m) rebuild is cheaper and simpler)
    repair_patch_cap: int = 2048

    # ------------------------------------------------------------ constructors
    @classmethod
    def paper(cls, eps: float, c: float = 2.0) -> "ParameterProfile":
        """The literal schedule of the paper (use for accounting, not running)."""
        eps = _next_power_of_two_inverse(eps)
        ell_max = max(1, int(round(3.0 / eps)))
        scales = cls._scales(eps)
        sim_iters = max(1, int(math.ceil(22 * c * math.log(1.0 / eps))))
        return cls(
            eps=eps,
            ell_max=ell_max,
            scales=scales,
            phase_factor=144.0,
            bundle_factor=72.0,
            sim_iterations=sim_iters,
            limit_factor=6.0,
            delta=eps ** 107,
            early_exit=False,
            oracle_c=c,
        )

    @classmethod
    def practical(cls, eps: float, c: float = 2.0,
                  max_phase_cap: int = 64,
                  max_bundle_cap: int = 256) -> "ParameterProfile":
        """Same schedule shape with small constants and early exit (default)."""
        eps = _next_power_of_two_inverse(eps)
        ell_max = max(3, int(round(3.0 / eps)))
        scales = cls._scales(eps)
        sim_iters = max(2, int(math.ceil(2 * math.log(1.0 / eps) + 2)))
        return cls(
            eps=eps,
            ell_max=ell_max,
            scales=scales,
            phase_factor=4.0,
            bundle_factor=4.0,
            sim_iterations=sim_iters,
            limit_factor=6.0,
            delta=max(eps / 8.0, 1e-6),
            early_exit=True,
            max_phase_cap=max_phase_cap,
            max_bundle_cap=max_bundle_cap,
            oracle_c=c,
        )

    # ------------------------------------------------------------ schedule API
    @staticmethod
    def _scales(eps: float) -> List[float]:
        scales: List[float] = []
        h = 0.5
        floor = (eps ** 2) / 64.0
        while h >= floor and h > 1e-12:
            scales.append(h)
            h /= 2.0
        if not scales:
            scales.append(0.5)
        return scales

    def phases(self, h: float) -> int:
        """Number of phases at scale ``h``."""
        return min(self.max_phase_cap,
                   max(1, int(math.ceil(self.phase_factor / (h * self.eps)))))

    def pass_bundles(self, h: float) -> int:
        """Number of pass-bundles per phase at scale ``h`` (tau_max)."""
        return min(self.max_bundle_cap,
                   max(1, int(math.ceil(self.bundle_factor / (h * self.eps)))))

    def structure_limit(self, h: float) -> int:
        """``limit_h``: structures at or above this size are put on hold."""
        return max(3, int(math.ceil(self.limit_factor / h)) + 1)

    def structure_size_bound(self, h: float) -> int:
        """``Delta_h = 36 h / eps`` (Lemma 4.5), the proof-level size bound."""
        return max(3, int(math.ceil(36.0 * h / self.eps)))

    def stages(self) -> range:
        """Stage labels for the Extend-Active-Path simulation (Algorithm 5)."""
        return range(0, self.ell_max + 1)

    @property
    def label_default(self) -> int:
        """The initial label ``l_max + 1`` of every matched arc."""
        return self.ell_max + 1

    # ---------------------------------------------------------- cost formulas
    def paper_invocation_bound(self) -> float:
        """O(log(1/eps)/eps^7) -- the headline oracle-call bound of Theorem 1.1."""
        return math.log(1.0 / self.eps) / (self.eps ** 7)

    def fmu22_invocation_bound(self) -> float:
        """O(1/eps^52) -- the [FMU22] bound quoted in Table 1 (MPC row)."""
        return 1.0 / (self.eps ** 52)

    def fmu22_mmss25_invocation_bound(self) -> float:
        """O(1/eps^39) -- the [FMU22]+[MMSS25] bound quoted in Table 1."""
        return 1.0 / (self.eps ** 39)
