"""Small shared utilities with no dependency on the algorithm layers."""

from repro.utils.seeding import derived_seeds, rng

__all__ = ["derived_seeds", "rng"]
