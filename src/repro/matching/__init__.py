"""Matching primitives: containers, greedy/exact algorithms, verification.

These are the substrates every part of the framework relies on:

* :class:`~repro.matching.matching.Matching` -- mutable matching container with
  validation and path augmentation (the object the framework improves).
* :func:`~repro.matching.greedy.greedy_maximal_matching` /
  :func:`~repro.matching.greedy.random_greedy_matching` -- the textbook
  2-approximations, used as the Theta(1)-approximate oracles ``Amatching``.
* :func:`~repro.matching.hopcroft_karp.hopcroft_karp` -- exact maximum matching
  in bipartite graphs (the fast exact reference on bipartite inputs).
* :func:`~repro.matching.blossom.maximum_matching` -- exact maximum matching in
  general graphs (Edmonds' blossom algorithm), the ground truth every
  approximation test compares against, and the local augmenting-path finder
  used inside the ``Augment`` operation.
* :mod:`~repro.matching.verify` -- certification helpers (validity, approximation
  ratio, Berge-style certificates of near-optimality).
"""

from repro.matching.matching import Matching
from repro.matching.greedy import greedy_maximal_matching, random_greedy_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.blossom import maximum_matching, maximum_matching_size, find_augmenting_path
from repro.matching.verify import (
    is_valid_matching,
    approximation_ratio,
    has_short_augmenting_path,
)

__all__ = [
    "Matching",
    "greedy_maximal_matching",
    "random_greedy_matching",
    "hopcroft_karp",
    "maximum_matching",
    "maximum_matching_size",
    "find_augmenting_path",
    "is_valid_matching",
    "approximation_ratio",
    "has_short_augmenting_path",
]
