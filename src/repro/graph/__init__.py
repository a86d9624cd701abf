"""Graph substrates: static graphs, dynamic graphs, bipartite covers, generators.

This sub-package provides every graph container the boosting framework and its
substrates operate on:

* :class:`~repro.graph.graph.Graph` -- a mutable undirected simple graph that
  owns its storage (one adjacency set per vertex), the container used by all
  static algorithms; :mod:`~repro.graph.graph` also holds the edge-array
  helpers the array code shares.
* :class:`~repro.graph.dynamic_graph.DynamicGraph` -- a fully dynamic graph
  with insert/delete updates and the Problem 1 accounting, used by the
  Section 7 algorithms.
* :class:`~repro.graph.bipartite.BipartiteDoubleCover` -- the auxiliary graph
  ``B`` of Definition 6.3 (every vertex split into an outer copy ``v+`` and an
  inner copy ``v-``).
* :mod:`~repro.graph.generators` -- synthetic workload generators (random
  graphs, planted matchings, paths/cycles, blossom gadgets, ORS-style layered
  induced matchings).
"""

from repro.graph.graph import Graph
from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.bipartite import BipartiteDoubleCover, is_bipartite, bipartition

__all__ = [
    "Graph",
    "DynamicGraph",
    "Update",
    "BipartiteDoubleCover",
    "is_bipartite",
    "bipartition",
]
