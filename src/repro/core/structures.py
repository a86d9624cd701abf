"""Free-vertex structures, blossom nodes, labels and the per-phase state.

This module implements the data model of Section 4.1:

* a :class:`StructNode` is a vertex of the contracted graph ``G' = G/Omega``
  that belongs to some structure -- either a trivial blossom (a single
  G-vertex) or a contracted non-trivial blossom (an odd set of G-vertices with
  a base);
* a :class:`Structure` ``S_alpha`` is an alternating tree of struct-nodes
  rooted at the free vertex ``alpha``, with a working vertex ``w'_alpha`` and
  the on-hold / modified / extended marks of Section 4.4;
* a :class:`PhaseState` holds the global per-phase state: which structure (if
  any) each G-vertex belongs to, which vertices were (hypothetically) removed
  by ``Augment``, the labels of matched edges (Definition 4.4), and the
  augmentations recorded so far.

Deviations from the paper:

* labels are kept per matched *edge* rather than per directed arc -- a
  conservative simplification (it can only forbid overtakes the paper would
  allow, never enable an illegal one);
* a recorded augmentation stores the local re-matching of the two structures'
  vertex sets rather than an explicit alternating path; the re-matching is
  produced by an exact Edmonds search on that (small) vertex set, so every
  recorded augmentation increases the matching size by exactly one when it is
  applied at the end of the phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.graph.graph import Graph, compile_csr
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters

Edge = Tuple[int, int]

_node_ids = itertools.count()


class OrderedNodeSet:
    """Insertion-ordered set of :class:`StructNode`\\ s.

    Iteration order must be determined by the algorithm alone: structures
    are walked when collecting outer vertices, so a plain ``set`` (iterated
    in object-address hash order) made seeded runs diverge between processes
    -- the parallel bench runner exposed exactly that.  A dict preserves
    insertion order; membership stays identity-based like the set it
    replaces.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable["StructNode"] = ()) -> None:
        self._items: Dict["StructNode", None] = dict.fromkeys(items)

    def add(self, node: "StructNode") -> None:
        self._items[node] = None

    def discard(self, node: "StructNode") -> None:
        self._items.pop(node, None)

    def clear(self) -> None:
        self._items.clear()

    def __contains__(self, node: object) -> bool:
        return node in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"OrderedNodeSet({list(self._items)!r})"


class StructNode:
    """A vertex of the contracted graph ``G'`` inside some structure.

    A trivial node holds a single G-vertex; a blossom node holds an odd number
    of G-vertices and remembers its *base* (the unique vertex left unmatched by
    the matching restricted to the blossom, Section 3.2).
    Inner nodes are always trivial (Definition 3.8, condition C2).

    ``arcs`` memoises :meth:`PhaseState.node_arcs`; a blossom keeps the
    nodes it ``absorbed`` until its arcs are first gathered from theirs.
    """

    __slots__ = ("id", "vertices", "base", "outer", "parent", "children",
                 "structure", "arcs", "absorbed")

    def __init__(self, vertices: Sequence[int], base: int, outer: bool,
                 structure: "Structure") -> None:
        self.id = next(_node_ids)
        self.vertices: List[int] = list(vertices)
        self.base = base
        self.outer = outer
        self.parent: Optional["StructNode"] = None
        self.children: List["StructNode"] = []
        self.structure = structure
        self.arcs: Optional[Tuple[_np.ndarray, _np.ndarray]] = None
        self.absorbed: Optional[List["StructNode"]] = None

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def ancestors(self) -> Iterable["StructNode"]:
        """This node and all its ancestors up to the root."""
        node: Optional[StructNode] = self
        while node is not None:
            yield node
            node = node.parent

    def subtree(self) -> List["StructNode"]:
        """This node and all its descendants (iterative DFS)."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out

    def is_ancestor_of(self, other: "StructNode") -> bool:
        return any(anc is self for anc in other.ancestors())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "outer" if self.outer else "inner"
        return f"StructNode(id={self.id}, {kind}, base={self.base}, |B|={len(self.vertices)})"


class Structure:
    """The structure ``S_alpha`` of a free vertex ``alpha`` (Definition 4.1)."""

    __slots__ = ("alpha", "root", "working", "nodes", "g_vertices",
                 "on_hold", "modified", "extended",
                 "_outer_cache", "_sorted_cache")

    def __init__(self, alpha: int) -> None:
        self.alpha = alpha
        self.root = StructNode([alpha], alpha, outer=True, structure=self)
        self.working: Optional[StructNode] = self.root
        self.nodes: OrderedNodeSet = OrderedNodeSet((self.root,))
        self.g_vertices: Set[int] = {alpha}
        self.on_hold = False
        self.modified = False
        self.extended = False
        self._outer_cache: Optional[List[int]] = None
        self._sorted_cache: Optional[List[int]] = None

    @property
    def size(self) -> int:
        """Number of G-vertices in the structure (|S_alpha| of Section 5.1)."""
        return len(self.g_vertices)

    @property
    def active(self) -> bool:
        """Whether the structure has a working vertex (Definition 4.3)."""
        return self.working is not None

    def active_path(self) -> List[StructNode]:
        """Nodes on the active path, root first (Definition 4.2); [] if inactive."""
        if self.working is None:
            return []
        path = list(self.working.ancestors())
        path.reverse()
        return path

    def outer_vertices(self) -> List[int]:
        """All G-vertices lying in outer nodes of the structure.

        Memoised between mutations (the sampling drivers call this once per
        oracle iteration); treat the returned list as read-only.
        """
        out = self._outer_cache
        if out is None:
            out = self._outer_cache = [x for node in self.nodes if node.outer
                                       for x in node.vertices]
        return out

    def sorted_vertices(self) -> List[int]:
        """``g_vertices`` in ascending order, memoised between mutations.

        The sampling drivers draw one uniform vertex per structure per
        iteration; sorting the set on every draw dominated the dynamic-stack
        profile, so the sorted view is cached and invalidated on mutation.
        """
        out = self._sorted_cache
        if out is None:
            out = self._sorted_cache = sorted(self.g_vertices)
        return out

    def invalidate_caches(self) -> None:
        """Drop memoised vertex views (call after membership/flag changes)."""
        self._outer_cache = None
        self._sorted_cache = None

    def reset_marks(self, limit: int) -> None:
        """Per-pass-bundle initialisation (Algorithm 2, lines 6-9)."""
        self.on_hold = self.size >= limit
        self.modified = False
        self.extended = False

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Structure(alpha={self.alpha}, size={self.size}, "
                f"active={self.active}, on_hold={self.on_hold})")


@dataclass
class AugmentationRecord:
    """One recorded augmentation: the vertex set and its new local matching."""

    vertices: List[int]
    new_edges: List[Edge]


class FrozenViews:
    """Frozen-graph view cache, shareable across the phases of one rebuild.

    ``run_phase`` freezes the graph, and the boosting frameworks run many
    phases over the *same* fixed graph before it next mutates -- so the
    deterministic derived views (canonical edge pairs, CSR arrays and
    sorted neighbour lists) can be materialised once per rebuild instead of
    once per phase.  A framework threads one instance through
    ``run_phase(..., shared_views=...)``; a standalone phase gets a private
    instance and behaves exactly as before.  Never reuse an instance across
    graph mutations, and never share one into a context-attached phase (the
    repair context patches its own views between phases).
    """

    __slots__ = ("edge_pairs", "eu", "ev", "indptr", "indices", "nbrs")

    def __init__(self) -> None:
        self.edge_pairs: Optional[List[Edge]] = None
        self.eu = None
        self.ev = None
        self.indptr = None
        self.indices = None
        self.nbrs: Dict[int, List[int]] = {}


class PhaseState:
    """Global state of one phase (Algorithm 2) over a graph and matching.

    Array layout
    ------------
    The per-vertex state is kept twice: as the scalar Python structures the
    pointer-chasing code paths read (``node_of``, ``removed``, ``vlabel``)
    and as flat int/bool array mirrors (``removed_arr``, ``vlabel_arr``,
    ``outer_arr``, ``sid_arr``, ``nid_arr``) the vectorized passes consume
    in bulk.  Both views are mutated ONLY through the helpers below
    (:meth:`register_node`, :meth:`mark_removed`, :meth:`move_to_structure`,
    :meth:`set_label`), so they can never diverge; :meth:`check_invariants`
    cross-checks them.

    Labels are stored per *vertex* rather than per matched edge: the matching
    is frozen for the duration of a phase (augmentations are recorded and
    applied afterwards), so every matched vertex has exactly one incident
    matched edge and ``vlabel[v]`` is that edge's label (Definition 4.4);
    free vertices keep ``vlabel[v] = 0``, which makes ``label_of_vertex`` an
    O(1) array read.

    The phase also freezes the graph, so canonical edge/arc/adjacency views
    are materialised lazily once per phase (:meth:`edge_pairs`,
    :meth:`edge_arrays`, :meth:`adjacency`, :meth:`sorted_neighbors`) in a
    deterministic key-sorted order shared by both engines, and a scanned
    node's arcs are memoised on the node (:meth:`node_arcs`).
    """

    def __init__(self, graph: Graph, matching: Matching, ell_max: int,
                 counters: Optional[Counters] = None,
                 engine: str = "array", context=None,
                 shared_views: Optional[FrozenViews] = None) -> None:
        if engine not in ("array", "reference"):
            raise ValueError(f"unknown phase engine {engine!r}")
        self.graph = graph
        self.matching = matching
        self.ell_max = ell_max
        self.label_default = ell_max + 1
        self.counters = counters if counters is not None else Counters()
        self.engine = engine
        self.context = context
        self.structures: Dict[int, Structure] = {}
        self.records: List[AugmentationRecord] = []
        # frozen-graph derived views (edge pairs, CSR, sorted neighbours),
        # possibly shared across the phases of one rebuild -- see
        # FrozenViews.  Context-attached phases always get a private
        # instance: their views delegate to the context's patched copies.
        self._views = (shared_views
                       if shared_views is not None and context is None
                       else FrozenViews())

        if context is not None:
            # incremental repair: borrow the persistent per-vertex state and
            # the patchable frozen views instead of allocating O(n) afresh;
            # the mutation funnel below journals every touched vertex so the
            # context can reset in O(touched) when the phase detaches
            context.attach(self)
            return

        n = graph.n
        self.node_of: List[Optional[StructNode]] = [None] * n
        self.removed: List[bool] = [False] * n
        mate = matching.mate_list()
        default = self.label_default
        # per-vertex label of the (unique) incident matched edge; 0 if free
        self.vlabel: List[int] = [0 if m is None else default for m in mate]

        self.mate_arr = _np.fromiter(
            (-1 if m is None else m for m in mate), dtype=_np.int64, count=n)
        self.matched_arr = self.mate_arr >= 0
        self.removed_arr = _np.zeros(n, dtype=bool)
        self.vlabel_arr = _np.where(self.matched_arr, default, 0).astype(_np.int64)
        self.outer_arr = _np.zeros(n, dtype=bool)
        self.sid_arr = _np.full(n, -1, dtype=_np.int64)
        self.nid_arr = _np.full(n, -1, dtype=_np.int64)

    # ----------------------------------------------------------- construction
    def init_structures(self) -> None:
        """Create the single-vertex structure of every free vertex (Alg. 2, l.3)."""
        if self.graph.n - 2 * self.matching.size == 0:
            # a perfect matching leaves no free vertex: skip the O(n) scan
            return
        free = (self.context.free_vertices() if self.context is not None
                else self.matching.free_vertices())
        structures = self.structures
        node_of = self.node_of
        root_ids = []
        for alpha in free:
            structure = structures[alpha] = Structure(alpha)
            root = structure.root
            node_of[alpha] = root
            root_ids.append(root.id)
        # the roots' mirror entries, written the way register_node would
        # write them one by one, in one vectorized pass
        self.nid_arr[free] = root_ids
        self.outer_arr[free] = True
        self.sid_arr[free] = free
        if self.context is not None:
            self.context._touched.extend(free)

    # -------------------------------------------------- state mutation funnel
    def register_node(self, node: StructNode) -> None:
        """Point every vertex of ``node`` at it (scalar state + array mirrors)."""
        verts = node.vertices
        if len(verts) == 1:
            # trivial nodes (every overtake registers two) take scalar
            # writes: list-indexed NumPy assignment costs ~6x more
            x = verts[0]
            self.node_of[x] = node
            self.nid_arr[x] = node.id
            self.outer_arr[x] = node.outer
            self.sid_arr[x] = node.structure.alpha
            if self.context is not None:
                self.context._touched.append(x)
            return
        node_of = self.node_of
        for x in verts:
            node_of[x] = node
        self.nid_arr[verts] = node.id
        self.outer_arr[verts] = node.outer
        self.sid_arr[verts] = node.structure.alpha
        if self.context is not None:
            self.context._touched.extend(verts)

    def move_to_structure(self, vertices: Sequence[int], alpha: int) -> None:
        """Re-home vertices' structure id after a cross-structure Overtake.

        No dirty journaling needed: a vertex only ever moves between
        structures after :meth:`register_node` put it in one, so it is
        already journalled.
        """
        if len(vertices):
            self.sid_arr[list(vertices)] = alpha

    def mark_removed(self, vertices: Iterable[int]) -> None:
        """Remove vertices from play for the rest of the phase (Augment)."""
        verts = list(vertices)
        removed = self.removed
        node_of = self.node_of
        for x in verts:
            removed[x] = True
            node_of[x] = None
        if verts:
            self.removed_arr[verts] = True
            self.sid_arr[verts] = -1
            self.nid_arr[verts] = -1
            self.outer_arr[verts] = False
        if self.context is not None:
            self.context._touched.extend(verts)

    # ------------------------------------------------------ frozen-graph views
    def edge_pairs(self) -> List[Edge]:
        """Canonical ``(u, v)`` edge tuples, key-sorted (both engines' order)."""
        if self.context is not None:
            return self.context.edge_pairs()
        views = self._views
        if views.edge_pairs is None:
            eu, ev = self.edge_arrays()
            views.edge_pairs = list(zip(eu.tolist(), ev.tolist()))
        return views.edge_pairs

    def edge_arrays(self):
        """Canonical endpoint arrays ``(eu, ev)`` with ``eu < ev``, key-sorted."""
        if self.context is not None:
            return self.context.edge_arrays()
        views = self._views
        if views.eu is None:
            pairs = sorted(self.graph.edge_list())
            views.eu = _np.fromiter((u for u, _ in pairs), dtype=_np.int64,
                                    count=len(pairs))
            views.ev = _np.fromiter((v for _, v in pairs), dtype=_np.int64,
                                    count=len(pairs))
        return views.eu, views.ev

    def adjacency(self):
        """CSR ``(indptr, indices)`` of the frozen phase graph (sorted order)."""
        if self.context is not None:
            return self.context.adjacency()
        views = self._views
        if views.indptr is None:
            eu, ev = self.edge_arrays()
            views.indptr, views.indices = compile_csr(eu, ev, self.graph.n)
        return views.indptr, views.indices

    def sorted_neighbors(self, v: int) -> List[int]:
        """Neighbours of ``v`` in ascending order (memoised for the phase)."""
        if self.context is not None:
            return self.context.sorted_neighbors(v)
        cache = self._views.nbrs
        nbrs = cache.get(v)
        if nbrs is None:
            indptr, indices = self.adjacency()
            nbrs = cache[v] = indices[indptr[v]:indptr[v + 1]].tolist()
        return nbrs

    def arc_pairs(self) -> List[Edge]:
        """Both orientations of every edge, grouped by (ascending) tail."""
        indptr, indices = self.adjacency()
        src = _np.repeat(_np.arange(self.graph.n, dtype=_np.int64),
                         _np.diff(indptr))
        return list(zip(src.tolist(), indices.tolist()))

    def node_arcs(self, node: StructNode
                  ) -> Tuple[_np.ndarray, _np.ndarray]:
        """The node's incident arcs ``(xs, ys)`` as int64 arrays.

        Order: the node's vertex order, then each vertex's ascending
        neighbours from :meth:`adjacency` -- the order the scalar scans
        walk.  Memoised on the node: nodes live for one phase and the graph
        is frozen during it.  A blossom's arrays are the concatenation of
        its absorbed nodes' arrays in ``absorbed`` order, which is its
        vertex order; gathering them releases the absorbed nodes' arrays
        (absorbed nodes are cyclic garbage and would hold them until the
        cycle collector reaches them).  Blossoms nested since the last scan
        are flattened with an explicit stack, not one recursion per level.
        """
        arcs = node.arcs
        if arcs is not None:
            return arcs
        indptr, indices = self.adjacency()
        xs_parts = []
        ys_parts = []
        stack = [node]
        while stack:
            part = stack.pop()
            if part.arcs is not None:
                xs, ys = part.arcs
                part.arcs = None
                xs_parts.append(xs)
                ys_parts.append(ys)
            elif part.absorbed is not None:
                stack.extend(reversed(part.absorbed))
                part.absorbed = None
            else:
                for x in part.vertices:
                    lo, hi = indptr[x], indptr[x + 1]
                    xs_parts.append(_np.full(hi - lo, x, dtype=_np.int64))
                    ys_parts.append(indices[lo:hi])
        arcs = node.arcs = (_np.concatenate(xs_parts),
                            _np.concatenate(ys_parts))
        return arcs

    # ------------------------------------------------------------------ views
    def omega(self, v: int) -> Optional[StructNode]:
        """``Omega(v)``: the struct-node containing ``v`` (None if unvisited)."""
        return self.node_of[v]

    def structure_of(self, v: int) -> Optional[Structure]:
        node = self.node_of[v]
        return node.structure if node is not None else None

    def is_unvisited(self, v: int) -> bool:
        return self.node_of[v] is None

    def is_outer(self, v: int) -> bool:
        node = self.node_of[v]
        return node is not None and node.outer

    def is_inner(self, v: int) -> bool:
        node = self.node_of[v]
        return node is not None and not node.outer

    def live_structures(self) -> List[Structure]:
        return list(self.structures.values())

    # ----------------------------------------------------------------- labels
    def label_of_edge(self, u: int, v: int) -> int:
        """Label of the matched edge {u, v} (default ``l_max + 1``).

        Labels only ever attach to matched edges (Definition 4.4) and the
        matching is frozen per phase, so the label lives on the endpoints:
        for the matched pair ``{u, v}`` it is ``vlabel[u] (== vlabel[v])``.
        """
        if self.matching.mate(u) == v:
            return self.vlabel[u]
        return self.label_default

    def set_label(self, u: int, v: int, value: int) -> None:
        self.vlabel[u] = value
        self.vlabel[v] = value
        self.vlabel_arr[u] = value
        self.vlabel_arr[v] = value
        if self.context is not None:
            self.context._label_touched.append(u)
            self.context._label_touched.append(v)

    def label_of_vertex(self, v: int) -> int:
        """``l(v)`` of Section 5.1: 0 for free vertices, else its matched-edge label."""
        return self.vlabel[v]

    def eligible_stage(self, structure: Structure) -> Optional[int]:
        """The one stage at which the structure can extend (Sections 5.5/6.6),
        or ``None`` if it can extend at none.

        A structure extends only if it has a working vertex and is neither
        on hold nor already extended in this pass-bundle, and then only at
        the stage equal to the working vertex's distance.  The single source
        of truth for the stage filter: :meth:`eligible_working`, the
        stage-graph builder and the sampling driver's eligibility index all
        derive from it.
        """
        w = structure.working
        if w is None or structure.on_hold or structure.extended:
            return None
        # distance(w) inlined: 0 at the root, else the matched-edge label of
        # the inner parent's base vertex
        parent = w.parent
        if parent is None:
            return 0
        return self.vlabel[parent.vertices[0]]

    def eligible_working(self, structure: Structure, stage: int) -> bool:
        """Whether the structure can extend at ``stage`` (see
        :meth:`eligible_stage`)."""
        return self.eligible_stage(structure) == stage

    def distance(self, node: StructNode) -> int:
        """``distance(u)`` of Section 4.6: 0 at the root, else the label of the
        matched edge connecting the node's base to its (inner) parent."""
        if node.is_root:
            return 0
        parent = node.parent
        assert parent is not None and not parent.outer and parent.is_trivial
        # the inner parent is matched to this node's base (invariant), so the
        # matched-edge label is the parent vertex's vlabel
        return self.vlabel[parent.vertices[0]]

    # ------------------------------------------------------------ type tests
    def arc_type(self, u: int, v: int) -> int:
        """Classify the G-arc ``(u, v)`` per Definition 5.2.

        Returns 1, 2 or 3 for the three useful types and 0 otherwise.  The arc
        is interpreted with ``u`` as the tail:

        * type 1 -- both endpoints outer in the same structure and one of them
          is the working vertex (a ``Contract`` opportunity);
        * type 2 -- outer endpoints in two different structures (an ``Augment``
          opportunity; no working-vertex requirement);
        * type 3 -- ``Omega(u)`` is the working vertex of a structure that is
          not on hold, ``Omega(v)`` is inner or unvisited and matched, and its
          label exceeds ``distance(u) + 1`` (an ``Overtake`` opportunity).
        """
        if self.removed[u] or self.removed[v]:
            return 0
        if self.matching.contains_edge(u, v):
            return 0
        nu, nv = self.node_of[u], self.node_of[v]
        if nu is None or not nu.outer:
            return 0
        su = nu.structure
        if nv is not None and nv is nu:
            return 0
        if nv is not None and nv.outer:
            if nv.structure is su:
                return 1 if (su.working is nu or su.working is nv) else 0
            return 2
        # nv is inner or unvisited: candidate type 3
        if su.working is not nu:
            return 0
        if self.matching.is_free(v):
            return 0
        if su.on_hold:
            return 0
        if nv is not None and nv.structure is su and nv.is_ancestor_of(nu):
            # precondition (P2) of Overtake: never overtake an ancestor
            return 0
        if self.label_of_vertex(v) > self.distance(nu) + 1:
            return 3
        return 0

    # ------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Debug validator: raises ``AssertionError`` on inconsistent state.

        Checks vertex-disjointness of structures, the alternating-tree shape
        (root outer and free; parent/child alternation; inner nodes trivial
        and matched into their unique child), node_of consistency, label 0
        on every matched pair inside a blossom whose base is matched outside
        it, and the memoised node arcs.
        """
        seen: Set[int] = set()
        for structure in self.structures.values():
            assert structure.root.outer and structure.root.parent is None
            assert self.matching.is_free(structure.alpha)
            assert structure.alpha in structure.root.vertices
            for node in structure.nodes:
                assert node.structure is structure
                for x in node.vertices:
                    assert not self.removed[x], f"removed vertex {x} still in a structure"
                    assert self.node_of[x] is node, f"node_of[{x}] inconsistent"
                    assert x not in seen, f"vertex {x} in two structures"
                    seen.add(x)
                if node.parent is not None:
                    assert node.parent in structure.nodes
                    assert node in node.parent.children
                    assert node.outer != node.parent.outer, "tree must alternate outer/inner"
                if not node.outer:
                    assert node.is_trivial, "inner nodes must be trivial blossoms"
                    v = node.vertices[0]
                    mate = self.matching.mate(v)
                    assert mate is not None, "inner vertices are matched"
                    assert len(node.children) == 1, "inner node has exactly one child"
                    assert mate in node.children[0].vertices
                    assert node.children[0].base == mate
                else:
                    assert len(node.vertices) % 2 == 1, "blossoms have odd size"
                    if not node.is_trivial:
                        # what Contract's path-only relabel relies on
                        inside = set(node.vertices)
                        mate = self.matching.mate
                        assert mate(node.base) not in inside, \
                            "a blossom's base is matched inside it"
                        for x in node.vertices:
                            if mate(x) in inside:
                                assert self.vlabel[x] == 0 \
                                    and self.vlabel_arr[x] == 0, \
                                    f"pair inside a blossom labelled at {x}"
                if node.arcs is not None:
                    xs, ys = node.arcs
                    fresh = [(x, y) for x in node.vertices
                             for y in self.sorted_neighbors(x)]
                    assert list(zip(xs.tolist(), ys.tolist())) == fresh, \
                        "stale node-arcs memo"
                for child in node.children:
                    assert child.parent is node
            if structure.working is not None:
                assert structure.working in structure.nodes
                assert structure.working.outer, "working vertex is an outer vertex"
            assert structure.g_vertices == {x for node in structure.nodes
                                            for x in node.vertices}
        for v in range(self.graph.n):
            node = self.node_of[v]
            if node is not None:
                assert v in node.vertices

        # memoised per-structure views must agree with a fresh walk
        for structure in self.structures.values():
            if structure._outer_cache is not None:
                fresh = [x for node in structure.nodes if node.outer
                         for x in node.vertices]
                assert structure._outer_cache == fresh, "stale outer cache"
            if structure._sorted_cache is not None:
                assert structure._sorted_cache == sorted(structure.g_vertices), \
                    "stale sorted-vertex cache"

        # scalar state and array mirrors must never diverge
        for v in range(self.graph.n):
            node = self.node_of[v]
            assert bool(self.removed_arr[v]) == bool(self.removed[v]), \
                f"removed mirror diverged at {v}"
            assert int(self.vlabel_arr[v]) == self.vlabel[v], \
                f"label mirror diverged at {v}"
            if node is None:
                assert self.nid_arr[v] == -1 and self.sid_arr[v] == -1
                assert not self.outer_arr[v]
            else:
                assert self.nid_arr[v] == node.id, f"nid mirror at {v}"
                assert self.sid_arr[v] == node.structure.alpha
                assert bool(self.outer_arr[v]) == node.outer
