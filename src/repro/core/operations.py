"""The three basic operations on structures: Augment, Contract, Overtake.

These implement Section 4.5 of the paper.  All three operate on a
:class:`~repro.core.structures.PhaseState` and are invoked either directly by
the streaming passes (Section 4.6/4.7) or by the oracle-driven simulations
(Sections 5.4/5.5 and 6.5/6.6).

Correctness conventions
-----------------------
* Every operation validates its preconditions and raises ``ValueError`` when
  they are violated; the drivers re-check arc types before invoking, so in
  normal operation the checks never fire -- they exist to catch driver bugs.
* ``Augment`` records the local re-matching of the two structures' vertex sets
  (computed by a single exact Edmonds augmentation restricted to those
  vertices) instead of expanding blossom paths via Lemma 3.5.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.matching.blossom import find_augmenting_path
from repro.core.structures import (
    AugmentationRecord,
    PhaseState,
    StructNode,
    Structure,
)

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# Augment (Section 4.5.1)
# ---------------------------------------------------------------------------

def augment_op(state: PhaseState, u: int, v: int) -> AugmentationRecord:
    """Perform ``Augment(g, P)`` on the unmatched arc ``g = (u, v)``.

    Preconditions: ``Omega(u)`` and ``Omega(v)`` are outer vertices of two
    *different* structures, neither endpoint is removed, and ``{u, v}`` is an
    unmatched edge of ``G``.

    Effect: an augmenting path between the two structures' free vertices is
    found inside ``G`` restricted to the union of the two structures (it exists
    by the tree-representation property and Lemma 3.5); the resulting local
    re-matching is recorded in ``state.records``; both structures are removed
    and all their vertices marked removed for the rest of the phase.
    """
    nu, nv = state.omega(u), state.omega(v)
    if nu is None or nv is None or not (nu.outer and nv.outer):
        raise ValueError("Augment requires two outer vertices")
    sa, sb = nu.structure, nv.structure
    if sa is sb:
        raise ValueError("Augment requires two different structures")
    if state.removed[u] or state.removed[v]:
        raise ValueError("Augment on a removed vertex")
    if state.matching.contains_edge(u, v):
        raise ValueError("Augment requires an unmatched edge")
    if not state.graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of G")

    # Subgraph induction goes through the graph storage's bulk
    # ``induced_edges`` primitive; structures are small (O(1/h) vertices)
    # but Augment fires often enough for this to matter.
    vertices = sorted(sa.g_vertices | sb.g_vertices)
    sub, back = state.graph.induced_subgraph(vertices)
    fwd = {old: new for new, old in back.items()}

    local = Matching(sub.n)
    for x in vertices:
        mate = state.matching.mate(x)
        if mate is not None and mate in fwd and fwd[x] < fwd[mate]:
            local.add(fwd[x], fwd[mate])

    old_size = local.size
    found = find_augmenting_path(sub, local)
    if not found:  # pragma: no cover - guarded by the structure invariants
        raise RuntimeError(
            "Augment: no augmenting path inside the union of two structures; "
            "structure invariants violated")
    assert local.size == old_size + 1

    record = AugmentationRecord(
        vertices=list(vertices),
        new_edges=[(back[x], back[y]) for x, y in local.edges()],
    )
    state.records.append(record)

    for structure in (sa, sb):
        _remove_structure(state, structure)
    state.counters.add("augmentations")
    return record


def _remove_structure(state: PhaseState, structure: Structure) -> None:
    """Remove a structure and mark all its vertices as removed (Section 4.5.1)."""
    state.mark_removed(structure.g_vertices)
    state.structures.pop(structure.alpha, None)
    structure.nodes.clear()
    structure.g_vertices = set()
    structure.working = None
    structure.invalidate_caches()


# ---------------------------------------------------------------------------
# Contract (Section 4.5.2)
# ---------------------------------------------------------------------------

def contract_op(state: PhaseState, u: int, v: int) -> StructNode:
    """Perform ``Contract(g)`` on the unmatched arc ``g = (u, v)``.

    Preconditions: ``Omega(u)`` and ``Omega(v)`` are distinct outer vertices of
    the same structure and ``Omega(u)`` is the working vertex.

    Effect: the unique blossom of ``T'_alpha + g'`` (Lemma 3.7) -- the nodes on
    the tree path between ``Omega(u)`` and ``Omega(v)`` through their LCA -- is
    contracted into a single outer node, which becomes the new working vertex.
    Labels of matched edges inside the new blossom are 0 afterwards; only
    the edges of the path's inner nodes are written.
    """
    nu, nv = state.omega(u), state.omega(v)
    if nu is None or nv is None or nu is nv:
        raise ValueError("Contract requires two distinct nodes")
    if not (nu.outer and nv.outer):
        raise ValueError("Contract requires two outer vertices")
    structure = nu.structure
    if nv.structure is not structure:
        raise ValueError("Contract requires both endpoints in the same structure")
    if structure.working is not nu:
        raise ValueError("Contract requires Omega(u) to be the working vertex")

    # --- find the tree path nu .. lca .. nv -------------------------------
    ancestors_u = list(nu.ancestors())
    ancestor_ids = {id(node): i for i, node in enumerate(ancestors_u)}
    lca: Optional[StructNode] = None
    path_v: List[StructNode] = []
    for node in nv.ancestors():
        if id(node) in ancestor_ids:
            lca = node
            break
        path_v.append(node)
    assert lca is not None, "two nodes of one tree always have an LCA"
    path_u = ancestors_u[: ancestor_ids[id(lca)]]
    # ordered and duplicate-free: blossom vertex order (hence derived-graph
    # iteration downstream) must be determined by the tree paths, not by the
    # address-hash order a set of nodes would impose
    absorbed = list(dict.fromkeys(path_u + path_v + [lca]))
    absorbed_set = set(absorbed)

    # --- build the blossom node -------------------------------------------
    blossom_vertices: List[int] = []
    for node in absorbed:
        blossom_vertices.extend(node.vertices)
    new_node = StructNode(blossom_vertices, base=lca.base, outer=True,
                          structure=structure)
    # its arcs are gathered from the absorbed nodes' on its first scan
    new_node.absorbed = absorbed
    new_node.parent = lca.parent
    if lca.parent is not None:
        lca.parent.children = [new_node if c is lca else c
                               for c in lca.parent.children]
    else:
        structure.root = new_node
    for node in absorbed:
        for child in node.children:
            if child not in absorbed_set:
                child.parent = new_node
                new_node.children.append(child)
    for node in absorbed:
        structure.nodes.discard(node)
    structure.nodes.add(new_node)
    state.register_node(new_node)
    structure.invalidate_caches()  # inner vertices of the path became outer

    # --- labels of matched edges inside the blossom become 0 ----------------
    # Only the edges it newly encloses need the write: each inner node on
    # the two tree paths, matched to its child's base.  Pairs inside an
    # absorbed blossom are 0 since that blossom formed (Overtake labels only
    # an inner or unvisited vertex and its mate), and the LCA's base stays
    # matched outside the blossom.
    for node in absorbed:
        if not node.outer:
            state.set_label(node.vertices[0], node.children[0].base, 0)

    structure.working = new_node
    structure.modified = True
    structure.extended = True
    state.counters.add("contractions")
    return new_node


# ---------------------------------------------------------------------------
# Overtake (Section 4.5.3)
# ---------------------------------------------------------------------------

def overtake_op(state: PhaseState, u: int, v: int, k: int) -> None:
    """Perform ``Overtake(g, a, k)`` where ``g = (u, v)`` and ``a = (v, mate(v))``.

    Preconditions (P1)-(P3) of Section 4.5.3: ``Omega(u)`` is the working
    vertex of a structure ``S_alpha``; ``Omega(v)`` is unvisited or an inner
    vertex (not an ancestor of ``Omega(u)`` when it lies in ``S_alpha``); and
    ``k`` is smaller than the current label of the matched edge at ``v``.
    """
    nu = state.omega(u)
    if nu is None or not nu.outer:
        raise ValueError("Overtake requires Omega(u) to be an outer vertex")
    sa = nu.structure
    if sa.working is not nu:
        raise ValueError("Overtake requires Omega(u) to be the working vertex")
    if state.removed[u] or state.removed[v]:
        raise ValueError("Overtake on a removed vertex")
    t = state.matching.mate(v)
    if t is None:
        raise ValueError("Overtake requires v to be matched")
    if not k < state.label_of_edge(v, t):
        raise ValueError("Overtake requires k < l(a)  (P3)")
    if not state.graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of G")

    nv = state.omega(v)

    if nv is None:
        # ------------------------------------------------- Case 1: unvisited
        assert state.omega(t) is None, "matched pairs enter structures together"
        inner = StructNode([v], base=v, outer=False, structure=sa)
        outer = StructNode([t], base=t, outer=True, structure=sa)
        inner.parent = nu
        nu.children.append(inner)
        outer.parent = inner
        inner.children.append(outer)
        sa.nodes.add(inner)
        sa.nodes.add(outer)
        sa.g_vertices.add(v)
        sa.g_vertices.add(t)
        sa.invalidate_caches()
        state.register_node(inner)
        state.register_node(outer)
        state.set_label(v, t, k)
        unvisited = state.unvisited
        if unvisited is not None:
            # the pair left the unvisited right side
            unvisited.remove(v)
            unvisited.remove(t)
        sa.working = outer
        sa.modified = True
        sa.extended = True
        state.counters.add("overtakes")
        return

    # ------------------------------------------------------ Case 2: v is inner
    if nv.outer:
        raise ValueError("Overtake requires Omega(v) to be inner or unvisited")
    sb = nv.structure
    if sb is sa and nv.is_ancestor_of(nu):
        raise ValueError("Overtake within a structure must not target an ancestor (P2)")

    old_parent = nv.parent
    assert old_parent is not None, "inner nodes are never roots"
    old_parent.children = [c for c in old_parent.children if c is not nv]

    # the unique child of the inner node nv is the outer node containing t
    assert len(nv.children) == 1
    nt = nv.children[0]
    assert t in nt.vertices and nt.base == t

    moved = nv.subtree()

    if sb is not sa:
        # move the subtree (nodes, vertices) from S_beta to S_alpha
        moved_working = sb.working is not None and any(
            node is sb.working for node in moved)
        moved_vertices: List[int] = []
        for node in moved:
            node.structure = sa
            sb.nodes.discard(node)
            sa.nodes.add(node)
            for x in node.vertices:
                sb.g_vertices.discard(x)
                sa.g_vertices.add(x)
            moved_vertices.extend(node.vertices)
        sa.invalidate_caches()
        sb.invalidate_caches()
        state.move_to_structure(moved_vertices, sa.alpha)
        nv.parent = nu
        nu.children.append(nv)
        state.set_label(v, t, k)
        if moved_working:
            sa.working = sb.working
            sb.working = old_parent
        else:
            sa.working = nt
        sa.modified = True
        sb.modified = True
        sa.extended = True  # the overtaker is marked as extended (Section 4.5)
        state.counters.add("overtakes")
        state.counters.add("cross_structure_overtakes")
        return

    # ------------------------------------------- Case 2.1: same structure
    nv.parent = nu
    nu.children.append(nv)
    state.set_label(v, t, k)
    sa.working = nt
    sa.modified = True
    sa.extended = True
    state.counters.add("overtakes")


# ---------------------------------------------------------------------------
# Applying the recorded augmentations (Algorithm 1, line 6)
# ---------------------------------------------------------------------------

def apply_augmentations(matching: Matching,
                        records: List[AugmentationRecord]) -> int:
    """Apply recorded augmentations to ``matching``; returns the size increase.

    The records' vertex sets are pairwise disjoint and no matched edge leaves
    any of them, so replacing the induced sub-matching of each record with its
    recorded re-matching increases the total size by exactly one per record.
    """
    before = matching.size
    for record in records:
        inside = set(record.vertices)
        for x in record.vertices:
            mate = matching.mate(x)
            if mate is not None:
                assert mate in inside, (
                    "augmentation record is not closed under the matching")
                if x < mate:
                    matching.remove(x, mate)
        for x, y in record.new_edges:
            matching.add(x, y)
    return matching.size - before
