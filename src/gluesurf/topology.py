"""Homotopy-graph models of the conductor curves and integral invariants of X.

Each genus-0 curve component with k marked points is modelled by a path
through the points wedged with a 2-sphere; gluing the paths along the
node pairing gives a graph model of the normalized conductor, and taking
the quotient by the involution gives one for the conductor itself.  The
fundamental group comes from their spanning trees.  The homology of the
glued surface comes from two integer matrices read off the gluing with
no graph model: the sphere-level map and the node matrix.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from . import grouptheory  # read at call time, by pi1 alone: homology runs no group theory
from .base import Record
from .errors import (
    DbarDisconnectedError,
    GenusNotZeroError,
    NotSimplyConnectedError,
    SurfaceNotConnectedError,
    UnsupportedNormalHomologyError,
)
from .gluing import ValidatedGluing, cusps, node_id, per_gluing
from .intlinalg import AbelianGroup, IntegerMatrix, snf

EdgeKey = tuple[object, int]  # (owning component, segment position)
Step = tuple[int, int]  # (edge index, direction): +1 runs u -> v, -1 runs v -> u


class GraphEdge(NamedTuple):
    u: int
    v: int
    key: EdgeKey


class HomotopyGraph(Record):
    """1-skeleton, spanning forest, and generator edges.

    ``tree_step[v]`` is the tree edge into v, as a step running toward v,
    or None at a BFS root; one step per vertex keeps the forest linear in
    size however deep it is.  ``generator_edges`` are the non-tree edges in
    key order; they index the fundamental-group basis.
    """

    __slots__ = ("vertices", "edges", "tree_step", "generator_edges")

    def __init__(self, vertices: tuple[tuple, ...], edges: tuple[GraphEdge, ...],
                 tree_step: tuple[Step | None, ...], generator_edges: tuple[int, ...]):
        self._set(vertices, edges, tree_step, generator_edges)


def _require_genus_zero(g: ValidatedGluing):
    for c in g.curves:
        if c.genus != 0:
            raise GenusNotZeroError(f"component {c.id} has genus {c.genus}")


def _spanning_forest(n: int, edges: tuple[GraphEdge, ...]):
    # edges come in key order, so each adjacency list is in key order too
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, (u, v, _key) in enumerate(edges):
        adjacency[u].append((idx, 1, v))
        adjacency[v].append((idx, -1, u))
    tree_step: list[Step | None] = [None] * n
    visited = [False] * n
    tree: set[int] = set()
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        for u in queue:
            for idx, direction, other in adjacency[u]:
                if not visited[other]:
                    visited[other] = True
                    tree_step[other] = (idx, direction)
                    tree.add(idx)
                    queue.append(other)
    return tuple(tree_step), tuple(i for i in range(len(edges)) if i not in tree)


@per_gluing
def homotopy_graph(side: str, g: ValidatedGluing) -> HomotopyGraph:
    """Graph model of the normalized conductor (side="Dbar") or its quotient (side="D").

    Each curve is a path through its marked points: the smaller curve of a
    tau-pair in stored order, its partner through their tau-images, so tau
    is simplicial on the models.  The k-th pair (a, b) owns ("a+b", k) in D.
    """
    _require_genus_zero(g)
    # Vertices and edge owners are keyed by their printed label, then by the
    # structure it names: two labels glued from ids can be equal, and the
    # label order is kept because the generator names follow this order.
    if side == "Dbar":
        vertices = sorted([(node_id(n), n) for n in g.nodes()])
        points = [n for _label, n in vertices]
        tau = g.data.tau_points.__getitem__
        rows = []
        for a, b in g.tau_pairs:
            pts = g.curve(a).marked_points
            rows += ((a, pts), (b, tuple(map(tau, pts))))
        rows.sort()
    elif side == "D":
        found = cusps(g)
        vertices = sorted([(c.label, i) for i, c in enumerate(found)])
        points = [found[i].points for _label, i in vertices]
        rows = sorted([((f"{a}+{b}", k), g.curve(a).marked_points)
                       for k, (a, b) in enumerate(g.tau_pairs)])
    else:
        raise ValueError(f"side must be 'Dbar' or 'D', got {side!r}")

    vertex_of_point = {p: i for i, pts in enumerate(points) for p in pts}
    # the rows are sorted by their distinct owners, so the edges come in key order
    edges = []
    for owner, pts in rows:
        at = [vertex_of_point[p] for p in pts]
        edges += map(GraphEdge, at, at[1:], [(owner, i) for i in range(len(at) - 1)])
    edges = tuple(edges)
    tree_step, generators = _spanning_forest(len(vertices), edges)
    return HomotopyGraph(vertices=tuple(vertices), edges=edges, tree_step=tree_step,
                         generator_edges=generators)


def _check_pi1_preconditions(g: ValidatedGluing):
    _require_genus_zero(g)
    if not g.dbar_connected:
        raise DbarDisconnectedError("the normalized conductor curve is disconnected")
    for n in g.normals:
        if not n.simply_connected:
            raise NotSimplyConnectedError(
                f"normal component {n.id} is not simply connected; "
                "the general amalgamated case is not supported"
            )


@per_gluing
def _generator_images(g: ValidatedGluing) -> tuple[int, tuple[grouptheory.Word, ...]]:
    """The quotient graph's generator count, and for each generator loop
    upstairs its word in those generators.

    The loop for a non-tree edge is tree path in, the edge, tree path back;
    its image is read off edge by edge: quotient tree edges contribute
    nothing, quotient generator edges contribute one letter.
    """
    gbar = homotopy_graph("Dbar", g)
    gd = homotopy_graph("D", g)

    # an upstairs edge lies over the quotient edge at the same position on
    # its tau-pair; letter[i] is that edge's letter, or 0
    d_letter = {}
    for x, eidx in enumerate(gd.generator_edges, 1):
        (_label, k), pos = gd.edges[eidx].key
        d_letter[k, pos] = x
    pair = g.pair_index
    letter = [d_letter.get((pair[owner], pos), 0) for _u, _v, (owner, pos) in gbar.edges]
    # each vertex's tree step as (the vertex it leaves, its letter toward the vertex)
    up: list[tuple[int, int] | None] = [None] * len(gbar.vertices)
    for vertex, step in enumerate(gbar.tree_step):
        if step is not None:
            u, v, _key = gbar.edges[step[0]]
            up[vertex] = (u, letter[step[0]]) if step[1] == 1 else (v, -letter[step[0]])

    def letters_to_root(vertex: int) -> list[int]:
        # the letters of the tree path from the root to vertex, last first
        out = []
        while (step := up[vertex]) is not None:
            vertex, x = step
            if x:
                out.append(x)
        return out

    words = []
    for eidx in gbar.generator_edges:
        u, v, _key = gbar.edges[eidx]
        loop = letters_to_root(u)
        loop.reverse()
        if letter[eidx]:
            loop.append(letter[eidx])
        loop += [-x for x in letters_to_root(v)]
        words.append(grouptheory.free_reduce(loop))
    return len(gd.generator_edges), tuple(words)


def _letter_names(count: int) -> tuple[str, ...]:
    return tuple(chr(ord("a") + i) if i < 26 else f"g{i}" for i in range(count))


def pi1_presentation(g: ValidatedGluing) -> grouptheory.GroupPresentation:
    """Presentation of the fundamental group of the glued surface.

    Requires X and the normalized conductor connected and every normal
    component simply connected; the group is then the quotient-curve graph
    group modulo the images of the upstairs generator loops.
    """
    _check_pi1_preconditions(g)
    if g.x_component_count != 1:
        raise SurfaceNotConnectedError(
            f"X has {g.x_component_count} components; pi1 needs a connected surface"
        )
    count, words = _generator_images(g)
    names = _letter_names(count)
    relators = tuple(w for w in words if w)
    return grouptheory.GroupPresentation(names, relators)


class MayerVietorisMatrices(Record):
    """The sphere-level map and the node matrix of the glued surface.

    h2_map: sphere classes of the normalized conductor into quotient
    spheres plus the normal components' H2 (rows: quotient pairs, then
    each normal component's H2 basis; columns: curve components).
    node_map: the mapping cone of the graph of D-bar into the graph of D
    with the D rows eliminated (Hatcher, *Algebraic Topology*, 2.2).  One
    row per node, one column per quotient edge: tau-pair (a, b) at
    position i gives node(a_i) - node(a_i+1) - node(tau a_i) +
    node(tau a_i+1).  Its cokernel is H1 plus one Z per degenerate cusp,
    and its kernel has the rank of the loop-level map's.
    """

    __slots__ = ("h2_map", "node_map")

    def __init__(self, h2_map: IntegerMatrix, node_map: IntegerMatrix):
        self._set(h2_map, node_map)


@per_gluing
def mv_matrices(g: ValidatedGluing) -> MayerVietorisMatrices:
    _check_pi1_preconditions(g)
    pairs = g.tau_pairs
    curves = g.curves
    normals = g.normals

    block_start = {}
    offset = len(pairs)
    for n in normals:
        block_start[n.id] = offset
        offset += n.h2_rank
    # a component with no curves adds h2_rank rows with no entry, which
    # cost nothing: the sparse map stores none of them
    nonzero = defaultdict(dict)
    for j, c in enumerate(curves):
        nonzero[g.pair_index[c.id]][j] = 1
        for r, coeff in enumerate(c.h2_class):
            nonzero[block_start[c.ambient] + r][j] = coeff
    h2_map = IntegerMatrix(offset, len(curves), nonzero)

    # the node matrix: column j is the j-th edge of the quotient graph
    nodes = g.nodes()
    row_of = {p: r for r, node in enumerate(nodes) for p in node}
    tau = g.data.tau_points
    cells = [{} for _ in nodes]
    j = 0
    for a, _b in pairs:
        pts = g.curve(a).marked_points
        up, down = [row_of[p] for p in pts], [row_of[tau[p]] for p in pts]
        for i in range(len(pts) - 1):
            for r, x in ((up[i], 1), (up[i + 1], -1), (down[i], -1), (down[i + 1], 1)):
                row = cells[r]
                row[j] = row.get(j, 0) + x
            j += 1
    node_map = IntegerMatrix(len(nodes), j, dict(enumerate(cells)))

    return MayerVietorisMatrices(h2_map=h2_map, node_map=node_map)


@dataclass(frozen=True)
class HomologyOfX:
    h0: AbelianGroup
    h1: AbelianGroup
    h2: AbelianGroup
    h3: AbelianGroup
    h4: AbelianGroup

    def as_tuple(self) -> tuple[AbelianGroup, ...]:
        return (self.h0, self.h1, self.h2, self.h3, self.h4)


def homology_of_X(g: ValidatedGluing) -> HomologyOfX:
    """Integral homology of the glued surface from the sphere-level map
    and the node matrix.

    The top group is one copy of Z per normal component; H3 is the kernel
    of the sphere-level map; H2 and H1 are cokernel-plus-kernel splices of
    adjacent levels (the kernels are free, so the extensions split).  D̄
    is connected, so H0(D̄) = Z injects and H1 is the cokernel of the
    loop-level map: the node matrix's cokernel less one Z per degenerate
    cusp.  The two maps' kernels have one rank.
    """
    for n in g.normals:
        if not n.h1.is_trivial or not n.h3.is_trivial or n.h4_rank != 1:
            raise UnsupportedNormalHomologyError(
                f"normal component {n.id} must have trivial H1 and H3 and H4 = Z"
            )
    mv = mv_matrices(g)
    # one SNF per matrix gives both its rank and its cokernel
    dec_n, dec_m = snf(mv.h2_map), snf(mv.node_map)
    coker_n, coker_m = dec_n.cokernel, dec_m.cokernel
    return HomologyOfX(
        h0=AbelianGroup(g.x_component_count),
        h1=AbelianGroup(coker_m.free_rank - len(cusps(g)), coker_m.torsion),
        h2=AbelianGroup(coker_n.free_rank + (mv.node_map.cols - dec_m.rank), coker_n.torsion),
        h3=AbelianGroup(mv.h2_map.cols - dec_n.rank),
        h4=AbelianGroup(len(g.normals)),
    )
