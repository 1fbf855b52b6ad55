"""Homotopy-graph models of the conductor curves and integral invariants of X.

Each genus-0 curve component with k marked points is modelled by a path
through the points wedged with a 2-sphere; gluing the paths along the
node pairing gives a graph model of the normalized conductor, and taking
the quotient by the involution gives one for the conductor itself.  The
fundamental group and the homology of the glued surface then come from
spanning trees and two integer matrices.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import (
    DbarDisconnectedError,
    GenusNotZeroError,
    NotSimplyConnectedError,
    SurfaceNotConnectedError,
    UnsupportedNormalHomologyError,
)
from .gluing import ValidatedGluing, cusps, node_id, per_gluing
from .grouptheory import GroupPresentation, Word, exponent_sum_matrix, free_reduce
from .intlinalg import AbelianGroup, IntegerMatrix, snf

EdgeKey = tuple[object, int]  # (owning component, segment position)
Step = tuple[int, int]  # (edge index, direction): +1 runs u -> v, -1 runs v -> u


@dataclass(frozen=True)
class GraphEdge:
    u: int
    v: int
    key: EdgeKey


@dataclass(frozen=True)
class HomotopyGraph:
    """1-skeleton, spanning forest, and generator edges.

    ``tree_step[v]`` is the tree edge into v, as a step running toward v,
    or None at a BFS root; one step per vertex keeps the forest linear in
    size however deep it is.  ``generator_edges`` are the non-tree edges in
    key order; they index the fundamental-group basis.
    """

    vertices: tuple[tuple, ...]
    edges: tuple[GraphEdge, ...]
    tree_step: tuple[Step | None, ...]
    generator_edges: tuple[int, ...]


def _require_genus_zero(g: ValidatedGluing):
    for c in g.curves:
        if c.genus != 0:
            raise GenusNotZeroError(f"component {c.id} has genus {c.genus}")


def _model_orders(g: ValidatedGluing) -> dict[str, tuple[str, ...]]:
    """Marked-point order per component: the lexicographically smaller member
    of each involution pair keeps its stored order, the partner inherits the
    transported order, so the involution is simplicial on the models."""
    orders: dict[str, tuple[str, ...]] = {}
    for a, b in g.tau_pairs:
        pts = g.curve(a).marked_points
        orders[a] = pts
        orders[b] = tuple(g.tau(x) for x in pts)
    return orders


def _d_owner(g: ValidatedGluing, k: int) -> tuple[str, int]:
    """Edge owner of the k-th tau-pair in the graph model of D: ("a+b", k)."""
    a, b = g.tau_pairs[k]
    return (f"{a}+{b}", k)


def _spanning_forest(n: int, edges: tuple[GraphEdge, ...]):
    # edges come in key order, so each adjacency list is in key order too
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        adjacency[e.u].append((idx, 1, e.v))
        adjacency[e.v].append((idx, -1, e.u))
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
    """Graph model of the normalized conductor (side="Dbar") or its quotient (side="D")."""
    _require_genus_zero(g)
    orders = _model_orders(g)

    # Vertices and edge owners are keyed by their printed label, then by the
    # structure it names: two labels glued from ids can be equal, and the
    # label order is kept because the generator names follow this order.
    if side == "Dbar":
        vertex_of_point = {p: (node_id(n), n) for n in g.nodes() for p in n}
        rows = [(c.id, orders[c.id]) for c in g.curves]
    elif side == "D":
        vertex_of_point = {p: (c.label, i) for i, c in enumerate(cusps(g)) for p in c.points}
        rows = [(_d_owner(g, k), orders[a]) for k, (a, _b) in enumerate(g.tau_pairs)]
    else:
        raise ValueError(f"side must be 'Dbar' or 'D', got {side!r}")

    vertices = tuple(sorted(set(vertex_of_point.values())))
    vindex = {v: i for i, v in enumerate(vertices)}
    edges = []
    for owner, pts in rows:
        for i in range(len(pts) - 1):
            edges.append(GraphEdge(
                u=vindex[vertex_of_point[pts[i]]],
                v=vindex[vertex_of_point[pts[i + 1]]],
                key=(owner, i),
            ))
    edges.sort(key=lambda e: e.key)
    edges = tuple(edges)
    tree_step, generators = _spanning_forest(len(vertices), edges)
    return HomotopyGraph(vertices=vertices, edges=edges, tree_step=tree_step,
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


def root_path(graph: HomotopyGraph, vertex: int) -> list[Step]:
    """Tree path from the BFS root of ``vertex``'s component to ``vertex``."""
    path = []
    while (step := graph.tree_step[vertex]) is not None:
        path.append(step)
        edge = graph.edges[step[0]]
        vertex = edge.u if step[1] == 1 else edge.v
    path.reverse()
    return path


@per_gluing
def _generator_images(g: ValidatedGluing) -> tuple[int, tuple[Word, ...]]:
    """The quotient graph's generator count, and for each generator loop
    upstairs its word in those generators.

    The loop for a non-tree edge is tree path in, the edge, tree path back;
    its image is read off edge by edge: quotient tree edges contribute
    nothing, quotient generator edges contribute one letter.
    """
    gbar = homotopy_graph("Dbar", g)
    gd = homotopy_graph("D", g)

    d_letter = {gd.edges[eidx].key: x for x, eidx in enumerate(gd.generator_edges, 1)}
    # the letter, or 0, of the quotient edge under each upstairs edge: the
    # same position on its tau-pair
    letter = [d_letter.get((_d_owner(g, g.pair_index[owner]), pos), 0)
              for owner, pos in (e.key for e in gbar.edges)]

    words = []
    for eidx in gbar.generator_edges:
        edge = gbar.edges[eidx]
        loop = (root_path(gbar, edge.u) + [(eidx, 1)]
                + [(i, -d) for i, d in reversed(root_path(gbar, edge.v))])
        words.append(free_reduce([d * letter[i] for i, d in loop if letter[i]]))
    return len(gd.generator_edges), tuple(words)


def _letter_names(count: int) -> tuple[str, ...]:
    return tuple(
        chr(ord("a") + i) if i < 26 else f"g{i}" for i in range(count)
    )


def pi1_presentation(g: ValidatedGluing) -> GroupPresentation:
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
    return GroupPresentation(names, relators)


@dataclass(frozen=True)
class MayerVietorisMatrices:
    """The sphere- and loop-level maps out of the normalized conductor.

    h2_map: sphere classes of the normalized conductor into quotient
    spheres plus the normal components' H2 (rows: quotient pairs, then
    each normal component's H2 basis; columns: curve components).
    h1_map: generator loops upstairs into the quotient graph's loop basis.
    """

    h2_map: IntegerMatrix
    h1_map: IntegerMatrix


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

    count, words = _generator_images(g)
    h1_map = exponent_sum_matrix(words, count)

    return MayerVietorisMatrices(h2_map=h2_map, h1_map=h1_map)


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
    """Integral homology of the glued surface from the level maps.

    The top group is one copy of Z per normal component; H3 is the kernel
    of the sphere-level map; H2 and H1 are cokernel-plus-kernel splices of
    adjacent levels (the kernels are free, so the extensions split).  D̄
    is connected, so H0(D̄) = Z injects and H1 is the cokernel of the
    loop-level map.
    """
    for n in g.normals:
        if not n.h1.is_trivial or not n.h3.is_trivial or n.h4_rank != 1:
            raise UnsupportedNormalHomologyError(
                f"normal component {n.id} must have trivial H1 and H3 and H4 = Z"
            )
    mv = mv_matrices(g)
    # one SNF per level map gives both its rank and its cokernel
    dec_n, dec_m = snf(mv.h2_map), snf(mv.h1_map)
    coker_n = dec_n.cokernel
    return HomologyOfX(
        h0=AbelianGroup(g.x_component_count),
        h1=dec_m.cokernel,
        h2=AbelianGroup(coker_n.free_rank + (mv.h1_map.cols - dec_m.rank), coker_n.torsion),
        h3=AbelianGroup(mv.h2_map.cols - dec_n.rank),
        h4=AbelianGroup(len(g.normals)),
    )
