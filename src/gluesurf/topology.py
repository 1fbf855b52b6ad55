"""Homotopy-graph models of the conductor curves and integral invariants of X.

Each genus-0 curve component with k marked points is modelled by a path
through the points wedged with a 2-sphere; gluing the paths along the
node pairing gives a graph model of the normalized conductor, and taking
the quotient by the involution gives one for the conductor itself.  The
fundamental group and the homology of the glued surface then come from
spanning trees and three integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DbarDisconnectedError,
    GenusNotZeroError,
    NotSimplyConnectedError,
    SurfaceNotConnectedError,
    UnsupportedNormalHomologyError,
)
from .gluing import ValidatedGluing, cusps, node_id, node_of, per_gluing, quotient_curve
from .grouptheory import GroupPresentation, Word, exponent_sum_matrix, free_reduce
from .intlinalg import AbelianGroup, IntegerMatrix, snf

EdgeKey = tuple[str, int]  # (owning component label, segment position)


@dataclass(frozen=True)
class GraphEdge:
    u: int
    v: int
    key: EdgeKey


@dataclass(frozen=True)
class HomotopyGraph:
    """1-skeleton, spanning forest, and generator edges.

    ``parent[v]`` is (edge index, direction) leading back toward the BFS
    root of v's component, or None at a root.  ``generator_edges`` are the
    non-tree edges in key order; they index the fundamental-group basis.
    """

    vertices: tuple[str, ...]
    edges: tuple[GraphEdge, ...]
    parent: tuple[tuple[int, int] | None, ...]
    tree_edges: tuple[int, ...]
    generator_edges: tuple[int, ...]
    component_count: int

    @property
    def b1(self) -> int:
        return len(self.edges) - len(self.vertices) + self.component_count

    def path_from_root(self, vertex: int) -> list[tuple[int, int]]:
        """Edge path (edge index, direction) from the BFS root to ``vertex``."""
        path = []
        cur = vertex
        while self.parent[cur] is not None:
            eidx, direction = self.parent[cur]
            path.append((eidx, direction))
            edge = self.edges[eidx]
            cur = edge.u if direction == 1 else edge.v
        path.reverse()
        return path


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


def _d_owner(pair: tuple[str, str]) -> str:
    """Edge owner of a tau-pair in the graph model of D: its label "a+b"."""
    return f"{pair[0]}+{pair[1]}"


def _spanning_forest(n: int, edges: tuple[GraphEdge, ...]):
    adjacency: list[list[tuple[EdgeKey, int, int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        adjacency[e.u].append((e.key, 1, idx, e.v))
        adjacency[e.v].append((e.key, -1, idx, e.u))
    for lst in adjacency:
        lst.sort()
    parent: list[tuple[int, int] | None] = [None] * n
    visited = [False] * n
    tree: list[int] = []
    components = 0
    for root in range(n):
        if visited[root]:
            continue
        components += 1
        visited[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for _key, direction, idx, other in adjacency[u]:
                if not visited[other]:
                    visited[other] = True
                    parent[other] = (idx, direction)
                    tree.append(idx)
                    queue.append(other)
    tree_set = set(tree)
    generators = tuple(i for i in range(len(edges)) if i not in tree_set)
    return tuple(parent), tuple(sorted(tree_set)), generators, components


@per_gluing
def homotopy_graph(side: str, g: ValidatedGluing) -> HomotopyGraph:
    """Graph model of the normalized conductor (side="Dbar") or its quotient (side="D")."""
    _require_genus_zero(g)
    orders = _model_orders(g)

    if side == "Dbar":
        vertex_of_point = {p: node_id(node_of(p, g.data.sigma)) for p in g.points()}
        rows = [(c.id, orders[c.id]) for c in g.curves]
    elif side == "D":
        vertex_of_point = {p: c.label for c in cusps(g) for p in c.points}
        rows = [(_d_owner(pair), orders[pair[0]]) for pair in g.tau_pairs]
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
    parent, tree, generators, comps = _spanning_forest(len(vertices), edges)
    return HomotopyGraph(
        vertices=vertices,
        edges=edges,
        parent=parent,
        tree_edges=tree,
        generator_edges=generators,
        component_count=comps,
    )


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
def _generator_images(g: ValidatedGluing) -> tuple[HomotopyGraph, HomotopyGraph, tuple[Word, ...]]:
    """For each generator loop upstairs, its word in the quotient-graph generators.

    The loop for a non-tree edge is tree path in, the edge, tree path back;
    its image is read off edge by edge: quotient tree edges contribute
    nothing, quotient generator edges contribute one letter.
    """
    gbar = homotopy_graph("Dbar", g)
    gd = homotopy_graph("D", g)

    d_index = {e.key: i for i, e in enumerate(gd.edges)}
    # the quotient edge under each upstairs edge: same position on its tau-pair
    below = [d_index[(_d_owner(g.tau_pairs[g.pair_index[owner]]), pos)]
             for owner, pos in (e.key for e in gbar.edges)]
    d_tree = set(gd.tree_edges)
    d_letter = {eidx: x for x, eidx in enumerate(gd.generator_edges, 1)}

    words = []
    for eidx in gbar.generator_edges:
        edge = gbar.edges[eidx]
        path = gbar.path_from_root(edge.u)
        path.append((eidx, 1))
        back = [(i, -d) for i, d in reversed(gbar.path_from_root(edge.v))]
        path.extend(back)
        letters = []
        for bidx, direction in path:
            didx = below[bidx]
            if didx in d_tree:
                continue
            letters.append(direction * d_letter[didx])
        words.append(free_reduce(letters))
    return gbar, gd, tuple(words)


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
    _gbar, gd, words = _generator_images(g)
    names = _letter_names(len(gd.generator_edges))
    relators = tuple(w for w in words if w)
    return GroupPresentation(names, relators)


@dataclass(frozen=True)
class MayerVietorisMatrices:
    """The three level maps out of the normalized conductor.

    h2_map: sphere classes of the normalized conductor into quotient
    spheres plus the normal components' H2 (rows: quotient pairs, then
    each normal component's H2 basis; columns: curve components).
    h1_map: generator loops upstairs into the quotient graph's loop basis.
    h0_map: connected components into quotient-curve and surface components.
    """

    h2_map: IntegerMatrix
    h1_map: IntegerMatrix
    h0_map: IntegerMatrix


@per_gluing
def mv_matrices(g: ValidatedGluing) -> MayerVietorisMatrices:
    _check_pi1_preconditions(g)
    pairs = g.tau_pairs
    curves = g.curves
    normals = g.normals

    h2_rows = len(pairs) + sum(n.h2_rank for n in normals)
    block_start = {}
    offset = len(pairs)
    for n in normals:
        block_start[n.id] = offset
        offset += n.h2_rank
    entries = [[0] * len(curves) for _ in range(h2_rows)]
    for j, c in enumerate(curves):
        entries[g.pair_index[c.id]][j] = 1
        for r, coeff in enumerate(c.h2_class):
            entries[block_start[c.ambient] + r][j] = coeff
    h2_map = IntegerMatrix.from_rows(entries, cols=len(curves))

    _gbar, gd, words = _generator_images(g)
    h1_map = exponent_sum_matrix(words, len(gd.generator_edges))

    model = quotient_curve(g)
    d_count = model.component_count
    rows = [[0] * len(g.dbar_components) for _ in range(d_count + len(normals))]
    normal_row = {n.id: d_count + i for i, n in enumerate(normals)}
    for j, group in enumerate(g.dbar_components):
        first = group[0]
        rows[model.pair_component[g.pair_index[first]]][j] = 1
        rows[normal_row[g.curve(first).ambient]][j] = 1
    h0_map = IntegerMatrix.from_rows(rows, cols=len(g.dbar_components))

    return MayerVietorisMatrices(h2_map=h2_map, h1_map=h1_map, h0_map=h0_map)


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
    adjacent levels (the kernels are free, so the extensions split).
    """
    for n in g.normals:
        if not n.h1.is_trivial or not n.h3.is_trivial or n.h4_rank != 1:
            raise UnsupportedNormalHomologyError(
                f"normal component {n.id} must have trivial H1 and H3 and H4 = Z"
            )
    mv = mv_matrices(g)
    # one SNF per level map gives both its rank and its cokernel
    dec_n, dec_m, dec_p = snf(mv.h2_map), snf(mv.h1_map), snf(mv.h0_map)
    coker_n, coker_m = dec_n.cokernel, dec_m.cokernel
    return HomologyOfX(
        h0=AbelianGroup(g.x_component_count),
        h1=AbelianGroup(coker_m.free_rank + (mv.h0_map.cols - dec_p.rank), coker_m.torsion),
        h2=AbelianGroup(coker_n.free_rank + (mv.h1_map.cols - dec_m.rank), coker_n.torsion),
        h3=AbelianGroup(mv.h2_map.cols - dec_n.rank),
        h4=AbelianGroup(len(g.normals)),
    )
