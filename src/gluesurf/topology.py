"""Homotopy-graph models of the conductor curves and integral invariants of X.

Each genus-0 curve component with k marked points is modelled by a path
through the points wedged with a 2-sphere; gluing the paths along the
node pairing gives a graph model of the normalized conductor, and taking
the quotient by the involution gives one for the conductor itself.  The
fundamental group comes from their spanning trees.  The homology of the
glued surface comes from two integer matrices read off the gluing with
no graph model: the sphere-level map and R, the tau-pairs x cusps
relation matrix, from which the irregularity is read as well.

R is the node matrix N reduced (N: the mapping cone of the graph of
D-bar into that of D, D rows eliminated, one row per node; Hatcher,
*Algebraic Topology*, 2.2).  With a_0 ... a_k the points of pair P's
smaller curve and d_i = node(a_i) - node(tau a_i), column (P, i) of N is
d_i - d_i+1; one generator t_P = d_0 per pair gives coker N = <nodes,
t_P | node(a_i) - node(tau a_i) = t_P>.  A node has two points and each
point lies on one relation, so read as edges the relations give every
node degree 2: their components are the <sigma, tau>-orbits, the
degenerate cusps, each one cycle.  +-1 eliminations along a spanning
tree of each (Havas, Holt and Rees, *Recognizing badly presented
Z-modules*, 1993) leave one free generator and one relation per cusp,
the sum of f(s_i) t_P(s_i) around it, f being +1 on a pair's smaller
curve and -1 on its partner.  So coker N = Z^#cusps + coker R, column c
of R holding cusp c's sums: H1(X) = coker R, and N's kernel rank is
#cusps - rank R.  R is -1/2 times the transpose of the cusp matrix: its
entry, the sum of f(r_i) - f(s_i), is -2 times the sum of f(s_i), as
r_i+1 = tau(s_i) lies on the partner curve.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from . import grouptheory  # read at call time, by pi1 alone: homology runs no group theory
from .errors import (
    DbarDisconnectedError,
    GenusNotZeroError,
    NotSimplyConnectedError,
    SurfaceNotConnectedError,
    UnsupportedNormalHomologyError,
)
from .gluing import ValidatedGluing, cusps, node_id, per_gluing
from .intlinalg import AbelianGroup, IntegerMatrix, snf


def _require_genus_zero(g: ValidatedGluing):
    for c in g.curves:
        if c.genus != 0:
            raise GenusNotZeroError(f"component {c.id} has genus {c.genus}")


def homotopy_graph(side: str, g: ValidatedGluing) -> tuple[list, list, list, list]:
    """Graph model of the normalized conductor (side="Dbar") or its quotient
    (side="D"), as flat lists: the edges as (u, v) vertex indices, curve
    by curve; each edge's key (its tau-pair's index, its position on the
    curve), which an upstairs edge shares with the quotient edge under it;
    each vertex's BFS tree step (parent, edge, +1 if the edge runs parent ->
    vertex else -1), or None at a root; and the non-tree edges, which index
    the fundamental-group basis, in edge order.  One step per vertex keeps
    the forest linear in size however deep it is.

    Each curve is a path through its marked points: the smaller curve of a
    tau-pair in stored order, its partner through their tau-images, so tau
    is simplicial on the models.  The k-th pair (a, b) owns "a+b" in D.
    """
    _require_genus_zero(g)
    # Vertices and curves are sorted by their printed label, ties kept in
    # structural order: two labels glued from ids can be equal, and the
    # generator names follow this order.
    if side == "Dbar":
        nodes = sorted(g.nodes(), key=node_id)
        count = len(nodes)
        vertex_of_point = {p: v for v, node in enumerate(nodes) for p in node}
        tau = g.data.tau_points.__getitem__
        rows = []
        for a, b in g.tau_pairs:
            pts = g.curve(a).marked_points
            rows += ((a, pts), (b, tuple(map(tau, pts))))
        rows = [(g.pair_index[owner], pts) for owner, pts in sorted(rows)]
    elif side == "D":
        found = cusps(g)
        count = len(found)
        order = sorted(range(count), key=lambda i: found[i].label)
        vertex_of_point = {p: v for v, i in enumerate(order) for p in found[i].points}
        rows = sorted([(f"{a}+{b}", k, g.curve(a).marked_points)
                       for k, (a, b) in enumerate(g.tau_pairs)])
        rows = [(k, pts) for _label, k, pts in rows]
    else:
        raise ValueError(f"side must be 'Dbar' or 'D', got {side!r}")

    edges, keys = [], []
    for k, pts in rows:
        at = [vertex_of_point[p] for p in pts]
        edges += zip(at, at[1:])
        keys += [(k, i) for i in range(len(at) - 1)]
    # each adjacency list keeps the edges' order
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
    for e, (u, v) in enumerate(edges):
        adjacency[u].append((v, e, 1))
        adjacency[v].append((u, e, -1))
    steps: list[tuple[int, int, int] | None] = [None] * count
    seen = [False] * count
    in_tree = [False] * len(edges)
    for root in range(count):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            for v, e, direction in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    steps[v] = (u, e, direction)
                    in_tree[e] = True
                    queue.append(v)
    return edges, keys, steps, [e for e, tree in enumerate(in_tree) if not tree]


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
    edges, keys, steps, generators = homotopy_graph("Dbar", g)
    _edges, d_keys, _steps, d_generators = homotopy_graph("D", g)
    # an upstairs edge lies over the quotient edge of the same key;
    # letter[e] is that edge's letter, or 0
    d_letter = {d_keys[e]: x for x, e in enumerate(d_generators, 1)}
    letter = [d_letter.get(key, 0) for key in keys]

    def letters_to_root(vertex: int) -> list[int]:
        # the letters of the tree path from the root to vertex, last first
        out = []
        while (step := steps[vertex]) is not None:
            vertex, e, direction = step
            if letter[e]:
                out.append(direction * letter[e])
        return out

    words = []
    for e in generators:
        u, v = edges[e]
        loop = letters_to_root(u)
        loop.reverse()
        if letter[e]:
            loop.append(letter[e])
        loop += [-x for x in letters_to_root(v)]
        words.append(grouptheory.free_reduce(loop))
    return len(d_generators), tuple(words)


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


@per_gluing
def cusp_relations(g: ValidatedGluing) -> IntegerMatrix:
    """R of the module docstring.  It runs none of pi1's checks: the
    irregularity reads it on a disconnected D-bar and curves of any genus."""
    entry = {}
    for k, (a, b) in enumerate(g.tau_pairs):
        entry[a], entry[b] = (k, 1), (k, -1)
    found = cusps(g)
    rows: list[dict[int, int]] = [{} for _ in g.tau_pairs]
    for c, cusp in enumerate(found):
        for s in cusp.s_cycle:
            k, f = entry[g.point_component[s]]
            rows[k][c] = rows[k].get(c, 0) + f
    return IntegerMatrix(len(rows), len(found), dict(enumerate(rows)))


@per_gluing
def mv_matrices(g: ValidatedGluing) -> IntegerMatrix:
    """The sphere-level map (rows: quotient pairs, then each normal
    component's H2 basis; columns: curve components)."""
    _check_pi1_preconditions(g)
    curves = g.curves
    normals = g.normals

    block_start = {}
    offset = len(g.tau_pairs)
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
    return IntegerMatrix(offset, len(curves), nonzero)


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
    and the cusp relation matrix R.

    The top group is one copy of Z per normal component; H3 is the kernel
    of the sphere-level map; H2 and H1 are cokernel-plus-kernel splices of
    adjacent levels (the kernels are free, so the extensions split).  D̄
    is connected, so H0(D̄) = Z injects and H1 is the cokernel of the
    loop-level map: coker R, with kernel rank #cusps - rank R.
    """
    for n in g.normals:
        if not n.h1.is_trivial or not n.h3.is_trivial or n.h4_rank != 1:
            raise UnsupportedNormalHomologyError(
                f"normal component {n.id} must have trivial H1 and H3 and H4 = Z"
            )
    spheres, relations = mv_matrices(g), cusp_relations(g)
    # one SNF per matrix gives both its rank and its cokernel
    dec_n, dec_r = snf(spheres), snf(relations)
    coker_n = dec_n.cokernel
    return HomologyOfX(
        h0=AbelianGroup(g.x_component_count),
        h1=dec_r.cokernel,
        h2=AbelianGroup(coker_n.free_rank + (relations.cols - dec_r.rank), coker_n.torsion),
        h3=AbelianGroup(spheres.cols - dec_n.rank),
        h4=AbelianGroup(len(g.normals)),
    )
