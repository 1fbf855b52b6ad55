"""Shared builders for the test suite."""

from __future__ import annotations

import inspect

import pytest

from gluesurf.fourlines import TABLE, LinePairBijections, build_four_lines
from gluesurf.gluing import (
    CurveComponent,
    GluingData,
    NormalComponent,
    ValidatedGluing,
    cusps,
    validate_gluing,
)
from gluesurf.intlinalg import IntegerMatrix
from gluesurf.topology import _generator_images

_ROWS = {row.label: row for row in TABLE}


def replace(value, **changes):
    """A copy of ``value`` with the given constructor arguments changed, as
    ``dataclasses.replace`` makes one: every other argument is read from
    the attribute of its name, and the copy is built again, so its checks run."""
    kept = {name: getattr(value, name) for name in inspect.signature(type(value)).parameters}
    return type(value)(**{**kept, **changes})


def from_rows(rows, cols: int | None = None) -> IntegerMatrix:
    """The matrix with the given dense rows; ``cols`` gives the width of a matrix with none."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0 if cols is None else cols
    if any(len(r) != width for r in rows):
        raise ValueError("rows have unequal lengths")
    return IntegerMatrix(len(rows), width, {i: dict(enumerate(r)) for i, r in enumerate(rows)})


def row_lists(m: IntegerMatrix) -> list[list[int]]:
    """The dense rows of ``m``, as lists."""
    c, entries = m.cols, m.entries
    return [list(entries[i * c:(i + 1) * c]) for i in range(m.rows)]


def exponent_sum_matrix(words, num_generators: int) -> IntegerMatrix:
    """Generators x words matrix whose column j is word j's exponent sums,
    every word a column of its own, repeated and zero ones included."""
    nonzero: dict[int, dict[int, int]] = {}
    for j, w in enumerate(words):
        for x in w:
            row = nonzero.setdefault(abs(x) - 1, {})
            row[j] = row.get(j, 0) + (1 if x > 0 else -1)
    return IntegerMatrix(num_generators, len(words), nonzero)


def tree_word_map(g: ValidatedGluing) -> IntegerMatrix:
    """The loop-level map of ``g``: each generator loop of the normalized
    conductor's graph, as the exponent sums of its tree-path word in the
    quotient graph's generators (rows: those generators)."""
    count, words = _generator_images(g)
    return exponent_sum_matrix(words, count)


def node_matrix(data: GluingData) -> IntegerMatrix:
    """The loop-level map of X read from the raw gluing, with no graph model.

    One row per node of the normalized conductor, keyed by its smaller
    point; one column per edge of the quotient graph: tau-pair (a, b),
    a < b, at position i.  With a's points in stored order and b's as their
    tau-images, the column is node(a_i) - node(a_i+1) - node(b_i) +
    node(b_i+1).  It is the mapping cone of the graph of D-bar into the
    graph of D with the D rows eliminated (Hatcher, Algebraic Topology,
    2.2): its cokernel is H1(X) plus one free summand per degenerate cusp,
    and its rank is that of the loop-level map.
    """
    sigma, tau = data.sigma, data.tau_points
    row = {}
    for p in sorted(sigma):
        row.setdefault(min(p, sigma[p]), len(row))
    curves = {c.id: c for c in data.curve_components}
    columns = []
    for a, b in sorted((a, b) for a, b in data.tau_components.items() if a < b):
        pts = curves[a].marked_points
        images = [tau[x] for x in pts]
        for i in range(len(pts) - 1):
            column = {}
            for point, sign in ((pts[i], 1), (pts[i + 1], -1),
                                (images[i], -1), (images[i + 1], 1)):
                r = row[min(point, sigma[point])]
                column[r] = column.get(r, 0) + sign
            columns.append(column)
    nonzero = {}
    for j, column in enumerate(columns):
        for r, x in column.items():
            nonzero.setdefault(r, {})[j] = x
    return IntegerMatrix(len(row), len(columns), nonzero)


def cusp_matrix(g: ValidatedGluing) -> IntegerMatrix:
    """The paper's cusp matrix C of ``g``, read straight off the r- and s-cycles.

    One row per degenerate cusp in canonical order and one column per
    tau-pair, whose anti-invariant function f is +1 on the pair's smaller
    curve and -1 on its partner; the entry is the sum over the cusp's
    cycle of f(r_i) - f(s_i).  Its kernel dimension is #pairs - rank C.
    """
    f = {}
    for k, (a, b) in enumerate(g.tau_pairs):
        f[a], f[b] = (k, 1), (k, -1)
    rows = []
    for cusp in cusps(g):
        row = {}
        for points, sign in ((cusp.r_cycle, 1), (cusp.s_cycle, -1)):
            for p in points:
                k, value = f[g.point_component[p]]
                row[k] = row.get(k, 0) + sign * value
        rows.append(row)
    return IntegerMatrix(len(rows), len(g.tau_pairs), dict(enumerate(rows)))


def letter(g: int, s: int) -> int:
    """The word letter for generator index g raised to s = ±1."""
    return s * (g + 1)


def table_element(label: str) -> LinePairBijections:
    """The built-in classifier's stored representative for a table row."""
    return _ROWS[label].representative


def table_gluing(label: str) -> ValidatedGluing:
    return validate_gluing(build_four_lines(table_element(label)))


def toy_pair(npoints: int, shift: int) -> GluingData:
    """Two genus-0 curves on one simply connected component.

    sigma matches x_i with y_i; tau sends x_i to y_{i+shift}.  shift=1
    merges all nodes into a single point whose complement loop has order
    npoints in the fundamental group.
    """
    xs = [f"x{i}" for i in range(npoints)]
    ys = [f"y{i}" for i in range(npoints)]
    sigma: dict[str, str] = {}
    tau: dict[str, str] = {}
    for i in range(npoints):
        sigma[xs[i]] = ys[i]
        sigma[ys[i]] = xs[i]
        j = (i + shift) % npoints
        tau[xs[i]] = ys[j]
        tau[ys[j]] = xs[i]
    base = NormalComponent(id="base", chi_O=1, k_plus_d_sq=1)
    return GluingData(
        normal_components=(base,),
        curve_components=(
            CurveComponent("C1", "base", 0, tuple(xs), (1,)),
            CurveComponent("C2", "base", 0, tuple(ys), (1,)),
        ),
        sigma=sigma,
        tau_components={"C1": "C2", "C2": "C1"},
        tau_points=tau,
    )


def two_planes() -> GluingData:
    """Two planes, each glued to itself along one node: X has two components."""
    base1 = NormalComponent(id="base1", chi_O=1, k_plus_d_sq=1)
    base2 = NormalComponent(id="base2", chi_O=1, k_plus_d_sq=1)
    return GluingData(
        normal_components=(base1, base2),
        curve_components=(
            CurveComponent("C1", "base1", 0, ("x0",), (1,)),
            CurveComponent("C2", "base1", 0, ("y0",), (1,)),
            CurveComponent("C3", "base2", 0, ("u0",), (1,)),
            CurveComponent("C4", "base2", 0, ("v0",), (1,)),
        ),
        sigma={"x0": "y0", "y0": "x0", "u0": "v0", "v0": "u0"},
        tau_components={"C1": "C2", "C2": "C1", "C3": "C4", "C4": "C3"},
        tau_points={"x0": "y0", "y0": "x0", "u0": "v0", "v0": "u0"},
    )


def joined_planes() -> GluingData:
    """Two planes A and B, each with two one-point lines whose points form
    one node; tau pairs A1 with B1 and A2 with B2.  X is connected and the
    normalized conductor is not: one cusp of mu = 2 joins the two nodes."""
    base_a = NormalComponent(id="A", chi_O=1, k_plus_d_sq=1)
    base_b = NormalComponent(id="B", chi_O=1, k_plus_d_sq=1)
    return GluingData(
        normal_components=(base_a, base_b),
        curve_components=(
            CurveComponent("A1", "A", 0, ("a1",), (1,)),
            CurveComponent("A2", "A", 0, ("a2",), (1,)),
            CurveComponent("B1", "B", 0, ("b1",), (1,)),
            CurveComponent("B2", "B", 0, ("b2",), (1,)),
        ),
        sigma={"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1"},
        tau_components={"A1": "B1", "B1": "A1", "A2": "B2", "B2": "A2"},
        tau_points={"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"},
    )


def curve_cycle(count: int) -> GluingData:
    """``count`` (even) curves with two marked points each, joined by nodes
    into one cycle; the involution swaps curves 2i and 2i + 1.  The
    normalized conductor is a single loop of ``count`` nodes, so its
    spanning tree runs about count / 2 deep."""
    curves = tuple(CurveComponent(f"C{i}", "base", 0, (f"a{i}", f"b{i}"), (1,))
                   for i in range(count))
    sigma: dict[str, str] = {}
    tau_components: dict[str, str] = {}
    tau: dict[str, str] = {}
    for i in range(count):
        j = (i + 1) % count
        sigma[f"b{i}"], sigma[f"a{j}"] = f"a{j}", f"b{i}"
    for i in range(0, count, 2):
        tau_components[f"C{i}"], tau_components[f"C{i + 1}"] = f"C{i + 1}", f"C{i}"
        for x in "ab":
            tau[f"{x}{i}"], tau[f"{x}{i + 1}"] = f"{x}{i + 1}", f"{x}{i}"
    return GluingData(
        normal_components=(NormalComponent(id="base", chi_O=1, k_plus_d_sq=1),),
        curve_components=curves,
        sigma=sigma,
        tau_components=tau_components,
        tau_points=tau,
    )


@pytest.fixture
def x01() -> ValidatedGluing:
    return table_gluing("X0.1")


@pytest.fixture
def x02() -> ValidatedGluing:
    return table_gluing("X0.2")


@pytest.fixture
def x31() -> ValidatedGluing:
    return table_gluing("X3.1")
