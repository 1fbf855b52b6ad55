"""Shared builders for the test suite."""

from __future__ import annotations

import inspect
import itertools
from collections import Counter

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
from gluesurf.grouptheory import GroupPresentation
from gluesurf.intlinalg import IntegerMatrix, cokernel_invariants
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


def entry(m: IntegerMatrix, i: int, j: int) -> int:
    """The (i, j) entry of ``m``, read from its stored nonzero entries."""
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError((i, j))
    return m._rows.get(i, {}).get(j, 0)


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


def kernel_homology(p: GroupPresentation, d: int) -> Counter:
    """How often each H1(ker eps) occurs, printed, over every eps of p's
    group onto C_d, d prime (Reidemeister-Schreier; Magnus, Karrass and
    Solitar, *Combinatorial Group Theory*, 2.3).

    eps runs over the nonzero combinations of a basis of the generator
    vectors mod d that annul every relator's exponent sums; eps and its
    d - 1 unit multiples share one kernel, which is built once.  On sheets
    i in Z/d, generator x's copy leaving sheet i is row x * d + i.  Each
    relator read from each sheet is one column, and so is each edge of a
    spanning tree of the Schreier graph: the copies of one generator t,
    eps(t) != 0, leaving sheets 0, eps(t), ..., (d - 2) eps(t).
    """
    k = len(p.generators)
    reduced: dict[int, list[int]] = {}  # pivot column -> its row, mod d, in echelon form
    for w in p.relators:
        row = [sum(1 if x > 0 else -1 for x in w if abs(x) == g + 1) % d for g in range(k)]
        for c, r in reduced.items():
            row = [(a - row[c] * b) % d for a, b in zip(row, r)]
        if (lead := next((c for c, a in enumerate(row) if a), None)) is not None:
            row = [a * pow(row[lead], -1, d) % d for a in row]
            reduced = {c: [(a - r[lead] * b) % d for a, b in zip(r, row)]
                       for c, r in reduced.items()}
            reduced[lead] = row
    basis = [[int(c == f) if c not in reduced else -reduced[c][f] % d for c in range(k)]
             for f in range(k) if f not in reduced]
    found = Counter()
    for coeffs in itertools.product(range(d), repeat=len(basis)):
        if next((c for c in coeffs if c), None) != 1:
            continue
        eps = [sum(c * v[x] for c, v in zip(coeffs, basis)) % d for x in range(k)]
        t = next(x for x in range(k) if eps[x])
        nonzero: dict[int, dict[int, int]] = {t * d + j * eps[t] % d: {j: 1} for j in range(d - 1)}
        for j, (w, sheet) in enumerate(itertools.product(p.relators, range(d)), d - 1):
            for x in w:
                g, sign = abs(x) - 1, 1 if x > 0 else -1
                if sign < 0:  # x runs backwards along the copy that enters the sheet
                    sheet = (sheet - eps[g]) % d
                column = nonzero.setdefault(g * d + sheet, {})
                column[j] = column.get(j, 0) + sign
                if sign > 0:
                    sheet = (sheet + eps[g]) % d
        found[str(cokernel_invariants(IntegerMatrix(k * d, len(p.relators) * d + d - 1,
                                                    nonzero)))] += d - 1
    return found


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


def wire_ids(doc: dict) -> list[str]:
    """Every normal, curve and point id of a wire-format gluing, sorted."""
    curves = doc["curve_components"]
    return sorted({n["id"] for n in doc["normalization"]} | {c["id"] for c in curves}
                  | {p for c in curves for p in c["marked_points"]})


def renamed(doc: dict, renaming: dict) -> dict:
    """``doc`` with every id x replaced by renaming.get(x, x)."""
    r = lambda x: renaming.get(x, x)  # noqa: E731
    pairs = lambda ps: [[r(a), r(b)] for a, b in ps]  # noqa: E731
    return {
        "normalization": [dict(n, id=r(n["id"])) for n in doc["normalization"]],
        "curve_components": [
            dict(c, id=r(c["id"]), on=r(c["on"]), marked_points=[r(p) for p in c["marked_points"]])
            for c in doc["curve_components"]],
        "node_pairing": pairs(doc["node_pairing"]),
        "involution": {
            "components": pairs(doc["involution"]["components"]),
            "points": {r(a): r(b) for a, b in doc["involution"]["points"].items()}},
    }


# renamings of random_n_lines(4, 0) whose glued labels collide
COLLIDING_RENAMINGS = (
    # node labels: "A|B" + "C" and "A" + "B|C" both print as A|B|C
    {"P1_2": "A|B", "P2_1": "C", "P1_3": "A", "P3_1": "B|C"},
    # tau-pair labels: both pairs print as A+B+C
    {"L1": "A+B", "L2": "C", "L3": "A", "L4": "B+C"},
)


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
