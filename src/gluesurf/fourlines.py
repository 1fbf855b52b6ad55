"""Classifier for surfaces glued from a plane along four general lines.

The gluing involution is determined by two bijections between the marked
points of the paired lines, 36 choices in all; the index-permutation
group of order eight acts on them, and the orbits are the isomorphism
classes.  A built-in key labels each orbit and carries its published
invariants.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .base import Record, _tuples
from .errors import LabelAmbiguousError, NotInD4Error
from .gluing import (
    CurveComponent,
    GluingData,
    Node,
    NormalComponent,
    node_id,
    validate_gluing,
)
from .grouptheory import FiniteGroup
from .invariants import InvariantReport, compute_report

LINES = ("L1", "L2", "L3", "L4")
# A marked point as an integer pair: (its line, the line it meets there),
# both 0-indexed; the k-th point of line i meets line _OTHERS[i][k].  Its
# index is 3 * i + k.
Point = tuple[int, int]
_OTHERS = tuple(tuple(j for j in range(4) if j != i) for i in range(4))
_POINTS: tuple[Point, ...] = tuple((i, j) for i in range(4) for j in _OTHERS[i])
_INDEX = {p: k for k, p in enumerate(_POINTS)}


def _name(p: Point) -> str:
    return f"P{p[0] + 1}{p[1] + 1}"


_NAMES = tuple(map(_name, _POINTS))
LINE_POINTS = {line: _NAMES[3 * i:3 * i + 3] for i, line in enumerate(LINES)}

_S3 = tuple(itertools.permutations(range(3)))

Perm4 = tuple[int, int, int, int]

# index permutations preserving the pairing {1,2} / {3,4} (0-indexed)
D4_ELEMENTS: tuple[Perm4, ...] = tuple(sorted(
    g for g in itertools.permutations(range(4))
    if {g[0], g[1]} in ({0, 1}, {2, 3})
))


class LinePairBijections(Record):
    """The two marked-point bijections, encoded as permutations of position.

    phi12 sends the i-th point of L1 to the phi12[i]-th point of L2, and
    phi34 likewise from L3 to L4.  Each must be a tuple permuting (0, 1, 2).
    """

    __slots__ = ("phi12", "phi34")

    def __init__(self, phi12: tuple[int, int, int], phi34: tuple[int, int, int]):
        # a bool equals 0 or 1 and would pass the lookup alone
        if phi12 not in _S3 or phi34 not in _S3 or bool in map(type, phi12 + phi34):
            raise ValueError(f"phi12 = {phi12!r} and phi34 = {phi34!r} "
                             "must both be tuples permuting (0, 1, 2)")
        self._set(phi12, phi34)

    def key(self) -> tuple[int, ...]:
        return self.phi12 + self.phi34


def all_gluings() -> tuple[LinePairBijections, ...]:
    return tuple(
        LinePairBijections(p, q) for p in _S3 for q in _S3
    )


def _tau_indices(b: LinePairBijections) -> list[int]:
    """The gluing involution on point indices: point k goes to point tau[k]."""
    tau = [0] * len(_POINTS)
    # L1 and L3 start at index 0 and 6; their partner lines 3 further on
    for start, phi in ((0, b.phi12), (6, b.phi34)):
        for k, image in enumerate(phi):
            p, q = start + k, start + 3 + image
            tau[p], tau[q] = q, p
    return tau


def tau_point_map(b: LinePairBijections) -> dict[str, str]:
    return {_NAMES[p]: _NAMES[q] for p, q in enumerate(_tau_indices(b))}


# the parts of the four-line gluing that do not depend on the involution
_PLANE = (NormalComponent(id="plane", chi_O=1, k_plus_d_sq=1),)
_LINE_CURVES = tuple(
    CurveComponent(id=line, ambient="plane", genus=0, marked_points=LINE_POINTS[line],
                   h2_class=(1,))
    for line in LINES
)
_SIGMA = {_name((i, j)): _name((j, i)) for i, j in itertools.permutations(range(4), 2)}
_TAU_LINES = {"L1": "L2", "L2": "L1", "L3": "L4", "L4": "L3"}


def build_four_lines(b: LinePairBijections) -> GluingData:
    """Gluing data for the plane with its four lines and the given involution."""
    return GluingData(
        normal_components=_PLANE,
        curve_components=_LINE_CURVES,
        sigma=_SIGMA,
        tau_components=_TAU_LINES,
        tau_points=tau_point_map(b),
    )


def _relabelling(g: Perm4) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """How the line relabelling g moves the points: the index of the
    preimage of each L1 and L3 point, and for every point q the position
    of g(q) on its line."""
    image = [_INDEX[g[i], g[j]] for i, j in _POINTS]
    # the inverse of the index permutation image
    preimage = sorted(range(len(_POINTS)), key=image.__getitem__)
    return tuple(preimage[q] for q in (0, 1, 2, 6, 7, 8)), tuple(k % 3 for k in image)


_RELABELLINGS = {g: _relabelling(g) for g in D4_ELEMENTS}


def _conjugate(relabelling: tuple[tuple[int, ...], tuple[int, ...]],
               tau: list[int]) -> tuple[int, ...]:
    """The key of the conjugated involution, which sends an L1 or L3 point
    q to g(tau(g^-1(q)))."""
    preimages, position = relabelling
    return tuple(position[tau[p]] for p in preimages)


def _from_key(key: tuple[int, ...]) -> LinePairBijections:
    return LinePairBijections(phi12=key[:3], phi34=key[3:])


def d4_action(g: Perm4, b: LinePairBijections) -> LinePairBijections:
    """Relabel the line indices by g and re-read the conjugated involution."""
    if tuple(g) not in D4_ELEMENTS:
        raise NotInD4Error(f"{g} does not preserve the line pairing")
    return _from_key(_conjugate(_RELABELLINGS[tuple(g)], _tau_indices(b)))


def orbit_and_stabilizer(
        b: LinePairBijections) -> tuple[tuple[LinePairBijections, ...], tuple[Perm4, ...]]:
    """The orbit of b in key order, and its stabilizer in the index group.

    The stabilizer equals the surface's automorphism group.  Both come
    from one image key of b per group element, all read off one involution.
    """
    tau, key = _tau_indices(b), b.key()
    images = {g: _conjugate(relabelling, tau) for g, relabelling in _RELABELLINGS.items()}
    orbit = tuple(map(_from_key, sorted(set(images.values()))))
    return orbit, tuple(g for g, image in images.items() if image == key)


def perm_to_cycles(g: Perm4) -> str:
    """One-line cycle notation on {1..4}; identity prints as 'e'."""
    seen = set()
    cycles = []
    for start in range(4):
        if start in seen or g[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        cur = g[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = g[cur]
        cycles.append("(" + "".join(str(i + 1) for i in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def generating_set(elements: tuple[Perm4, ...]) -> tuple[Perm4, ...]:
    """The generators ``FiniteGroup`` takes for the group ``elements`` form:
    by falling order, so a cyclic group gets one; none for the trivial group."""
    group = FiniteGroup("stabilizer", 4, tuple(sorted(elements)))
    return tuple(group.elements[x] for x in group.generators)


def _node(i: int, j: int) -> str:
    return node_id((f"P{i}{j}", f"P{j}{i}"))


def pretty_node(node: Node) -> str:
    """("P12", "P21") -> P(12)."""
    return f"P({node[0][1:]})"


class _TableRow(NamedTuple):
    label: str
    chi: int
    q: int
    cusp_partition: frozenset[frozenset[str]]
    stabilizer_order: int
    stated_generators: tuple[Perm4, ...]
    representative: LinePairBijections


def _partition(*cusps_: tuple[tuple[int, int], ...]) -> frozenset[frozenset[str]]:
    return frozenset(
        frozenset(_node(i, j) for i, j in cusp) for cusp in cusps_
    )


_ID, _T12, _T34, _T1234 = (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)
_D13_24, _D14_23, _C1324 = (2, 3, 0, 1), (3, 2, 1, 0), (2, 3, 1, 0)

TABLE: tuple[_TableRow, ...] = (
    _TableRow(
        "X3.1", 3, 0,
        _partition(((1, 2),), ((3, 4),), ((1, 3), (2, 4)), ((2, 3), (1, 4))),
        8, (_T12, _T34, _D13_24),
        LinePairBijections((0, 2, 1), (1, 0, 2)),
    ),
    _TableRow(
        "X2.1", 2, 0,
        _partition(((1, 2),), ((3, 4),), ((1, 3), (1, 4), (2, 3), (2, 4))),
        8, (_T12, _T34, _D13_24),
        LinePairBijections((0, 1, 2), (0, 1, 2)),
    ),
    _TableRow(
        "X2.2", 2, 0,
        _partition(((1, 2),), ((3, 4),), ((1, 3), (1, 4), (2, 3), (2, 4))),
        4, (_T12, _T34),
        LinePairBijections((0, 1, 2), (1, 0, 2)),
    ),
    _TableRow(
        "X2.3", 2, 0,
        _partition(((1, 2), (2, 3), (1, 4)), ((1, 3), (2, 4)), ((3, 4),)),
        2, (_T1234,),
        LinePairBijections((1, 2, 0), (1, 0, 2)),
    ),
    _TableRow(
        "X1.1", 1, 0,
        _partition(((1, 2),), ((3, 4), (1, 3), (1, 4), (2, 3), (2, 4))),
        2, (_T34,),
        LinePairBijections((0, 1, 2), (0, 2, 1)),
    ),
    _TableRow(
        "X1.2", 1, 0,
        _partition(((1, 2),), ((3, 4), (1, 3), (1, 4), (2, 3), (2, 4))),
        2, (_T1234,),
        LinePairBijections((0, 1, 2), (1, 2, 0)),
    ),
    # (12)(34) does not stabilize this representative; the verified
    # stabilizer is generated by (34)
    _TableRow(
        "X1.3", 1, 0,
        _partition(((1, 2),), ((3, 4), (1, 3), (1, 4), (2, 3), (2, 4))),
        2, (_T34,),
        LinePairBijections((0, 2, 1), (0, 2, 1)),
    ),
    _TableRow(
        "X1.4", 1, 0,
        _partition(((1, 2), (3, 4), (1, 4), (2, 3)), ((1, 3), (2, 4))),
        4, (_D13_24, _D14_23),
        LinePairBijections((1, 2, 0), (1, 2, 0)),
    ),
    _TableRow(
        "X1.5", 1, 0,
        _partition(((1, 2), (2, 3), (1, 4)), ((1, 3), (2, 4), (3, 4))),
        4, (_C1324,),
        LinePairBijections((1, 2, 0), (2, 0, 1)),
    ),
    _TableRow(
        "X0.1", 0, 1,
        _partition(((1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4))),
        2, (_D14_23,),
        LinePairBijections((1, 0, 2), (0, 2, 1)),
    ),
    _TableRow(
        "X0.2", 0, 1,
        _partition(((1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4))),
        1, (),
        LinePairBijections((1, 2, 0), (0, 2, 1)),
    ),
)

_TABLE_ORDER = {row.label: i for i, row in enumerate(TABLE)}


class OrbitRecord(Record):
    __slots__ = ("representative", "orbit", "stabilizer", "report", "table_label")

    def __init__(self, representative: LinePairBijections, orbit: tuple[LinePairBijections, ...],
                 stabilizer: tuple[Perm4, ...], report: InvariantReport, table_label: str):
        self._set(representative, tuple(orbit), _tuples(stabilizer), report, table_label)

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)


def _assign_label(chi: int, cusp_sizes: tuple[int, ...], stab_order: int,
                  orbit: tuple[LinePairBijections, ...]) -> str:
    """The label of the one table row whose representative lies in ``orbit``.

    The row's stored (chi, cusp sizes, |stab|) must agree with the computed
    key; a disagreement means the table or the pipeline is wrong.
    """
    orbit_set = set(orbit)
    rows = [row for row in TABLE if row.representative in orbit_set]
    if len(rows) != 1:
        raise LabelAmbiguousError(f"orbit of {orbit[0]} contains {len(rows)} table representatives")
    row = rows[0]
    stored = (row.chi, tuple(sorted(len(c) for c in row.cusp_partition)), row.stabilizer_order)
    if stored != (chi, cusp_sizes, stab_order):
        raise LabelAmbiguousError(
            f"classification key (chi={chi}, cusps={cusp_sizes}, |stab|={stab_order}) "
            f"disagrees with table row {row.label}"
        )
    return row.label


def enumerate_orbits() -> tuple[OrbitRecord, ...]:
    """All orbit records, labelled and sorted in table order.

    The representative of each orbit is its lexicographic minimum; the
    invariant pipeline runs on the representative.
    """
    gluings = all_gluings()
    remaining = set(gluings)
    records = []
    # gluings come in key order, so each orbit is met first at its minimum
    for rep in gluings:
        if rep not in remaining:
            continue
        orbit, stab = orbit_and_stabilizer(rep)
        remaining -= set(orbit)
        if len(orbit) * len(stab) != len(D4_ELEMENTS):
            raise LabelAmbiguousError(
                f"orbit-stabilizer mismatch at {rep}: {len(orbit)} * {len(stab)} != 8"
            )
        vg = validate_gluing(build_four_lines(rep))
        report = compute_report(vg)
        cusp_sizes = tuple(sorted(c.mu for c in report.cusp_partition))
        label = _assign_label(report.chi, cusp_sizes, len(stab), orbit)
        records.append(OrbitRecord(
            representative=rep,
            orbit=orbit,
            stabilizer=stab,
            report=report,
            table_label=label,
        ))
    if len({r.table_label for r in records}) != len(records):
        raise LabelAmbiguousError("two orbits received the same label")
    return tuple(sorted(records, key=lambda r: _TABLE_ORDER[r.table_label]))
