"""Classifier for surfaces glued from a plane along four general lines.

The gluing involution is determined by two bijections between the marked
points of the paired lines, 36 choices in all; the index-permutation
group of order eight acts on them, and the orbits are the isomorphism
classes.  A built-in key labels each orbit and carries its published
invariants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LabelAmbiguousError, NotInD4Error
from .gluing import (
    CurveComponent,
    GluingData,
    NormalComponent,
    ValidatedGluing,
    cusps,
    node_id,
    validate_gluing,
)
from .grouptheory import closure, compose
from .invariants import InvariantReport, compute_report

LINES = ("L1", "L2", "L3", "L4")
LINE_POINTS = {
    "L1": ("P12", "P13", "P14"),
    "L2": ("P21", "P23", "P24"),
    "L3": ("P31", "P32", "P34"),
    "L4": ("P41", "P42", "P43"),
}
ALL_POINTS = tuple(p for line in LINES for p in LINE_POINTS[line])

_S3 = tuple(itertools.permutations(range(3)))

Perm4 = tuple[int, int, int, int]

# index permutations preserving the pairing {1,2} / {3,4} (0-indexed)
D4_ELEMENTS: tuple[Perm4, ...] = tuple(sorted(
    g for g in itertools.permutations(range(4))
    if {g[0], g[1]} in ({0, 1}, {2, 3})
))


@dataclass(frozen=True)
class LinePairBijections:
    """The two marked-point bijections, encoded as permutations of position.

    phi12 sends the i-th point of L1 to the phi12[i]-th point of L2, and
    phi34 likewise from L3 to L4.
    """

    phi12: tuple[int, int, int]
    phi34: tuple[int, int, int]

    def key(self) -> tuple[int, ...]:
        return self.phi12 + self.phi34

    def __lt__(self, other: "LinePairBijections") -> bool:
        return self.key() < other.key()


def all_gluings() -> tuple[LinePairBijections, ...]:
    return tuple(
        LinePairBijections(p, q) for p in _S3 for q in _S3
    )


def tau_point_map(b: LinePairBijections) -> dict[str, str]:
    tau: dict[str, str] = {}
    for src, dst, phi in (("L1", "L2", b.phi12), ("L3", "L4", b.phi34)):
        for i, point in enumerate(LINE_POINTS[src]):
            image = LINE_POINTS[dst][phi[i]]
            tau[point] = image
            tau[image] = point
    return tau


def build_four_lines(b: LinePairBijections) -> GluingData:
    """Gluing data for the plane with its four lines and the given involution."""
    plane = NormalComponent(id="plane", chi_O=1, k_plus_d_sq=1)
    curves = tuple(
        CurveComponent(
            id=line,
            ambient="plane",
            genus=0,
            marked_points=LINE_POINTS[line],
            h2_class=(1,),
        )
        for line in LINES
    )
    sigma = {}
    for i, j in itertools.permutations((1, 2, 3, 4), 2):
        sigma[f"P{i}{j}"] = f"P{j}{i}"
    return GluingData(
        normal_components=(plane,),
        curve_components=curves,
        sigma=sigma,
        tau_components={"L1": "L2", "L2": "L1", "L3": "L4", "L4": "L3"},
        tau_points=tau_point_map(b),
    )


def _relabel_point(point: str, g: Perm4) -> str:
    i, j = int(point[1]), int(point[2])
    return f"P{g[i - 1] + 1}{g[j - 1] + 1}"


def d4_action(g: Perm4, b: LinePairBijections) -> LinePairBijections:
    """Relabel the line indices by g and re-read the conjugated involution."""
    if tuple(g) not in D4_ELEMENTS:
        raise NotInD4Error(f"{g} does not preserve the line pairing")
    tau = tau_point_map(b)
    new_tau = {
        _relabel_point(p, g): _relabel_point(q, g) for p, q in tau.items()
    }

    def read(src: str, dst: str) -> tuple[int, int, int]:
        out = []
        for point in LINE_POINTS[src]:
            image = new_tau[point]
            out.append(LINE_POINTS[dst].index(image))
        return tuple(out)

    return LinePairBijections(phi12=read("L1", "L2"), phi34=read("L3", "L4"))


def orbit_of(b: LinePairBijections) -> tuple[LinePairBijections, ...]:
    return tuple(sorted({d4_action(g, b) for g in D4_ELEMENTS}, key=lambda x: x.key()))


def automorphism_group(b: LinePairBijections) -> tuple[Perm4, ...]:
    """The stabilizer in the index group; equals the surface's automorphisms."""
    return tuple(g for g in D4_ELEMENTS if d4_action(g, b) == b)


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
    """Greedy generating set; high-order elements first so cyclic groups get one generator."""
    identity = (0, 1, 2, 3)

    def order(g: Perm4) -> int:
        return len(closure((identity,), lambda h: (compose(g, h),)))

    have = {identity}
    gens: list[Perm4] = []
    for g in sorted(elements, key=lambda g: (-order(g), g)):
        if g in have:
            continue
        gens.append(g)
        have = closure(have, lambda h: (compose(k, h) for k in gens))
    return tuple(gens)


def _node(i: int, j: int) -> str:
    return node_id((f"P{i}{j}", f"P{j}{i}"))


def pretty_node(node: str) -> str:
    """P12|P21 -> P(12)."""
    first = node.split("|", 1)[0]
    return f"P({first[1]}{first[2]})"


@dataclass(frozen=True)
class _TableRow:
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


@dataclass(frozen=True)
class OrbitRecord:
    representative: LinePairBijections
    orbit: tuple[LinePairBijections, ...]
    stabilizer: tuple[Perm4, ...]
    report: InvariantReport
    table_label: str

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)


def _cusp_partition_ids(vg: ValidatedGluing) -> frozenset[frozenset[str]]:
    return frozenset(
        frozenset(node_id(n) for n in c.nodes) for c in cusps(vg)
    )


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
    remaining = set(all_gluings())
    records = []
    for b in all_gluings():
        if b not in remaining:
            continue
        orbit = orbit_of(b)
        remaining -= set(orbit)
        rep = orbit[0]
        stab = automorphism_group(rep)
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
