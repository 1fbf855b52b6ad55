"""Combinatorial gluing data for demi-normal surfaces.

A surface is described by its normalization (a disjoint union of normal
components), the marked curves along which it is glued, the node pairing
``sigma`` on marked points, and the gluing involution ``tau``.  This module
validates such data and computes the purely combinatorial invariants:
the point orbits at the non-normal singularities, the quotient-curve
structure, and the coherent Euler characteristics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import GluingFormatError, GluingValidationError
from .intlinalg import AbelianGroup

TRIVIAL = AbelianGroup(0)


@dataclass(frozen=True)
class NormalComponent:
    """One connected component of the normalization, by its invariants."""

    id: str
    chi_O: int
    q: int = 0
    simply_connected: bool = True
    h1: AbelianGroup = TRIVIAL
    h2_rank: int = 1
    h3: AbelianGroup = TRIVIAL
    h4_rank: int = 1
    k_plus_d_sq: int | None = None


@dataclass(frozen=True)
class CurveComponent:
    """A marked curve on a normal component.

    ``marked_points`` are the node preimages, in the order used by the
    homotopy models downstream.  ``h2_class`` is the curve's class in the
    ambient component's H2 basis.
    """

    id: str
    ambient: str
    genus: int
    marked_points: tuple[str, ...]
    h2_class: tuple[int, ...]


@dataclass(frozen=True, eq=True)
class GluingData:
    """Raw gluing triple: normalization, marked curves, sigma and tau.

    All three maps are stored fully symmetrized (every pair appears in
    both directions) as read-only copies of the mappings passed in;
    ``validate_gluing`` checks that they really are fixed-point-free
    involutions compatible with the component data.
    """

    normal_components: tuple[NormalComponent, ...]
    curve_components: tuple[CurveComponent, ...]
    sigma: Mapping[str, str]
    tau_components: Mapping[str, str]
    tau_points: Mapping[str, str]

    def __post_init__(self):
        for name in ("sigma", "tau_components", "tau_points"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


Node = tuple[str, str]


def node_of(point: str, sigma: Mapping[str, str]) -> Node:
    a, b = point, sigma[point]
    return (a, b) if a < b else (b, a)


def node_id(node: Node) -> str:
    return f"{node[0]}|{node[1]}"


@dataclass(frozen=True)
class DegenerateCusp:
    """One orbit of marked points under the group generated by sigma and tau.

    The r-cycle is the orbit of tau∘sigma through the lexicographically
    smallest point; s_i = sigma(r_i), and tau(s_i) = r_{i+1 mod mu}.
    """

    r_cycle: tuple[str, ...]
    s_cycle: tuple[str, ...]

    @property
    def mu(self) -> int:
        return len(self.r_cycle)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(
            (r, s) if r < s else (s, r) for r, s in zip(self.r_cycle, self.s_cycle)
        )

    @property
    def points(self) -> frozenset[str]:
        return frozenset(self.r_cycle) | frozenset(self.s_cycle)

    @property
    def label(self) -> str:
        return node_id(min(self.nodes))


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> list[tuple]:
        by_root: dict = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        out = [tuple(sorted(members)) for members in by_root.values()]
        return sorted(out)


@dataclass(frozen=True)
class ValidatedGluing:
    """Gluing data with all invariants checked, plus connectivity annotations.

    Structures derived from the gluing are cached in ``_memo`` by the
    ``per_gluing`` functions, so each is computed once per instance.
    """

    data: GluingData
    dbar_components: tuple[tuple[str, ...], ...]
    x_component_count: int
    point_component: Mapping[str, str] = field(repr=False)
    _curve_by_id: Mapping[str, CurveComponent] = field(
        init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "point_component", MappingProxyType(dict(self.point_component)))
        object.__setattr__(self, "_curve_by_id", MappingProxyType(
            {c.id: c for c in self.data.curve_components}))

    @property
    def dbar_connected(self) -> bool:
        return len(self.dbar_components) == 1

    @property
    def normals(self) -> tuple[NormalComponent, ...]:
        return tuple(sorted(self.data.normal_components, key=lambda n: n.id))

    @property
    def curves(self) -> tuple[CurveComponent, ...]:
        return tuple(sorted(self.data.curve_components, key=lambda c: c.id))

    def curve(self, cid: str) -> CurveComponent:
        return self._curve_by_id[cid]

    def points(self) -> tuple[str, ...]:
        return tuple(sorted(self.point_component))

    def tau(self, p: str) -> str:
        return self.data.tau_points[p]

    def component_of(self, p: str) -> str:
        return self.point_component[p]

    def nodes(self) -> tuple[Node, ...]:
        seen = set()
        out = []
        for p in self.points():
            n = node_of(p, self.data.sigma)
            if n not in seen:
                seen.add(n)
                out.append(n)
        return tuple(sorted(out))

    def tau_pairs(self) -> tuple[tuple[str, str], ...]:
        """tau-orbits of curve components, as sorted (smaller, larger) id pairs."""
        seen = set()
        out = []
        for c in self.curves:
            if c.id in seen:
                continue
            partner = self.data.tau_components[c.id]
            seen.update({c.id, partner})
            out.append((c.id, partner) if c.id < partner else (partner, c.id))
        return tuple(sorted(out))


def per_gluing(fn):
    """Cache ``fn``'s result on the ValidatedGluing among its arguments.

    The key is the function name and the other arguments; the cache lives
    and dies with the gluing.  Exceptions are not cached.
    """
    @functools.wraps(fn)
    def cached(*args):
        g = next(a for a in args if isinstance(a, ValidatedGluing))
        key = (fn.__name__, *(a for a in args if a is not g))
        if key not in g._memo:
            g._memo[key] = fn(*args)
        return g._memo[key]

    return cached


def _check_involution(name: str, mapping: Mapping[str, str], domain: set[str], issues: list[str]):
    for x, y in sorted(mapping.items()):
        if y not in domain:
            issues.append(f"DanglingPoint: {name} sends {x} to unknown point {y}")
        elif mapping.get(y) != x:
            issues.append(f"NonInvolutive: {name}({name}({x})) != {x}")
        if x == y:
            issues.append(f"FixedMarkedPoint: {name} fixes {x}")
    for x in sorted(domain - set(mapping)):
        issues.append(f"UnpairedPoint: {x} has no {name}-partner")


def validate_gluing(data: GluingData) -> ValidatedGluing:
    """Check every structural invariant; raise GluingValidationError listing all failures.

    On success the returned value is annotated with the connected
    components of the glued conductor curve and the component count of
    the glued surface.
    """
    issues: list[str] = []

    normal_ids = [n.id for n in data.normal_components]
    if len(set(normal_ids)) != len(normal_ids):
        issues.append("DuplicateId: repeated normal component id")
    curve_ids = [c.id for c in data.curve_components]
    if len(set(curve_ids)) != len(curve_ids):
        issues.append("DuplicateId: repeated curve component id")
    normals = {n.id: n for n in data.normal_components}
    curves = {c.id: c for c in data.curve_components}

    point_component: dict[str, str] = {}
    for c in sorted(data.curve_components, key=lambda c: c.id):
        if not c.marked_points:
            issues.append(f"EmptyComponent: {c.id} has no marked points")
        if len(set(c.marked_points)) != len(c.marked_points):
            issues.append(f"DuplicatePoint: {c.id} repeats a marked point")
        if c.genus < 0:
            issues.append(f"BadGenus: {c.id} has negative genus")
        if c.ambient not in normals:
            issues.append(f"DanglingPoint: {c.id} lies on unknown component {c.ambient}")
        elif len(c.h2_class) != normals[c.ambient].h2_rank:
            issues.append(
                f"ComponentMismatch: {c.id} h2_class length {len(c.h2_class)} "
                f"!= ambient rank {normals[c.ambient].h2_rank}"
            )
        for p in c.marked_points:
            if p in point_component:
                issues.append(f"DuplicatePoint: {p} belongs to {point_component[p]} and {c.id}")
            point_component[p] = c.id

    all_points = set(point_component)
    for p in sorted(set(data.sigma) - all_points):
        issues.append(f"DanglingPoint: sigma defined on unknown point {p}")
    for p in sorted(set(data.tau_points) - all_points):
        issues.append(f"DanglingPoint: tau defined on unknown point {p}")
    _check_involution("sigma", {k: v for k, v in data.sigma.items() if k in all_points},
                      all_points, issues)
    _check_involution("tau", {k: v for k, v in data.tau_points.items() if k in all_points},
                      all_points, issues)

    for cid, partner in sorted(data.tau_components.items()):
        if cid not in curves or partner not in curves:
            issues.append(f"DanglingPoint: involution names unknown component {cid} or {partner}")
            continue
        if data.tau_components.get(partner) != cid:
            issues.append(f"NonInvolutive: component map at {cid}")
        if partner == cid:
            issues.append(f"FixedComponent: involution fixes component {cid}")
            continue
        if curves[cid].genus != curves[partner].genus:
            issues.append(f"ComponentMismatch: {cid} and {partner} have different genus")
        if len(curves[cid].marked_points) != len(curves[partner].marked_points):
            issues.append(f"ComponentMismatch: {cid} and {partner} have different point counts")
    for cid in sorted(set(curves) - set(data.tau_components)):
        issues.append(f"ComponentMismatch: component {cid} missing from the involution")

    if not issues:
        for p in sorted(all_points):
            img = data.tau_points[p]
            expected = data.tau_components[point_component[p]]
            if point_component[img] != expected:
                issues.append(
                    f"ComponentMismatch: tau({p}) = {img} lies on "
                    f"{point_component[img]}, expected {expected}"
                )
        for p in sorted(all_points):
            q = data.sigma[p]
            if curves[point_component[p]].ambient != curves[point_component[q]].ambient:
                issues.append(
                    f"ComponentMismatch: node {{{p},{q}}} joins curves on "
                    "different normal components"
                )

    if issues:
        raise GluingValidationError(sorted(set(issues)))

    # connectivity of the glued conductor curve: components joined along nodes
    uf = _UnionFind(curves)
    for p in all_points:
        uf.union(point_component[p], point_component[data.sigma[p]])
    dbar_components = tuple(uf.groups())

    # components of the glued surface: normal components identified at every
    # point orbit (sigma joins within one component, tau joins across)
    xuf = _UnionFind(normals)
    for c in curves.values():
        xuf.union(c.ambient, curves[data.tau_components[c.id]].ambient)
    for p in all_points:
        xuf.union(curves[point_component[p]].ambient,
                  curves[point_component[data.sigma[p]]].ambient)
    x_count = len(xuf.groups())

    return ValidatedGluing(
        data=data,
        dbar_components=dbar_components,
        x_component_count=x_count,
        point_component=point_component,
    )


@per_gluing
def cusps(g: ValidatedGluing) -> tuple[DegenerateCusp, ...]:
    """Partition the marked points into orbits of <sigma, tau>.

    Within each orbit the r-cycle is the orbit of rho = tau∘sigma through
    the smallest point id; the result is sorted by smallest contained node.
    """
    sigma, tau = g.data.sigma, g.data.tau_points
    seen: set[str] = set()
    out: list[DegenerateCusp] = []
    for start in g.points():
        if start in seen:
            continue
        r = [start]
        cur = start
        while True:
            cur = tau[sigma[cur]]
            if cur == start:
                break
            r.append(cur)
        s = [sigma[x] for x in r]
        orbit = set(r) | set(s)
        if len(orbit) != 2 * len(r):
            raise RuntimeError(f"orbit of {start} is not an alternating cycle")
        seen |= orbit
        out.append(DegenerateCusp(r_cycle=tuple(r), s_cycle=tuple(s)))
    return tuple(sorted(out, key=lambda c: min(c.nodes)))


@dataclass(frozen=True)
class DCurveModel:
    """Shape of the quotient curve: its normalized components and gluing points.

    ``components`` are the tau-pairs of curve components; ``cusp_preimages``
    counts, per cusp (in ``cusps`` order), its points on the quotient
    normalization; ``pair_component`` assigns each tau-pair the index of
    its connected component in the glued curve.
    """

    components: tuple[tuple[str, str], ...]
    component_genus: tuple[int, ...]
    cusp_preimages: tuple[int, ...]
    pair_component: tuple[int, ...]
    component_count: int

    @property
    def connected(self) -> bool:
        return self.component_count == 1


@per_gluing
def quotient_curve(g: ValidatedGluing) -> DCurveModel:
    pairs = g.tau_pairs()
    pair_key = {pair: f"{pair[0]}+{pair[1]}" for pair in pairs}
    key_of_curve = {}
    for pair in pairs:
        key_of_curve[pair[0]] = pair_key[pair]
        key_of_curve[pair[1]] = pair_key[pair]
    tau = g.data.tau_points

    all_cusps = cusps(g)
    preimages = []
    for c in all_cusps:
        orbits = {frozenset((p, tau[p])) for p in c.points}
        preimages.append(len(orbits))

    uf = _UnionFind(list(pair_key.values()) + [f"cusp:{c.label}" for c in all_cusps])
    for c in all_cusps:
        for p in c.points:
            uf.union(key_of_curve[g.component_of(p)], f"cusp:{c.label}")
    component_count = len(uf.groups())
    roots_in_order: list = []
    pair_component = []
    for pair in pairs:
        root = uf.find(pair_key[pair])
        if root not in roots_in_order:
            roots_in_order.append(root)
        pair_component.append(roots_in_order.index(root))

    return DCurveModel(
        components=pairs,
        component_genus=tuple(g.curve(p[0]).genus for p in pairs),
        cusp_preimages=tuple(preimages),
        pair_component=tuple(pair_component),
        component_count=component_count,
    )


class EulerCharacteristics(NamedTuple):
    chi_dbar: int
    chi_d: int
    chi_x: int


@per_gluing
def euler_characteristics(g: ValidatedGluing) -> EulerCharacteristics:
    """Coherent Euler characteristics of the conductor curves and the surface.

    chi(O) of a nodal curve is sum(1 - genus) over components minus the
    number of nodes; on the quotient curve each gluing point with mu
    branches counts mu - 1.  The surface value is the inclusion-exclusion
    of the normalization against the two curves.
    """
    chi_dbar = sum(1 - c.genus for c in g.curves) - len(g.nodes())
    model = quotient_curve(g)
    chi_d = sum(1 - gen for gen in model.component_genus) - sum(
        mu - 1 for mu in (c.mu for c in cusps(g))
    )
    chi_x = sum(n.chi_O for n in g.normals) - chi_dbar + chi_d
    return EulerCharacteristics(chi_dbar, chi_d, chi_x)


# -- JSON wire format ---------------------------------------------------------

def _group_from_json(obj, where: str) -> AbelianGroup:
    if not isinstance(obj, dict) or "rank" not in obj:
        raise GluingFormatError(f"{where}: expected {{'rank', 'torsion'}} object")
    try:
        return AbelianGroup.from_dict(obj)
    except (ValueError, TypeError) as exc:
        raise GluingFormatError(f"{where}: {exc}") from exc


def _symmetrize(pairs: Iterable[tuple[str, str]], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            if x in out and out[x] != y:
                raise GluingFormatError(
                    f"{what}: {x} is paired with both {out[x]} and {y}"
                )
            out[x] = y
    return out


def _pair_list(value, message: str) -> list:
    if not isinstance(value, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in value):
        raise GluingFormatError(message)
    return value


def gluing_from_dict(doc: dict) -> GluingData:
    """Parse the JSON wire format; shape errors only, semantics are validated later."""
    if not isinstance(doc, dict):
        raise GluingFormatError("top level must be an object")
    for key in ("normalization", "curve_components", "node_pairing", "involution"):
        if key not in doc:
            raise GluingFormatError(f"missing key {key!r}")
    for key in ("normalization", "curve_components"):
        if not isinstance(doc[key], list):
            raise GluingFormatError(f"{key} must be a list of objects")

    normals = []
    for i, n in enumerate(doc["normalization"]):
        where = f"normalization[{i}]"
        try:
            normals.append(NormalComponent(
                id=str(n["id"]),
                chi_O=int(n["chi_O"]),
                q=int(n.get("q", 0)),
                simply_connected=bool(n.get("simply_connected", True)),
                h1=_group_from_json(n.get("h1", {"rank": 0}), where + ".h1"),
                h2_rank=int(n.get("h2_rank", 1)),
                h3=_group_from_json(n.get("h3", {"rank": 0}), where + ".h3"),
                h4_rank=int(n.get("h4_rank", 1)),
                k_plus_d_sq=None if n.get("k_plus_d_sq") is None else int(n["k_plus_d_sq"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise GluingFormatError(f"{where}: {exc!r}") from exc

    curves = []
    for i, c in enumerate(doc["curve_components"]):
        where = f"curve_components[{i}]"
        try:
            curves.append(CurveComponent(
                id=str(c["id"]),
                ambient=str(c["on"]),
                genus=int(c.get("genus", 0)),
                marked_points=tuple(str(p) for p in c["marked_points"]),
                h2_class=tuple(int(x) for x in c.get("h2_class", ())),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise GluingFormatError(f"{where}: {exc!r}") from exc

    pairing = _pair_list(doc["node_pairing"], "node_pairing must be a list of point pairs")
    sigma = _symmetrize(((str(a), str(b)) for a, b in pairing), "node_pairing")

    inv = doc["involution"]
    if not isinstance(inv, dict) or "components" not in inv or "points" not in inv:
        raise GluingFormatError("involution must contain 'components' and 'points'")
    comp_pairs = _pair_list(inv["components"], "involution.components must be a list of id pairs")
    tau_components = _symmetrize(
        ((str(a), str(b)) for a, b in comp_pairs), "involution.components"
    )
    if not isinstance(inv["points"], dict):
        raise GluingFormatError("involution.points must be an object")
    tau_points = _symmetrize(
        ((str(a), str(b)) for a, b in inv["points"].items()), "involution.points"
    )

    return GluingData(
        normal_components=tuple(normals),
        curve_components=tuple(curves),
        sigma=sigma,
        tau_components=tau_components,
        tau_points=tau_points,
    )


def gluing_to_dict(data: GluingData) -> dict:
    """Inverse of ``gluing_from_dict``; each pair listed once, keyed by its smaller member."""
    def once(mapping: Mapping[str, str]) -> list[list[str]]:
        return sorted([a, b] for a, b in mapping.items() if a < b)

    return {
        "normalization": [
            {
                "id": n.id,
                "chi_O": n.chi_O,
                "q": n.q,
                "simply_connected": n.simply_connected,
                "h1": n.h1.as_dict(),
                "h2_rank": n.h2_rank,
                "h3": n.h3.as_dict(),
                "h4_rank": n.h4_rank,
                "k_plus_d_sq": n.k_plus_d_sq,
            }
            for n in sorted(data.normal_components, key=lambda n: n.id)
        ],
        "curve_components": [
            {
                "id": c.id,
                "on": c.ambient,
                "genus": c.genus,
                "marked_points": list(c.marked_points),
                "h2_class": list(c.h2_class),
            }
            for c in sorted(data.curve_components, key=lambda c: c.id)
        ],
        "node_pairing": once(data.sigma),
        "involution": {
            "components": once(data.tau_components),
            "points": {a: b for a, b in sorted(data.tau_points.items()) if a < b},
        },
    }
