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
import re
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple

from .base import Record, _int, _tuples, _typed, closure
from .errors import GluingFormatError, GluingValidationError
from .intlinalg import AbelianGroup

TRIVIAL = AbelianGroup(0)


def _tuple_of(items, kind: type, name: str) -> tuple:
    """``items``, a list or tuple whose entries are each a ``kind``, as a tuple."""
    items = tuple(_typed(items, (list, tuple), name))
    if {*map(type, items)} - {kind}:  # one pass in C; the loop names a bad entry
        for x in items:
            _typed(x, kind, f"{name} entry")
    return items


class NormalComponent(Record):
    """One connected component of the normalization, by its invariants.

    The constructor checks each field's type, and a wrong one raises
    TypeError: chi_O and the ranks are ints, a bool excluded, and ``h1``
    and ``h3`` are abelian groups.
    """

    __slots__ = ("id", "chi_O", "q", "simply_connected", "h1", "h2_rank", "h3", "h4_rank",
                 "k_plus_d_sq")

    def __init__(self, id: str, chi_O: int, q: int = 0, simply_connected: bool = True,
                 h1: AbelianGroup = TRIVIAL, h2_rank: int = 1, h3: AbelianGroup = TRIVIAL,
                 h4_rank: int = 1, k_plus_d_sq: int | None = None):
        self._set(_typed(id, str, "id"), _int(chi_O, "chi_O"), _int(q, "q"),
                  _typed(simply_connected, bool, "simply_connected"),
                  _typed(h1, AbelianGroup, "h1"), _int(h2_rank, "h2_rank"),
                  _typed(h3, AbelianGroup, "h3"), _int(h4_rank, "h4_rank"),
                  None if k_plus_d_sq is None else _int(k_plus_d_sq, "k_plus_d_sq"))


class CurveComponent(Record):
    """A marked curve on a normal component.

    ``marked_points`` are the node preimages, in the order used by the
    homotopy models downstream.  ``h2_class`` is the curve's class in the
    ambient component's H2 basis.  Both are given as lists or tuples and
    kept as tuples.  ``marked_points`` has no default: it follows
    ``genus``, which has one, so its place holds None, and None is rejected.
    """

    __slots__ = ("id", "ambient", "genus", "marked_points", "h2_class")

    def __init__(self, id: str, ambient: str, genus: int = 0,
                 marked_points: tuple[str, ...] = None, h2_class: tuple[int, ...] = ()):
        self._set(_typed(id, str, "id"), _typed(ambient, str, "ambient"), _int(genus, "genus"),
                  _tuple_of(marked_points, str, "marked_points"),
                  tuple(_int(x, "h2_class entry")
                        for x in _typed(h2_class, (list, tuple), "h2_class")))


class GluingData(Record):
    """Raw gluing triple: normalization, marked curves, sigma and tau.

    The components are kept as tuples, and the three maps as read-only
    copies of the mappings passed in, pair for pair: ``gluing_from_dict``
    enters each pair in both directions, and ``validate_gluing`` reports a
    pair given one way only, as it does any map that is not a
    fixed-point-free involution compatible with the component data.  The
    value hashes by the maps' items, and copy and pickle build it again
    from plain dicts.
    """

    __slots__ = ("normal_components", "curve_components", "sigma", "tau_components",
                 "tau_points")

    def __init__(self, normal_components: tuple[NormalComponent, ...],
                 curve_components: tuple[CurveComponent, ...], sigma: Mapping[str, str],
                 tau_components: Mapping[str, str], tau_points: Mapping[str, str]):
        self._set(_tuple_of(normal_components, NormalComponent, "normal_components"),
                  _tuple_of(curve_components, CurveComponent, "curve_components"),
                  *(MappingProxyType(dict(m)) for m in (sigma, tau_components, tau_points)))

    def __hash__(self) -> int:
        # a read-only view does not hash, but the items it shows do
        normals, curves, *maps = self._values
        return hash((normals, curves, *(frozenset(m.items()) for m in maps)))

    def __reduce__(self):
        normals, curves, *maps = self._values
        return GluingData, (normals, curves, *map(dict, maps))


Node = tuple[str, str]


def node_id(node: Node) -> str:
    return f"{node[0]}|{node[1]}"


class DegenerateCusp(Record):
    """One orbit of marked points under the group generated by sigma and tau.

    The r-cycle is the orbit of tau∘sigma through the lexicographically
    smallest point; s_i = sigma(r_i), and tau(s_i) = r_{i+1 mod mu}; both cycles are tuples.
    """

    __slots__ = ("r_cycle", "s_cycle", "__dict__")

    def __init__(self, r_cycle: tuple[str, ...], s_cycle: tuple[str, ...]):
        self._set(tuple(r_cycle), tuple(s_cycle))

    @property
    def mu(self) -> int:
        return len(self.r_cycle)

    @functools.cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(
            (r, s) if r < s else (s, r) for r, s in zip(self.r_cycle, self.s_cycle)
        )

    @functools.cached_property
    def points(self) -> frozenset[str]:
        return frozenset(self.r_cycle) | frozenset(self.s_cycle)

    @functools.cached_property
    def label(self) -> str:
        return node_id(min(self.nodes))


def _components(items: Iterable, neighbours: Callable) -> tuple[tuple, ...]:
    """Connected components of the graph on ``items``, each sorted, in the
    order of their first member in ``items``."""
    seen: set = set()
    out = []
    for x in items:
        if x not in seen:
            component = closure((x,), neighbours)
            seen |= component
            out.append(tuple(sorted(component)))
    return tuple(out)


def per_gluing(fn):
    """Cache ``fn``'s result on the ValidatedGluing that is its one argument.

    The key is the function name; the cache lives and dies with the
    gluing.  Exceptions are not cached.
    """
    key = fn.__name__

    @functools.wraps(fn)
    def cached(*args):
        if len(args) != 1 or not isinstance(args[0], ValidatedGluing):
            raise TypeError(f"{key} takes a ValidatedGluing as its one argument")
        memo = args[0]._memo
        if key not in memo:
            memo[key] = fn(args[0])
        return memo[key]

    return cached


class ValidatedGluing(Record):
    """Gluing data with all invariants checked, plus connectivity annotations
    (``dbar_components`` and each component kept as tuples).

    Structures derived from the gluing are computed once per instance: the
    sorted components, the tau-pairs and ``pair_index`` are cached
    attributes, and ``nodes`` and the ``per_gluing`` functions cache theirs
    in ``_memo``.
    """

    __slots__ = ("data", "dbar_components", "x_component_count", "point_component", "_memo",
                 "__dict__")

    def __init__(self, data: GluingData, dbar_components: tuple[tuple[str, ...], ...],
                 x_component_count: int, point_component: Mapping[str, str]):
        self._set(data, _tuples(dbar_components), x_component_count,
                  MappingProxyType(dict(point_component)), {})

    def __hash__(self) -> int:
        return hash(self.data)  # the data determine every other field

    def __reduce__(self):
        return validate_gluing, (self.data,)

    @property
    def dbar_connected(self) -> bool:
        return len(self.dbar_components) == 1

    @functools.cached_property
    def normals(self) -> tuple[NormalComponent, ...]:
        return tuple(sorted(self.data.normal_components, key=lambda n: n.id))

    @functools.cached_property
    def curves(self) -> tuple[CurveComponent, ...]:
        return tuple(sorted(self.data.curve_components, key=lambda c: c.id))

    @functools.cached_property
    def _curve_by_id(self) -> Mapping[str, CurveComponent]:
        return MappingProxyType({c.id: c for c in self.data.curve_components})

    def curve(self, cid: str) -> CurveComponent:
        return self._curve_by_id[cid]

    def points(self) -> tuple[str, ...]:
        return tuple(sorted(self.point_component))

    @per_gluing
    def nodes(self) -> tuple[Node, ...]:
        """The nodes (a, b), a < b, sorted: sigma pairs the points without a fixed point."""
        return tuple(sorted([(a, b) for a, b in self.data.sigma.items() if a < b]))

    @functools.cached_property
    def tau_pairs(self) -> tuple[tuple[str, str], ...]:
        """tau-orbits of curve components, as sorted (smaller, larger) id pairs."""
        tau = self.data.tau_components
        return tuple(sorted({(c.id, tau[c.id]) for c in self.curves if c.id < tau[c.id]}))

    @functools.cached_property
    def pair_index(self) -> Mapping[str, int]:
        """Position in ``tau_pairs`` of the pair holding each curve id."""
        return MappingProxyType(
            {cid: k for k, pair in enumerate(self.tau_pairs) for cid in pair})


def _check_involution(name: str, mapping: Mapping[str, str], domain: AbstractSet[str],
                      issues: list[str]):
    """Report each way ``mapping`` fails to be a fixed-point-free involution of ``domain``.

    get(y) == x makes y a key, so while the keys are ``domain`` a pair x != y
    needs that one lookup; only keys that differ build the set differences."""
    get = mapping.get
    for x, y in mapping.items():
        if (get(y) != x or x == y) and x in domain:
            if y not in domain:
                issues.append(f"DanglingPoint: {name} sends {x} to unknown point {y}")
            elif get(y) != x:
                issues.append(f"NonInvolutive: {name}({name}({x})) != {x}")
            if x == y:
                issues.append(f"FixedMarkedPoint: {name} fixes {x}")
    if mapping.keys() != domain:
        for y in mapping.keys() - domain:
            issues.append(f"DanglingPoint: {name} defined on unknown point {y}")
            if get(x := mapping[y]) == y and x in domain:  # the loop passed x by
                issues.append(f"DanglingPoint: {name} sends {x} to unknown point {y}")
        for x in domain - mapping.keys():
            issues.append(f"UnpairedPoint: {x} has no {name}-partner")


def validate_gluing(data: GluingData) -> ValidatedGluing:
    """Check every structural invariant; raise GluingValidationError listing all failures.

    Once the maps are involutions, the points are walked curve by curve, each
    curve's tau partner and ambient component read once.  On success the value
    is annotated with the connected components of the glued conductor curve,
    joined where a curve meets another at a node, and the component count of
    the glued surface.
    """
    issues: list[str] = []

    normals = {n.id: n for n in data.normal_components}
    if len(normals) != len(data.normal_components):
        issues.append("DuplicateId: repeated normal component id")
    for n in data.normal_components:
        # H1 is the abelianised pi1, so a trivial pi1 has trivial H1
        if n.simply_connected and not n.h1.is_trivial:
            issues.append(f"InconsistentHomology: {n.id} is simply connected but h1 = {n.h1}")
        # q is a dimension and h2_rank, h4_rank are ranks
        for key in ("q", "h2_rank", "h4_rank"):
            if getattr(n, key) < 0:
                issues.append(f"BadRank: {n.id} has {key} = {getattr(n, key)}")
    curves = {c.id: c for c in data.curve_components}
    if len(curves) != len(data.curve_components):
        issues.append("DuplicateId: repeated curve component id")
    by_id = sorted(data.curve_components, key=lambda c: c.id)

    point_component: dict[str, str] = {}
    for c in by_id:
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

    # the issues are sorted at the end, so they are found in any order
    _check_involution("sigma", data.sigma, point_component.keys(), issues)
    _check_involution("tau", data.tau_points, point_component.keys(), issues)

    for cid, partner in data.tau_components.items():
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
    for cid in curves.keys() - data.tau_components.keys():
        issues.append(f"ComponentMismatch: component {cid} missing from the involution")

    meets: dict[str, set[str]] = {}  # the curves each curve meets at a node
    # the normal components tau joins to each; sigma joins none, as checked below
    tau_joins: dict[str, set[str]] = {n: set() for n in normals}
    if not issues:
        sigma, tau = data.sigma, data.tau_points
        for c in by_id:
            expected = data.tau_components[c.id]
            for p in c.marked_points:
                if point_component[tau[p]] != expected:
                    issues.append(f"ComponentMismatch: tau({p}) = {tau[p]} lies on "
                                  f"{point_component[tau[p]]}, expected {expected}")
            meets[c.id] = met = {point_component[sigma[p]] for p in c.marked_points}
            for other in met:
                if curves[other].ambient != c.ambient:
                    issues += [f"ComponentMismatch: node {{{p},{sigma[p]}}} joins curves on "
                               "different normal components"
                               for p in c.marked_points if point_component[sigma[p]] == other]
            tau_joins[c.ambient].add(curves[expected].ambient)

    if issues:
        raise GluingValidationError(sorted(set(issues)))
    return ValidatedGluing(
        data=data,
        dbar_components=_components(sorted(curves), meets.__getitem__),
        x_component_count=len(_components(normals, tau_joins.__getitem__)),
        point_component=point_component,
    )


@per_gluing
def cusps(g: ValidatedGluing) -> tuple[DegenerateCusp, ...]:
    """Partition the marked points into orbits of <sigma, tau>.

    Within each orbit the r-cycle is the orbit of rho = tau∘sigma through
    the smallest point id, and the s-cycle is read on the same walk.  The
    points are walked in order, so each orbit is entered at its smallest
    point, whose node is its smallest: the result is sorted by that node.
    """
    sigma, tau = g.data.sigma, g.data.tau_points
    seen: set[str] = set()
    out: list[DegenerateCusp] = []
    for start in g.points():
        if start in seen:
            continue
        r, s = [], []
        cur = start
        while True:
            r.append(cur)
            s.append(cur := sigma[cur])
            if (cur := tau[cur]) == start:
                break
        size = len(seen)
        seen.update(r, s)
        if len(seen) - size != 2 * len(r):
            raise RuntimeError(f"orbit of {start} is not an alternating cycle")
        out.append(DegenerateCusp(r_cycle=r, s_cycle=s))
    return tuple(out)


class DCurveModel(Record):
    """Shape of the quotient curve: its normalized components and gluing points.

    Its normalized components are the gluing's ``tau_pairs``;
    ``pair_component`` assigns each tau-pair the index of its connected
    component in the glued curve, numbered in order of first appearance.
    """

    __slots__ = ("component_genus", "pair_component", "component_count")

    def __init__(self, component_genus: tuple[int, ...], pair_component: tuple[int, ...],
                 component_count: int):
        self._set(component_genus, pair_component, component_count)


@per_gluing
def quotient_curve(g: ValidatedGluing) -> DCurveModel:
    pairs = range(len(g.tau_pairs))
    # tau-pairs are joined when one cusp has points on both; joining each to
    # the first of them, a star rather than a clique, gives the same components
    joined: list[set[int]] = [set() for _ in pairs]
    pair, component_of = g.pair_index, g.point_component
    for c in cusps(g):
        first, *rest = {pair[component_of[p]] for p in c.points}
        for k in rest:
            joined[first].add(k)
            joined[k].add(first)
    components = _components(pairs, joined.__getitem__)
    component_of_pair = {k: n for n, comp in enumerate(components) for k in comp}

    return DCurveModel(
        component_genus=tuple(g.curve(a).genus for a, _b in g.tau_pairs),
        pair_component=tuple(component_of_pair[k] for k in pairs),
        component_count=len(components),
    )


class EulerCharacteristics(NamedTuple):
    chi_dbar: int
    chi_d: int
    chi_x: int


@per_gluing
def euler_characteristics(g: ValidatedGluing) -> EulerCharacteristics:
    """Coherent Euler characteristics of the conductor curves and the surface.

    chi(O) of a nodal curve is sum(1 - genus) over components minus the
    number of nodes.  The quotient curve's normalized components are the
    tau-pairs, each with the genus of either member, and each gluing point
    with mu branches counts mu - 1; its connected components are not
    needed.  The surface value is the inclusion-exclusion of the
    normalization against the two curves.
    """
    chi_dbar = sum(1 - c.genus for c in g.curves) - len(g.data.sigma) // 2
    chi_d = sum(1 - g.curve(a).genus for a, _b in g.tau_pairs) - sum(
        c.mu - 1 for c in cusps(g)
    )
    chi_x = sum(n.chi_O for n in g.normals) - chi_dbar + chi_d
    return EulerCharacteristics(chi_dbar, chi_d, chi_x)


# -- JSON wire format ---------------------------------------------------------

# every key the wire format knows, per object; a component's keys are its
# fields, with one rename
_GROUP_KEYS = ("rank", "torsion")
_TOP_KEYS = ("normalization", "curve_components", "node_pairing", "involution")
_INVOLUTION_KEYS = ("components", "points")
_WIRE_KEY = {"ambient": "on"}


def _known_keys(obj: dict, keys: Iterable[str], where: str) -> dict:
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise GluingFormatError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    return obj


def _group_from_json(obj, where: str) -> AbelianGroup:
    if not isinstance(obj, dict) or "rank" not in obj:
        raise GluingFormatError(f"{where}: expected {{'rank', 'torsion'}} object")
    _known_keys(obj, _GROUP_KEYS, where)
    try:
        return AbelianGroup.from_dict(obj)
    except (ValueError, TypeError) as exc:
        raise GluingFormatError(f"{where}: {exc}") from exc


def _symmetrize(pairs: Iterable[tuple[str, str]], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for a, b in pairs:
        if not isinstance(a, str) or not isinstance(b, str):
            raise GluingFormatError(f"{what}: {a!r} and {b!r} must both be strings")
        if out.setdefault(a, b) != b or out.setdefault(b, a) != a:
            x, y = (a, b) if out[a] != b else (b, a)
            raise GluingFormatError(f"{what}: {x} is paired with both {out[x]} and {y}")
    return out


def _pair_list(value, message: str) -> list:
    if not isinstance(value, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in value):
        raise GluingFormatError(message)
    return value


def _components_from_json(doc: dict, key: str, cls: type) -> list:
    """The ``cls`` values listed under ``key``.  Each object's keys name
    fields of ``cls``, and its constructor gives the defaults and checks
    the types; a group field arrives as a ``{rank, torsion}`` object."""
    if not isinstance(doc[key], list):
        raise GluingFormatError(f"{key} must be a list of objects")
    field_of = {_WIRE_KEY.get(f, f): f for f in cls._fields}
    out = []
    for i, obj in enumerate(doc[key]):
        where = f"{key}[{i}]"
        if not isinstance(obj, dict):
            raise GluingFormatError(f"{where} must be a dict")
        args = {field_of[k]: v for k, v in _known_keys(obj, field_of, where).items()}
        for name in ("h1", "h3"):
            if name in args:
                args[name] = _group_from_json(args[name], f"{where}.{name}")
        try:
            out.append(cls(**args))
        except (TypeError, ValueError) as exc:
            message = repr(exc)
            for name, key in _WIRE_KEY.items():  # name the key the file has, not the field
                message = re.sub(rf"\b{name}\b", key, message)
            raise GluingFormatError(f"{where}: {message}") from exc
    return out


def gluing_from_dict(doc: dict) -> GluingData:
    """Parse the JSON wire format; shape errors only, semantics are validated later.

    Ids and point names must be strings, and every key must be one the
    format knows.
    """
    if not isinstance(doc, dict):
        raise GluingFormatError("top level must be an object")
    _known_keys(doc, _TOP_KEYS, "top level")
    for key in _TOP_KEYS:
        if key not in doc:
            raise GluingFormatError(f"missing key {key!r}")

    normals = _components_from_json(doc, "normalization", NormalComponent)
    curves = _components_from_json(doc, "curve_components", CurveComponent)

    pairing = _pair_list(doc["node_pairing"], "node_pairing must be a list of point pairs")
    sigma = _symmetrize(pairing, "node_pairing")

    inv = doc["involution"]
    if not isinstance(inv, dict) or "components" not in inv or "points" not in inv:
        raise GluingFormatError("involution must contain 'components' and 'points'")
    _known_keys(inv, _INVOLUTION_KEYS, "involution")
    comp_pairs = _pair_list(inv["components"], "involution.components must be a list of id pairs")
    tau_components = _symmetrize(comp_pairs, "involution.components")
    if not isinstance(inv["points"], dict):
        raise GluingFormatError("involution.points must be an object")
    tau_points = _symmetrize(inv["points"].items(), "involution.points")

    return GluingData(
        normal_components=normals,
        curve_components=curves,
        sigma=sigma,
        tau_components=tau_components,
        tau_points=tau_points,
    )


def _component_to_json(value: NormalComponent | CurveComponent) -> dict:
    """The wire object of a component: its fields in order, groups and tuples as JSON."""
    out = {}
    for name in value._fields:
        x = getattr(value, name)
        out[_WIRE_KEY.get(name, name)] = (
            x.as_dict() if isinstance(x, AbelianGroup) else list(x) if isinstance(x, tuple) else x)
    return out


def gluing_to_dict(data: GluingData) -> dict:
    """Inverse of ``gluing_from_dict``; each pair listed once, keyed by its smaller member."""
    def once(mapping: Mapping[str, str]) -> list[list[str]]:
        return sorted([a, b] for a, b in mapping.items() if a < b)

    def by_id(components: tuple) -> list[dict]:
        return [_component_to_json(c) for c in sorted(components, key=lambda c: c.id)]

    return {
        "normalization": by_id(data.normal_components),
        "curve_components": by_id(data.curve_components),
        "node_pairing": once(data.sigma),
        "involution": {
            "components": once(data.tau_components),
            "points": {a: b for a, b in sorted(data.tau_points.items()) if a < b},
        },
    }
