"""Differential test: the issues ``validate_gluing`` reports.

The fixture holds, per named input, the sorted issue list that
``validate_gluing`` raises, or "valid".  The inputs are

- ``random_n_lines(n, s)`` for n = 4, 6, 8, 10 and s = 0, 1, each as
  given and under every seeded mutation of ``MUTATIONS``, and the 36
  four-line gluings, each as given and under three of them.  The
  mutations are a dropped or one-way pair, a fixed point, a dangling
  point as image or as key, a duplicate point, tau sending a point onto
  the wrong curve, and sigma joining two normal components;
- hand-built ``GluingData`` whose maps have keys that are not marked
  points or curve ids, or lack some, and X0.1 with one component field or
  the component pairing broken.

Any change to a check, to an issue message or to which issues an input
raises fails here.  The fixture was recorded before the validation loops
were rewritten to look up fewer dict entries, with

    PYTHONPATH=src python tests/test_validation_differential.py --record

and it is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "data" / "validation_issues.json"
for path in (TESTS, TESTS.parent / "bench"):
    if str(path) not in sys.path:
        sys.path.append(str(path))

import nlines  # noqa: E402
from conftest import replace, table_gluing  # noqa: E402

from gluesurf.errors import GluingValidationError  # noqa: E402
from gluesurf.fourlines import all_gluings, build_four_lines  # noqa: E402
from gluesurf.gluing import GluingData, gluing_from_dict, validate_gluing  # noqa: E402
from gluesurf.intlinalg import AbelianGroup  # noqa: E402


def _point_curve(data: GluingData) -> dict[str, str]:
    return {p: c.id for c in data.curve_components for p in c.marked_points}


def _at_pair(name: str, change):
    """The mutation of the map ``name`` at a random pair (p, q) of it:
    ``change(m, p, q)`` edits a dict copy of the map in place."""
    def mutate(data: GluingData, rng: random.Random) -> GluingData:
        m = dict(getattr(data, name))
        p = rng.choice(sorted(m))
        change(m, p, m[p])
        return replace(data, **{name: m})
    return mutate


def drop_pair(m, p, q):
    del m[p], m[q]


def one_way_pair(m, p, q):
    del m[q]


def fixed_point(m, p, q):
    m[p], m[q] = p, q


def dangling_image(m, p, q):
    m[p] = "ghost"


def dangling_key(m, p, q):
    m["ghost"] = p


def duplicate_elsewhere(data: GluingData, rng: random.Random) -> GluingData:
    """A point of one curve listed on another curve too."""
    src, dst = rng.sample(sorted(data.curve_components, key=lambda c: c.id), 2)
    p = rng.choice(src.marked_points)
    return replace(data, curve_components=tuple(
        replace(c, marked_points=c.marked_points + (p,)) if c is dst else c
        for c in data.curve_components))


def duplicate_within(data: GluingData, rng: random.Random) -> GluingData:
    """A point listed twice on its own curve."""
    dst = rng.choice(sorted(data.curve_components, key=lambda c: c.id))
    p = rng.choice(dst.marked_points)
    return replace(data, curve_components=tuple(
        replace(c, marked_points=c.marked_points + (p,)) if c is dst else c
        for c in data.curve_components))


def tau_wrong_curve(data: GluingData, rng: random.Random) -> GluingData:
    """Two tau pairs swap partners, so tau stays an involution but sends p1
    onto a curve that is not its curve's partner."""
    curve, tau = _point_curve(data), dict(data.tau_points)
    p1 = rng.choice(sorted(tau))
    t1 = tau[p1]
    p2 = rng.choice([p for p in sorted(tau) if curve[tau[p]] not in (curve[p1], curve[t1])])
    t2 = tau[p2]
    tau[p1], tau[t2], tau[p2], tau[t1] = t2, p1, t1, p2
    return replace(data, tau_points=tau)


def split_normal(data: GluingData, rng: random.Random) -> GluingData:
    """One curve moved onto a twin of its normal component, so the nodes on
    it join curves on two normal components."""
    moved = rng.choice(sorted(data.curve_components, key=lambda c: c.id))
    ambient = next(n for n in data.normal_components if n.id == moved.ambient)
    twin = replace(ambient, id=ambient.id + "'")
    return replace(
        data, normal_components=data.normal_components + (twin,),
        curve_components=tuple(replace(c, ambient=twin.id) if c is moved else c
                               for c in data.curve_components))


MUTATIONS = {
    **{f"{change.__name__} in {name}": _at_pair(name, change)
       for name in ("sigma", "tau_points")
       for change in (drop_pair, one_way_pair, fixed_point, dangling_image, dangling_key)},
    "duplicate_elsewhere": duplicate_elsewhere,
    "duplicate_within": duplicate_within,
    "tau_wrong_curve": tau_wrong_curve,
    "split_normal": split_normal,
}


def mutated_gluings():
    """Each base gluing, then its mutations: every one of ``MUTATIONS`` for
    an n-line gluing, three drawn by seed for a four-line gluing."""
    bases = [(f"random_n_lines({n}, {s})", gluing_from_dict(nlines.random_n_lines(n, s)),
              list(MUTATIONS)) for n in (4, 6, 8, 10) for s in (0, 1)]
    bases += [(name := f"four lines {b.phi12} {b.phi34}", build_four_lines(b),
               random.Random(name).sample(sorted(MUTATIONS), 3)) for b in all_gluings()]
    for name, data, kinds in bases:
        yield name, data
        for kind in kinds:
            yield f"{name}, {kind}", MUTATIONS[kind](data, random.Random(f"{name}:{kind}"))


def _remap(mapping, old: dict) -> dict:
    """``mapping`` with the keys and values named in ``old`` renamed."""
    return {old.get(a, a): old.get(b, b) for a, b in mapping.items()}


def hand_built_gluings():
    base = gluing_from_dict(nlines.random_n_lines(4, 0))
    sigma, tau, lines = dict(base.sigma), dict(base.tau_points), dict(base.tau_components)
    p, q = "P1_2", sigma["P1_2"]
    ghosts = {p: "ghost1", q: "ghost2"}
    yield "sigma keyed by a ghost pair in place of a node", replace(
        base, sigma=_remap(sigma, ghosts))
    yield "sigma with a ghost pair added", replace(
        base, sigma={**sigma, "ghost1": "ghost2", "ghost2": "ghost1"})
    yield "sigma with a ghost keyed to a point", replace(base, sigma={**sigma, "ghost1": p})
    yield "sigma fixing a ghost", replace(base, sigma={**sigma, "ghost1": "ghost1"})
    p, q = "P1_2", tau["P1_2"]
    ghosts = {p: "ghost1", q: "ghost2"}
    yield "tau keyed by a ghost pair in place of a pair", replace(
        base, tau_points=_remap(tau, ghosts))
    yield "tau with a ghost pair added", replace(
        base, tau_points={**tau, "ghost1": "ghost2", "ghost2": "ghost1"})
    yield "sigma and tau keyed by ghosts", replace(
        base, sigma=_remap(sigma, {p: "ghost1", sigma[p]: "ghost2"}),
        tau_points=_remap(tau, {p: "ghost3", q: "ghost4"}))
    yield "sigma empty", replace(base, sigma={})
    yield "tau empty", replace(base, tau_points={})
    yield "no curves", replace(base, curve_components=())
    yield "no normal components", replace(base, normal_components=())
    yield "component map keyed by a ghost pair in place of L1, L2", replace(
        base, tau_components=_remap(lines, {"L1": "G1", "L2": "G2"}))
    yield "component map with a ghost pair added", replace(
        base, tau_components={**lines, "G1": "G2", "G2": "G1"})
    yield "component map sending L1 to a ghost", replace(
        base, tau_components={**lines, "L1": "G1"})
    yield "component map one-way at L1", replace(
        base, tau_components={k: v for k, v in lines.items() if k != "L2"})
    yield "component map without L1, L2", replace(
        base, tau_components={k: v for k, v in lines.items() if k not in ("L1", "L2")})
    yield "component map fixing L1 and L2", replace(
        base, tau_components={**lines, "L1": "L1", "L2": "L2"})
    yield "component map L1-L3, L2-L4", replace(
        base, tau_components={"L1": "L3", "L3": "L1", "L2": "L4", "L4": "L2"})
    yield "component map empty", replace(base, tau_components={})

    x01 = table_gluing("X0.1").data
    plane = x01.normal_components[0]
    curves = {c.id: c for c in x01.curve_components}

    def with_curve(cid: str, **changes) -> GluingData:
        return replace(x01, curve_components=tuple(
            replace(c, **changes) if c.id == cid else c for c in x01.curve_components))

    def with_plane(**changes) -> GluingData:
        return replace(x01, normal_components=(replace(plane, **changes),))

    yield "X0.1, plane listed twice", replace(x01, normal_components=(plane, plane))
    yield "X0.1, simply connected plane with h1 = Z", with_plane(h1=AbelianGroup(1))
    yield "X0.1, plane with q = -1", with_plane(q=-1)
    yield "X0.1, plane with h2_rank = -1", with_plane(h2_rank=-1)
    yield "X0.1, plane with h4_rank = -1", with_plane(h4_rank=-1)
    yield "X0.1, plane with h2_rank = 2", with_plane(h2_rank=2)
    yield "X0.1, L1 listed twice", replace(
        x01, curve_components=x01.curve_components + (curves["L1"],))
    yield "X0.1, L1 without points", with_curve("L1", marked_points=())
    yield "X0.1, L1 of genus -1", with_curve("L1", genus=-1)
    yield "X0.1, L1 of genus 1", with_curve("L1", genus=1)
    yield "X0.1, L1 on an unknown component", with_curve("L1", ambient="nowhere")
    yield "X0.1, L1 with h2_class (1, 1)", with_curve("L1", h2_class=(1, 1))
    yield "X0.1, L1 without its last point", with_curve(
        "L1", marked_points=curves["L1"].marked_points[:-1])
    yield "X0.1, L1 with its points on L3 too", replace(x01, curve_components=tuple(
        replace(c, marked_points=c.marked_points + curves["L1"].marked_points)
        if c.id == "L3" else c for c in x01.curve_components))


def answer(data: GluingData) -> list[str] | str:
    try:
        validate_gluing(data)
    except GluingValidationError as exc:
        return list(exc.issues)
    return "valid"


def recorded_text() -> str:
    records = [{"gluing": name, "issues": answer(data)}
               for source in (mutated_gluings(), hand_built_gluings()) for name, data in source]
    return json.dumps(records, indent=1) + "\n"


def test_validation_matches_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_validation_differential.py --record")
    FIXTURE.write_text(recorded_text())
