"""Differential test: invariants of the group pi1, whatever its presentation.

The word fixtures pin pi1's presentation letter by letter; this one pins
the group.  For each gluing it holds:

- ab(pi1), printed;
- ``hom_count``'s (total, surjective) into each catalog group that the
  default budget answers on the Tietze-simplified presentation, the
  non-cyclic groups only where that presentation has at most four
  generators (its ranks 5-7, at n = 12-16, would add about 10 s on a
  2-vCPU x86-64 virtual machine);
- for d = 2 and 3, how often each H1(ker eps) occurs over all
  eps: pi1 ->> C_d, from ``conftest.kernel_homology``.

The gluings are the 36 of the plane along four lines, ``random_n_lines(n, s)``
for n = 4-16 even and s = 0-3, and the first eight one-cusp gluings
``random_n_lines(6, s)``.  A change of presentation passes as long as the
group stays the same; the test recounts the groups the fixture names, so a
presentation of lower rank passes too.  It was recorded with

    PYTHONPATH=src python tests/test_pi1_invariants.py --record

and is only re-recorded when a change of the group is intended and named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "data" / "pi1_invariants.json"
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402

from conftest import kernel_homology  # noqa: E402
from gluesurf.errors import BudgetExceededError  # noqa: E402
from gluesurf.fourlines import LinePairBijections, all_gluings, build_four_lines  # noqa: E402
from gluesurf.gluing import cusps, gluing_from_dict, validate_gluing  # noqa: E402
from gluesurf.grouptheory import (  # noqa: E402
    abelianization,
    catalog_group,
    default_catalog,
    hom_count,
    tietze_simplify,
)
from gluesurf.topology import pi1_presentation  # noqa: E402

ONE_CUSP_GLUINGS = 8


def _n_lines(n: int, seed: int):
    return validate_gluing(gluing_from_dict(nlines.random_n_lines(n, seed)))


def gluings() -> list[tuple[dict, object]]:
    """(the gluing's name in the fixture, the validated gluing) per input."""
    out = [({"four_lines": list(b.key())}, validate_gluing(build_four_lines(b)))
           for b in all_gluings()]
    named = [(n, seed) for n in range(4, 17, 2) for seed in range(4)]
    one_cusp, seed = [], 0
    while len(one_cusp) < ONE_CUSP_GLUINGS:
        if len(cusps(_n_lines(6, seed))) == 1:
            one_cusp.append((6, seed))
        seed += 1
    named += [case for case in one_cusp if case not in named]
    return out + [({"n": n, "seed": s}, _n_lines(n, s)) for n, s in named]


def invariants(g, counted: list[str] | None = None) -> dict:
    """The fixture's record of ``g``, counting into the groups named in
    ``counted``, or when recording into those the docstring names; a group
    the budget does not answer is left out."""
    raw = pi1_presentation(g)
    simplified = tietze_simplify(raw)
    if counted is None:
        counted = [group.name for group in default_catalog()
                   if group.is_cyclic or len(simplified.generators) <= 4]
    counts = {}
    for name in counted:
        try:
            counts[name] = list(hom_count(simplified, catalog_group(name)))
        except BudgetExceededError:
            pass
    return {
        "abelianization": str(abelianization(raw)),
        "counts": counts,
        "kernels": {str(d): dict(sorted(kernel_homology(simplified, d).items())) for d in (2, 3)},
    }


def recorded_text() -> str:
    records = [{"gluing": name, **invariants(g)} for name, g in gluings()]
    return json.dumps(records, indent=1) + "\n"


def _gluing(name: dict):
    if "four_lines" in name:
        key = name["four_lines"]
        return validate_gluing(build_four_lines(LinePairBijections(tuple(key[:3]),
                                                                   tuple(key[3:]))))
    return _n_lines(name["n"], name["seed"])


RECORDS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: "-".join(
    f"{k}{v}" for k, v in r["gluing"].items()).replace(" ", ""))
def test_pi1_keeps_its_recorded_invariants(record):
    g = _gluing(record["gluing"])
    assert {"gluing": record["gluing"], **invariants(g, list(record["counts"]))} == record


def test_the_fixture_covers_every_input():
    assert [r["gluing"] for r in RECORDS] == [name for name, _g in gluings()]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_pi1_invariants.py --record")
    FIXTURE.write_text(recorded_text())
