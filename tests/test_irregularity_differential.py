"""Differential test: irregularity of generated and hand-built gluings.

The fixture holds ``irregularity``'s (q, p_g), or the name of the
exception it raises, for the named gluings of
``test_homology_differential``, for ``two_planes()`` (X disconnected),
for X0.1 with q = 1 on its plane (an irregular normalization), for X0.1
with lines L1 and L2 of genus 1, and for ``joined_planes()`` (X connected,
the normalized conductor not).  Any change to the matrix q is read from,
or to the order of the checks, that alters one answer fails here.

The fixture was recorded while q was read from the cusp matrix, with

    PYTHONPATH=src python tests/test_irregularity_differential.py --record

and it is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "data" / "irregularity_nlines.json"
if str(TESTS) not in sys.path:
    sys.path.append(str(TESTS))

from conftest import joined_planes, replace, table_gluing, two_planes  # noqa: E402
from test_homology_differential import named_gluings  # noqa: E402

from gluesurf.errors import GluesurfError  # noqa: E402
from gluesurf.gluing import validate_gluing  # noqa: E402
from gluesurf.invariants import irregularity  # noqa: E402


def mutated_gluings():
    x01 = table_gluing("X0.1").data
    yield "two_planes()", two_planes()
    yield "X0.1 with q = 1", replace(
        x01, normal_components=tuple(replace(n, q=1) for n in x01.normal_components))
    yield "X0.1 with L1 and L2 of genus 1", replace(
        x01, curve_components=tuple(replace(c, genus=1) if c.id in ("L1", "L2") else c
                                    for c in x01.curve_components))
    yield "joined_planes()", joined_planes()


def answer(data) -> list[int] | str:
    try:
        return list(irregularity(validate_gluing(data)))
    except GluesurfError as exc:
        return type(exc).__name__


def recorded_text() -> str:
    records = [{"gluing": name, "irregularity": answer(data)}
               for source in (named_gluings(), mutated_gluings()) for name, data in source]
    return json.dumps(records, indent=1) + "\n"


def test_irregularity_matches_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_irregularity_differential.py --record")
    FIXTURE.write_text(recorded_text())
