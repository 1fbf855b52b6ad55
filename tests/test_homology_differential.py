"""Differential test: integral homology of generated and hand-built gluings.

The fixture holds H0-H4 of ``homology_of_X``, as ``AbelianGroup.as_dict``
lists, for ``random_n_lines(n, seed)`` from ``bench/nlines.py`` with n in
4, 8, ..., 32 and seeds 0-2, for the 36 four-line gluings, and for
``toy_pair(1, 0)``, ``toy_pair(3, 1)``, ``toy_pair(5, 2)``,
``curve_cycle(10)`` and ``curve_cycle(300)``.  Any change to the level
maps or to the Smith form that alters one group fails here.

The fixture was recorded before H1 was read from the node matrix, with

    PYTHONPATH=src python tests/test_homology_differential.py --record

and it is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "data" / "homology_nlines.json"
for path in (ROOT / "bench", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.append(str(path))

import nlines  # noqa: E402
from conftest import curve_cycle, toy_pair  # noqa: E402

from gluesurf.fourlines import all_gluings, build_four_lines  # noqa: E402
from gluesurf.gluing import gluing_from_dict, validate_gluing  # noqa: E402
from gluesurf.topology import homology_of_X  # noqa: E402

SIZES = range(4, 33, 4)
SEEDS = range(3)


def named_gluings():
    for n in SIZES:
        for seed in SEEDS:
            yield f"random_n_lines({n}, {seed})", gluing_from_dict(nlines.random_n_lines(n, seed))
    for k, b in enumerate(all_gluings()):
        yield f"four_lines[{k}]", build_four_lines(b)
    for npoints, shift in ((1, 0), (3, 1), (5, 2)):
        yield f"toy_pair({npoints}, {shift})", toy_pair(npoints, shift)
    for count in (10, 300):
        yield f"curve_cycle({count})", curve_cycle(count)


def recorded_text() -> str:
    records = [{"gluing": name,
                "homology": [h.as_dict() for h in homology_of_X(validate_gluing(data)).as_tuple()]}
               for name, data in named_gluings()]
    return json.dumps(records, indent=1) + "\n"


def test_homology_matches_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_homology_differential.py --record")
    FIXTURE.write_text(recorded_text())
