"""Differential test: raw pi1 of generated gluings with every id renamed.

The other word fixtures keep the zero-padded ids of ``bench/nlines.py``,
under which printed labels sort as the id tuples they print.  Here every
normal, curve and point id of ``random_n_lines(n, seed)`` for n in 4, 6, 8
and seeds 0-99 is renamed, injectively and at random, to a name over A, B,
|, + and 1.  The program glues ids with | and +, so a glued label often
sorts otherwise than its parts; ``COLLIDING_RENAMINGS`` adds two renamings
under which two labels print alike.  The fixture holds the raw pi1
presentation of each: a change to the order of the graph models' vertices,
edges or spanning trees that alters a single letter fails here.

It was recorded with

    PYTHONPATH=src python tests/test_pi1_renamed_differential.py --record

and is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "data" / "pi1_renamed_nlines.json"
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402

from conftest import COLLIDING_RENAMINGS, renamed, wire_ids  # noqa: E402
from gluesurf.gluing import gluing_from_dict, validate_gluing  # noqa: E402
from gluesurf.grouptheory import presentation_to_dict  # noqa: E402
from gluesurf.topology import pi1_presentation  # noqa: E402

SIZES = (4, 6, 8)
SEEDS = range(100)
ALPHABET = "AB|+1"


def random_renaming(n: int, seed: int) -> dict[str, str]:
    """An injective renaming of every id of random_n_lines(n, seed) to
    names of one to four characters of ALPHABET, seeded by (n, seed)."""
    ids = wire_ids(nlines.random_n_lines(n, seed))
    rng = random.Random(1000 * n + seed)
    names: dict[str, None] = {}  # insertion-ordered, unlike a set
    while len(names) < len(ids):
        names["".join(rng.choices(ALPHABET, k=rng.randint(1, 4)))] = None
    return dict(zip(ids, names))


def cases() -> list[tuple[int, int, dict[str, str]]]:
    out = [(n, seed, random_renaming(n, seed)) for n in SIZES for seed in SEEDS]
    return out + [(4, 0, renaming) for renaming in COLLIDING_RENAMINGS]


def recorded_text() -> str:
    lines = []
    for n, seed, renaming in cases():
        doc = renamed(nlines.random_n_lines(n, seed), renaming)
        p = pi1_presentation(validate_gluing(gluing_from_dict(doc)))
        lines.append(json.dumps({"n": n, "seed": seed, "raw": presentation_to_dict(p)},
                                separators=(",", ":")))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_raw_pi1_of_renamed_gluings_matches_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_pi1_renamed_differential.py --record")
    FIXTURE.write_text(recorded_text())
