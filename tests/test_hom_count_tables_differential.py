"""Differential test: hom counts into every non-cyclic group, at ranks 0-4.

The fixture holds ``hom_count``'s (total, surjective) under the default
budget, or the message of the ``BudgetExceededError`` it raises, into each
non-cyclic catalog group and the hand-built V4 and C2 x C4, for two kinds
of presentation:

- seeded random presentations of rank 0-4 with 0-3 relators of 0-7
  letters, empty relators included;
- the simplified pi1 of the first eight one-cusp gluings
  ``random_n_lines(6, s)``, s counting up from 0: the shape of the ``pi1``
  benchmark workload (s = 0 .. 7 alone gives only three).

Any change to the enumeration that alters one count, or which group exits
and how, fails here.  The fixture was recorded before the enumeration read
per-group head tables and a letter-indexed image list, with

    PYTHONPATH=src python tests/test_hom_count_tables_differential.py --record

and it is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from conftest import letter
from gluesurf.errors import BudgetExceededError
from gluesurf.gluing import cusps, gluing_from_dict, validate_gluing
from gluesurf.grouptheory import (
    CATALOG_NAMES,
    GroupPresentation,
    catalog_group,
    hom_count,
    presentation_to_dict,
    tietze_simplify,
)
from gluesurf.topology import pi1_presentation
from test_grouptheory import HAND_BUILT, nlines

FIXTURE = Path(__file__).resolve().parent / "data" / "hom_counts_tables.json"
GLUINGS = 8


def groups():
    return [catalog_group(name) for name in CATALOG_NAMES if name[0] != "C"] + HAND_BUILT


def random_presentations():
    rng = random.Random("hom-count-tables")
    for rank in range(5):
        for relators in range(4):
            for _ in range(3):
                yield GroupPresentation(tuple("abcd"[:rank]), tuple(
                    tuple(letter(rng.randrange(rank), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 7) if rank else 0))
                    for _ in range(relators)))


def one_cusp_presentations():
    found, seed = 0, 0
    while found < GLUINGS:
        g = validate_gluing(gluing_from_dict(nlines.random_n_lines(6, seed)))
        if len(cusps(g)) == 1:
            found += 1
            yield tietze_simplify(pi1_presentation(g))
        seed += 1


def counted(p, group) -> list[int] | str:
    try:
        return list(hom_count(p, group))
    except BudgetExceededError as err:
        return str(err)


def recorded_text() -> str:
    records = [{"presentation": presentation_to_dict(p),
                "counts": {g.name: counted(p, g) for g in groups()}}
               for p in [*random_presentations(), *one_cusp_presentations()]]
    return json.dumps(records, indent=1) + "\n"


def test_counts_match_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_hom_count_tables_differential.py --record")
    FIXTURE.write_text(recorded_text())
