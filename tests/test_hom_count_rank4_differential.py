"""Differential test: catalog hom counts of the rank-4 generated pi1 presentations.

The fixture holds, for every simplified presentation of rank 4 in
``tests/data/pi1_nlines.json`` and every catalog group, ``hom_count``'s
(total, surjective) under the default budget, or the message of the
``BudgetExceededError`` it raises, keyed by the entry's n and seed.  Any
change to ``hom_count`` that alters one count, or which group exits and
how, fails here.

The fixture was recorded before the third image ran over the orbits of
the automorphisms fixing the first two, with

    PYTHONPATH=src python tests/test_hom_count_rank4_differential.py --record

and it is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gluesurf.errors import BudgetExceededError
from gluesurf.grouptheory import default_catalog, hom_count, presentation_from_dict

DATA = Path(__file__).resolve().parent / "data"
PRESENTATIONS = DATA / "pi1_nlines.json"
FIXTURE = DATA / "hom_counts_rank4.json"
RANK = 4


def counted(p, group) -> list[int] | str:
    try:
        return list(hom_count(p, group))
    except BudgetExceededError as err:
        return str(err)


def recorded_text() -> str:
    records = []
    for entry in json.loads(PRESENTATIONS.read_text()):
        p = presentation_from_dict(entry["simplified"])
        if len(p.generators) == RANK:
            records.append({"n": entry["n"], "seed": entry["seed"],
                            "counts": {g.name: counted(p, g) for g in default_catalog()}})
    return json.dumps(records, indent=1) + "\n"


def test_rank_four_counts_match_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_hom_count_rank4_differential.py --record")
    FIXTURE.write_text(recorded_text())
