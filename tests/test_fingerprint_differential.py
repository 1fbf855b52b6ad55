"""Differential test: catalog fingerprints of generated pi1 presentations.

The fixture holds ``fingerprint(...).as_dict()`` of every simplified
presentation of rank at most 3 in ``tests/data/pi1_nlines.json``, keyed by
the entry's n and seed.  Any change to ``hom_count`` that alters one
homomorphism or surjection count of one catalog group fails here.

The fixture was recorded before abelian targets were counted through the
abelianization and before the innermost image was evaluated against
pre-multiplied relators, with

    PYTHONPATH=src python tests/test_fingerprint_differential.py --record

and it is only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gluesurf.grouptheory import fingerprint, presentation_from_dict

DATA = Path(__file__).resolve().parent / "data"
PRESENTATIONS = DATA / "pi1_nlines.json"
FIXTURE = DATA / "fingerprints_nlines.json"
MAX_RANK = 3


def recorded_text() -> str:
    records = []
    for entry in json.loads(PRESENTATIONS.read_text()):
        p = presentation_from_dict(entry["simplified"])
        if len(p.generators) <= MAX_RANK:
            records.append({"n": entry["n"], "seed": entry["seed"],
                            "fingerprint": fingerprint(p).as_dict()})
    return json.dumps(records, indent=1) + "\n"


def test_fingerprints_match_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_fingerprint_differential.py --record")
    FIXTURE.write_text(recorded_text())
