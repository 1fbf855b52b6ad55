"""Differential test: raw and Tietze-simplified pi1 of generated gluings.

The first fixture holds ``presentation_to_dict`` of the raw and the
simplified pi1 presentation of ``random_n_lines(n, seed)`` from
``bench/nlines.py`` for n in 4, 6, 8, 10 and seeds 0-4.  The second holds
the raw presentation alone for n in 12, 16 and seeds 0-2, and the third
the simplified one alone for the same gluings.  Any change to the word
format, the pi1 construction or Tietze's move choice that alters a single
byte of a presentation fails here.

The first fixture was recorded before letters became signed ints, the
second before the graph models kept root paths, the third before Nielsen
moves were scored from bigram counts, with

    PYTHONPATH=src python tests/test_pi1_differential.py --record

and they are only re-recorded when a change of output is intended and named.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "data" / "pi1_nlines.json"
RAW_FIXTURE = FIXTURE.with_name("pi1_raw_nlines.json")
LARGE_FIXTURE = FIXTURE.with_name("pi1_simplified_large.json")
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402

from gluesurf.gluing import gluing_from_dict, validate_gluing  # noqa: E402
from gluesurf.grouptheory import presentation_to_dict, tietze_simplify  # noqa: E402
from gluesurf.topology import pi1_presentation  # noqa: E402

SIZES = (4, 6, 8, 10)
SEEDS = range(5)
RAW_SIZES = (12, 16)
RAW_SEEDS = range(3)


def recorded_text(sizes=SIZES, seeds=SEEDS, raw=True, simplified=True) -> str:
    records = []
    for n in sizes:
        for seed in seeds:
            p = pi1_presentation(validate_gluing(gluing_from_dict(nlines.random_n_lines(n, seed))))
            record = {"n": n, "seed": seed}
            if raw:
                record["raw"] = presentation_to_dict(p)
            if simplified:
                record["simplified"] = presentation_to_dict(tietze_simplify(p))
            records.append(record)
    return json.dumps(records, indent=1) + "\n"


def raw_recorded_text() -> str:
    return recorded_text(RAW_SIZES, RAW_SEEDS, simplified=False)


def large_recorded_text() -> str:
    return recorded_text(RAW_SIZES, RAW_SEEDS, raw=False)


def test_pi1_presentations_match_the_recorded_fixture():
    assert recorded_text() == FIXTURE.read_text()


def test_raw_pi1_of_larger_gluings_matches_the_recorded_fixture():
    assert raw_recorded_text() == RAW_FIXTURE.read_text()


def test_simplified_pi1_of_larger_gluings_matches_the_recorded_fixture():
    assert large_recorded_text() == LARGE_FIXTURE.read_text()


def test_tietze_on_sixteen_lines_takes_seconds():
    # Nielsen moves scored from bigram counts, relators rewritten only where
    # they hold the letter: about 1 s for the three; rewriting every relator
    # for every candidate move took 20-60 s
    raws = [pi1_presentation(validate_gluing(gluing_from_dict(nlines.random_n_lines(16, seed))))
            for seed in RAW_SEEDS]
    start = time.perf_counter()
    for raw in raws:
        tietze_simplify(raw)
    assert time.perf_counter() - start < 5


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_pi1_differential.py --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(recorded_text())
    RAW_FIXTURE.write_text(raw_recorded_text())
    LARGE_FIXTURE.write_text(large_recorded_text())
