"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

Every workload turns ``(seed, index)`` into one input; a run repeats the
list of its first ``ops`` inputs.  The program only ever sees wire-format
gluing JSON (or no input at all, for the built-in four-line enumeration).

- ``fourlines``: the paper's job, many small calls.  One op enumerates the
  36 gluings into 11 orbits and tells X0.1 from X0.2 by fingerprints, each
  given as JSON under a seeded relabelling of the lines.
- ``homology``: the plane glued along 16 lines with random bijections; the
  op is dominated by Smith normal forms of level maps of about 110 x 100.
- ``pi1``: the plane glued along 6 lines with a single degenerate cusp (the
  shape of X0.1/X0.2, one size up); the op simplifies pi1 to rank 3 and
  enumerates every catalog group, A5's 216,000 tuples included.  Rank-4
  results exit on the budget and are counted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Calls go through the package namespace so the traced run's wrappers see them.
import gluesurf as gs
from gluesurf.errors import BudgetExceededError
from gluesurf.grouptheory import presentation_to_dict

import oracles
from nlines import n_lines_gluing, pairing_permutations, random_bijections, relabel

# Largest hom_count search space the pi1 workload allows: |A5|^3.
BUDGET = 60 ** 3

# The paper's representatives of the two irregular surfaces.
X0_BIJECTIONS = {"X0.1": [(1, 0, 2), (0, 2, 1)], "X0.2": [(1, 2, 0), (0, 2, 1)]}

# stdout of ``classify-four-lines --format json`` at the commit that added it
GOLDEN = Path(__file__).resolve().parent / "golden" / "classify-four-lines.json"

HOMOLOGY_LINES = 16
PI1_LINES = 6


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _load(text: str):
    return gs.validate_gluing(gs.gluing_from_dict(json.loads(text)))


# -- fourlines -----------------------------------------------------------------

def fourlines_input(seed: int, index: int) -> dict:
    rng = _rng("fourlines", seed, index)
    docs = [n_lines_gluing(4, relabel(4, X0_BIJECTIONS[label], pairing_permutations(4, rng)))
            for label in ("X0.1", "X0.2")]
    return {"texts": [json.dumps(d) for d in docs]}


def fourlines_run(inp: dict):
    records = gs.enumerate_orbits()
    fps = [gs.fingerprint(gs.tietze_simplify(gs.pi1_presentation(_load(t)))) for t in inp["texts"]]
    return records, fps


def fourlines_summary(raw) -> dict:
    records, fps = raw
    left, right = fps
    witness = next((a[0] for a, b in zip(left.counts, right.counts) if a != b), None)
    return {
        "orbits": [{
            "label": r.table_label,
            "orbit_size": r.orbit_size,
            "chi": r.report.chi,
            "q": r.report.q,
            "cusp_sizes": sorted(c.mu for c in r.report.cusp_partition),
            "homology": [h.as_dict() for h in r.report.homology.as_tuple()],
        } for r in records],
        "fingerprints": [fp.as_dict() for fp in fps],
        "witness": witness,
    }


def fourlines_check(inp: dict, out: dict) -> list[str]:
    return oracles.check_fourlines(out)


# -- homology ------------------------------------------------------------------

def homology_input(seed: int, index: int) -> dict:
    n = HOMOLOGY_LINES
    doc = n_lines_gluing(n, random_bijections(n, _rng("homology", seed, index)))
    return {"doc": doc, "text": json.dumps(doc)}


def homology_run(inp: dict):
    vg = _load(inp["text"])
    chi = gs.euler_characteristics(vg).chi_x
    q, pg = gs.irregularity(vg)
    return chi, q, pg, gs.k_squared(vg), gs.homology_of_X(vg)


def homology_summary(raw) -> dict:
    chi, q, pg, k2, h = raw
    return {"chi": chi, "q": q, "pg": pg, "k2": k2,
            "homology": [g.as_dict() for g in h.as_tuple()]}


def homology_check(inp: dict, out: dict) -> list[str]:
    pi1_ab = gs.abelianization(gs.pi1_presentation(_load(inp["text"]))).as_dict()
    return oracles.check_homology(inp["doc"], out, pi1_ab)


# -- pi1 -----------------------------------------------------------------------

def pi1_input(seed: int, index: int) -> dict:
    """Draw bijections until all nodes fall into one degenerate cusp."""
    n, rng = PI1_LINES, _rng("pi1", seed, index)
    while True:
        doc = n_lines_gluing(n, random_bijections(n, rng))
        if oracles.cusp_count(doc) == 1:
            return {"doc": doc, "text": json.dumps(doc)}


def pi1_run(inp: dict):
    raw = gs.pi1_presentation(_load(inp["text"]))
    simplified = gs.tietze_simplify(raw)
    ab = gs.abelianization(raw)
    try:
        fp = gs.fingerprint(simplified, budget=BUDGET)
    except BudgetExceededError:
        fp = None
    return simplified, ab, fp


def pi1_summary(raw) -> dict:
    simplified, ab, fp = raw
    return {
        "rank": len(simplified.generators),
        "simplified": presentation_to_dict(simplified),
        "ab_raw": ab.as_dict(),
        "ab_simplified": gs.abelianization(simplified).as_dict(),
        "fingerprint": None if fp is None else fp.as_dict(),
        "budget_exit": fp is None,
    }


def pi1_check(inp: dict, out: dict) -> list[str]:
    h1 = gs.homology_of_X(_load(inp["text"])).h1.as_dict()
    return oracles.check_pi1(out, h1, BUDGET)


# -- CLI commands --------------------------------------------------------------

def fourlines_cli(inp: dict, out: dict, path: str) -> tuple[list[str], Callable]:
    def check(code: int, stdout: bytes) -> list[str]:
        if code != 0 or stdout != GOLDEN.read_bytes():
            return [f"classify-four-lines: exit {code}, stdout differs from the golden file"]
        return []
    return ["classify-four-lines", "--format", "json"], check


def homology_cli(inp: dict, out: dict, path: str) -> tuple[list[str], Callable]:
    def check(code: int, stdout: bytes) -> list[str]:
        if code != 0 or json.loads(stdout) != {"homology": out["homology"]}:
            return [f"homology CLI: exit {code}, output differs from the library's"]
        return []
    return ["homology", path, "--format", "json"], check


def pi1_cli(inp: dict, out: dict, path: str) -> tuple[list[str], Callable]:
    # without --fingerprint: a budget exit would otherwise halve one sample,
    # and the fingerprint is timed in the ops already
    def check(code: int, stdout: bytes) -> list[str]:
        doc = json.loads(stdout) if code == 0 else {}
        if doc.get("abelianization") != out["ab_raw"] or doc.get("simplified") != out["simplified"]:
            return [f"pi1 CLI: exit {code}, output differs from the library's"]
        return []
    return ["pi1", path, "--format", "json"], check


@dataclass(frozen=True)
class Workload:
    name: str
    # length of the seeded op list one run repeats
    ops: int
    make_input: Callable[[int, int], dict]
    run: Callable[[dict], object]
    summary: Callable[[object], dict]
    check: Callable[[dict, dict], list[str]]
    cli: Callable[[dict, dict, str], tuple[list[str], Callable]]


WORKLOADS = {
    w.name: w for w in (
        Workload("fourlines", 4, fourlines_input, fourlines_run, fourlines_summary,
                 fourlines_check, fourlines_cli),
        Workload("homology", 8, homology_input, homology_run, homology_summary,
                 homology_check, homology_cli),
        Workload("pi1", 8, pi1_input, pi1_run, pi1_summary, pi1_check, pi1_cli),
    )
}
