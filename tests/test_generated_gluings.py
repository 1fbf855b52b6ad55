"""Generated gluings: oracle checks on the n-line family, and a CLI fuzz.

The property tests draw ``bench/nlines.py`` gluings of the plane along n
general lines and their relabellings, and check them with the benchmark's
independent oracles (``bench/oracles.py``), imported rather than copied.
The fuzz mutates such documents at random and runs them through the CLI:
every run must keep the exit-code contract.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

from gluesurf.cli import main, report_to_dict  # noqa: E402
from gluesurf.fourlines import all_gluings, build_four_lines  # noqa: E402
from gluesurf.gluing import (  # noqa: E402
    cusps, euler_characteristics, gluing_from_dict, gluing_to_dict, validate_gluing)
from gluesurf.grouptheory import catalog_group, fingerprint, tietze_simplify  # noqa: E402
from gluesurf.intlinalg import snf  # noqa: E402
from gluesurf.invariants import compute_report, irregularity  # noqa: E402
from conftest import COLLIDING_RENAMINGS, node_matrix, renamed, wire_ids  # noqa: E402
from test_cli import invoke  # noqa: E402

SMALL_CATALOG = ("C2", "C3", "S3")


def _report(doc: dict) -> dict:
    return report_to_dict(compute_report(validate_gluing(gluing_from_dict(doc))))


def _shape(doc: dict) -> tuple:
    """What a relabelling must keep: homology, q and the cusp sizes."""
    out = _report(doc)
    return out["homology"], out["q"], sorted(len(c) for c in out["cusps"])


def _fingerprint(doc: dict) -> dict:
    raw = compute_report(validate_gluing(gluing_from_dict(doc))).pi1
    groups = tuple(catalog_group(name) for name in SMALL_CATALOG)
    return fingerprint(tietze_simplify(raw), catalog=groups).as_dict()


line_counts = st.sampled_from((4, 6, 8, 10))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(line_counts, seeds)
def test_oracles_hold_on_generated_gluings(n, seed):
    doc = nlines.random_n_lines(n, seed)
    out = _report(doc)
    # Euler number, H0/H3/H4, chi, K² and H1 against the abelianized pi1
    assert oracles.check_homology(doc, out, out["pi1"]["abelianization"]) == []
    assert len(out["cusps"]) == oracles.cusp_count(doc)


@pytest.mark.parametrize("n, seed", [(48, 0), (48, 1), (160, 0), (160, 1)])
def test_oracles_hold_at_hundreds_of_marked_points(n, seed):
    # the benchmark's homology op on up to 25,440 marked points; nothing is timed
    doc = nlines.random_n_lines(n, seed)
    out = workloads.homology_summary(workloads.homology_run({"doc": doc, "text": json.dumps(doc)}))
    assert oracles.check_homology(doc, out, None) == []
    assert len(cusps(validate_gluing(gluing_from_dict(doc)))) == oracles.cusp_count(doc)


@settings(max_examples=25, deadline=None)
@given(line_counts, seeds)
def test_json_round_trip(n, seed):
    data = gluing_from_dict(nlines.random_n_lines(n, seed))
    again = gluing_from_dict(json.loads(json.dumps(gluing_to_dict(data))))
    assert again == data
    assert cusps(validate_gluing(again)) == cusps(validate_gluing(data))


@settings(max_examples=25, deadline=None)
@given(line_counts, seeds, seeds)
def test_relabelling_keeps_the_invariants(n, seed, relabel_seed):
    bijections = nlines.random_bijections(n, random.Random(seed))
    g = nlines.pairing_permutations(n, random.Random(relabel_seed))
    doc = nlines.n_lines_gluing(n, bijections)
    moved = nlines.n_lines_gluing(n, nlines.relabel(n, bijections, g))
    assert _shape(moved) == _shape(doc)
    if n <= 6:
        assert _fingerprint(moved) == _fingerprint(doc)


# random_n_lines(n, s) for even n up to 32 and four seeds, and the 36 gluings
# of the plane along four lines
BETTI_CASES = [*((n, s) for n in range(4, 33, 2) for s in range(4)), *all_gluings()]


@pytest.mark.parametrize("case", BETTI_CASES, ids=lambda c: (
    "n{}-s{}".format(*c) if isinstance(c, tuple) else f"four-{c.phi12}-{c.phi34}"))
def test_irregularity_is_the_first_betti_number(case):
    """q = b1(X) = rank H1(X; Z), and so p_g = chi - 1 + rank H1(X; Z).

    Hypotheses, which every gluing the cusp matrix accepts meets: each
    normal component is simply connected with q = 0, every curve of the
    normalized conductor D-bar is rational, X is connected, and the
    conductor D is seminormal, as the conductor of an slc surface is.

    Sketch.  X is the pushout of X-bar <- D-bar -> D.  Map the
    Mayer-Vietoris sequence of the constant sheaf C on that square to the
    cohomology sequence of 0 -> O_X -> pi_*O_X-bar + O_D -> pi_*O_D-bar -> 0,
    the standard sequence of a seminormal pushout, by C -> O.  On every H^0
    term the map is an isomorphism (constants on compact components).  On
    H^1: H^1(X-bar, C) = 0 = H^1(O_X-bar) by the hypotheses on the normal
    components, H^1(D-bar, C) = 0 = H^1(O_D-bar) as D-bar is a union of
    lines, and for D, a curve with rational components and seminormal
    singularities, H^1(D, C) -> H^1(O_D) is an isomorphism, both being b1 of
    its dual graph.  The five lemma then gives H^1(X, C) = H^1(O_X), so
    q = b1(X), and chi = 1 - q + p_g gives p_g.

    The exact statement the code meets: the cusp matrix C is -2 times the
    transpose of the tau-pairs x cusps matrix R whose cokernel is H1(X), so
    rank C = rank R, and with one normal component q = #pairs - rank C =
    #pairs - rank R = b1.  Both ``irregularity`` and ``homology_of_X`` read
    the cusp sums, so b1 is taken here from the node matrix, with no shared
    code: its cokernel's free rank less one per degenerate cusp.
    """
    data = (gluing_from_dict(nlines.random_n_lines(*case)) if isinstance(case, tuple)
            else build_four_lines(case))
    vg = validate_gluing(data)
    b1 = snf(node_matrix(data)).cokernel.free_rank - oracles.cusp_count(gluing_to_dict(data))
    assert irregularity(vg) == (b1, euler_characteristics(vg).chi_x - 1 + b1)


@st.composite
def renamed_n_lines(draw):
    """(n, seed, an injective renaming of every id) with names over A, B, | and +,
    the characters the program itself glues ids with, so that one name is
    often a prefix of another or one name glued to another equals a third."""
    n, seed = draw(st.sampled_from((4, 6))), draw(seeds)
    ids = wire_ids(nlines.random_n_lines(n, seed))
    names = draw(st.lists(st.text("AB|+", min_size=1, max_size=4),
                          min_size=len(ids), max_size=len(ids), unique=True))
    return n, seed, dict(zip(ids, names))


@settings(max_examples=15, deadline=None)
@given(renamed_n_lines())
@example((4, 0, COLLIDING_RENAMINGS[0]))
@example((4, 0, COLLIDING_RENAMINGS[1]))
def test_renaming_ids_keeps_the_invariants(case):
    n, seed, renaming = case
    doc = nlines.random_n_lines(n, seed)
    moved = renamed(doc, renaming)
    assert _shape(moved) == _shape(doc)
    assert _report(moved)["pi1"]["abelianization"] == _report(doc)["pi1"]["abelianization"]
    assert _fingerprint(moved) == _fingerprint(doc)


# -- CLI fuzz ------------------------------------------------------------------

class _Pairs(list):
    """A JSON object kept as (key, value) pairs, so that a key may repeat."""


def _dumps(x) -> str:
    if isinstance(x, dict):
        x = _Pairs(x.items())
    if isinstance(x, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(_dumps(v) for v in x) + "]"
    return json.dumps(x)


def _slots(x, out: list) -> list:
    """Every (container, key) place under ``x``, parents before children."""
    for key, value in list(x.items() if isinstance(x, dict) else enumerate(x)):
        out.append((x, key))
        if isinstance(value, (dict, list)) and not isinstance(value, _Pairs):
            _slots(value, out)
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["plane", "L1", "L2", "P1_2", "P2_1", "P3_4"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _mutate(data, root: list, names: list[str]) -> None:
    """One random mutation of the document ``root[0]``, in place."""
    container, key = data.draw(st.sampled_from(_slots(root, [])))
    value = container[key]
    kind = data.draw(st.sampled_from(["drop", "duplicate", "misspell", "retype", "repair"]))
    if kind == "drop" and container is not root:
        del container[key]
    elif kind == "duplicate" and isinstance(value, dict) and value:
        # one key written twice, the second time with another value
        twice = data.draw(st.sampled_from(sorted(value)))
        container[key] = _Pairs([*value.items(), (twice, data.draw(json_values))])
    elif kind == "duplicate" and container is not root and isinstance(container, list):
        container.append(copy.deepcopy(value))
    elif kind == "misspell" and isinstance(container, dict):
        name = data.draw(st.sampled_from(
            [key[:-1], key + "s", key.upper(), key.replace("_", ""), "_" + key]))
        container[name] = container.pop(key)
    elif kind == "repair":
        # break a pairing: point a member at another known name
        container[key] = data.draw(st.sampled_from(names))
    else:
        container[key] = data.draw(json_values)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 50), st.sampled_from(["invariants", "homology", "pi1"]), st.data())
def test_cli_fuzz_keeps_exit_codes(tmp_path, seed, command, data):
    doc = nlines.random_n_lines(4, seed)
    names = sorted({p for c in doc["curve_components"] for p in c["marked_points"]}
                   | {c["id"] for c in doc["curve_components"]} | {"plane"})
    root = [doc]
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, root, names)
    path = tmp_path / "fuzz.json"
    path.write_text(_dumps(root[0]))
    result = invoke(main, [command, str(path)])
    assert result.exit_code in (0, 2, 3, 4)
    assert "Traceback" not in result.output
