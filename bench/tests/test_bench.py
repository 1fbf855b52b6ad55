"""Tests of the benchmark itself: generator, oracles, tracer and runner.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gluesurf as gs  # noqa: E402
from gluesurf.fourlines import TABLE, build_four_lines  # noqa: E402

import nlines  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _validated(doc: dict):
    return gs.validate_gluing(gs.gluing_from_dict(json.loads(json.dumps(doc))))


def _invariants(vg) -> tuple:
    return (
        gs.euler_characteristics(vg).chi_x,
        gs.irregularity(vg)[0],
        tuple(sorted(c.mu for c in gs.cusps(vg))),
        tuple(str(h) for h in gs.homology_of_X(vg).as_tuple()),
    )


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("seed", range(5))
def test_generator_gives_valid_gluings(n, seed):
    doc = nlines.random_n_lines(n, seed)
    assert doc == nlines.random_n_lines(n, seed)
    vg = _validated(doc)
    assert doc["normalization"][0]["k_plus_d_sq"] == (n - 3) ** 2
    assert gs.k_squared(vg) == (n - 3) ** 2
    assert len(vg.nodes()) == n * (n - 1) // 2
    assert len(gs.cusps(vg)) == oracles.cusp_count(doc)


@pytest.mark.parametrize("row", TABLE, ids=lambda r: r.label)
def test_generator_reproduces_the_four_line_table(row):
    b = row.representative
    ours = _validated(nlines.n_lines_gluing(4, [b.phi12, b.phi34]))
    theirs = gs.validate_gluing(build_four_lines(b))
    assert _invariants(ours) == _invariants(theirs)


@pytest.mark.parametrize("seed", range(3))
def test_relabelling_keeps_the_surface(seed):
    rng = random.Random(seed)
    base = nlines.random_bijections(6, rng)
    moved = nlines.relabel(6, base, nlines.pairing_permutations(6, rng))
    assert _invariants(_validated(nlines.n_lines_gluing(6, base))) == \
        _invariants(_validated(nlines.n_lines_gluing(6, moved)))


def test_self_times_of_a_synthetic_nested_call():
    # outer runs [0, 10] and holds child [1, 3] (its wrapper covers 0.8 to
    # 3.5) and child [4, 8] (wrapper 3.9 to 8.2), which holds a grandchild
    # [5, 6] (wrapper 4.9 to 6.1); a parent loses its children's whole wrappers
    spans = [
        Span(0, "outer", 0, None, -0.5, 0.0, 10.0, 10.5),
        Span(1, "child", 0, 0, 0.8, 1.0, 3.0, 3.5),
        Span(2, "child", 0, 0, 3.9, 4.0, 8.0, 8.2),
        Span(3, "grandchild", 0, 2, 4.9, 5.0, 6.0, 6.1),
    ]
    assert self_times(spans) == pytest.approx({0: 10 - 2.7 - 4.3, 1: 2.0, 2: 4 - 1.2, 3: 1.0})


def test_tracer_spans_come_from_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(layers=(), clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4  # untraced outside an op; reads the clock on entry only
    assert tracer.spans == []
    tracer.op = 7
    assert outer(1) == 4
    # clock: outer.entered 2, outer.start 3, inner.entered 4, inner.start 5,
    # inner.end 6, inner.returned 7, outer.end 8, outer.returned 9
    assert [(s.name, s.op, s.parent, s.entered, s.start, s.end, s.returned)
            for s in tracer.spans] == [("outer", 7, None, 2, 3, 8, 9), ("inner", 7, 0, 4, 5, 6, 7)]
    assert self_times(tracer.spans) == {0: 8 - 3 - (7 - 4), 1: 1}


def test_tracer_restores_originals_and_keeps_outputs():
    fourlines = workloads.WORKLOADS["fourlines"]
    inp = fourlines.make_input(0, 0)
    plain = fourlines.summary(fourlines.run(inp))
    original = gs.intlinalg.snf
    with Tracer() as tracer:
        assert gs.topology.snf is not original and gs.invariants.snf is not original
        tracer.op = 0
        traced = fourlines.summary(fourlines.run(inp))
        tracer.op = None
    assert traced == plain
    assert {s.name for s in tracer.spans} >= {"intlinalg.snf", "fourlines.enumerate_orbits"}
    assert gs.topology.snf is original and gs.invariants.snf is original
    assert gs.fingerprint is gs.grouptheory.fingerprint
    assert not hasattr(gs.grouptheory.hom_count, "__wrapped__")


def test_traced_run_wraps_only_the_traced_passes():
    fourlines = workloads.WORKLOADS["fourlines"]
    wrapped = []

    class Watching(Tracer):
        def __enter__(self):
            wrapped.append(True)
            return super().__enter__()

    tracer = Watching()
    m = run.measure(fourlines, 0, 0, run.Counts(), tracer)
    assert m.repeats == 1 and m.traced_ops == fourlines.ops and len(wrapped) == 1
    assert tracer.spans and not hasattr(gs.intlinalg.snf, "__wrapped__")


@pytest.mark.parametrize("name", ["fourlines", "pi1"])
def test_one_pass_is_correct(name):
    workload = workloads.WORKLOADS[name]
    counts = run.Counts()
    m = run.measure(workload, 0, 0, counts)
    assert counts.failed == 0 and counts.attempted == workload.ops == len(m.best)
    assert m.repeats == 1 and all(0 < t < 60 for t in m.best)


def test_wrong_h1_counts_as_an_error(monkeypatch):
    monkeypatch.setattr(workloads, "HOMOLOGY_LINES", 8)
    honest = gs.homology_of_X

    def wrong(vg):
        h = honest(vg)
        torsion = tuple(2 * d for d in h.h1.torsion) or (2,)
        return dataclasses.replace(h, h1=gs.AbelianGroup(h.h1.free_rank, torsion))

    homology = workloads.WORKLOADS["homology"]
    counts = run.Counts()
    run.measure(homology, 0, 0, counts)
    assert counts.failed == 0
    monkeypatch.setattr(gs, "homology_of_X", wrong)
    counts = run.Counts()
    # long enough for repeats, which must count the wrong outputs again
    m = run.measure(homology, 0, 1.0, counts)
    # ranks are unchanged, so only the comparison with ab(pi1) catches it
    assert m.repeats >= 2
    assert counts.attempted == m.repeats * homology.ops and counts.failed == counts.attempted


def test_budget_exits_must_be_justified():
    assert oracles.check_budget_exit(None, 4, 60 ** 3) == []
    assert oracles.check_budget_exit(None, 3, 60 ** 3)
    assert oracles.check_budget_exit({}, 4, 60 ** 3)


def test_cyclic_counts_follow_h1():
    # Z + Z/6 onto Z/4: homs 4 * gcd(6, 4) = 8; surjections 8 - homs onto Z/2 (2 * 2) = 4
    assert oracles.cyclic_counts({"rank": 1, "torsion": [6]}, 4) == (8, 4)
