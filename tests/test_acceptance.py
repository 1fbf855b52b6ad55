"""Acceptance suite: one test per shipping criterion, all exact.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import table_gluing
from gluesurf.fourlines import (
    D4_ELEMENTS,
    TABLE,
    build_four_lines,
    enumerate_orbits,
    _cusp_partition_ids,
)
from gluesurf.gluing import cusps, validate_gluing
from gluesurf.grouptheory import (
    GroupPresentation,
    Word,
    abelianization,
    catalog_group,
    default_catalog,
    fingerprint,
    hom_count,
    tietze_simplify,
    word_from_str,
)
from gluesurf.intlinalg import AbelianGroup, IntegerMatrix, cokernel_invariants, snf
from gluesurf.invariants import cusp_matrix, irregularity
from gluesurf.topology import homology_of_X, mv_matrices, pi1_presentation

EXPECTED_CHI = [3, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0]
EXPECTED_STABILIZER_ORDERS = (8, 8, 4, 2, 2, 2, 2, 4, 4, 2, 1)


@pytest.fixture(scope="module")
def records():
    return enumerate_orbits()


@pytest.fixture(scope="module")
def irregular_records(records):
    return [r for r in records if r.report.chi == 0]


def test_criterion_01_orbit_census(records):
    assert len(records) == 11
    assert sum(r.orbit_size for r in records) == 36
    for r in records:
        assert r.orbit_size * len(r.stabilizer) == len(D4_ELEMENTS)
    assert sorted((r.report.chi for r in records), reverse=True) == EXPECTED_CHI
    for r in records:
        assert (r.report.q == 1) == (r.report.chi == 0)


def test_criterion_02_cusp_partitions_match_table():
    for row in TABLE:
        vg = validate_gluing(build_four_lines(row.representative))
        assert _cusp_partition_ids(vg) == row.cusp_partition, row.label


def _closure(perms):
    identity = (0, 1, 2, 3)
    have = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in perms:
                prod = tuple(g[h[i]] for i in range(4))
                if prod not in have:
                    have.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(have)


def test_criterion_03_stabilizers(records):
    assert tuple(len(r.stabilizer) for r in records) == EXPECTED_STABILIZER_ORDERS
    rows = {row.label: row for row in TABLE}
    for r in records:
        stated = _closure(rows[r.table_label].stated_generators)
        computed = frozenset(r.stabilizer)
        conjugates = {
            frozenset(
                tuple(g[h[tuple(sorted(range(4), key=lambda i: g[i]))[i]]] for i in range(4))
                for h in stated
            )
            for g in D4_ELEMENTS
        }
        assert computed in conjugates, r.table_label


def test_criterion_04_irregular_cusp_matrix(records):
    record = next(r for r in records if r.table_label == "X0.1")
    vg = validate_gluing(build_four_lines(record.representative))
    m = cusp_matrix(vg)
    assert (m.rows, m.cols) == (1, 2)
    a, b = m.entries
    assert abs(a) == 2 and a == b
    assert irregularity(vg) == (1, 0)


def test_criterion_05_homology_of_irregular_surfaces(irregular_records):
    assert len(irregular_records) == 2
    expected = (
        AbelianGroup(1), AbelianGroup(1), AbelianGroup(1),
        AbelianGroup(2), AbelianGroup(1),
    )
    for r in irregular_records:
        vg = validate_gluing(build_four_lines(r.representative))
        assert homology_of_X(vg).as_tuple() == expected


def test_criterion_06_snf_cross_checks(irregular_records):
    for r in irregular_records:
        vg = validate_gluing(build_four_lines(r.representative))
        mv = mv_matrices(vg)
        assert snf(mv.h1_map).divisors == (1, 1, 1)
        assert cokernel_invariants(mv.h1_map) == AbelianGroup(1)
        dec = snf(mv.h2_map)
        assert dec.divisors == (1, 1)
        assert mv.h2_map.cols - dec.rank == 2
        assert cokernel_invariants(mv.h2_map) == AbelianGroup(1)


def test_criterion_07_pi1_pipeline(irregular_records):
    by_label = {}
    for r in irregular_records:
        vg = validate_gluing(build_four_lines(r.representative))
        simplified = tietze_simplify(pi1_presentation(vg))
        assert len(simplified.generators) == 2
        assert len(simplified.relators) == 1
        assert len(simplified.relators[0]) == 6
        assert abelianization(simplified) == AbelianGroup(1)
        by_label[r.table_label] = fingerprint(simplified).as_dict()
    assert by_label["X0.1"]["A4"][1] >= 1
    assert by_label["X0.2"]["A4"][1] == 0

    # concrete witness: A -> (234), B -> (123) kills the reference relator
    # and generates the alternating group
    group = catalog_group("A4")
    reference = GroupPresentation(
        ("A", "B"), (word_from_str("A^-1 B^-1 A^2 B^2", ("A", "B")),)
    )
    images = (group.elements.index((0, 2, 3, 1)), group.elements.index((1, 2, 0, 3)))
    cur = group.identity_index
    for g, s in reference.relators[0].letters:
        cur = group._mult[cur][images[g] if s == 1 else group._inv[images[g]]]
    assert cur == group.identity_index
    assert group.subgroup_size(images) == group.order
    assert fingerprint(reference).as_dict() == by_label["X0.1"]


def test_criterion_08a_invariants_constant_along_orbits(records):
    catalog = default_catalog()
    for r in records:
        rep = r.report
        rep_shape = tuple(sorted(c.mu for c in rep.cusp_partition))
        rep_fp = fingerprint(
            tietze_simplify(rep.pi1), catalog=catalog
        )
        for element in r.orbit:
            vg = validate_gluing(build_four_lines(element))
            assert len(cusps(vg)) == len(rep.cusp_partition)
            assert tuple(sorted(c.mu for c in cusps(vg))) == rep_shape
            q, p_g = irregularity(vg)
            assert (q, p_g) == (rep.q, rep.p_g)
            assert homology_of_X(vg).as_tuple() == rep.homology.as_tuple()
            fp = fingerprint(
                tietze_simplify(pi1_presentation(vg)), catalog=catalog
            )
            assert fp == rep_fp


def _scramble(data):
    """Deterministic relabelling that inverts every lexicographic order."""
    pmap = {
        p: "pt_" + p[::-1].lower()
        for c in data.curve_components
        for p in c.marked_points
    }
    cmap = {c.id: "crv_" + c.id[::-1].lower() for c in data.curve_components}
    nmap = {n.id: "srf_" + n.id[::-1] for n in data.normal_components}
    return dataclasses.replace(
        data,
        normal_components=tuple(
            dataclasses.replace(n, id=nmap[n.id])
            for n in reversed(data.normal_components)
        ),
        curve_components=tuple(
            dataclasses.replace(
                c,
                id=cmap[c.id],
                ambient=nmap[c.ambient],
                marked_points=tuple(pmap[p] for p in reversed(c.marked_points)),
            )
            for c in reversed(data.curve_components)
        ),
        sigma={pmap[a]: pmap[b] for a, b in data.sigma.items()},
        tau_components={cmap[a]: cmap[b] for a, b in data.tau_components.items()},
        tau_points={pmap[a]: pmap[b] for a, b in data.tau_points.items()},
    )


def test_criterion_08b_relabelling_invariance():
    for label in ("X0.1", "X0.2", "X3.1", "X1.3", "X1.4", "X2.3"):
        vg = table_gluing(label)
        scrambled = validate_gluing(_scramble(vg.data))
        assert homology_of_X(scrambled).as_tuple() == homology_of_X(vg).as_tuple()
        assert irregularity(scrambled) == irregularity(vg)


def test_criterion_08c_h1_equals_pi1_abelianization(records):
    for r in records:
        for element in r.orbit:
            vg = validate_gluing(build_four_lines(element))
            assert homology_of_X(vg).h1 == abelianization(pi1_presentation(vg))


def test_criterion_08d_cusp_matrix_kernel_invariance(records):
    rng = random.Random(11)
    for r in records:
        vg = validate_gluing(build_four_lines(r.representative))
        m = cusp_matrix(vg)
        base = m.cols - snf(m).rank
        for _ in range(4):
            rows = m.row_lists()
            row_signs = [rng.choice((1, -1)) for _ in range(m.rows)]
            col_signs = [rng.choice((1, -1)) for _ in range(m.cols)]
            flipped = IntegerMatrix.from_rows(
                [
                    [row_signs[i] * col_signs[j] * rows[i][j] for j in range(m.cols)]
                    for i in range(m.rows)
                ],
                cols=m.cols,
            )
            assert flipped.cols - snf(flipped).rank == base


def _random_presentation(rng):
    ngens = rng.randint(1, 3)
    gens = tuple("xyz"[:ngens])
    relators = tuple(
        Word(tuple(
            (rng.randrange(ngens), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 5))
        ))
        for _ in range(rng.randint(0, 3))
    )
    return GroupPresentation(gens, relators)


def test_criterion_08e_fingerprint_invariant_under_simplification():
    # catalog capped at order 12 so three-generator searches stay instant
    catalog = tuple(
        catalog_group(name)
        for name in ("C2", "C3", "C4", "C5", "C6", "C8", "S3", "D4", "Q8", "A4", "D6")
    )
    rng = random.Random(2024)
    for _ in range(50):
        p = _random_presentation(rng)
        assert fingerprint(p, catalog) == fingerprint(tietze_simplify(p), catalog)


def test_criterion_09_combinatorial_consequences(records):
    # the analytic inputs are out of scope; their combinatorial output is
    # that exactly two gluings are irregular, both with chi = 0 and K² = 1
    irregular = [r for r in records if r.report.q > 0]
    assert len(irregular) == 2
    for r in irregular:
        assert r.report.chi == 0
        assert r.report.q == 1
        assert r.report.k_squared == 1
    assert {r.table_label for r in irregular} == {"X0.1", "X0.2"}
