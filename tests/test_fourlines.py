"""Enumeration and classification of the four-line gluings."""

from __future__ import annotations

import pytest

from conftest import table_element
from gluesurf import fourlines
from gluesurf.errors import LabelAmbiguousError, NotInD4Error
from gluesurf.fourlines import (
    D4_ELEMENTS,
    TABLE,
    LinePairBijections,
    all_gluings,
    build_four_lines,
    d4_action,
    enumerate_orbits,
    generating_set,
    orbit_and_stabilizer,
    perm_to_cycles,
    tau_point_map,
)
from gluesurf.gluing import cusps, validate_gluing

# the k-th point of line i meets line OTHERS[i][k]
OTHERS = tuple(tuple(j for j in range(4) if j != i) for i in range(4))


def tau_oracle(b):
    """The involution as a dict on (line, line met) pairs."""
    tau = {}
    for src, phi in ((0, b.phi12), (2, b.phi34)):
        for k, image in enumerate(phi):
            p, q = (src, OTHERS[src][k]), (src + 1, OTHERS[src + 1][image])
            tau[p], tau[q] = q, p
    return tau


def d4_action_oracle(g, b):
    """Relabel every pair of the involution by g and read the bijections back."""
    moved = {(g[i], g[j]): (g[k], g[l]) for (i, j), (k, l) in tau_oracle(b).items()}

    def read(src):
        return tuple(OTHERS[src + 1].index(moved[(src, j)][1]) for j in OTHERS[src])

    return LinePairBijections(phi12=read(0), phi34=read(2))


class TestBuild:
    def test_all_choices_are_valid_and_involutive(self):
        for b in all_gluings():
            data = build_four_lines(b)
            tau = data.tau_points
            assert all(tau[tau[p]] == p and tau[p] != p for p in tau)
            vg = validate_gluing(data)
            assert vg.dbar_connected

    def test_single_cusp_row(self):
        vg = validate_gluing(build_four_lines(table_element("X0.1")))
        found = cusps(vg)
        assert len(found) == 1 and found[0].mu == 6

    def test_identity_like_row(self):
        vg = validate_gluing(build_four_lines(table_element("X2.1")))
        assert sorted(c.mu for c in cusps(vg)) == [1, 1, 4]

    def test_point_map_matches_the_oracle(self):
        for b in all_gluings():
            assert tau_point_map(b) == {
                f"P{i + 1}{j + 1}": f"P{k + 1}{l + 1}" for (i, j), (k, l) in tau_oracle(b).items()}

    @pytest.mark.parametrize("phi12, phi34", [
        ((0, 0, 0), (0, 1, 2)),
        ((0, 1, 2), (2, 1, 3)),
        ((0, 1), (0, 1, 2)),
        ([0, 1, 2], (0, 1, 2)),
        ((True, 0, 2), (0, 1, 2)),
    ])
    def test_bijections_must_permute_three_positions(self, phi12, phi34):
        with pytest.raises(ValueError, match="permuting"):
            LinePairBijections(phi12, phi34)


class TestD4Action:
    def test_identity_fixes_everything(self):
        for b in all_gluings():
            assert d4_action((0, 1, 2, 3), b) == b

    def test_transposition_is_an_involution(self):
        swap = (1, 0, 2, 3)
        for b in all_gluings():
            assert d4_action(swap, d4_action(swap, b)) == b

    def test_action_respects_composition(self):
        g, h = (2, 3, 1, 0), (1, 0, 3, 2)
        gh = tuple(g[h[i]] for i in range(4))
        for b in all_gluings()[::5]:
            assert d4_action(gh, b) == d4_action(g, d4_action(h, b))

    def test_free_orbit(self):
        assert len(orbit_and_stabilizer(table_element("X0.2"))[0]) == 8

    def test_not_in_group(self):
        with pytest.raises(NotInD4Error):
            d4_action((1, 2, 0, 3), table_element("X0.1"))

    def test_matches_the_dict_oracle_everywhere(self):
        pairs = [(g, b) for g in D4_ELEMENTS for b in all_gluings()]
        assert len(pairs) == 8 * 36
        for g, b in pairs:
            assert d4_action(g, b) == d4_action_oracle(g, b)
            assert d4_action(list(g), b) == d4_action_oracle(g, b)

    def test_orbit_and_stabilizer_match_the_oracle(self):
        for b in all_gluings():
            images = {g: d4_action_oracle(g, b) for g in D4_ELEMENTS}
            orbit, stab = orbit_and_stabilizer(b)
            assert orbit == tuple(sorted(set(images.values()), key=LinePairBijections.key))
            assert stab == tuple(g for g, image in images.items() if image == b)


class TestStabilizers:
    def test_fully_symmetric_row(self):
        assert orbit_and_stabilizer(table_element("X3.1"))[1] == D4_ELEMENTS

    def test_klein_four_row(self):
        stab = orbit_and_stabilizer(table_element("X1.4"))[1]
        assert set(stab) == {(0, 1, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2)}

    def test_rigid_row(self):
        assert orbit_and_stabilizer(table_element("X0.2"))[1] == ((0, 1, 2, 3),)

    def test_x13_stabilizer_is_the_single_transposition(self):
        # the stabilizer of the stored representative contains the single
        # transposition (34), not the central double transposition
        rep = table_element("X1.3")
        stab = orbit_and_stabilizer(rep)[1]
        assert (0, 1, 3, 2) in stab
        assert (1, 0, 3, 2) not in stab

    def test_cycle_notation(self):
        assert perm_to_cycles((0, 1, 2, 3)) == "e"
        assert perm_to_cycles((1, 0, 3, 2)) == "(12)(34)"
        assert perm_to_cycles((2, 3, 1, 0)) == "(1324)"

    def test_generating_set_generates(self):
        for row in TABLE:
            stab = orbit_and_stabilizer(row.representative)[1]
            gens = generating_set(stab)
            regenerated = {(0, 1, 2, 3)}
            frontier = [((0, 1, 2, 3))]
            while frontier:
                nxt = []
                for h in frontier:
                    for g in gens:
                        prod = tuple(g[h[i]] for i in range(4))
                        if prod not in regenerated:
                            regenerated.add(prod)
                            nxt.append(prod)
                frontier = nxt
            assert regenerated == set(stab)


@pytest.fixture(scope="module")
def records():
    return enumerate_orbits()


class TestEnumeration:
    def test_census(self, records):
        assert len(records) == 11
        assert sum(r.orbit_size for r in records) == 36
        for r in records:
            assert r.orbit_size * len(r.stabilizer) == 8

    def test_representative_is_orbit_minimum(self, records):
        for r in records:
            assert r.representative == min(r.orbit, key=lambda b: b.key())

    def test_orbits_partition_everything(self, records):
        everything = [b for r in records for b in r.orbit]
        assert len(everything) == 36
        assert len(set(everything)) == 36

    def test_chi_multiset(self, records):
        assert sorted((r.report.chi for r in records), reverse=True) == \
            [3, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0]

    def test_labels_in_table_order(self, records):
        assert [r.table_label for r in records] == [row.label for row in TABLE]

    def test_q_matches_table(self, records):
        for r, row in zip(records, TABLE):
            assert r.report.q == row.q

    def test_ambiguous_rows_have_disjoint_orbits(self, records):
        by_label = {r.table_label: r for r in records}
        for a, b in (("X1.2", "X1.3"), ("X1.1", "X1.3"), ("X1.1", "X1.2")):
            assert not set(by_label[a].orbit) & set(by_label[b].orbit)

    def test_row_disagreeing_with_the_computed_key_raises(self, monkeypatch):
        # X0.2's stabilizer is trivial; a row stating order 2 is wrong
        rows = [row._replace(stabilizer_order=2) if row.label == "X0.2" else row
                for row in TABLE]
        monkeypatch.setattr(fourlines, "TABLE", tuple(rows))
        with pytest.raises(LabelAmbiguousError,
                           match=r"\|stab\|=1\) disagrees with table row X0.2"):
            enumerate_orbits()

    def test_chi_equals_cusp_count_minus_one(self):
        for b in all_gluings():
            vg = validate_gluing(build_four_lines(b))
            from gluesurf.gluing import euler_characteristics

            assert euler_characteristics(vg).chi_x == len(cusps(vg)) - 1


class TestTauMap:
    def test_round_trip_through_relabelling(self):
        b = table_element("X2.3")
        for g in D4_ELEMENTS:
            moved = d4_action(g, b)
            ginv = tuple(sorted(range(4), key=lambda i: g[i]))
            assert d4_action(ginv, moved) == b

    def test_point_map_is_block_respecting(self):
        tau = tau_point_map(table_element("X1.5"))
        for p, q in tau.items():
            assert {p[1], q[1]} in ({"1", "2"}, {"3", "4"})
