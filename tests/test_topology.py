"""Homotopy graphs, fundamental-group presentations, and homology of the glued surface."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import table_gluing, toy_pair
from gluesurf.errors import (
    DbarDisconnectedError,
    GenusNotZeroError,
    NotSimplyConnectedError,
    UnsupportedNormalHomologyError,
)
from gluesurf.gluing import (
    CurveComponent,
    GluingData,
    NormalComponent,
    validate_gluing,
)
from gluesurf.grouptheory import (
    abelianization,
    catalog_group,
    fingerprint,
    tietze_simplify,
    word_from_str,
    GroupPresentation,
)
from gluesurf import intlinalg, topology
from gluesurf.intlinalg import AbelianGroup, IntegerMatrix, cokernel_invariants, snf
from gluesurf.topology import homology_of_X, homotopy_graph, mv_matrices, pi1_presentation

REFERENCE_FIRST = GroupPresentation(
    ("A", "B"), (word_from_str("A^-1 B^-1 A^2 B^2", ("A", "B")),)
)
REFERENCE_SECOND = GroupPresentation(
    ("A", "B"), (word_from_str("A B^-1 A^2 B^2", ("A", "B")),)
)


class TestHomotopyGraph:
    def test_normalized_conductor_graph(self, x01):
        g = homotopy_graph("Dbar", x01)
        assert len(g.vertices) == 6
        assert len(g.edges) == 8
        assert g.component_count == 1
        assert g.b1 == 3

    def test_quotient_conductor_graph(self, x01):
        g = homotopy_graph("D", x01)
        assert len(g.vertices) == 1
        assert len(g.edges) == 4
        assert g.b1 == 4
        assert len(g.generator_edges) == 4

    def test_b1_identity_everywhere(self, x01, x31):
        for vg in (x01, x31, validate_gluing(toy_pair(3, 1))):
            for side in ("Dbar", "D"):
                g = homotopy_graph(side, vg)
                assert g.b1 == len(g.edges) - len(g.vertices) + g.component_count
                assert len(g.tree_edges) == len(g.vertices) - g.component_count

    def test_single_node_pair(self):
        vg = validate_gluing(toy_pair(1, 0))
        g = homotopy_graph("Dbar", vg)
        assert (len(g.vertices), len(g.edges), g.b1) == (1, 0, 0)

    def test_genus_rejected(self):
        data = toy_pair(2, 1)
        curved = dataclasses.replace(
            data,
            curve_components=tuple(
                dataclasses.replace(c, genus=1) for c in data.curve_components
            ),
        )
        with pytest.raises(GenusNotZeroError):
            homotopy_graph("Dbar", validate_gluing(curved))


class TestPi1:
    def test_first_irregular_surface(self, x01):
        p = pi1_presentation(x01)
        assert len(p.generators) == 4
        assert len(p.relators) == 3
        mv = mv_matrices(x01)
        assert snf(mv.h1_map).divisors == (1, 1, 1)
        assert fingerprint(tietze_simplify(p)) == fingerprint(REFERENCE_FIRST)

    def test_second_irregular_surface(self, x02):
        p = pi1_presentation(x02)
        assert fingerprint(tietze_simplify(p)) == fingerprint(REFERENCE_SECOND)

    def test_no_loops_gives_trivial_group(self):
        vg = validate_gluing(toy_pair(1, 0))
        p = pi1_presentation(vg)
        assert p.generators == ()
        assert p.relators == ()

    def test_not_simply_connected_rejected(self, x01):
        data = x01.data
        bad = dataclasses.replace(
            data,
            normal_components=tuple(
                dataclasses.replace(n, simply_connected=False)
                for n in data.normal_components
            ),
        )
        with pytest.raises(NotSimplyConnectedError):
            pi1_presentation(validate_gluing(bad))

    def test_disconnected_conductor_rejected(self):
        base1 = NormalComponent(id="base1", chi_O=1, k_plus_d_sq=1)
        base2 = NormalComponent(id="base2", chi_O=1, k_plus_d_sq=1)
        data = GluingData(
            normal_components=(base1, base2),
            curve_components=(
                CurveComponent("C1", "base1", 0, ("x0",), (1,)),
                CurveComponent("C2", "base1", 0, ("y0",), (1,)),
                CurveComponent("C3", "base2", 0, ("u0",), (1,)),
                CurveComponent("C4", "base2", 0, ("v0",), (1,)),
            ),
            sigma={"x0": "y0", "y0": "x0", "u0": "v0", "v0": "u0"},
            tau_components={"C1": "C2", "C2": "C1", "C3": "C4", "C4": "C3"},
            tau_points={"x0": "y0", "y0": "x0", "u0": "v0", "v0": "u0"},
        )
        vg = validate_gluing(data)
        assert not vg.dbar_connected
        with pytest.raises(DbarDisconnectedError):
            pi1_presentation(vg)


class TestMayerVietorisMatrices:
    def test_sphere_level_map_matches_line_classes(self, x01, x02):
        expected = IntegerMatrix.from_rows(
            [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
        )
        assert mv_matrices(x01).h2_map == expected
        assert mv_matrices(x02).h2_map == expected

    def test_loop_level_map(self, x01):
        m = mv_matrices(x01).h1_map
        assert (m.rows, m.cols) == (4, 3)
        assert snf(m).divisors == (1, 1, 1)
        assert cokernel_invariants(m) == AbelianGroup(1)

    def test_single_pair_sphere_map_carries_classes(self):
        data = toy_pair(1, 0)
        graded = dataclasses.replace(
            data,
            curve_components=(
                dataclasses.replace(data.curve_components[0], h2_class=(3,)),
                dataclasses.replace(data.curve_components[1], h2_class=(5,)),
            ),
        )
        mv = mv_matrices(validate_gluing(graded))
        assert mv.h2_map == IntegerMatrix.from_rows([[1, 1], [3, 5]])

    def test_component_level_map(self, x01):
        h0 = mv_matrices(x01).h0_map
        assert (h0.rows, h0.cols) == (2, 1)
        assert h0.entries == (1, 1)


class TestHomology:
    @pytest.mark.parametrize("label", ["X0.1", "X0.2"])
    def test_irregular_surfaces(self, label):
        h = homology_of_X(table_gluing(label))
        assert h.as_tuple() == (
            AbelianGroup(1), AbelianGroup(1), AbelianGroup(1),
            AbelianGroup(2), AbelianGroup(1),
        )

    def test_h1_matches_pi1_abelianization(self, x31):
        h = homology_of_X(x31)
        assert h.h1 == abelianization(pi1_presentation(x31))

    def test_top_and_bottom(self, x01):
        h = homology_of_X(x01)
        assert h.h4 == AbelianGroup(len(x01.normals))
        assert h.h0 == AbelianGroup(x01.x_component_count)

    def test_component_count_matches_h0_cokernel(self, x01):
        # exactness: H0 of the surface is the cokernel of the component map
        mv = mv_matrices(x01)
        assert cokernel_invariants(mv.h0_map).free_rank + snf(mv.h0_map).rank \
            == mv.h0_map.rows
        assert homology_of_X(x01).h0.free_rank \
            == mv.h0_map.rows - snf(mv.h0_map).rank

    def test_one_snf_per_level_map(self, monkeypatch):
        vg = table_gluing("X0.2")
        mv = mv_matrices(vg)
        seen = []
        for module in (topology, intlinalg):  # cokernel_invariants calls intlinalg.snf
            monkeypatch.setattr(module, "snf", lambda a: seen.append(a) or snf(a))
        homology_of_X(vg)
        assert seen == [mv.h2_map, mv.h1_map, mv.h0_map]

    def test_nontrivial_h1_rejected(self, x01):
        data = x01.data
        bad = dataclasses.replace(
            data,
            normal_components=tuple(
                dataclasses.replace(n, h1=AbelianGroup(0, (2,)))
                for n in data.normal_components
            ),
        )
        with pytest.raises(UnsupportedNormalHomologyError):
            homology_of_X(validate_gluing(bad))

    def test_invariant_under_point_reordering(self, x01):
        data = x01.data
        reordered = dataclasses.replace(
            data,
            curve_components=tuple(
                dataclasses.replace(c, marked_points=tuple(reversed(c.marked_points)))
                for c in data.curve_components
            ),
        )
        vg = validate_gluing(reordered)
        assert homology_of_X(vg).as_tuple() == homology_of_X(x01).as_tuple()
        assert abelianization(pi1_presentation(vg)) == abelianization(pi1_presentation(x01))
