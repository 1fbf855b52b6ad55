"""Cusp matrix, irregularity, K², invariant reports and the Picard summary."""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys

import pytest

from conftest import table_gluing, toy_pair
from gluesurf.errors import (
    GeometricGenusNonzeroError,
    MissingFieldError,
    NegativeResultError,
    NormalizationIrregularError,
    SurfaceNotConnectedError,
)
from gluesurf.gluing import (
    CurveComponent,
    GluingData,
    NormalComponent,
    per_gluing,
    validate_gluing,
)
from gluesurf.intlinalg import AbelianGroup, IntegerMatrix, snf
from gluesurf.invariants import (
    compute_report,
    cusp_matrix,
    irregularity,
    k_squared,
    picard_summary,
)


def alternating_sum_oracle(vg, cusp_points, plus, minus):
    """Evaluate the cusp functional by walking the orbit directly.

    Starts at the smallest point, alternates the two involutions, and sums
    signed values at every other step, independently of the r/s labelling
    code under test.
    """
    sigma, tau = vg.data.sigma, vg.data.tau_points

    def value(point):
        comp = vg.component_of(point)
        return 1 if comp == plus else -1 if comp == minus else 0

    start = min(cusp_points)
    total = 0
    cur = start
    while True:
        total += value(cur)        # an r-point
        cur = sigma[cur]
        total -= value(cur)        # its s-partner
        cur = tau[cur]
        if cur == start:
            return total


class TestCuspMatrix:
    def test_single_cusp_row(self, x01):
        m = cusp_matrix(x01)
        assert (m.rows, m.cols) == (1, 2)
        a, b = m.entries
        assert abs(a) == abs(b) == 2 and a == b

    def test_four_cusp_rows_against_walk_oracle(self, x31):
        m = cusp_matrix(x31)
        basis = x31.tau_pairs()
        assert basis == (("L1", "L2"), ("L3", "L4"))
        from gluesurf.gluing import cusps

        for i, cusp in enumerate(cusps(x31)):
            for j, (plus, minus) in enumerate(basis):
                assert m[i, j] == alternating_sum_oracle(x31, cusp.points, plus, minus)
        assert m.row_lists() == [[2, 0], [2, -2], [2, 2], [0, 2]]
        assert snf(m).rank == 2

    def test_irregular_normalization_rejected(self, x01):
        data = x01.data
        bad = dataclasses.replace(
            data,
            normal_components=tuple(
                dataclasses.replace(n, q=1) for n in data.normal_components
            ),
        )
        with pytest.raises(NormalizationIrregularError):
            cusp_matrix(validate_gluing(bad))

    def test_kernel_dimension_invariant_under_sign_flips(self, x31):
        m = cusp_matrix(x31)
        base_kernel = m.cols - snf(m).rank
        rows = m.row_lists()
        flipped_row = IntegerMatrix.from_rows(
            [[-x for x in rows[0]]] + rows[1:], cols=m.cols
        )
        flipped_col = IntegerMatrix.from_rows(
            [[-r[0]] + r[1:] for r in rows], cols=m.cols
        )
        for variant in (flipped_row, flipped_col):
            assert variant.cols - snf(variant).rank == base_kernel


class TestIrregularity:
    def test_single_cusp_gluings_are_irregular(self, x01, x02):
        assert irregularity(x01) == (1, 0)
        assert irregularity(x02) == (1, 0)

    def test_four_cusp_gluing_is_regular(self, x31):
        q, p_g = irregularity(x31)
        assert q == 0
        assert p_g == 2

    def test_disconnected_surface_rejected(self):
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
        assert vg.x_component_count == 2
        with pytest.raises(SurfaceNotConnectedError):
            irregularity(vg)

    def test_inconsistent_descriptor_rejected(self, x01):
        # a wildly wrong chi pushes p_g negative, which no surface attains
        lying = dataclasses.replace(
            x01.data,
            normal_components=(
                dataclasses.replace(x01.data.normal_components[0], chi_O=-5),
            ),
        )
        with pytest.raises(NegativeResultError):
            irregularity(validate_gluing(lying))


class TestKSquared:
    def test_plane_with_four_lines(self, x01):
        assert k_squared(x01) == 1

    def test_missing_descriptor(self):
        data = toy_pair(1, 0)
        bad = dataclasses.replace(
            data,
            normal_components=(
                dataclasses.replace(data.normal_components[0], k_plus_d_sq=None),
            ),
        )
        with pytest.raises(MissingFieldError):
            k_squared(validate_gluing(bad))

    def test_additive_over_components(self):
        # two surfaces glued to each other: nodes stay on one surface,
        # the involution crosses between them
        base1 = NormalComponent(id="base1", chi_O=1, k_plus_d_sq=1)
        base2 = NormalComponent(id="base2", chi_O=1, k_plus_d_sq=2)
        data = GluingData(
            normal_components=(base1, base2),
            curve_components=(
                CurveComponent("A1", "base1", 0, ("a1",), (1,)),
                CurveComponent("A2", "base1", 0, ("a2",), (1,)),
                CurveComponent("B1", "base2", 0, ("b1",), (1,)),
                CurveComponent("B2", "base2", 0, ("b2",), (1,)),
            ),
            sigma={"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1"},
            tau_components={"A1": "B1", "B1": "A1", "A2": "B2", "B2": "A2"},
            tau_points={"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"},
        )
        vg = validate_gluing(data)
        assert vg.x_component_count == 1
        assert k_squared(vg) == 3


class TestReportAndPicard:
    def test_report_consistency(self, x01):
        report = compute_report(x01)
        assert (report.chi, report.q, report.p_g, report.k_squared) == (0, 1, 0, 1)
        assert report.p_g == report.chi - 1 + report.q
        assert report.pi1_abelianization == report.homology.h1

    def test_picard_of_irregular_surface(self, x01):
        summary = picard_summary(compute_report(x01))
        assert summary.pic0_dim == 1
        assert summary.b1 == 1
        assert summary.structure == "C*"
        assert summary.ns_target == AbelianGroup(1)

    def test_picard_of_regular_surface(self):
        vg = validate_gluing(toy_pair(2, 1))
        summary = picard_summary(compute_report(vg))
        assert summary.pic0_dim == 0
        assert summary.structure == "1"
        # universal coefficients pick up the torsion of H1
        report = compute_report(vg)
        assert summary.ns_target == AbelianGroup(
            report.homology.h2.free_rank, report.homology.h1.torsion
        )

    def test_positive_genus_rejected(self, x31):
        with pytest.raises(GeometricGenusNonzeroError):
            picard_summary(compute_report(x31))

    def test_each_derived_structure_is_built_once_per_gluing(self, monkeypatch):
        # re-decorate each cached function around a counting body, at every
        # module that bound it, so calls that hit the cache are not counted
        runs = collections.Counter()

        def counting(body):
            @functools.wraps(body)
            def counted(*args):
                runs[(body.__name__, *(a for a in args if isinstance(a, str)))] += 1
                return body(*args)
            return counted

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gluesurf"]
        for home, name in (("gluing", "cusps"), ("gluing", "quotient_curve"),
                           ("gluing", "euler_characteristics"), ("topology", "homotopy_graph"),
                           ("topology", "_generator_images"), ("topology", "mv_matrices")):
            cached = getattr(sys.modules[f"gluesurf.{home}"], name)
            stub = per_gluing(counting(cached.__wrapped__))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is cached:
                        monkeypatch.setattr(module, attr, stub)

        once = {("cusps",): 1, ("quotient_curve",): 1, ("euler_characteristics",): 1,
                ("homotopy_graph", "D"): 1, ("homotopy_graph", "Dbar"): 1,
                ("_generator_images",): 1, ("mv_matrices",): 1}
        vg = table_gluing("X0.2")
        compute_report(vg)
        compute_report(vg)
        assert runs == once
        # the cache belongs to the gluing: a fresh one computes everything again
        compute_report(table_gluing("X0.2"))
        assert runs == {key: 2 for key in once}

    def test_mixed_rank_case_omits_structure(self, x01):
        report = compute_report(x01)
        hacked = dataclasses.replace(
            report,
            homology=dataclasses.replace(report.homology, h1=AbelianGroup(2)),
        )
        summary = picard_summary(hacked)
        assert summary.structure is None
        assert (summary.pic0_dim, summary.b1) == (1, 2)
