"""Cusp matrix, irregularity, K², invariant reports and the Picard summary."""

from __future__ import annotations

import collections
import functools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402
import workloads  # noqa: E402
from conftest import (  # noqa: E402
    cusp_matrix,
    entry,
    from_rows,
    joined_planes,
    replace,
    row_lists,
    table_gluing,
    toy_pair,
    two_planes,
)
from gluesurf import intlinalg, invariants, topology  # noqa: E402
from gluesurf.errors import (  # noqa: E402
    DbarDisconnectedError,
    GeometricGenusNonzeroError,
    MissingFieldError,
    NegativeResultError,
    NormalizationIrregularError,
    SurfaceNotConnectedError,
)
from gluesurf.fourlines import all_gluings, build_four_lines  # noqa: E402
from gluesurf.gluing import (  # noqa: E402
    CurveComponent,
    GluingData,
    NormalComponent,
    cusps,
    euler_characteristics,
    gluing_from_dict,
    per_gluing,
    validate_gluing,
)
from gluesurf.grouptheory import abelianization, catalog_group, default_catalog  # noqa: E402
from gluesurf.intlinalg import AbelianGroup, snf  # noqa: E402
from gluesurf.invariants import (  # noqa: E402
    compute_report,
    irregularity,
    k_squared,
    picard_summary,
)
from gluesurf.topology import cusp_relations, homology_of_X, pi1_presentation  # noqa: E402


def counting_stubs(monkeypatch, functions: tuple[tuple[str, str], ...]) -> collections.Counter:
    """The runs of each (module, function), keyed by the function's name
    and its string arguments.

    Each function is replaced by a counting one, at every module that
    bound it.  A cached function is decorated again around a counting body,
    so calls that hit the cache are not counted.
    """
    runs = collections.Counter()

    def counting(body):
        @functools.wraps(body)
        def counted(*args):
            runs[(body.__name__, *(a for a in args if isinstance(a, str)))] += 1
            return body(*args)
        return counted

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gluesurf"]
    for home, name in functions:
        original = getattr(sys.modules[f"gluesurf.{home}"], name)
        body = getattr(original, "__wrapped__", None)
        stub = per_gluing(counting(body)) if body else counting(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, stub)
    return runs


def alternating_sum_oracle(vg, cusp_points, plus, minus):
    """Evaluate the cusp functional by walking the orbit directly.

    Starts at the smallest point, alternates the two involutions, and sums
    signed values at every other step, independently of the r/s labelling
    code under test.
    """
    sigma, tau = vg.data.sigma, vg.data.tau_points

    def value(point):
        comp = vg.point_component[point]
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
        basis = x31.tau_pairs
        assert basis == (("L1", "L2"), ("L3", "L4"))
        for i, cusp in enumerate(cusps(x31)):
            for j, (plus, minus) in enumerate(basis):
                assert entry(m, i, j) == alternating_sum_oracle(x31, cusp.points, plus, minus)
        assert row_lists(m) == [[2, 0], [2, -2], [2, 2], [0, 2]]
        assert snf(m).rank == 2

    def test_irregular_normalization_rejected(self, x01):
        data = x01.data
        bad = replace(
            data,
            normal_components=tuple(
                replace(n, q=1) for n in data.normal_components
            ),
        )
        with pytest.raises(NormalizationIrregularError):
            irregularity(validate_gluing(bad))

    def test_kernel_dimension_invariant_under_sign_flips(self, x31):
        m = cusp_matrix(x31)
        base_kernel = m.cols - snf(m).rank
        rows = row_lists(m)
        flipped_row = from_rows(
            [[-x for x in rows[0]]] + rows[1:], cols=m.cols
        )
        flipped_col = from_rows(
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
        data = two_planes()
        vg = validate_gluing(data)
        assert vg.x_component_count == 2
        with pytest.raises(SurfaceNotConnectedError):
            irregularity(vg)

    def test_inconsistent_descriptor_rejected(self, x01):
        # a wildly wrong chi pushes p_g negative, which no surface attains
        lying = replace(
            x01.data,
            normal_components=(
                replace(x01.data.normal_components[0], chi_O=-5),
            ),
        )
        with pytest.raises(NegativeResultError):
            irregularity(validate_gluing(lying))

    def test_each_normal_component_beyond_the_first_lowers_q(self):
        # X is connected and D-bar is not: one cusp of mu = 2 joins the two
        # planes' nodes, and R = (-1, 1)^T leaves a kernel of C of dimension
        # 1, which the - m + 1 term cancels; the homology needs D-bar connected
        vg = validate_gluing(joined_planes())
        assert (vg.x_component_count, vg.dbar_connected) == (1, False)
        assert [c.mu for c in cusps(vg)] == [2]
        assert euler_characteristics(vg).chi_x == 1
        r = topology.cusp_relations(vg)
        assert r == from_rows([[-1], [1]])
        assert len(vg.tau_pairs) - snf(r).rank == 1
        assert irregularity(vg) == (0, 0)
        with pytest.raises(DbarDisconnectedError):
            homology_of_X(vg)


class TestKSquared:
    def test_plane_with_four_lines(self, x01):
        assert k_squared(x01) == 1

    def test_missing_descriptor(self):
        data = toy_pair(1, 0)
        bad = replace(
            data,
            normal_components=(
                replace(data.normal_components[0], k_plus_d_sq=None),
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
        assert report.homology.h1 == abelianization(report.pi1)

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
        runs = counting_stubs(monkeypatch, (
            ("gluing", "cusps"), ("gluing", "quotient_curve"),
            ("gluing", "euler_characteristics"), ("topology", "homotopy_graph"),
            ("topology", "_generator_images"), ("topology", "mv_matrices"),
            ("topology", "cusp_relations")))

        # the Euler numbers sum over the tau-pairs, so no stage builds the
        # quotient curve; the irregularity and the homology read one R
        once = {("cusps",): 1, ("euler_characteristics",): 1, ("cusp_relations",): 1,
                ("homotopy_graph", "D"): 1, ("homotopy_graph", "Dbar"): 1,
                ("_generator_images",): 1, ("mv_matrices",): 1}
        vg = table_gluing("X0.2")
        compute_report(vg)
        compute_report(vg)
        assert runs[("quotient_curve",)] == 0
        assert runs == once
        # the cache belongs to the gluing: a fresh one computes everything again
        compute_report(table_gluing("X0.2"))
        assert runs == {key: 2 for key in once}

    def test_homology_builds_no_graph_model(self, monkeypatch):
        # the homology reads the cusp sums; only pi1 walks the graph models
        runs = counting_stubs(monkeypatch, (
            ("topology", "homotopy_graph"), ("topology", "_generator_images"),
            ("topology", "mv_matrices")))
        vg = table_gluing("X0.2")
        homology_of_X(vg)
        assert runs == {("mv_matrices",): 1}
        pi1_presentation(vg)
        assert runs == {("mv_matrices",): 1, ("homotopy_graph", "D"): 1,
                        ("homotopy_graph", "Dbar"): 1, ("_generator_images",): 1}

    def test_report_abelianization_matches_the_raw_pi1(self):
        # with or without a catalog it is the report's H1, which is the raw
        # pi1's abelianization
        gluings = [build_four_lines(b) for b in all_gluings()]
        assert len(gluings) == 36
        gluings += [gluing_from_dict(nlines.random_n_lines(n, seed))
                    for n in (4, 6, 8) for seed in range(3)]
        for data in gluings:
            for catalog in (None, (catalog_group("C2"),)):
                vg = validate_gluing(data)
                report = compute_report(vg, catalog=catalog)
                assert report.homology.h1 == abelianization(pi1_presentation(vg))

    def test_fingerprint_shares_the_abelianization_smith_form(self, monkeypatch):
        # X0.2: the 2 x 1 tau-pairs x cusps matrix R, read once for q and
        # once for H1, which is pi1's abelianization too, and the
        # sphere-level map; no all-even cusp matrix is reduced.  R keeps its
        # divisors, so its second snf runs no elimination (see
        # test_each_report_reduces_r_once).  With a catalog the cyclic
        # counts add the 2 x 1 one of the simplified presentation, and the
        # 4 x 3 one of the raw presentation is not reduced
        shapes = []

        def counted(a, snf=snf):
            shapes.append((a.rows, a.cols))
            return snf(a)

        for module in (intlinalg, invariants, topology):
            monkeypatch.setattr(module, "snf", counted)
        compute_report(table_gluing("X0.2"))
        assert sorted(shapes) == [(2, 1), (2, 1), (3, 4)]
        shapes.clear()
        compute_report(table_gluing("X0.2"), catalog=default_catalog())
        assert sorted(shapes) == [(2, 1), (2, 1), (2, 1), (3, 4)]

    def test_each_report_reduces_r_once(self, monkeypatch):
        # the matrices the elimination loop runs on: R's second snf, from
        # homology_of_X, reads the divisors R kept from irregularity's
        reduced = []
        smith = intlinalg._smith
        monkeypatch.setattr(intlinalg, "_smith",
                            lambda a, transforms: reduced.append(a) or smith(a, transforms))
        compute_report(table_gluing("X0.2"))
        assert sorted((a.rows, a.cols) for a in reduced) == [(2, 1), (3, 4)]
        reduced.clear()
        compute_report(table_gluing("X0.2"), catalog=default_catalog())
        assert sorted((a.rows, a.cols) for a in reduced) == [(2, 1), (2, 1), (3, 4)]
        for index in range(3):
            reduced.clear()
            vg = validate_gluing(gluing_from_dict(workloads.homology_input(1, index)["doc"]))
            q, _ = irregularity(vg)
            h1 = homology_of_X(vg).h1
            r = cusp_relations(vg)
            assert [a is r for a in reduced] == [True, False]
            assert h1.free_rank == q == len(vg.tau_pairs) - snf(r).rank

    def test_only_pi1_sorts_the_nodes(self, monkeypatch):
        # the benchmark's homology op, on the gluings it validates
        loaded = []
        load = workloads._load
        monkeypatch.setattr(workloads, "_load", lambda text: loaded.append(load(text)) or loaded[-1])
        for index in range(3):
            workloads.homology_run(workloads.homology_input(1, index))
        assert len(loaded) == 3
        assert [vg for vg in loaded if "nodes" in vg._memo] == []
        pi1_presentation(loaded[0])
        assert "nodes" in loaded[0]._memo

    def test_mixed_rank_case_omits_structure(self, x01):
        report = compute_report(x01)
        hacked = replace(
            report,
            homology=replace(report.homology, h1=AbelianGroup(2)),
        )
        summary = picard_summary(hacked)
        assert summary.structure is None
        assert (summary.pic0_dim, summary.b1) == (1, 2)
