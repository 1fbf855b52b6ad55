"""Gluing-data validation, cusp orbits, quotient curve, Euler characteristics."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import table_element, table_gluing, toy_pair, two_planes
from gluesurf.errors import GluingFormatError, GluingValidationError
from gluesurf.fourlines import all_gluings, build_four_lines
from gluesurf.gluing import (
    cusps,
    euler_characteristics,
    gluing_from_dict,
    gluing_to_dict,
    node_id,
    quotient_curve,
    validate_gluing,
)
from gluesurf.intlinalg import AbelianGroup


def orbit_partition_oracle(sigma, tau, points):
    """Brute-force closure of each point under both involutions."""
    remaining = set(points)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for img in (sigma[p], tau[p]):
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        remaining -= orbit
        orbits.append(frozenset(orbit))
    return set(orbits)


class TestValidation:
    def test_table_row_is_valid_and_connected(self, x01):
        assert x01.dbar_connected
        assert x01.x_component_count == 1

    def test_sigma_fixed_point_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        sigma = dict(data.sigma)
        sigma["P12"] = "P12"
        sigma["P21"] = "P21"
        bad = dataclasses.replace(data, sigma=sigma)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("FixedMarkedPoint") for issue in err.value.issues)

    def test_tau_across_wrong_component_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        tau = dict(data.tau_points)
        # reroute one point of L1 to L3 while the component map says L1 -> L2
        a, b = "P12", tau["P12"]
        c, d = "P31", tau["P31"]
        tau[a], tau[c] = c, a
        tau[b], tau[d] = d, b
        bad = dataclasses.replace(data, tau_points=tau)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("ComponentMismatch") for issue in err.value.issues)

    def test_non_involutive_tau_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        tau = dict(data.tau_points)
        tau["P12"] = "P21"  # P21 still points back at its old partner
        bad = dataclasses.replace(data, tau_points=tau)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("NonInvolutive") for issue in err.value.issues)

    def test_component_fixed_by_involution_rejected(self):
        data = toy_pair(2, 1)
        bad = dataclasses.replace(
            data,
            tau_components={"C1": "C1", "C2": "C2"},
        )
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("FixedComponent") for issue in err.value.issues)

    def test_dangling_point_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        sigma = dict(data.sigma)
        sigma["P99"] = "P12"
        bad = dataclasses.replace(data, sigma=sigma)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("DanglingPoint") for issue in err.value.issues)

    @pytest.mark.parametrize("h1", [AbelianGroup(2), AbelianGroup(0, (2,))])
    def test_simply_connected_with_nontrivial_h1_rejected(self, h1):
        data = build_four_lines(table_element("X0.1"))
        bad = dataclasses.replace(data, normal_components=tuple(
            dataclasses.replace(n, h1=h1) for n in data.normal_components))
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("InconsistentHomology") for issue in err.value.issues)
        # without the simply connected claim the same h1 is valid input
        validate_gluing(dataclasses.replace(bad, normal_components=tuple(
            dataclasses.replace(n, simply_connected=False) for n in bad.normal_components)))

    def test_marked_point_without_node_partner_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        sigma = dict(data.sigma)
        del sigma["P12"], sigma["P21"]
        bad = dataclasses.replace(data, sigma=sigma)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert any(issue.startswith("UnpairedPoint") for issue in err.value.issues)


class TestCusps:
    def test_single_six_node_cusp(self, x01):
        found = cusps(x01)
        assert len(found) == 1
        assert found[0].mu == 6
        assert {node_id(n) for n in found[0].nodes} == {
            "P12|P21", "P34|P43", "P13|P31", "P14|P41", "P23|P32", "P24|P42",
        }

    def test_four_cusp_row(self, x31):
        found = cusps(x31)
        assert [sorted(node_id(n) for n in c.nodes) for c in found] == [
            ["P12|P21"],
            ["P13|P31", "P24|P42"],
            ["P14|P41", "P23|P32"],
            ["P34|P43"],
        ]

    def test_matching_involutions_give_two_one_node_cusps(self):
        # sigma and tau agree on two points per curve: the orbit closure
        # oracle says each node is its own orbit
        vg = validate_gluing(toy_pair(2, 0))
        found = cusps(vg)
        assert [c.mu for c in found] == [1, 1]
        oracle = orbit_partition_oracle(vg.data.sigma, vg.data.tau_points, vg.points())
        assert {c.points for c in found} == oracle

    def test_single_node_pair_gives_one_cusp(self):
        vg = validate_gluing(toy_pair(1, 0))
        found = cusps(vg)
        assert len(found) == 1 and found[0].mu == 1

    @pytest.mark.parametrize("label", ["X0.1", "X2.1", "X1.5", "X3.1"])
    def test_orbits_match_brute_force_closure(self, label):
        vg = table_gluing(label)
        oracle = orbit_partition_oracle(vg.data.sigma, vg.data.tau_points, vg.points())
        assert {c.points for c in cusps(vg)} == oracle

    def test_cusp_cycle_structure(self, x01):
        (cusp,) = cusps(x01)
        sigma, tau = x01.data.sigma, x01.data.tau_points
        mu = cusp.mu
        for i in range(mu):
            assert sigma[cusp.r_cycle[i]] == cusp.s_cycle[i]
            assert tau[cusp.s_cycle[i]] == cusp.r_cycle[(i + 1) % mu]

    def test_point_counts(self, x31):
        found = cusps(x31)
        assert sum(2 * c.mu for c in found) == len(x31.points())
        assert sum(c.mu for c in found) == len(x31.nodes())

    def test_independent_of_input_ordering(self, x01):
        data = x01.data
        reordered = dataclasses.replace(
            data,
            curve_components=tuple(reversed(data.curve_components)),
            normal_components=tuple(data.normal_components),
            sigma=dict(reversed(list(data.sigma.items()))),
            tau_points=dict(reversed(list(data.tau_points.items()))),
        )
        assert cusps(validate_gluing(reordered)) == cusps(x01)


class TestQuotientCurve:
    def test_two_components_one_cusp(self, x01):
        model = quotient_curve(x01)
        assert x01.tau_pairs == (("L1", "L2"), ("L3", "L4"))
        # a cusp's 2·mu points fall into mu tau-orbits, one per preimage
        assert tuple(c.mu for c in cusps(x01)) == (6,)
        assert model.component_count == 1

    def test_preimage_counts_on_four_cusp_row(self, x31):
        model = quotient_curve(x31)
        assert tuple(c.mu for c in cusps(x31)) == (1, 2, 2, 1)
        assert model.component_count == 1

    def test_each_cusp_has_mu_preimages(self):
        # tau(s_i) = r_{i+1}: the 2·mu points of a cusp pair up into mu tau-orbits
        for b in all_gluings():
            vg = validate_gluing(build_four_lines(b))
            for c in cusps(vg):
                assert len({frozenset((p, vg.tau(p))) for p in c.points}) == c.mu

    def test_single_pair_single_node(self):
        vg = validate_gluing(toy_pair(1, 0))
        model = quotient_curve(vg)
        assert vg.tau_pairs == (("C1", "C2"),)
        assert model.component_count == 1

    def test_components_of_two_planes(self):
        vg = validate_gluing(two_planes())
        assert vg.dbar_components == (("C1", "C2"), ("C3", "C4"))
        assert vg.x_component_count == 2
        model = quotient_curve(vg)
        assert model.pair_component == (0, 1)
        assert model.component_count == 2


class TestEulerCharacteristics:
    def test_irregular_row_values(self, x01):
        assert euler_characteristics(x01) == (-2, -3, 0)

    def test_four_cusp_row_chi(self, x31):
        assert euler_characteristics(x31).chi_x == 3

    def test_formula_pieces_on_toy(self):
        vg = validate_gluing(toy_pair(1, 0))
        chi = euler_characteristics(vg)
        # two rational curves, one node upstairs; quotient has one
        # component and one unibranch gluing point
        assert chi.chi_dbar == 2 - 1
        assert chi.chi_d == 1 - 0
        assert chi.chi_x == 1 - chi.chi_dbar + chi.chi_d


class TestImmutability:
    def test_gluing_maps_are_read_only(self, x01):
        for mapping in (x01.data.sigma, x01.data.tau_points, x01.point_component):
            with pytest.raises(TypeError):
                mapping["P12"] = "P13"

    def test_maps_are_copies_of_the_input(self):
        data = toy_pair(2, 1)
        sigma = dict(data.sigma)
        copied = dataclasses.replace(data, sigma=sigma)
        sigma["x0"] = "x1"
        assert copied.sigma == data.sigma and copied.sigma["x0"] == "y0"


class TestSerialization:
    def test_round_trip_preserves_validation(self, x01):
        doc = gluing_to_dict(x01.data)
        reparsed = validate_gluing(gluing_from_dict(doc))
        assert reparsed == x01
        assert cusps(reparsed) == cusps(x01)
        assert gluing_to_dict(reparsed.data) == doc

    def test_missing_key_rejected(self):
        with pytest.raises(GluingFormatError):
            gluing_from_dict({"normalization": []})

    def test_inconsistent_point_map_rejected(self, x01):
        doc = gluing_to_dict(x01.data)
        points = dict(doc["involution"]["points"])
        first = next(iter(points))
        points[points[first]] = first[:-1] + "9"
        doc["involution"]["points"] = points
        with pytest.raises(GluingFormatError):
            gluing_from_dict(doc)
