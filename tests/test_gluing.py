"""Gluing-data validation, cusp orbits, quotient curve, Euler characteristics."""

from __future__ import annotations


import pytest

from conftest import replace, table_element, table_gluing, toy_pair, two_planes
from gluesurf.errors import GluingFormatError, GluingValidationError
from gluesurf.fourlines import all_gluings, build_four_lines
from gluesurf.gluing import (
    CurveComponent,
    NormalComponent,
    cusps,
    euler_characteristics,
    gluing_from_dict,
    gluing_to_dict,
    node_id,
    quotient_curve,
    validate_gluing,
)
from gluesurf.intlinalg import AbelianGroup
from gluesurf.topology import homotopy_graph


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
        bad = replace(data, sigma=sigma)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == ("FixedMarkedPoint: sigma fixes P12",
                                    "FixedMarkedPoint: sigma fixes P21")

    def test_tau_across_wrong_component_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        tau = dict(data.tau_points)
        # reroute one point of L1 to L3 while the component map says L1 -> L2
        a, b = "P12", tau["P12"]
        c, d = "P31", tau["P31"]
        tau[a], tau[c] = c, a
        tau[b], tau[d] = d, b
        bad = replace(data, tau_points=tau)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == (
            "ComponentMismatch: tau(P12) = P31 lies on L3, expected L2",
            "ComponentMismatch: tau(P23) = P41 lies on L4, expected L1",
            "ComponentMismatch: tau(P31) = P12 lies on L1, expected L4",
            "ComponentMismatch: tau(P41) = P23 lies on L2, expected L3",
        )

    def test_non_involutive_tau_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        tau = dict(data.tau_points)
        tau["P12"] = "P21"  # P21 still points back at its old partner
        bad = replace(data, tau_points=tau)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == ("NonInvolutive: tau(tau(P12)) != P12",
                                    "NonInvolutive: tau(tau(P23)) != P23")

    def test_component_fixed_by_involution_rejected(self):
        data = toy_pair(2, 1)
        bad = replace(
            data,
            tau_components={"C1": "C1", "C2": "C2"},
        )
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == ("FixedComponent: involution fixes component C1",
                                    "FixedComponent: involution fixes component C2")

    def test_dangling_point_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        sigma = dict(data.sigma)
        sigma["P99"] = "P12"
        bad = replace(data, sigma=sigma)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == ("DanglingPoint: sigma defined on unknown point P99",)

    @pytest.mark.parametrize("h1", [AbelianGroup(2), AbelianGroup(0, (2,))])
    def test_simply_connected_with_nontrivial_h1_rejected(self, h1):
        data = build_four_lines(table_element("X0.1"))
        bad = replace(data, normal_components=tuple(
            replace(n, h1=h1) for n in data.normal_components))
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        shown = "Z^2" if h1.free_rank else "Z/2"
        assert err.value.issues == (
            f"InconsistentHomology: plane is simply connected but h1 = {shown}",)
        # without the simply connected claim the same h1 is valid input
        validate_gluing(replace(bad, normal_components=tuple(
            replace(n, simply_connected=False) for n in bad.normal_components)))

    def test_marked_point_without_node_partner_rejected(self):
        data = build_four_lines(table_element("X0.1"))
        sigma = dict(data.sigma)
        del sigma["P12"], sigma["P21"]
        bad = replace(data, sigma=sigma)
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == ("UnpairedPoint: P12 has no sigma-partner",
                                    "UnpairedPoint: P21 has no sigma-partner")

    def test_several_faults_in_one_gluing_are_each_listed_once(self):
        # a dangling sigma point, a non-involutive tau and an unpaired point
        data = build_four_lines(table_element("X0.1"))
        sigma, tau = dict(data.sigma), dict(data.tau_points)
        sigma["P99"] = "P12"
        del sigma["P13"], sigma["P31"]
        tau["P14"] = "P41"
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(replace(data, sigma=sigma, tau_points=tau))
        assert err.value.issues == (
            "DanglingPoint: sigma defined on unknown point P99",
            "NonInvolutive: tau(tau(P14)) != P14",
            "NonInvolutive: tau(tau(P24)) != P24",
            "UnpairedPoint: P13 has no sigma-partner",
            "UnpairedPoint: P31 has no sigma-partner",
        )

    def test_component_faults_are_each_listed_once(self):
        # two normal components share an id, so the second one's ranks are
        # the ones the curves are checked against
        data = toy_pair(3, 1)
        bad = replace(
            data,
            normal_components=data.normal_components + (NormalComponent(
                id="base", chi_O=1, q=-1, h1=AbelianGroup(1), h2_rank=-2),),
            curve_components=(
                CurveComponent("C1", "base", -1, ("x0", "x1", "x1"), (1, 0)),
                CurveComponent("C2", "nowhere", 0, ("y0", "y1", "y2"), (1,)),
                CurveComponent("C3", "base", 0, (), (1,)),
                CurveComponent("C4", "base", 0, ("x2",), (1,)),
            ),
            tau_components={"C1": "C2", "C2": "C1", "C3": "C5", "C4": "C4"},
        )
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == (
            "BadGenus: C1 has negative genus",
            "BadRank: base has h2_rank = -2",
            "BadRank: base has q = -1",
            "ComponentMismatch: C1 and C2 have different genus",
            "ComponentMismatch: C1 h2_class length 2 != ambient rank -2",
            "ComponentMismatch: C2 and C1 have different genus",
            "ComponentMismatch: C3 h2_class length 1 != ambient rank -2",
            "ComponentMismatch: C4 h2_class length 1 != ambient rank -2",
            "DanglingPoint: C2 lies on unknown component nowhere",
            "DanglingPoint: involution names unknown component C3 or C5",
            "DuplicateId: repeated normal component id",
            "DuplicatePoint: C1 repeats a marked point",
            "DuplicatePoint: x1 belongs to C1 and C1",
            "EmptyComponent: C3 has no marked points",
            "FixedComponent: involution fixes component C4",
            "InconsistentHomology: base is simply connected but h1 = Z",
        )

    def test_repeated_curve_id_and_unknown_tau_points_are_each_listed_once(self):
        data = toy_pair(2, 1)
        bad = replace(
            data,
            curve_components=data.curve_components + (
                CurveComponent("C2", "base", 0, ("z0",), (1,)),
                CurveComponent("C3", "base", 0, ("w0",), (1,))),
            sigma={**data.sigma, "z0": "w0", "w0": "z0"},
            tau_points={**data.tau_points, "q0": "q1", "q1": "q0"},
        )
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == (
            "ComponentMismatch: C1 and C2 have different point counts",
            "ComponentMismatch: C2 and C1 have different point counts",
            "ComponentMismatch: component C3 missing from the involution",
            "DanglingPoint: tau defined on unknown point q0",
            "DanglingPoint: tau defined on unknown point q1",
            "DuplicateId: repeated curve component id",
            "UnpairedPoint: w0 has no tau-partner",
            "UnpairedPoint: z0 has no tau-partner",
        )

    def test_faults_found_once_the_maps_are_sound_are_each_listed_once(self):
        # sigma joins the two planes and tau crosses the component map, and
        # each node is named from both of its points
        data = two_planes()
        bad = replace(
            data, sigma={"x0": "u0", "u0": "x0", "y0": "v0", "v0": "y0"},
            tau_points={"x0": "v0", "v0": "x0", "y0": "u0", "u0": "y0"})
        with pytest.raises(GluingValidationError) as err:
            validate_gluing(bad)
        assert err.value.issues == (
            "ComponentMismatch: node {u0,x0} joins curves on different normal components",
            "ComponentMismatch: node {v0,y0} joins curves on different normal components",
            "ComponentMismatch: node {x0,u0} joins curves on different normal components",
            "ComponentMismatch: node {y0,v0} joins curves on different normal components",
            "ComponentMismatch: tau(u0) = y0 lies on C2, expected C4",
            "ComponentMismatch: tau(v0) = x0 lies on C1, expected C3",
            "ComponentMismatch: tau(x0) = v0 lies on C4, expected C2",
            "ComponentMismatch: tau(y0) = u0 lies on C3, expected C1",
        )


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
        reordered = replace(
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
                assert len({frozenset((p, vg.data.tau_points[p])) for p in c.points}) == c.mu

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

    def test_chi_dbar_counts_half_of_sigma_as_nodes(self):
        # sigma pairs the marked points without a fixed point, so it holds each node twice
        for b in all_gluings():
            vg = validate_gluing(build_four_lines(b))
            chi_dbar = euler_characteristics(vg).chi_dbar
            assert chi_dbar == sum(1 - c.genus for c in vg.curves) - len(vg.nodes()) == -2

    def test_chi_d_matches_the_quotient_curve(self):
        # the quotient curve's components are the tau-pairs with their genus
        gluings = [build_four_lines(b) for b in all_gluings()]
        genus_one = toy_pair(2, 1)
        genus_one = replace(genus_one, curve_components=tuple(
            replace(c, genus=1) for c in genus_one.curve_components))
        gluings += [toy_pair(1, 0), toy_pair(2, 1), genus_one]
        for data in gluings:
            vg = validate_gluing(data)
            genus = quotient_curve(vg).component_genus
            assert euler_characteristics(vg).chi_d == sum(1 - gen for gen in genus) - sum(
                c.mu - 1 for c in cusps(vg))


class TestPerGluing:
    def test_a_missing_gluing_is_a_type_error(self):
        with pytest.raises(TypeError, match="ValidatedGluing"):
            cusps(None)
        with pytest.raises(TypeError, match="ValidatedGluing"):
            cusps()

    def test_the_gluing_is_the_last_argument(self, x01):
        with pytest.raises(TypeError, match="homotopy_graph"):
            homotopy_graph(x01, "D")

    def test_the_other_arguments_key_the_cache(self, x01):
        assert homotopy_graph("D", x01) is homotopy_graph("D", x01)
        assert homotopy_graph("D", x01) is not homotopy_graph("Dbar", x01)


class TestImmutability:
    def test_gluing_maps_are_read_only(self, x01):
        for mapping in (x01.data.sigma, x01.data.tau_points, x01.point_component):
            with pytest.raises(TypeError):
                mapping["P12"] = "P13"

    def test_maps_are_copies_of_the_input(self):
        data = toy_pair(2, 1)
        sigma = dict(data.sigma)
        copied = replace(data, sigma=sigma)
        sigma["x0"] = "x1"
        assert copied.sigma == data.sigma and copied.sigma["x0"] == "y0"


NORMAL = {"id": "p", "chi_O": 1}
CURVE = {"id": "L", "ambient": "p", "marked_points": ("a",)}


@pytest.mark.parametrize("cls, field, value, message", [
    *[(NormalComponent, field, value, f"{field} must be an integer, not {type(value).__name__}")
      for field in ("chi_O", "q", "h2_rank", "h4_rank", "k_plus_d_sq")
      for value in (1.5, True, "1")],
    *[(CurveComponent, "genus", value, f"genus must be an integer, not {type(value).__name__}")
      for value in (1.5, True, "1")],
    *[(CurveComponent, "h2_class", [value],
       f"h2_class entry must be an integer, not {type(value).__name__}")
      for value in (1.5, True, "1")],
    (NormalComponent, "id", 5, "id must be a str, not int"),
    (CurveComponent, "id", ["L"], "id must be a str, not list"),
    (CurveComponent, "ambient", 5, "ambient must be a str, not int"),
    (CurveComponent, "marked_points", ["a", 5], "marked_points entry must be a str, not int"),
    (CurveComponent, "marked_points", "ab", "marked_points must be a list or tuple, not str"),
    (NormalComponent, "simply_connected", 1, "simply_connected must be a bool, not int"),
    (NormalComponent, "simply_connected", "true", "simply_connected must be a bool, not str"),
    (NormalComponent, "h1", {"rank": 0}, "h1 must be an AbelianGroup, not dict"),
    (NormalComponent, "h3", 0, "h3 must be an AbelianGroup, not int"),
])
def test_a_field_of_the_wrong_type_is_named(cls, field, value, message):
    with pytest.raises(TypeError) as info:
        cls(**{**(NORMAL if cls is NormalComponent else CURVE), field: value})
    assert str(info.value) == message


class TestSerialization:
    def test_round_trip_preserves_validation(self, x01):
        doc = gluing_to_dict(x01.data)
        reparsed = validate_gluing(gluing_from_dict(doc))
        assert reparsed == x01
        assert cusps(reparsed) == cusps(x01)
        assert gluing_to_dict(reparsed.data) == doc

    def test_required_keys_alone_give_the_constructor_defaults(self):
        doc = {"normalization": [{"id": "p", "chi_O": 1}],
               "curve_components": [{"id": "L", "on": "p", "marked_points": ["a"]}],
               "node_pairing": [], "involution": {"components": [], "points": {}}}
        data = gluing_from_dict(doc)
        assert data.normal_components == (NormalComponent("p", 1),)
        assert data.curve_components == (CurveComponent("L", "p", marked_points=("a",)),)
        normal, = gluing_to_dict(data)["normalization"]
        trivial = {"rank": 0, "torsion": []}
        assert normal == {"id": "p", "chi_O": 1, "q": 0, "simply_connected": True,
                          "h1": trivial, "h2_rank": 1, "h3": trivial, "h4_rank": 1,
                          "k_plus_d_sq": None}
        assert gluing_to_dict(data)["curve_components"] == [
            {"id": "L", "on": "p", "genus": 0, "marked_points": ["a"], "h2_class": []}]

    def test_missing_key_rejected(self):
        with pytest.raises(GluingFormatError):
            gluing_from_dict({"normalization": []})

    def test_inconsistent_point_map_rejected(self, x01):
        doc = gluing_to_dict(x01.data)
        points = dict(doc["involution"]["points"])
        first = next(iter(points))
        points[points[first]] = first[:-1] + "9"
        doc["involution"]["points"] = points
        with pytest.raises(GluingFormatError,
                           match="^involution.points: P23 is paired with both P12 and P19$"):
            gluing_from_dict(doc)

    @pytest.mark.parametrize("pairs, message", [
        ([["P12", "P21"], ["P12", "P31"]], "P12 is paired with both P21 and P31"),
        ([["P12", "P21"], ["P31", "P21"]], "P21 is paired with both P12 and P31"),
        ([["P12", "P21"], ["P21", "P12"], ["P13", "P13"], ["P13", "P14"]],
         "P13 is paired with both P13 and P14"),
    ])
    def test_a_point_paired_twice_is_named(self, x01, pairs, message):
        doc = gluing_to_dict(x01.data)
        doc["node_pairing"] = pairs
        with pytest.raises(GluingFormatError, match=f"^node_pairing: {message}$"):
            gluing_from_dict(doc)
