"""Homotopy graphs, fundamental-group presentations, and homology of the glued surface."""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402
import oracles  # noqa: E402
from conftest import (  # noqa: E402
    curve_cycle,
    cusp_matrix,
    from_rows,
    node_matrix,
    replace,
    table_gluing,
    toy_pair,
    tree_word_map,
    two_planes,
)
from gluesurf.errors import (  # noqa: E402
    DbarDisconnectedError,
    GenusNotZeroError,
    NotSimplyConnectedError,
    UnsupportedNormalHomologyError,
)
from gluesurf.fourlines import all_gluings, build_four_lines  # noqa: E402
from gluesurf.gluing import (  # noqa: E402
    cusps,
    gluing_from_dict,
    gluing_to_dict,
    quotient_curve,
    validate_gluing,
)
from gluesurf.grouptheory import (  # noqa: E402
    abelianization,
    catalog_group,
    fingerprint,
    tietze_simplify,
    word_from_str,
    GroupPresentation,
)
from gluesurf import intlinalg, topology  # noqa: E402
from gluesurf.intlinalg import AbelianGroup, IntegerMatrix, cokernel_invariants, snf  # noqa: E402
from gluesurf.topology import (  # noqa: E402
    cusp_relations,
    homology_of_X,
    homotopy_graph,
    mv_matrices,
    pi1_presentation,
)

REFERENCE_FIRST = GroupPresentation(
    ("A", "B"), (word_from_str("A^-1 B^-1 A^2 B^2", ("A", "B")),)
)
REFERENCE_SECOND = GroupPresentation(
    ("A", "B"), (word_from_str("A B^-1 A^2 B^2", ("A", "B")),)
)


def _tree_count_holds(vg, side: str) -> bool:
    """Tree edges = vertices - components, with the components counted from
    the gluing rather than from the graph's own forest."""
    components = (len(vg.dbar_components) if side == "Dbar"
                  else quotient_curve(vg).component_count)
    g = homotopy_graph(side, vg)
    return len(g.edges) - len(g.generator_edges) == len(g.vertices) - components


def root_path(graph, vertex: int) -> list[tuple[int, int]]:
    """The tree steps from the BFS root of ``vertex``'s component to ``vertex``."""
    path = []
    while (step := graph.tree_step[vertex]) is not None:
        path.append(step)
        edge = graph.edges[step[0]]
        vertex = edge.u if step[1] == 1 else edge.v
    path.reverse()
    return path


def _least_vertex_of_component(g) -> list[int]:
    """Each vertex's least component mate, by label propagation over all edges."""
    least = list(range(len(g.vertices)))
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            low = min(least[e.u], least[e.v])
            if (least[e.u], least[e.v]) != (low, low):
                least[e.u] = least[e.v] = low
                changed = True
    return least


class TestHomotopyGraph:
    def test_normalized_conductor_graph(self, x01):
        g = homotopy_graph("Dbar", x01)
        assert len(g.vertices) == 6
        assert len(g.edges) == 8
        assert len(x01.dbar_components) == 1
        assert len(g.generator_edges) == 3
        assert _tree_count_holds(x01, "Dbar")

    def test_quotient_conductor_graph(self, x01):
        g = homotopy_graph("D", x01)
        assert len(g.vertices) == 1
        assert len(g.edges) == 4
        assert _tree_count_holds(x01, "D")
        assert len(g.generator_edges) == 4

    def test_unknown_side_rejected(self, x01):
        with pytest.raises(ValueError, match="side must be 'Dbar' or 'D', got 'd'"):
            homotopy_graph("d", x01)

    def test_b1_identity_everywhere(self, x01, x31):
        for vg in (x01, x31, validate_gluing(toy_pair(3, 1)), validate_gluing(two_planes())):
            for side in ("Dbar", "D"):
                assert _tree_count_holds(vg, side)

    def test_root_paths_walk_the_tree_from_each_component_root(self, x01, x31):
        for vg in (x01, x31, validate_gluing(toy_pair(3, 1)), validate_gluing(two_planes())):
            for side in ("Dbar", "D"):
                g = homotopy_graph(side, vg)
                generators = set(g.generator_edges)
                for v, start in enumerate(_least_vertex_of_component(g)):
                    at = start
                    for eidx, direction in root_path(g, v):
                        edge = g.edges[eidx]
                        assert eidx not in generators
                        assert at == (edge.u if direction == 1 else edge.v)
                        at = edge.v if direction == 1 else edge.u
                    assert at == v

    def test_deep_spanning_tree_stays_linear(self):
        # the normalized conductor is one cycle of 30000 nodes, so the tree
        # paths run 15000 deep; a whole path stored per vertex made this
        # quadratic (about 7 s and 2 GB)
        vg = validate_gluing(curve_cycle(30000))
        start = time.perf_counter()
        p = pi1_presentation(vg)
        assert time.perf_counter() - start < 3
        assert (len(p.generators), len(p.relators)) == (15000, 1)

    def test_single_node_pair(self):
        vg = validate_gluing(toy_pair(1, 0))
        g = homotopy_graph("Dbar", vg)
        assert (len(g.vertices), len(g.edges), len(g.generator_edges)) == (1, 0, 0)

    def test_genus_rejected(self):
        data = toy_pair(2, 1)
        curved = replace(
            data,
            curve_components=tuple(
                replace(c, genus=1) for c in data.curve_components
            ),
        )
        with pytest.raises(GenusNotZeroError):
            homotopy_graph("Dbar", validate_gluing(curved))


class TestPi1:
    def test_first_irregular_surface(self, x01):
        p = pi1_presentation(x01)
        assert len(p.generators) == 4
        assert len(p.relators) == 3
        assert snf(tree_word_map(x01)).divisors == (1, 1, 1)
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
        bad = replace(
            data,
            normal_components=tuple(
                replace(n, simply_connected=False)
                for n in data.normal_components
            ),
        )
        with pytest.raises(NotSimplyConnectedError):
            pi1_presentation(validate_gluing(bad))

    def test_disconnected_conductor_rejected(self):
        data = two_planes()
        vg = validate_gluing(data)
        assert not vg.dbar_connected
        with pytest.raises(DbarDisconnectedError):
            pi1_presentation(vg)


class TestMayerVietorisMatrices:
    def test_sphere_level_map_matches_line_classes(self, x01, x02):
        expected = from_rows(
            [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
        )
        assert mv_matrices(x01) == expected
        assert mv_matrices(x02) == expected

    def test_loop_level_map(self, x01):
        m = tree_word_map(x01)
        assert (m.rows, m.cols) == (4, 3)
        assert snf(m).divisors == (1, 1, 1)
        assert cokernel_invariants(m) == AbelianGroup(1)

    def test_node_map(self, x01):
        # the node matrix has one row per node and one column per quotient
        # edge; its cokernel is H1 = Z plus one Z for X0.1's single
        # degenerate cusp.  It reduces to R, one row per tau-pair and one
        # column per cusp, whose cokernel is H1
        m = node_matrix(x01.data)
        assert (m.rows, m.cols) == (6, 4)
        assert len(cusps(x01)) == 1
        assert snf(m).divisors == (1, 1, 1, 1)
        assert cokernel_invariants(m) == AbelianGroup(2)
        r = cusp_relations(x01)
        assert (r.rows, r.cols) == (2, 1)
        assert cokernel_invariants(r) == AbelianGroup(1)

    def test_single_pair_sphere_map_carries_classes(self):
        data = toy_pair(1, 0)
        graded = replace(
            data,
            curve_components=(
                replace(data.curve_components[0], h2_class=(3,)),
                replace(data.curve_components[1], h2_class=(5,)),
            ),
        )
        assert mv_matrices(validate_gluing(graded)) == from_rows([[1, 1], [3, 5]])


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

    def test_one_snf_per_level_map(self, monkeypatch):
        vg = table_gluing("X0.2")
        seen = []
        for module in (topology, intlinalg):  # cokernel_invariants calls intlinalg.snf
            monkeypatch.setattr(module, "snf", lambda a: seen.append(a) or snf(a))
        homology_of_X(vg)
        assert seen == [mv_matrices(vg), cusp_relations(vg)]

    def test_long_node_cycle_reads_no_dense_level_map(self, monkeypatch):
        # the sphere-level map is 2001 x 4000 with two entries per column;
        # built as dense rows with the quotient curve's pair clique, the
        # homology reached a 252 MB traced peak
        vg = validate_gluing(curve_cycle(4000))
        dense_reads = []  # row_lists reads entries too
        monkeypatch.setattr(IntegerMatrix, "entries", property(dense_reads.append))
        tracemalloc.start()
        try:
            h = homology_of_X(vg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not dense_reads
        assert peak < 30 * 10 ** 6
        assert (h.h1, h.h3) == (AbelianGroup(1999, (2,)), AbelianGroup(2000))

    def test_nontrivial_h1_rejected(self, x01):
        data = x01.data
        bad = replace(
            data,
            normal_components=tuple(
                replace(n, simply_connected=False, h1=AbelianGroup(0, (2,)))
                for n in data.normal_components
            ),
        )
        with pytest.raises(UnsupportedNormalHomologyError):
            homology_of_X(validate_gluing(bad))

    def test_invariant_under_point_reordering(self, x01):
        data = x01.data
        reordered = replace(
            data,
            curve_components=tuple(
                replace(c, marked_points=tuple(reversed(c.marked_points)))
                for c in data.curve_components
            ),
        )
        vg = validate_gluing(reordered)
        assert homology_of_X(vg).as_tuple() == homology_of_X(x01).as_tuple()
        assert abelianization(pi1_presentation(vg)) == abelianization(pi1_presentation(x01))


def oracle_gluings():
    yield from (build_four_lines(b) for b in all_gluings())
    yield from (toy_pair(3, 1), toy_pair(5, 2), curve_cycle(10), curve_cycle(300))
    for n in range(4, 25, 2):
        for seed in range(6):
            yield gluing_from_dict(nlines.random_n_lines(n, seed))


def test_h1_and_loop_kernel_match_the_node_matrix_oracle():
    # the oracle is built from the raw gluing; the homology reads the
    # tau-pairs x cusps matrix R of the validated one, and the tree-word
    # map is the graph-model route: all three give H1 and the loop-kernel rank
    checked = 0
    for data in oracle_gluings():
        vg = validate_gluing(data)
        oracle = snf(node_matrix(data))
        coker = oracle.cokernel
        cusp_count = oracles.cusp_count(gluing_to_dict(data))
        h1 = AbelianGroup(coker.free_rank - cusp_count, coker.torsion)
        r, loops = cusp_relations(vg), tree_word_map(vg)
        assert homology_of_X(vg).h1 == h1 == snf(loops).cokernel
        assert loops.cols - snf(loops).rank == oracle.matrix.cols - oracle.rank
        assert cusp_count - snf(r).rank == oracle.matrix.cols - oracle.rank
        checked += 1
    assert checked == 36 + 4 + 11 * 6


def test_cusp_map_is_minus_half_the_transposed_cusp_matrix():
    # the test-side cusp matrix C reads the r- and s-cycles, the package's
    # R sums f over the s-cycles alone; C's entries are even and R = -C^T / 2
    for data in oracle_gluings():
        vg = validate_gluing(data)
        c, r = cusp_matrix(vg), cusp_relations(vg)
        assert all(x % 2 == 0 for x in c.entries)
        assert r == from_rows([[-c[j, i] // 2 for j in range(c.rows)] for i in range(c.cols)],
                              cols=c.rows)


@pytest.mark.parametrize("build, shapes", [
    (lambda: gluing_from_dict(nlines.random_n_lines(96, 0)), [(49, 96), (48, 3)]),
    (lambda: curve_cycle(4000), [(2001, 4000), (2000, 1)]),
], ids=["lines96", "cycle4000"])
def test_homology_at_scale_reduces_no_matrix_with_a_row_per_node(monkeypatch, build, shapes):
    # a count that backs the clock: only the sphere-level map (a row per
    # tau-pair and normal H2 class) and R (a row per tau-pair, a column per
    # cusp) are reduced, never a matrix with a row per node
    vg = validate_gluing(build())
    seen = []
    for module in (topology, intlinalg):  # cokernel_invariants calls intlinalg.snf
        monkeypatch.setattr(module, "snf", lambda a: seen.append((a.rows, a.cols)) or snf(a))
    homology_of_X(vg)
    assert seen == shapes
    assert shapes[1] == (len(vg.tau_pairs), len(cusps(vg)))
    assert len(vg.nodes()) not in {rows for rows, _cols in seen}
