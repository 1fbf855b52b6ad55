"""Smith normal form, kernels and cokernels against independent oracles.

The oracle for the invariant factors is the classical determinantal one:
d_1 * ... * d_k equals the gcd of all k x k minors, which never touches
the reduction code under test.  ``dense_snf`` is the plain Euclidean
reduction of the whole matrix; ``snf`` is compared with it on the level
maps and cusp matrices of generated gluings.
"""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

import nlines  # noqa: E402
from conftest import (  # noqa: E402
    cusp_matrix,
    entry,
    from_rows,
    node_matrix,
    row_lists,
    tree_word_map,
)

from gluesurf import intlinalg  # noqa: E402
from gluesurf.gluing import gluing_from_dict, validate_gluing  # noqa: E402
from gluesurf.grouptheory import (  # noqa: E402
    abelianization,
    catalog_group,
    fingerprint,
    tietze_simplify,
)
from gluesurf.intlinalg import (  # noqa: E402
    AbelianGroup,
    IntegerMatrix,
    cokernel_invariants,
    snf,
)
from gluesurf.invariants import irregularity  # noqa: E402
from gluesurf.topology import (  # noqa: E402
    cusp_relations,
    homology_of_X,
    mv_matrices,
    pi1_presentation,
)

# matrices appearing in the homology computation of the two irregular surfaces
M1 = from_rows([[2, 0, 1], [0, -1, 1], [1, 0, 0], [0, 1, -2]])
M2 = from_rows([[-1, 2, 0], [0, 1, -1], [0, 1, 0], [2, 0, 1]])
N = from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination (independent oracle)."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = row_lists(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Matrix product, for checking U @ A @ V == S; zero entries of ``a`` are skipped."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    b_rows = row_lists(b)
    out = []
    for r in row_lists(a):
        acc = [0] * b.cols
        for k, x in enumerate(r):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_rows[k])]
        out.append(acc)
    return from_rows(out, cols=b.cols)


def dense_snf(a: IntegerMatrix) -> SimpleNamespace:
    """Smith normal form by Euclidean row/column reduction of the whole matrix (oracle),
    with the public names of ``SmithDecomposition``.

    The pivot at each step is driven down to the gcd of the remaining
    submatrix, which guarantees the divisibility chain.
    """
    nr, nc = a.rows, a.cols
    s = row_lists(a)
    u = row_lists(identity(nr))
    v = row_lists(identity(nc))

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        if q:
            srow, drow = s[src], s[dst]
            for k in range(nc):
                drow[k] += q * srow[k]
            srow, drow = u[src], u[dst]
            for k in range(nr):
                drow[k] += q * srow[k]

    def add_col(src, dst, q):
        if q:
            for row in s:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            restart = False
            for i in range(t + 1, nr):
                if s[i][t] == 0:
                    continue
                add_row(t, i, -(s[i][t] // s[t][t]))
                if s[i][t]:
                    # pivot does not divide: the remainder becomes the new pivot
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, nc):
                if s[t][j] == 0:
                    continue
                add_col(t, j, -(s[t][j] // s[t][t]))
                if s[t][j]:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if s[i][j] % s[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # pull the offending row up so the next pass shrinks the pivot to a gcd
            add_row(bad, t, 1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    divisors = tuple(s[i][i] for i in range(limit) if s[i][i] != 0)
    return SimpleNamespace(
        u=from_rows(u, cols=nr),
        s=from_rows(s, cols=nc),
        v=from_rows(v, cols=nc),
        divisors=divisors,
        rank=len(divisors),
    )


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, n, {i: {i: 1} for i in range(n)})


def zeros(rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(rows, cols, {})


def diagonal(rows: int, cols: int, divisors: tuple[int, ...]) -> IntegerMatrix:
    """The rows x cols matrix with ``divisors`` leading its diagonal and zeros elsewhere."""
    return IntegerMatrix(rows, cols, {t: {t: d} for t, d in enumerate(divisors)})


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Columns form a Z-basis of the right kernel {x : Ax = 0}: the last
    columns of the SNF's V, past the rank."""
    dec = snf(a)
    r = dec.rank
    v = row_lists(dec.v)
    return from_rows([row[r:] for row in v], cols=a.cols - r)


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """Direct sum, renormalized to invariant-factor form via the SNF of a diagonal matrix."""
    free = sum(g.free_rank for g in groups)
    factors = [d for g in groups for d in g.torsion]
    if not factors:
        return AbelianGroup(free)
    n = len(factors)
    diag = from_rows(
        [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    return AbelianGroup(free, tuple(d for d in snf(diag).divisors if d > 1))


def minors_gcd_divisors(m: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors (independent oracle)."""
    rows = row_lists(m)

    def minor(ris, cis) -> int:
        sub = from_rows(
            [[rows[i][j] for j in cis] for i in ris], cols=len(cis)
        )
        return determinant(sub)

    divisors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ris in itertools.combinations(range(m.rows), k):
            for cis in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, minor(ris, cis))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def rational_rank(m: IntegerMatrix) -> int:
    """Rank by fraction-exact Gaussian elimination (independent oracle)."""
    a = [[Fraction(x) for x in row] for row in row_lists(m)]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(m.rows):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def in_column_span_over_q(basis: IntegerMatrix, vec: list[int]) -> list[Fraction] | None:
    """Solve basis @ c = vec over the rationals; None if inconsistent."""
    rows = [[Fraction(x) for x in row] + [Fraction(v)]
            for row, v in zip(row_lists(basis), vec)]
    ncols = basis.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1]:
            return None
    sol = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        sol[c] = row[-1]
    return sol


class TestSmithNormalForm:
    def test_identity(self):
        assert snf(identity(3)).divisors == (1, 1, 1)

    def test_h1_level_matrix_full_column_rank(self):
        dec = snf(M1)
        assert dec.divisors == (1, 1, 1)
        assert dec.rank == M1.cols

    def test_sphere_level_matrix(self):
        dec = snf(N)
        assert dec.divisors == minors_gcd_divisors(N) == (1, 1)
        assert dec.rank == rational_rank(N) == 2

    @pytest.mark.parametrize("m", [M1, M2, N], ids=["M1", "M2", "N"])
    def test_reconstruction_and_oracles(self, m):
        for smith in (snf, dense_snf):
            dec = smith(m)
            assert dec.divisors == minors_gcd_divisors(m)
            assert dec.rank == rational_rank(m)
            assert matmul(matmul(dec.u, m), dec.v) == dec.s
            assert abs(determinant(dec.u)) == 1
            assert abs(determinant(dec.v)) == 1

    @pytest.mark.parametrize("rows, divisors", [
        # the unit pivot clears its row and column and leaves [[2, 0], [0, 3]],
        # whose Smith form is diag(1, 6)
        ([[1, 2, 3], [2, 6, 6], [3, 6, 12]], (1, 1, 6)),
        # 2 and a coprime entry in its row, or in its column, make a unit
        ([[2, 3]], (1,)),
        ([[2], [3]], (1,)),
        # 4 has no coprime partner: paired with a 6 it leaves gcd 2, which divides
        ([[4, 6], [6, 4]], (2, 10)),
        # 4 and 6 break the divisibility chain: (gcd, lcm) at the end
        ([[4, 0], [0, 6]], (2, 12)),
        # the pivot 2 divides its row and column, and clearing them leaves a unit
        ([[2, 2], [2, 3]], (1, 2)),
    ], ids=["unit-then-block", "row-chain", "column-chain", "non-coprime-pair",
            "divisibility-fix", "unit-after-non-unit"])
    def test_block_left_without_unit_entries(self, rows, divisors):
        m = from_rows(rows)
        dec = snf(m)
        assert dec.divisors == minors_gcd_divisors(m) == divisors
        assert dec.s == diagonal(m.rows, m.cols, divisors)
        assert matmul(matmul(dec.u, m), dec.v) == dec.s
        assert abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1


class TestKernel:
    def test_sphere_level_kernel(self):
        k = kernel_basis(N)
        assert k.cols == 2
        for j in range(k.cols):
            col = [entry(k, i, j) for i in range(k.rows)]
            assert all(
                sum(entry(N, i, t) * col[t] for t in range(N.cols)) == 0
                for i in range(N.rows)
            )
        # e1 - e2 and e3 - e4 lie in the integer span of the basis
        for vec in ([1, -1, 0, 0], [0, 0, 1, -1]):
            coeffs = in_column_span_over_q(k, vec)
            assert coeffs is not None
            assert all(c.denominator == 1 for c in coeffs)

    def test_invertible_matrix_has_no_kernel(self):
        assert kernel_basis(identity(2)).cols == 0

    def test_zero_matrix_kernel_is_everything(self):
        k = kernel_basis(zeros(2, 3))
        assert k.cols == 3
        assert abs(determinant(k)) == 1

    def test_tall_kernel_empty_on_empty_columns(self):
        assert kernel_basis(zeros(4, 0)).cols == 0


class TestCokernel:
    def test_h1_level_cokernel_is_free_of_rank_one(self):
        assert cokernel_invariants(M1) == AbelianGroup(1)
        assert cokernel_invariants(M2) == AbelianGroup(1)

    def test_single_even_entry(self):
        assert cokernel_invariants(from_rows([[2]])) == AbelianGroup(0, (2,))

    def test_sphere_level_cokernel(self):
        assert cokernel_invariants(N) == AbelianGroup(N.rows - rational_rank(N))


class TestAbelianGroup:
    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))

    def test_direct_sum_renormalizes(self):
        assert direct_sum(AbelianGroup(1, (2,)), AbelianGroup(0, (3,))) == AbelianGroup(1, (6,))

    def test_str(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(2, (3,))) == "Z^2 + Z/3"

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_non_integer_rank_or_torsion_rejected(self, value):
        with pytest.raises(TypeError, match="rank must be an integer"):
            AbelianGroup(value)
        with pytest.raises(TypeError, match="torsion must be an integer"):
            AbelianGroup(0, (value,))

    def test_list_torsion_is_stored_as_a_tuple(self):
        group = AbelianGroup(0, [2, 4])
        assert group.torsion == (2, 4)
        assert group == AbelianGroup(0, (2, 4))
        assert hash(group) == hash(AbelianGroup(0, (2, 4)))


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
).map(from_rows)


# No entry is a unit, so ``snf`` starts without a unit pivot and must pair
# entries or divide exactly; the shapes include 0 x k, k x 0 and all-zero.
unitless_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6)), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: from_rows(rows, cols=c))
    )
) | st.builds(zeros, st.integers(0, 4), st.integers(0, 4))


# Up to 7 x 7 and mostly zero, with units among other entries: ``snf``
# takes several unit pivots, moving rows and columns between count buckets,
# and often is left with a block that has no unit entry.
sparse_matrices = st.integers(0, 7).flatmap(
    lambda r: st.integers(0, 7).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6)),
                     min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: from_rows(rows, cols=c))
    )
)


@settings(max_examples=250, deadline=None)
@given(small_matrices | unitless_matrices | sparse_matrices)
def test_snf_properties(m):
    for smith in (snf, dense_snf):
        dec = smith(m)
        # the divisors before any transform: snf's pass without U and V
        for a, b in zip(dec.divisors, dec.divisors[1:]):
            assert a >= 1 and b % a == 0
        assert dec.divisors == minors_gcd_divisors(m)
        assert dec.s == diagonal(m.rows, m.cols, dec.divisors)
        assert matmul(matmul(dec.u, m), dec.v) == dec.s
        assert abs(determinant(dec.u)) == 1
        assert abs(determinant(dec.v)) == 1
    assert dec.rank + kernel_basis(m).cols == m.cols
    assert cokernel_invariants(m).free_rank == m.rows - dec.rank


def generated_matrices(n: int, seed: int) -> dict[str, IntegerMatrix]:
    """The sphere-level map, the tau-pairs x cusps matrix, the cusp matrix and
    the node matrix of the plane glued along n random lines, and "h1", the
    tree-word loop-level map."""
    g = validate_gluing(gluing_from_dict(nlines.random_n_lines(n, seed)))
    return {"h2": mv_matrices(g), "h1": tree_word_map(g), "cusp": cusp_matrix(g),
            "relations": cusp_relations(g), "node": node_matrix(g.data)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_snf_matches_dense_oracle_on_generated_gluings(n, seed):
    for name, m in generated_matrices(n, seed).items():
        dec = snf(m)
        # read before any transform, so the pass without U and V meets the oracle
        assert dec.divisors == dense_snf(m).divisors, name
        assert dec.s == diagonal(m.rows, m.cols, dec.divisors), name
        assert matmul(dec.u, matmul(m, dec.v)) == dec.s, name
        if n <= 8:
            assert abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1, name


def test_callers_read_no_transform_and_one_pass_builds_them(monkeypatch):
    passes = []  # the transforms flag of each elimination pass
    smith = intlinalg._smith
    monkeypatch.setattr(intlinalg, "_smith",
                        lambda a, transforms: passes.append(transforms) or smith(a, transforms))
    for seed in (0, 1, 2):
        g = validate_gluing(gluing_from_dict(nlines.random_n_lines(8, seed)))
        homology_of_X(g)
        irregularity(g)
        p = pi1_presentation(g)
        abelianization(p)
        fingerprint(tietze_simplify(p), (catalog_group("C6"),))
    assert passes and not any(passes)
    passes.clear()
    m = generated_matrices(8, 0)["h1"]
    dec = snf(m)
    assert (dec.u.rows, dec.v.cols, dec.s.rows) == (m.rows, m.cols, m.rows)
    assert passes == [False, True]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snf_entries_stay_small_on_generated_gluings(seed):
    # Entries of U, S and V stay below 128 bits at n = 32 (the largest is
    # 102, on the tree-word map at seed 2; 48 on the node map).  Pairing the
    # pivot with the smallest entry it does not divide, rather than with a
    # coprime one first, took them to 195 bits at seed 2.
    for name, m in generated_matrices(32, seed).items():
        dec = snf(m)
        bits = max((abs(x).bit_length() for t in (dec.u, dec.s, dec.v) for x in t.entries),
                   default=0)
        assert bits < 128, name


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [16, 24, 32])
def test_no_unit_stage_operands_stay_small_on_generated_gluings(monkeypatch, n, seed):
    # Once no unit pivot is left, the working entries meet in the 2 x 2
    # unimodular steps; on these tree-word maps they reach 77 bits, and 75
    # at n = 48.  The node map takes none at n = 24, seed 1.
    bits = []
    unimodular = intlinalg._unimodular

    def recorded(a, b):
        bits.append(max(abs(a), abs(b)).bit_length())
        return unimodular(a, b)

    monkeypatch.setattr(intlinalg, "_unimodular", recorded)
    snf(tree_word_map(validate_gluing(gluing_from_dict(nlines.random_n_lines(n, seed)))))
    assert bits and max(bits) < 128


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_node_map_entries_stay_small_at_scale(monkeypatch, seed):
    # The node maps of 48 lines are 1128 x 1104.  Each takes 14 to 18
    # unimodular steps, whose operands reach 62 bits, and the entries of
    # U, S and V reach 89 bits.  The tree-word maps' entries reach 117
    # bits, and reached 162 at seed 0 when the unit search read every
    # sparsest column.
    bits = []
    unimodular = intlinalg._unimodular

    def recorded(a, b):
        bits.append(max(abs(a), abs(b)).bit_length())
        return unimodular(a, b)

    monkeypatch.setattr(intlinalg, "_unimodular", recorded)
    g = validate_gluing(gluing_from_dict(nlines.random_n_lines(48, seed)))
    dec = snf(node_matrix(g.data))
    assert bits and max(bits) < 128
    entries = max(abs(x).bit_length() for t in (dec.u, dec.s, dec.v) for x in t.entries)
    assert entries < 128


@settings(max_examples=60, deadline=None)
@given(small_matrices | sparse_matrices, st.randoms(use_true_random=False))
def test_snf_invariant_under_permutation(m, rng):
    rows = row_lists(m)
    rng.shuffle(rows)
    cols = list(range(m.cols))
    rng.shuffle(cols)
    shuffled = from_rows([[row[j] for j in cols] for row in rows],
                                       cols=m.cols)
    assert snf(shuffled).divisors == snf(m).divisors


def as_sparse(m: IntegerMatrix) -> IntegerMatrix:
    """``m`` built again from its cells by the constructor, zeros included."""
    return IntegerMatrix(m.rows, m.cols,
                         {i: dict(enumerate(row)) for i, row in enumerate(row_lists(m))})


@settings(max_examples=60, deadline=None)
@given(small_matrices | unitless_matrices | sparse_matrices)
def test_sparse_and_dense_builds_are_one_value(m):
    sparse = as_sparse(m)
    assert sparse == m and hash(sparse) == hash(m)
    assert sparse.entries == m.entries and row_lists(sparse) == row_lists(m)
    assert from_rows(row_lists(m), cols=m.cols) == m
    assert all(entry(sparse, i, j) == entry(m, i, j) for i in range(m.rows) for j in range(m.cols))
    assert snf(sparse).divisors == snf(m).divisors
    # m is reduced now and keeps its divisors, which equality, hashing and
    # the repr do not read, and which a copy or a pickle carries
    fresh = as_sparse(m)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == fresh and hash(twin) == hash(fresh)
        assert snf(twin).divisors == snf(fresh).divisors == snf(m).divisors


class TestIntegerMatrix:
    def test_sparse_drops_zeros_and_empty_rows(self):
        m = IntegerMatrix(3, 2, {0: {1: 0}, 2: {0: 4, 1: 0}, 1: {}})
        assert m == from_rows([[0, 0], [0, 0], [4, 0]])
        assert m != from_rows([[0, 0], [0, 0], [0, 4]])
        assert m != IntegerMatrix(4, 2, {2: {0: 4}})
        assert repr(m) == "IntegerMatrix(3, 2, {2: {0: 4}})"

    @pytest.mark.parametrize("nonzero", [{3: {0: 1}}, {-1: {0: 1}}, {0: {2: 1}}, {0: {-1: 1}}])
    def test_sparse_rejects_an_entry_outside_the_shape(self, nonzero):
        with pytest.raises(IndexError):
            IntegerMatrix(3, 2, nonzero)

    @pytest.mark.parametrize("bad", [True, False, 1.7, 1.5, 0.0, "1"])
    @pytest.mark.parametrize("build", [
        lambda x: IntegerMatrix(2, 2, {0: {0: 1}, 1: {1: x}}),
        lambda x: from_rows([[1, 0], [0, x]]),
    ], ids=["constructor", "from_rows"])
    def test_rejects_an_entry_that_is_not_an_int(self, build, bad):
        with pytest.raises(TypeError):
            snf(build(bad))

    @pytest.mark.parametrize("build, error", [
        (lambda: IntegerMatrix(2.0, 2, {}), TypeError),
        (lambda: IntegerMatrix(2, True, {}), TypeError),
        (lambda: IntegerMatrix(-1, 2, {}), ValueError),
        (lambda: IntegerMatrix(2, -1, {}), ValueError),
        (lambda: from_rows([], cols=2.0), TypeError),
        (lambda: from_rows([], cols=-1), ValueError),
    ])
    def test_rejects_a_bad_shape(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("nonzero", [
        {0.5: {0: 1}}, {0.0: {True: 1}}, {0: {True: 1}}, {0: {1.0: 1}}])
    def test_rejects_an_index_that_is_not_an_int(self, nonzero):
        # 0 <= 0.5 < 2 held, and {0.0: {True: 1}} was read as {0: {1: 1}}
        with pytest.raises(TypeError):
            IntegerMatrix(2, 2, nonzero)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            M1.rows = 5

    def test_zero_rows_add_only_free_rank(self):
        # 10^9 rows, two of them with entries: only those are stored or reduced
        m = IntegerMatrix(10 ** 9, 3, {7: {0: 2, 1: 4}, 10 ** 9 - 1: {1: 1, 2: 1}})
        assert snf(m).divisors == (1, 2)
        assert snf(m).cokernel == AbelianGroup(10 ** 9 - 2, (2,))
        padded = from_rows(row_lists(M1) + [[0] * M1.cols] * 5)
        assert snf(padded).cokernel == AbelianGroup(cokernel_invariants(M1).free_rank + 5)
