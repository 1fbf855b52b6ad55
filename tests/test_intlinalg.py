"""Smith normal form, kernels and cokernels against independent oracles.

The oracle for the invariant factors is the classical determinantal one:
d_1 * ... * d_k equals the gcd of all k x k minors, which never touches
the reduction code under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluesurf.intlinalg import (
    AbelianGroup,
    IntegerMatrix,
    cokernel_invariants,
    kernel_basis,
    snf,
)

# matrices appearing in the homology computation of the two irregular surfaces
M1 = IntegerMatrix.from_rows([[2, 0, 1], [0, -1, 1], [1, 0, 0], [0, 1, -2]])
M2 = IntegerMatrix.from_rows([[-1, 2, 0], [0, 1, -1], [0, 1, 0], [2, 0, 1]])
N = IntegerMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination (independent oracle)."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.row_lists()
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


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """Direct sum, renormalized to invariant-factor form via the SNF of a diagonal matrix."""
    free = sum(g.free_rank for g in groups)
    factors = [d for g in groups for d in g.torsion]
    if not factors:
        return AbelianGroup(free)
    n = len(factors)
    diag = IntegerMatrix.from_rows(
        [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    return AbelianGroup(free, tuple(d for d in snf(diag).divisors if d > 1))


def minors_gcd_divisors(m: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors (independent oracle)."""
    rows = m.row_lists()

    def minor(ris, cis) -> int:
        sub = IntegerMatrix.from_rows(
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
    a = [[Fraction(x) for x in row] for row in m.row_lists()]
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
            for row, v in zip(basis.row_lists(), vec)]
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
        assert snf(IntegerMatrix.identity(3)).divisors == (1, 1, 1)

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
        dec = snf(m)
        assert dec.u @ m @ dec.v == dec.s
        assert abs(determinant(dec.u)) == 1
        assert abs(determinant(dec.v)) == 1
        assert dec.divisors == minors_gcd_divisors(m)
        assert dec.rank == rational_rank(m)


class TestKernel:
    def test_sphere_level_kernel(self):
        k = kernel_basis(N)
        assert k.cols == 2
        for j in range(k.cols):
            col = [k[i, j] for i in range(k.rows)]
            assert all(
                sum(N[i, t] * col[t] for t in range(N.cols)) == 0
                for i in range(N.rows)
            )
        # e1 - e2 and e3 - e4 lie in the integer span of the basis
        for vec in ([1, -1, 0, 0], [0, 0, 1, -1]):
            coeffs = in_column_span_over_q(k, vec)
            assert coeffs is not None
            assert all(c.denominator == 1 for c in coeffs)

    def test_invertible_matrix_has_no_kernel(self):
        assert kernel_basis(IntegerMatrix.identity(2)).cols == 0

    def test_zero_matrix_kernel_is_everything(self):
        k = kernel_basis(IntegerMatrix.zeros(2, 3))
        assert k.cols == 3
        assert abs(determinant(k)) == 1

    def test_tall_kernel_empty_on_empty_columns(self):
        assert kernel_basis(IntegerMatrix.zeros(4, 0)).cols == 0


class TestCokernel:
    def test_h1_level_cokernel_is_free_of_rank_one(self):
        assert cokernel_invariants(M1) == AbelianGroup(1)
        assert cokernel_invariants(M2) == AbelianGroup(1)

    def test_single_even_entry(self):
        assert cokernel_invariants(IntegerMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))

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


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
).map(IntegerMatrix.from_rows)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_properties(m):
    dec = snf(m)
    assert dec.u @ m @ dec.v == dec.s
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    for a, b in zip(dec.divisors, dec.divisors[1:]):
        assert a >= 1 and b % a == 0
    assert dec.divisors == minors_gcd_divisors(m)
    assert dec.rank + kernel_basis(m).cols == m.cols
    assert cokernel_invariants(m).free_rank == m.rows - dec.rank


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_snf_invariant_under_permutation(m, rng):
    rows = m.row_lists()
    rng.shuffle(rows)
    cols = list(range(m.cols))
    rng.shuffle(cols)
    shuffled = IntegerMatrix.from_rows([[row[j] for j in cols] for row in rows],
                                       cols=m.cols)
    assert snf(shuffled).divisors == snf(m).divisors
