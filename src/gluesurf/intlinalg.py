"""Exact integer linear algebra: Smith normal form with transforms, cokernels.

Everything runs on Python's arbitrary-precision integers.  Intermediate
entries of a Smith reduction can outgrow any fixed-width type even for
small matrices, so no floating point or fixed-width shortcuts anywhere.
The level maps of the plane glued along 16 lines are about 110 x 105,
about 8% nonzero, and almost every pivot is +-1.  So ``snf`` first
eliminates unit pivots on sparse rows in Markowitz order (Markowitz 1957;
Havas, Holt and Rees, *Recognizing badly presented Z-modules*, 1993) and
runs a dense Euclidean reduction only on the block without a unit entry
that is left.  Both transforms are kept.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from typing import Sequence


def _int(value, where: str) -> int:
    """``value`` if it is an integer; a bool, float or string is rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{where} must be an integer, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` is the chain d1 | d2 | ... of invariant factors, each >= 2.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} violates the divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_dict(cls, d: dict) -> "AbelianGroup":
        return cls(_int(d["rank"], "rank"), tuple(_int(t, "torsion") for t in d.get("torsion", ())))


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        if any(len(r) != width for r in rows):
            raise ValueError("rows have unequal lengths")
        return cls(len(rows), width, tuple(int(x) for r in rows for x in r))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.row_lists())


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular and S diagonal.

    ``divisors`` are the nonzero diagonal entries of S, positive and
    forming a divisibility chain; their count is the rank of A.
    """

    u: IntegerMatrix
    s: IntegerMatrix
    v: IntegerMatrix
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def cokernel(self) -> AbelianGroup:
        """Invariant factors of Z^rows / (column span of A)."""
        return AbelianGroup(self.s.rows - self.rank, tuple(d for d in self.divisors if d > 1))


def _euclidean(s: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Reduce the dense rows ``s`` in place to Smith form; return U and V with U @ s0 @ V == s.

    The pivot at each step is the smallest entry left, or a unit made from
    it and a coprime entry in its row or column.  It is driven down to the
    gcd of the remaining submatrix, which guarantees the divisibility
    chain; the nonzero diagonal entries come first.
    """
    nr = len(s)
    nc = len(s[0]) if s else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

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
        i, j = pivot
        if abs(s[i][j]) != 1:
            # No unit is left.  A Euclidean chain between the pivot and the
            # smallest entry coprime to it in its row or column makes one;
            # pivoting on that keeps the entries from doubling, as they do
            # when every row is reduced by a larger pivot.
            partners = [(abs(s[i][k]), True, k) for k in range(t, nc) if gcd(s[i][j], s[i][k]) == 1]
            partners += [(abs(s[k][j]), False, k) for k in range(t, nr) if gcd(s[i][j], s[k][j]) == 1]
            if partners:
                _, in_row, y = min(partners)
                if in_row:
                    x = j
                    while s[i][y]:
                        add_col(y, x, -(s[i][x] // s[i][y]))
                        x, y = y, x
                    pivot = (i, x)
                else:
                    x = i
                    while s[y][j]:
                        add_row(y, x, -(s[x][j] // s[y][j]))
                        x, y = y, x
                    pivot = (x, j)
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
    return u, v


def _sub(dst: dict[int, int], f: int, src: dict[int, int]) -> None:
    """dst -= f * src for sparse vectors, in place; zero entries are dropped."""
    for k, x in src.items():
        y = dst.get(k, 0) - f * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _combine(coeffs: list[int], vectors: list[dict[int, int]]) -> dict[int, int]:
    """The sparse vector sum of coeffs[k] * vectors[k]."""
    out: dict[int, int] = {}
    for c, vec in zip(coeffs, vectors):
        if c:
            for k, x in vec.items():
                out[k] = out.get(k, 0) + c * x
    return out


def _dense(n: int, vectors: list[dict[int, int]], columns: bool = False) -> IntegerMatrix:
    """The n x n matrix whose rows, or with ``columns`` whose columns, are ``vectors``."""
    entries = [0] * (n * n)
    outer, inner = (1, n) if columns else (n, 1)
    for r, vec in enumerate(vectors):
        for k, x in vec.items():
            entries[r * outer + k * inner] = x
    return IntegerMatrix(n, n, tuple(entries))


def snf(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms, in two phases.

    Phase 1 works on sparse rows.  While a +-1 entry is left it takes the
    one of least Markowitz cost (row nonzeros - 1) * (column nonzeros - 1),
    clears its column with row operations and then drops its row and
    column: the column operations that would clear the row change only V.
    U is kept as sparse rows and V as sparse columns, and the rows and
    columns are bucketed by nonzero count so a pivot is found without
    rescanning the matrix.  Phase 2 runs the Euclidean reduction on the
    block that is left, which has no unit entry and is small for the level
    maps, and composes its transforms into the block's rows of U and
    columns of V.  S is diag(1, ..., 1, block divisors, 0, ...).
    """
    nr, nc = a.rows, a.cols
    # row i: {column: nonzero entry}; column j: the rows nonzero in it
    rows = [{j: x for j, x in enumerate(a.entries[i * nc:(i + 1) * nc]) if x} for i in range(nr)]
    cols: list[set[int]] = [set() for _ in range(nc)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    u = [{i: 1} for i in range(nr)]  # rows of U
    v = [{j: 1} for j in range(nc)]  # columns of V

    # Markowitz's search: once the rows and columns with at most k nonzeros
    # are searched, every entry left costs at least k * k, so it stops there.
    # A step moves only the rows and columns whose count it changes.
    row_at: defaultdict[int, set[int]] = defaultdict(set)
    col_at: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        row_at[len(row)].add(i)
    for j, col in enumerate(cols):
        col_at[len(col)].add(j)

    def pivot():
        best = None
        for k in range(1, max(nr, nc) + 1):
            for i in row_at.get(k, ()):
                for j, x in rows[i].items():
                    if x == 1 or x == -1:
                        cost = (k - 1) * (len(cols[j]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, i, j)
            if best is not None and best[0] <= k * (k - 1):
                break
            for j in col_at.get(k, ()):
                for i in cols[j]:
                    x = rows[i][j]
                    if x == 1 or x == -1:
                        cost = (len(rows[i]) - 1) * (k - 1)
                        if best is None or cost < best[0]:
                            best = (cost, i, j)
            if best is not None and best[0] <= k * k:
                break
        return best

    pivots = []
    while (best := pivot()) is not None:
        _, p, q = best
        row_p, touched = rows[p], cols[q]
        # out of their buckets until the step has changed their counts
        for i in touched:
            row_at[len(rows[i])].remove(i)
        for j in row_p:
            col_at[len(cols[j])].remove(j)
        e = row_p.pop(q)
        touched.remove(p)
        for j in row_p:
            cols[j].remove(p)
        u_p = u[p]
        for i in touched:
            # row i -= f * row p, which clears entry (i, q)
            row_i = rows[i]
            f = row_i.pop(q) * e
            for j, x in row_p.items():
                y = row_i.get(j, 0) - f * x
                if y:
                    row_i[j] = y
                    cols[j].add(i)
                else:
                    del row_i[j]
                    cols[j].remove(i)
            _sub(u[i], f, u_p)
        # column j -= e * x * column q clears (p, j) and changes only V
        v_q = v[q]
        for j, x in row_p.items():
            _sub(v[j], e * x, v_q)
        for i in touched:
            row_at[len(rows[i])].add(i)
        for j in row_p:
            col_at[len(cols[j])].add(j)
        if e == -1:
            u[p] = {k: -x for k, x in u_p.items()}
        pivots.append((p, q))
        rows[p] = cols[q] = None

    # pivot rows and columns are None now, zero ones empty
    block_rows = [i for i in range(nr) if rows[i]]
    block_cols = [j for j in range(nc) if cols[j]]
    block = [[rows[i].get(j, 0) for j in block_cols] for i in block_rows]
    ub, vb = _euclidean(block) if block else ([], [])
    diagonal = [block[t][t] for t in range(min(len(block_rows), len(block_cols)))]
    divisors = (1,) * len(pivots) + tuple(d for d in diagonal if d)
    block_u, block_v = [u[i] for i in block_rows], [v[j] for j in block_cols]
    u_rows = ([u[p] for p, _ in pivots]
              + [_combine(coeffs, block_u) for coeffs in ub]
              + [u[i] for i in range(nr) if rows[i] == {}])
    v_cols = ([v[q] for _, q in pivots]
              + [_combine(coeffs, block_v) for coeffs in zip(*vb)]
              + [v[j] for j in range(nc) if cols[j] == set()])
    s = [0] * (nr * nc)
    for t, d in enumerate(divisors):
        s[t * nc + t] = d
    return SmithDecomposition(u=_dense(nr, u_rows), s=IntegerMatrix(nr, nc, tuple(s)),
                              v=_dense(nc, v_cols, columns=True), divisors=divisors)


def cokernel_invariants(a: IntegerMatrix) -> AbelianGroup:
    """Invariant factors of Z^rows / (column span of A)."""
    return snf(a).cokernel
