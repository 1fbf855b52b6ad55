"""Exact integer linear algebra: Smith normal form with transforms, kernels, cokernels.

Everything runs on Python's arbitrary-precision integers.  Intermediate
entries of a Smith reduction can outgrow any fixed-width type even for
small matrices, so no floating point or fixed-width shortcuts anywhere.
Matrices here stay small (tens of rows); clarity wins over speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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
        return cls(int(d["rank"]), tuple(int(t) for t in d.get("torsion", ())))


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

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        a, b = self.row_lists(), other.row_lists()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

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


def snf(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form by Euclidean row/column reduction.

    The pivot at each step is driven down to the gcd of the remaining
    submatrix, which guarantees the divisibility chain.
    """
    nr, nc = a.rows, a.cols
    s = a.row_lists()
    u = IntegerMatrix.identity(nr).row_lists()
    v = IntegerMatrix.identity(nc).row_lists()

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
    return SmithDecomposition(
        u=IntegerMatrix.from_rows(u, cols=nr),
        s=IntegerMatrix.from_rows(s, cols=nc),
        v=IntegerMatrix.from_rows(v, cols=nc),
        divisors=divisors,
    )


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Columns form a Z-basis of the right kernel {x : Ax = 0}."""
    dec = snf(a)
    r = dec.rank
    v = dec.v.row_lists()
    width = a.cols - r
    entries = tuple(v[i][r + j] for i in range(a.cols) for j in range(width))
    return IntegerMatrix(a.cols, width, entries)


def cokernel_invariants(a: IntegerMatrix) -> AbelianGroup:
    """Invariant factors of Z^rows / (column span of A)."""
    return snf(a).cokernel
