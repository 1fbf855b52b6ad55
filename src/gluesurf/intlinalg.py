"""Exact integer linear algebra: Smith normal form, cokernels.

Everything runs on Python's arbitrary-precision integers.  Intermediate
entries of a Smith reduction can outgrow any fixed-width type even for
small matrices, so no floating point or fixed-width shortcuts anywhere.
The matrices reduced are sparse, and most pivots are +-1: the
homology's sphere-level map (2001 x 4000 on a 4000-curve cycle), the
tau-pairs x cusps matrix that the irregularity and the homology read,
and pi1's exponent sums.  So
``IntegerMatrix`` keeps only its nonzero entries, row by row, and ``snf``
is one elimination loop on those rows: it takes each unit pivot of low
Markowitz cost from one column, the first of the sparsest that holds a
unit (Markowitz 1957; Zlatev, *On some pivotal strategies in Gaussian
elimination by sparse technique*, 1980; Havas, Holt and Rees,
*Recognizing badly presented Z-modules*, 1993) and, when none is left,
makes one in place by a 2 x 2 unimodular step on two rows or columns, a
Euclidean chain done at once (Cohen, *A Course in Computational
Algebraic Number Theory*, 2.4).  The divisors, and so the rank and the
cokernel, come from that loop without the transforms U and V; they are
built only when a caller reads them, by the same loop with their updates
on.  A matrix keeps its divisors once reduced, so the tau-pairs x cusps
matrix, which the irregularity and the homology read from the per-gluing
cache, is reduced once per gluing.  ``Record``, the base of the value
types here, and the field checks ``_int`` and ``_typed`` live in
``base``, so the group theory, which needs them at import, loads this
module only when it abelianizes.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Mapping, Sequence

from .base import Record, _int, _store, _typed


class AbelianGroup(Record):
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` is the chain d1 | d2 | ... of invariant factors, each >= 2,
    given as a list or tuple and kept as a tuple.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        free_rank = _int(free_rank, "rank")
        torsion = tuple(_int(d, "torsion") for d in _typed(torsion, (list, tuple), "torsion"))
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} violates the divisibility chain")
        self._set(free_rank, torsion)

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
        return cls(d["rank"], d.get("torsion", ()))


class IntegerMatrix(Record):
    """Immutable integer matrix that keeps only its nonzero entries, by row.

    ``IntegerMatrix(rows, cols, nonzero)`` is the rows x cols matrix with
    ``nonzero[i][j]`` at (i, j) and 0 elsewhere; neither a row missing from
    ``nonzero`` nor a 0 is stored, so a row with no entry costs nothing.
    A shape, index or entry that is not an ``int`` is rejected, not coerced.
    Equality and hashing are by value, and the dense row-major ``entries``
    are built when read.  ``snf`` keeps the Smith divisors in ``_divisors``,
    None until the first reduction.
    """

    __slots__ = ("rows", "cols", "_rows", "_divisors")

    def __init__(self, rows: int, cols: int, nonzero: Mapping[int, Mapping[int, int]]):
        if _int(rows, "rows") < 0 or _int(cols, "cols") < 0:
            raise ValueError("dimensions must be non-negative")
        kept = {i: dict(row) for i, row in nonzero.items() if row}
        # one pass in C over the index and entry types; _int names a bad one
        if {*map(type, chain(nonzero, chain.from_iterable(kept.values()),
                             chain.from_iterable(map(dict.values, kept.values()))))} - {int}:
            for i, row in nonzero.items():
                _int(i, "a row index")
                for j, x in row.items():
                    _int(j, "a column index")
                    _int(x, "an entry")
        for i in [i for i, row in kept.items() if not all(row.values())]:
            if row := {j: x for j, x in kept[i].items() if x}:
                kept[i] = row
            else:
                del kept[i]
        used = set().union(*kept.values())
        if kept and not (0 <= min(kept) and max(kept) < rows
                         and 0 <= min(used) and max(used) < cols):
            raise IndexError(f"an entry lies outside the {rows} x {cols} matrix")
        self._set(rows, cols, kept, None)

    @property
    def entries(self) -> tuple[int, ...]:
        c = self.cols
        dense = [0] * (self.rows * c)
        for i, row in self._rows.items():
            for j, x in row.items():
                dense[i * c + j] = x
        return tuple(dense)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._rows) == (other.rows, other.cols, other._rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols,
                     frozenset((i, frozenset(row.items())) for i, row in self._rows.items())))

    def __repr__(self) -> str:
        nonzero = {i: dict(sorted(row.items())) for i, row in sorted(self._rows.items())}
        return f"IntegerMatrix({self.rows}, {self.cols}, {nonzero})"


class SmithDecomposition(Record):
    """U @ A @ V == S with U, V unimodular and S diagonal, for A = ``matrix``.

    ``divisors`` are the nonzero diagonal entries of S, positive and
    forming a divisibility chain; their count is the rank of A.  ``u``,
    ``s`` and ``v`` are built on first read, by one more elimination pass
    with the transform updates on, and then kept.
    """

    __slots__ = ("matrix", "divisors", "__dict__")

    def __init__(self, matrix: IntegerMatrix, divisors: tuple[int, ...]):
        self._set(matrix, tuple(divisors))

    @cached_property
    def _transforms(self) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
        return _smith(self.matrix, transforms=True)[1]

    @property
    def u(self) -> IntegerMatrix:
        return self._transforms[0]

    @property
    def s(self) -> IntegerMatrix:
        return self._transforms[1]

    @property
    def v(self) -> IntegerMatrix:
        return self._transforms[2]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def cokernel(self) -> AbelianGroup:
        """Invariant factors of Z^rows / (column span of A)."""
        return AbelianGroup(self.matrix.rows - self.rank, tuple(d for d in self.divisors if d > 1))


def _combine(coeffs: Sequence[int], vectors: Sequence[dict[int, int]]) -> dict[int, int]:
    """The sparse vector sum of coeffs[k] * vectors[k]; zero entries are dropped."""
    out: dict[int, int] = {}
    for c, vec in zip(coeffs, vectors):
        if c == 1 and not out:
            out = dict(vec)  # a copy in C: U and V rows grow long
        elif c:
            for k, x in vec.items():
                if y := out.get(k, 0) + c * x:
                    out[k] = y
                else:
                    del out[k]
    return out


def _unimodular(a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """[[x, y], [-b/g, a/g]] with g = gcd(a, b) = xa + yb, for nonzero a and b.

    Its determinant is 1, and it takes the column (a, b) to (g, 0).
    """
    g = gcd(a, b)
    n = abs(b // g)
    x = pow(a // g, -1, n)
    if 2 * x > n:
        x -= n  # the Bezout pair of least size, as extended Euclid gives
    return (x, (g - x * a) // b), (-(b // g), a // g)


def snf(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form by one elimination loop on the rows ``a`` stores.

    Each step looks at what is left of the matrix:

    1. While a +-1 entry is left, the pivot is one in a single column: the
       first of the columns of fewest nonzeros, k, that holds a unit
       (Zlatev 1980).  Its Markowitz cost is (row nonzeros - 1) * (k - 1):
       a unit of cost 0 is taken as soon as it is seen, and else the first
       one whose row is shortest.
    2. Otherwise the pivot is an entry e of least absolute value.  If its
       row or column holds an entry b that e does not divide, the smallest
       such, preferring one coprime to e, is paired with it: a 2 x 2
       unimodular step on their two columns or rows (a whole Euclidean
       chain at once) leaves gcd(e, b) in place of e and 0 in place of b.
       That is a unit when they are coprime, and else an entry smaller than
       e.  The loop then starts again.
    3. A pivot that divides its row and column clears its column with row
       operations, by exact division, and its row and column are dropped:
       the column operations that would clear the row change only V.

    The columns sit in buckets by nonzero count, so the search reads only
    the sparsest of them, and a step moves only those whose count it
    changes.  A row with no entry is never read, so it only adds free rank
    to the cokernel.  At the end each pair of pivots (a, b) that
    breaks the divisibility chain becomes (gcd, lcm).  The divisors are
    found without U and V and kept on ``a``, so a later ``snf`` of the same
    matrix runs no loop; reading ``u``, ``s`` or ``v`` of the result runs
    the loop once more with them, U kept as sparse rows and V as sparse
    columns.  S is diag(1, ..., 1, other divisors, 0, ...).
    """
    if a._divisors is None:
        _store(a, "_divisors", _smith(a, transforms=False)[0])
    return SmithDecomposition(a, a._divisors)


def _smith(a: IntegerMatrix, transforms: bool):
    """The divisors of ``a`` by the loop ``snf`` describes, and with
    ``transforms`` also (U, S, V); without, the second item is None."""
    nr, nc = a.rows, a.cols
    # row i: {column: nonzero entry}, for the rows ``a`` stores and not yet
    # eliminated; column j: the rows nonzero in it
    rows = {i: dict(row) for i, row in a._rows.items()}
    cols: list[set[int]] = [set() for _ in range(nc)]
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    # rows of U and columns of V
    u = [{i: 1} for i in range(nr)] if transforms else None
    v = [{j: 1} for j in range(nc)] if transforms else None

    # col_at[k]: the columns with k nonzeros
    col_at: list[set[int]] = [set() for _ in range(len(rows) + 1)]

    def buckets(col_ids, op):
        # op is set.add or set.remove on the buckets of these columns
        for j in col_ids:
            op(col_at[len(cols[j])], j)

    buckets(range(nc), set.add)

    def unit_pivot():
        # A unit in a column of k entries costs (row entries - 1) * (k - 1).
        # Only one column is searched (Zlatev 1980): the first of the
        # sparsest columns that holds a unit; in it, a unit of cost 0 is
        # taken at once, else the first one with the shortest row.
        for k in range(1, len(col_at)):
            for j in col_at[k]:
                best, least = None, nc + 1
                for i in cols[j]:
                    x = rows[i][j]
                    if x == 1 or x == -1:
                        size = len(rows[i])
                        if size == 1 or k == 1:
                            return i, j
                        if size < least:
                            least, best = size, i
                if best is not None:
                    return best, j
        return None

    def row_pair(i, k, m):
        # rows i and k become the combinations m[0] and m[1] of the two, in A and in U
        touched = rows[i].keys() | rows[k].keys()
        buckets(touched, set.remove)
        new = [_combine(c, (rows[i], rows[k])) for c in m]
        for j in touched:
            for r, row in zip((i, k), new):
                (cols[j].add if j in row else cols[j].discard)(r)
        rows[i], rows[k] = new
        if transforms:
            u[i], u[k] = [_combine(c, (u[i], u[k])) for c in m]
        buckets(touched, set.add)

    def col_pair(j, k, m):
        # columns j and k become the combinations m[0] and m[1] of the two, in A and in V
        touched = cols[j] | cols[k]
        buckets((j, k), set.remove)
        for i in touched:
            row = rows[i]
            pair = row.pop(j, 0), row.pop(k, 0)
            for c, col in zip(m, (j, k)):
                y = c[0] * pair[0] + c[1] * pair[1]
                if y:
                    row[col] = y
                    cols[col].add(i)
                else:
                    cols[col].discard(i)
        if transforms:
            v[j], v[k] = [_combine(c, (v[j], v[k])) for c in m]
        buckets((j, k), set.add)

    pivots = []  # (|e|, p, q) in elimination order
    while True:
        unit = unit_pivot()
        if unit is None:
            left = [(abs(x), i, j) for i, row in rows.items() for j, x in row.items()]
            if not left:
                break
            _, p, q = min(left)
            e = rows[p][q]
            partners = [(gcd(e, x) != 1, abs(x), k, True) for k, x in rows[p].items() if x % e]
            partners += [(gcd(e, rows[k][q]) != 1, abs(rows[k][q]), k, False)
                         for k in cols[q] if rows[k][q] % e]
            if partners:
                # gcd(e, partner) at (p, q), 0 at the partner
                *_, k, in_row = min(partners)
                if in_row:
                    col_pair(q, k, _unimodular(e, rows[p][k]))
                else:
                    row_pair(p, k, _unimodular(e, rows[k][q]))
                continue
        else:
            p, q = unit
        row_p, touched = rows.pop(p), cols[q]
        for j in row_p:
            # out of its bucket until the step has changed its count
            col = cols[j]
            col_at[len(col)].remove(j)
            col.remove(p)
        e = row_p.pop(q)
        items = list(row_p.items())
        for i in touched:
            # row i -= f * row p, which clears entry (i, q); e divides it
            row_i = rows[i]
            f = row_i.pop(q) // e
            for j, x in items:
                y = row_i.get(j)
                if y is None:
                    row_i[j] = -f * x
                    cols[j].add(i)
                elif y == f * x:
                    del row_i[j]
                    cols[j].remove(i)
                else:
                    row_i[j] = y - f * x
            if transforms:
                u[i] = _combine((1, -f), (u[i], u[p]))
        buckets(row_p, set.add)
        if transforms:
            # column j -= (x / e) * column q clears (p, j) and changes only V
            for j, x in row_p.items():
                v[j] = _combine((1, -(x // e)), (v[j], v[q]))
            if e < 0:
                u[p] = {k: -x for k, x in u[p].items()}
        pivots.append((abs(e), p, q))
        cols[q] = None

    # Units first.  Then (a, b) -> (g, ab/g) with g = xa + yb = gcd(a, b), by
    # [[x, y], [-b/g, a/g]] diag(a, b) [[1, -yb/g], [1, xa/g]] = diag(g, ab/g).
    ones = [t for t in pivots if t[0] == 1]
    rest = [t for t in pivots if t[0] != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            (a, p, q), (b, p2, q2) = rest[i], rest[j]
            if b % a:
                if transforms:
                    m = _unimodular(a, b)
                    (x, y), (c, d) = m
                    u[p], u[p2] = [_combine(r, (u[p], u[p2])) for r in m]
                    v[q], v[q2] = [_combine(r, (v[q], v[q2])) for r in ((1, 1), (y * c, x * d))]
                g = gcd(a, b)
                rest[i], rest[j] = (g, p, q), (a * b // g, p2, q2)
    pivots = ones + rest
    divisors = tuple(d for d, _, _ in pivots)
    if not transforms:
        return divisors, None
    done = {p for _, p, _ in pivots}
    u_rows = [u[p] for _, p, _ in pivots] + [u[i] for i in range(nr) if i not in done]
    v_cols = [v[q] for _, _, q in pivots] + [v[j] for j in range(nc) if cols[j] is not None]
    v_rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for t, col in enumerate(v_cols):
        for k, x in col.items():
            v_rows[k][t] = x
    return divisors, (IntegerMatrix(nr, nr, dict(enumerate(u_rows))),
                      IntegerMatrix(nr, nc, {t: {t: d} for t, d in enumerate(divisors)}),
                      IntegerMatrix(nc, nc, v_rows))


def cokernel_invariants(a: IntegerMatrix) -> AbelianGroup:
    """Invariant factors of Z^rows / (column span of A)."""
    return snf(a).cokernel
