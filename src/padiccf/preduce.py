"""Rational matrices, fraction-free integer elimination and the p-reduced
row normal form.

``bareiss`` and ``back_substitute`` are the package's one exact
elimination: determinants, ranks, matrix inverses, linear solves, field
inverses, norms and resultants all scale their rationals to integers and
go through them.

The normal form is an echelon-like shape over Q whose pivots are powers of
p and whose above-pivot entries keep only digits below the pivot's
valuation.  It is computed by row operations that stay inside
GL(n, Z_p cap Q) (unit scalings, p-integral row additions, swaps), so the
transformer matrix and its inverse both have p-free denominators and unit
determinant.  The form is unique per row space, which the test suite
exercises directly.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NonSquare
from .rationals import Q, QONE, QZERO, ordp, qpow, head_tail, qformat, qparse_list


class RationalMatrix:
    """Immutable rectangular matrix of rationals; shared constants such as
    ``identity(n)`` rely on that."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        self.entries = tuple(tuple(c if type(c) is Q else Q(c) for c in row) for row in rows)
        if self.entries:
            w = len(self.entries[0])
            if any(len(r) != w for r in self.entries):
                raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[QONE if i == j else QZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "; ".join(" ".join(qformat(c) for c in row) for row in self.entries)
        return f"RationalMatrix[{rows}]"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries))
        return RationalMatrix(
            [[sum((a * b for a, b in zip(row, col)), QZERO) for col in ot] for row in self.entries]
        )

    def apply(self, vector):
        """Row-wise linear combination; works for any scalar-multipliable
        vector entries (rationals or field elements)."""
        if len(vector) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for row in self.entries:
            acc = None
            for c, x in zip(row, vector):
                term = x * c
                acc = term if acc is None else acc + term
            out.append(acc)
        return tuple(out)

    def inverse(self) -> "RationalMatrix":
        """Eliminating [A' | S], with A' = S A the row-scaled integer
        matrix, gives d A'^-1 S = d A^-1."""
        if not self.is_square():
            raise NonSquare("inverse of non-square matrix")
        n = self.nrows
        rows, scales = scale_rows(self.entries)
        for i, (row, s) in enumerate(zip(rows, scales)):
            row.extend(s if j == i else 0 for j in range(n))
        pivots, _ = bareiss(rows, n)
        if len(pivots) < n:
            raise ZeroDivisionError("singular matrix")
        d, x = back_substitute(rows, pivots, n)
        return RationalMatrix([[Q(v, d) for v in row] for row in x])

    def to_json(self):
        return [[qformat(c) for c in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "RationalMatrix":
        return cls([qparse_list(row) for row in data])


def scale_rows(rows):
    """Each rational row times the lcm of its denominators: (integer rows
    as lists, the scale of each row)."""
    out, scales = [], []
    for row in rows:
        den = math.lcm(*(c.denominator for c in row))
        out.append([c.numerator * (den // c.denominator) for c in row])
        scales.append(den)
    return out, scales


def bareiss(rows, width: int):
    """Fraction-free Gaussian elimination (Bareiss 1968) of integer rows,
    in place; the package's one exact elimination.

    Columns below ``width`` are eliminated, each on the first nonzero entry
    at or below the current row (swapped up; a column without one is
    skipped); later columns ride along as right-hand sides.  Each row
    below a pivot becomes (pivot * row - entry * pivot_row) / previous
    pivot, an exact division, since every entry stays a minor of the input.

    Returns (pivots, det): the pivot column of each of the first
    r = len(pivots) rows, r being the rank of the first ``width`` columns
    (the rows below vanish in them), and, when every row has a pivot, the
    last pivot times the sign of the row permutation, else 0; for square
    A that is det(A).
    """
    n = len(rows)
    pivots = []
    prev, sign = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(r + 1, n):
            f = rows[i][c]
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], top)]
        pivots.append(c)
        prev = pv
    return pivots, (sign * prev if len(pivots) == n else 0)


def back_substitute(rows, pivots, width: int):
    """Fraction-free back substitution after :func:`bareiss`.

    With S the pivot columns of the first r = len(pivots) rows and B' their
    right-hand-side columns (``width`` on), returns (d, X) where d is the
    last pivot and X = d S^-1 B', row i belonging to the unknown of column
    pivots[i].  X is an integer matrix (d = +-det of the pivot minor, so
    d S^-1 is +-adj of it), which makes every division exact; for square
    nonsingular A with right-hand side B, X = +-adj(A) B.
    """
    r = len(pivots)
    d = rows[r - 1][pivots[-1]] if r else 1
    x = [None] * r
    for i in range(r - 1, -1, -1):
        row = rows[i]
        later = [(row[pivots[t]], x[t]) for t in range(i + 1, r) if row[pivots[t]]]
        x[i] = [
            (d * b - sum(u * xt[k] for u, xt in later)) // row[pivots[i]]
            for k, b in enumerate(row[width:])
        ]
    return d, x


def p_reduce(matrix: RationalMatrix, p: int):
    """Reduce a square matrix to its p-reduced form.

    Returns (M', N) with M' = N @ matrix exactly, N invertible with
    p-integral entries.  Pivot choice per column: among nonzero candidates
    at or below the cursor row, the least row index attaining the maximal
    p-adic absolute value (minimal valuation).  Below-pivot entries are
    eliminated fully; above-pivot entries lose only the digit tail from the
    pivot's valuation upward.  Every row operation runs once, on the rows
    of [M | I]; the right half ends as N.
    """
    if not matrix.is_square():
        raise NonSquare("p_reduce requires a square matrix")
    n = matrix.nrows
    rows = [list(r) + [QONE if j == i else QZERO for j in range(n)] for i, r in enumerate(matrix.entries)]
    k1 = 0
    for k2 in range(n):
        cands = [(ordp(rows[i][k2], p), i) for i in range(k1, n) if rows[i][k2]]
        if not cands:
            continue
        best, m = min(cands)
        rows[k1], rows[m] = rows[m], rows[k1]
        pk = qpow(p, best)
        scale = pk / rows[k1][k2]
        top = rows[k1] = [c * scale for c in rows[k1]]
        # exact arithmetic: clearing with the scaled pivot row gives the
        # same rows as clearing below before the scaling
        for i in range(n):
            c = rows[i][k2]
            if i < k1:
                c = head_tail(c, p, best - 1)[1]
            if c and i != k1:
                f = c / pk
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], top)]
        k1 += 1
    return RationalMatrix([r[:n] for r in rows]), RationalMatrix([r[n:] for r in rows])
