"""Rational matrices, fraction-free integer elimination and the p-reduced
row normal form.

``bareiss`` and ``back_substitute`` are the package's one exact
elimination: ranks, matrix inverses, linear solves and large determinants
scale their rationals to integers and go through them.  ``solve`` is the
square solve or inverse of the matrix inverse and of a step's projective
matrix.  ``first_row_expansion`` is the one determinant-and-cofactor
kernel, behind field inverses of degree 3 and up (the valuation ladder's
zero-divisor check among them) and discriminants; its docstring says which sizes it
eliminates (Cohen, *A Course in Computational Algebraic Number Theory*,
4.2).

A ``RationalMatrix`` has the representation of a field element: each row
is a tuple of integer numerators over one positive denominator, with the
content removed, and its ``Fraction`` entries are a derived view for
serialization, printing and tests.

The normal form is an echelon-like shape over Q whose pivots are powers of
p and whose above-pivot entries keep only digits below the pivot's
valuation.  It is computed by row operations that stay inside
GL(n, Z_p cap Q) (unit scalings, p-integral row additions, swaps), so the
transformer matrix and its inverse both have p-free denominators and unit
determinant.  ``reduce_rows`` runs them in place on integer rows, each
over its own denominator and of any content, pivoting in the first
``width`` columns and carrying the rest along: a pivot's valuation is read
off its numerator and denominator, the pivot row is reduced by one gcd,
and each other row operation is one integer combination that removes no
content.  So the rows end in no canonical form: each caller removes the
content where it reads them.  ``p_reduce`` is that kernel on [M | I], the
right half ending as the transformer, read through
``RationalMatrix.from_ints``; the phi3 step runs it on [M | c], the map's
unreduced rows with their constant column c, which ends as A c without A
being formed, and reduces each row once.  The form is unique per row
space, which the test suite exercises directly, against the ``Fraction``
routine kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator

from .errors import NonSquare
from .rationals import Q, _vp_pos, head_num, qexact, qformat


def canonical(nums: tuple, den: int, bound: int | None = None):
    """(nums / g, den / g) for g = +-gcd(den, *nums), its sign making the
    denominator positive: rationals nums_i / den over one denominator with
    the content removed, the form of a matrix row and of a field element.
    ``bound``, when given, is a multiple of every factor nums and den can
    share."""
    g = math.gcd(den if bound is None else bound, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple([x // g for x in nums])  # a list builds a small tuple faster than a generator
        den //= g
    return nums, den


class RationalMatrix:
    """Immutable rectangular matrix of rationals, stored as integer rows:
    row i is ``nums[i]`` (a tuple of ints) over ``dens[i]`` (an int > 0),
    with the content removed, gcd(den, *nums) = 1, the form of a
    ``FieldElement``.  Equality and hashing compare these fields, and
    ``entries`` is a derived view as ``Fraction`` rows."""

    __slots__ = ("nums", "dens")

    def __init__(self, rows):
        """From rows of rationals (ints, ``Fraction``s, or anything
        ``Fraction`` accepts but a float)."""
        rows = [[c if type(c) is int or type(c) is Q else qexact(c) for c in row] for row in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        nums, dens = scale_rows(rows)
        self.nums = tuple(map(tuple, nums))
        self.dens = tuple(dens)

    @classmethod
    def from_ints(cls, rows, dens) -> "RationalMatrix":
        """The matrix whose row i is rows[i] / dens[i], for integer rows and
        nonzero integer denominators of any sign and content."""
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        pairs = [canonical(tuple(row), den) for row, den in zip(rows, dens, strict=True)]
        m = object.__new__(cls)
        m.nums, m.dens = tuple(r for r, _ in pairs), tuple(d for _, d in pairs)
        return m

    @property
    def entries(self) -> tuple:
        """The rows as tuples of canonical ``Fraction``s."""
        return tuple(tuple(Q(x, d) for x in row) for row, d in zip(self.nums, self.dens))

    @property
    def nrows(self) -> int:
        return len(self.dens)

    @property
    def ncols(self) -> int:
        return len(self.nums[0]) if self.nums else 0

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.nums == other.nums and self.dens == other.dens

    def __hash__(self):
        return hash((self.nums, self.dens))

    def __repr__(self):
        rows = "; ".join(" ".join(qformat(c) for c in row) for row in self.entries)
        return f"RationalMatrix[{rows}]"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Row i of the product is nums[i] times ``other``'s rows brought to
        the lcm L of their denominators, over dens[i] L."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        den = math.lcm(*other.dens)
        cols = list(zip(*([x * (den // d) for x in row] for row, d in zip(other.nums, other.dens))))
        return RationalMatrix.from_ints(
            [[sum(map(operator.mul, row, col)) for col in cols] for row in self.nums],
            [d * den for d in self.dens],
        )

    def apply(self, vector):
        """Row-wise linear combination, exact for vector entries that take
        int products and ``Fraction`` division: ints, rationals or field
        elements."""
        if len(vector) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for row, d in zip(self.nums, self.dens):
            acc = None
            for c, x in zip(row, vector):
                term = x * c
                acc = term if acc is None else acc + term
            out.append(acc / Q(d) if d != 1 else acc)
        return tuple(out)

    def inverse(self) -> "RationalMatrix":
        """Eliminating [A' | S], with A' = S A the integer rows and S the
        diagonal of their denominators, gives d A'^-1 S = d A^-1."""
        if not self.is_square():
            raise NonSquare("inverse of non-square matrix")
        n = self.nrows
        rows = [list(row) + [d if j == i else 0 for j in range(n)]
                for i, (row, d) in enumerate(zip(self.nums, self.dens))]
        d, x = solve(rows, n, "singular matrix")
        return RationalMatrix.from_ints(x, [d] * n)

    def to_json(self):
        return [[qformat(c) for c in row] for row in self.entries]


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


def first_row_expansion(rows) -> tuple:
    """(det, C) for an n x n integer matrix M, n >= 1, given as rows: its
    determinant and the cofactors C_00, .., C_0(n-1) of its first row, so
    det = sum_j M_0j C_0j and C is adj(M) e_0 (Cohen 4.2).

    This is the one place that picks how.  Up to 4 x 4 the cofactors are
    written out (at n = 4 the six 2 x 2 minors of the last two rows, then
    one 3-term expansion per cofactor, 24 products in all) and det is the
    expansion along the first row, with no elimination.  Beyond, one
    :func:`bareiss` of a copy of [M | e_0] and :func:`back_substitute`
    give d adj(M) e_0 / det, d = +-det, which the sign det // d turns into
    the cofactors; a singular M beyond 4 x 4 gives (0, None).
    """
    n = len(rows)
    if n > 4:
        ext = [list(row) + [int(i == 0)] for i, row in enumerate(rows)]
        pivots, det = bareiss(ext, n)
        if not det:
            return 0, None
        d, x = back_substitute(ext, pivots, n)
        return det, tuple(det // d * xj[0] for xj in x)
    if n == 1:
        cof = (1,)
    elif n == 2:
        _, (c, d) = rows
        cof = d, -c
    elif n == 3:
        _, (c, d, e), (f, g, h) = rows
        cof = d * h - e * g, e * f - c * h, c * g - d * f
    else:
        _, (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        cof = (a1 * m23 - a2 * m13 + a3 * m12, a2 * m03 - a0 * m23 - a3 * m02,
               a0 * m13 - a1 * m03 + a3 * m01, a1 * m02 - a0 * m12 - a2 * m01)
    return sum(map(operator.mul, rows[0], cof)), cof


def solve(rows, n: int, singular: str):
    """Solve in place the n x n system whose integer rows are ``rows``,
    their right-hand sides from column n on: :func:`bareiss`, then
    :func:`back_substitute`, returning its (d, X), X = d A^-1 B.  A rank
    below n raises ZeroDivisionError(``singular``)."""
    pivots, _ = bareiss(rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError(singular)
    return back_substitute(rows, pivots, n)


def reduce_rows(rows: list, dens: list, width: int, p: int) -> None:
    """The p-reduction's row operations, in place, on integer rows
    ``rows[i]`` (tuples) over ``dens[i]`` > 0, of any content: pivots are
    taken in the first ``width`` columns only, and the later columns ride
    along, so they end as A times their input for the transformer A of
    the first ``width``.

    Pivot choice per column, found in one pass: among nonzero candidates at
    or below the cursor row, the least row index attaining the maximal
    p-adic absolute value (minimal valuation).  Below-pivot entries are
    eliminated fully; above-pivot entries lose only the digit tail from the
    pivot's valuation upward.  The pivot row is scaled to put p^v on the
    pivot and reduced by one gcd, as it enters every other row; clearing
    c/d from row i against the pivot row T/d_T (whose pivot entry is
    T_k = p^v d_T) is the one combination (R_i T_k - c T) / (d T_k), c and
    T_k first divided by their gcd, and removes no content.

    So the rows end holding the values of the normal form, each over a
    positive denominator, but not canonical: a caller removes the content
    where it reads them, ``p_reduce`` through ``RationalMatrix.from_ints``
    and the phi3 step once per next component.
    """
    n = len(rows)
    k1 = 0
    for k2 in range(width):
        best = m = None
        for i in range(k1, n):
            x = rows[i][k2]
            if x:
                v = _vp_pos(x, p) - _vp_pos(dens[i], p)
                if m is None or v < best:
                    best, m = v, i
        if m is None:
            continue
        top, a = rows[m], rows[m][k2]
        rows[m], dens[m] = rows[k1], dens[k1]
        # the pivot row times p^best / pivot: T / a with a = pivot / p^best
        if best >= 0:
            q = p ** best
            top = tuple([x * q for x in top])
        else:
            a *= p ** -best
        rows[k1], dens[k1] = top, a = canonical(top, a)
        tk = top[k2]
        for i in range(n):
            row = rows[i]
            c = row[k2]
            if not c or i == k1:
                continue
            if i < k1:
                c -= head_num(c, dens[i], p, best - 1)
                if not c:
                    continue
            g = math.gcd(c, tk)
            f, c = tk // g, c // g
            rows[i] = tuple([f * x - c * y for x, y in zip(row, top)])
            dens[i] *= f
        k1 += 1


def p_reduce(matrix: RationalMatrix, p: int):
    """Reduce a square matrix to its p-reduced form.

    Returns (M', N) with M' = N @ matrix exactly, N invertible with
    p-integral entries: :func:`reduce_rows` on the integer rows of [M | I]
    with width n, the right half ending as N.
    """
    if not matrix.is_square():
        raise NonSquare("p_reduce requires a square matrix")
    n = matrix.nrows
    dens = list(matrix.dens)
    rows = [r + tuple(d if j == i else 0 for j in range(n)) for i, (r, d) in enumerate(zip(matrix.nums, dens))]
    reduce_rows(rows, dens, n, p)
    return (RationalMatrix.from_ints([r[:n] for r in rows], dens),
            RationalMatrix.from_ints([r[n:] for r in rows], dens))
