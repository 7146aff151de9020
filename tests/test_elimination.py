"""The fraction-free elimination routine, the integer multiplication
matrix and everything built on them, against the Gauss-Jordan, Euclid and
convolution references in ``oracles``."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from padiccf import polys
from padiccf.errors import NonSquare
from padiccf.field import MinPoly, _solve, multiplication_rows
from padiccf.preduce import RationalMatrix, back_substitute, bareiss
from padiccf.rationals import Q
from oracles import (
    convolution_product,
    euclid_inverse,
    euclid_resultant,
    gauss_det,
    gauss_jordan_inverse,
    gauss_rank,
    gauss_solve,
)

CHECKS = settings(max_examples=150, deadline=None)

# small rationals, zero one time in three so pivots and whole columns vanish
entries = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Q, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def square_matrices(draw):
    """Square matrices, often with a zero leading pivot or made singular."""
    n = draw(st.integers(1, 5))
    a = draw(matrices(n, n))
    shape = draw(st.sampled_from(["plain", "zero_pivot", "dependent_row", "zero_column"]))
    if shape == "zero_pivot":
        a[0][0] = Q(0)
    elif shape == "dependent_row" and n > 1:
        c = draw(entries)
        a[-1] = [x * c + y for x, y in zip(a[0], a[-2])] if n > 2 else [x * c for x in a[0]]
    elif shape == "zero_column":
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = Q(0)
    return a


@st.composite
def low_rank_matrices(draw):
    """m x n products of m x k and k x n factors, so rank <= k."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    left, right = draw(matrices(m, k)), draw(matrices(k, n))
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Q(0)) for j in range(n)] for i in range(m)]


class TestRoutine:
    @CHECKS
    @given(square_matrices(), st.lists(st.integers(-50, 50), min_size=5, max_size=5))
    def test_determinant_and_adjugate_times_rhs(self, a, rhs):
        n = len(a)
        den = 1
        for row in a:
            for c in row:
                den = den * c.denominator
        ints = [[int(c * den) for c in row] for row in a]
        rows = [row + [rhs[i]] for i, row in enumerate(ints)]
        pivots, det = bareiss(rows, n)
        assert det == gauss_det(ints)
        if len(pivots) < n:
            assert det == 0
            return
        d, x = back_substitute(rows, pivots, n)
        assert abs(d) == abs(det)
        assert all(isinstance(v[0], int) for v in x)
        # x = d A^-1 b: A x = d b
        assert [sum(r[j] * x[j][0] for j in range(n)) for r in ints] == [d * b for b in rhs[:n]]

    def test_zero_by_zero(self):
        assert bareiss([], 0) == ([], 1)
        assert back_substitute([], [], 0) == (1, [])


class TestRationalMatrix:
    @CHECKS
    @given(square_matrices())
    def test_det_and_inverse(self, a):
        m = RationalMatrix(a)
        assert m.det() == gauss_det(a)
        try:
            want = gauss_jordan_inverse(a)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert m.inverse().entries == tuple(tuple(row) for row in want)

    @CHECKS
    @given(low_rank_matrices())
    def test_rank_rectangular(self, a):
        assert RationalMatrix(a).rank() == gauss_rank(a)

    @CHECKS
    @given(st.data())
    def test_solve(self, data):
        m, width = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 5))
        rows = data.draw(matrices(m, width))
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entries, min_size=m, max_size=m))
            target = [sum((c * r[j] for c, r in zip(coeffs, rows)), Q(0)) for j in range(width)]
        else:
            target = data.draw(st.lists(entries, min_size=width, max_size=width))
        assert _solve(rows, target) == gauss_solve(rows, target)

    def test_non_square(self):
        m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(NonSquare):
            m.inverse()
        with pytest.raises(NonSquare):
            m.det()
        assert m.rank() == 2

    def test_singular_inverse(self):
        with pytest.raises(ZeroDivisionError):
            RationalMatrix([[1, 2], [2, 4]]).inverse()
        with pytest.raises(ZeroDivisionError):
            RationalMatrix([[0, 0], [0, 0]]).inverse()


# monic defining polynomials a1..an: integral, and with p-integral
# non-integral coefficients (denominators prime to p = 2)
integral_coeffs = st.integers(-12, 12).map(Q)
odd_denominator_coeffs = st.builds(Q, st.integers(-12, 12), st.sampled_from([1, 3, 5, 7, 9, 15]))


class TestFieldInverse:
    @CHECKS
    @given(st.data())
    def test_matches_euclid(self, data):
        n = data.draw(st.integers(2, 5))
        kind = data.draw(st.sampled_from([integral_coeffs, odd_denominator_coeffs]))
        mp = MinPoly(2, data.draw(st.lists(kind, min_size=n, max_size=n)))
        coeffs = data.draw(st.lists(entries, min_size=n, max_size=n))
        assume(any(coeffs))
        a = mp.element(coeffs)
        try:
            want = euclid_inverse(mp, coeffs)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a.inverse().coeffs == tuple(want)

    @pytest.mark.parametrize("den", [1, 3])
    def test_zero_divisor(self, den):
        # f = (x + 1/den)(x^2 + 2) is reducible; z + 1/den divides zero
        mp = MinPoly(2, [Q(1, den), 2, Q(2, den)])
        for b in ([Q(1, den), 1], [Q(2, den), 2], [Q(2, den), 2 + Q(1, den), 1]):
            with pytest.raises(ZeroDivisionError):
                mp.element(b).inverse()
            with pytest.raises(ZeroDivisionError):
                euclid_inverse(mp, b)
        assert mp.element([0, 1]).inverse() * mp.gen() == mp.one()

    def test_zero(self, k2):
        with pytest.raises(ZeroDivisionError):
            k2.zero().inverse()

    @CHECKS
    @given(st.data())
    def test_norm_is_resultant(self, data):
        """The valuation cap's determinant: D^(n(n-1)/2) Res(f, b)."""
        n = data.draw(st.integers(2, 5))
        kind = data.draw(st.sampled_from([integral_coeffs, odd_denominator_coeffs]))
        mp = MinPoly(2, data.draw(st.lists(kind, min_size=n, max_size=n)))
        nums = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n))
        det = bareiss(multiplication_rows(mp, nums), n)[1]
        den = mp._int_f[0]
        assert det == den ** (n * (n - 1) // 2) * euclid_resultant(mp.ascending(), nums)


class TestFieldProduct:
    """Products go through the integer multiplication matrix with the
    D^(n-1-j) weights; the Fraction convolution is the reference."""

    @CHECKS
    @given(st.data())
    def test_matches_convolution(self, data):
        field = data.draw(st.sampled_from(["integral", "odd_denominator", "rationals", "ring_cubic"]))
        if field == "rationals":
            mp = MinPoly.rationals(2)
        elif field == "ring_cubic":
            mp = MinPoly(2, [0, 1, 2])  # (x + 1)(x^2 - x + 2): ring semantics
        else:
            n = data.draw(st.integers(2, 6))
            kind = integral_coeffs if field == "integral" else odd_denominator_coeffs
            mp = MinPoly(2, data.draw(st.lists(kind, min_size=n, max_size=n)))
        n = mp.degree
        operands = []
        for _ in range(2):
            shape = data.draw(st.sampled_from(["dense", "rational", "generator"]))
            if shape == "generator" and n > 1:
                operands.append([Q(0), Q(1)] + [Q(0)] * (n - 2))
            elif shape == "rational":
                operands.append([data.draw(entries)] + [Q(0)] * (n - 1))
            else:
                operands.append(data.draw(st.lists(entries, min_size=n, max_size=n)))
        a, b = (mp.element(c) for c in operands)
        want = tuple(convolution_product(mp, *operands))
        assert (a * b).coeffs == want
        assert (b * a).coeffs == want

    def test_non_integral_minpoly(self):
        # D = 45 > 1, so every weight D^(n-1-j) with j < n - 1 matters
        mp = MinPoly(2, [Q(1, 3), Q(-4, 5), 7, Q(2, 9)])
        a = mp.element([Q(1, 2), -3, Q(5, 7), 11])
        b = mp.element([2, Q(-1, 3), 0, Q(4, 9)])
        assert mp._int_f[0] == 45
        assert (a * b).coeffs == tuple(convolution_product(mp, a.coeffs, b.coeffs))
        assert (a * b) * b.inverse() == a


class TestResultant:
    @CHECKS
    @given(st.lists(entries, max_size=6), st.lists(entries, max_size=5))
    def test_matches_euclid(self, f, g):
        f, g = polys.ptrim(f), polys.ptrim(g)
        assert polys.resultant(f, g) == euclid_resultant(f, g)

    @CHECKS
    @given(st.lists(entries, min_size=2, max_size=6))
    def test_discriminant(self, f):
        f = polys.ptrim(f)
        assume(len(f) >= 2)
        n = len(f) - 1
        want = euclid_resultant(f, polys.pderiv(f)) / Fraction(f[-1]) * (-1) ** (n * (n - 1) // 2)
        assert polys.discriminant(f) == want
