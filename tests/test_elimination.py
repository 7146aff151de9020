"""The fraction-free elimination routine, the integer multiplication
matrix and everything built on them, against the Gauss-Jordan, Euclid and
convolution references in ``oracles``."""

import math
import operator
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from padiccf import polys, preduce
from padiccf.errors import NonSquare
from padiccf.field import MinPoly, element_minpoly
from padiccf.preduce import (
    RationalMatrix,
    back_substitute,
    bareiss,
    first_row_expansion,
    p_reduce,
    scale_rows,
    solve,
)
from padiccf.rationals import Q
from oracles import (
    convolution_product,
    discriminant,
    element_minpoly_by_solves,
    euclid_inverse,
    euclid_resultant,
    gauss_det,
    gauss_jordan_inverse,
    gauss_rank,
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


@st.composite
def small_int_matrices(draw):
    """n x n integer matrices for n = 1-7, both sides of the kernel's
    written-out sizes, entries up to 10^60 in size and zero one time in
    three, often singular: a zero column or a last row that combines two
    others."""
    n = draw(st.integers(1, 7))
    ints = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**60, 10**60))
    rows = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "dependent_row", "zero_column"]))
    if shape == "dependent_row" and n > 1:
        c, e = draw(ints), draw(ints)
        rows[-1] = [c * x + e * y for x, y in zip(rows[0], rows[-2] if n > 2 else rows[0])]
    elif shape == "zero_column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return rows


class TestCofactors:
    """The determinant and first-row cofactors of ``first_row_expansion``,
    written out up to 4 x 4 and eliminated beyond, against the elimination
    and the Gauss reference."""

    @CHECKS
    @given(small_int_matrices())
    def test_det_and_cofactors_match_the_elimination(self, rows):
        n = len(rows)
        d, cof = first_row_expansion(rows)
        assert d == bareiss([list(r) for r in rows], n)[1]
        assert d == gauss_det(rows)
        if cof is None:
            assert n > 4 and d == 0
            return
        assert sum(map(operator.mul, rows[0], cof)) == d
        # alien cofactors: every other row expands to zero along them
        assert all(sum(map(operator.mul, row, cof)) == 0 for row in rows[1:])
        if not d:
            return
        # solve gives d' A^-1 e_0 = (d' / det) adj(A) e_0 with d' = +-det
        sd, x = solve([list(r) + [int(i == 0)] for i, r in enumerate(rows)], n, "singular")
        assert abs(sd) == abs(d)
        sign = 1 if sd == d else -1
        assert list(cof) == [sign * xj[0] for xj in x]

    def test_det_beyond_four_is_the_elimination(self):
        rng = random.Random(5)
        for n in (5, 6):
            rows = [[rng.randint(-10**30, 10**30) for _ in range(n)] for _ in range(n)]
            before = [list(r) for r in rows]
            d, cof = first_row_expansion(rows)
            assert d == gauss_det([[Q(x) for x in r] for r in before])
            assert sum(map(operator.mul, before[0], cof)) == d
            assert rows == before  # the elimination ran on a copy
        rows[2] = [3 * x - y for x, y in zip(rows[0], rows[4])]
        assert first_row_expansion(rows[:5]) == (0, None)


class TestRationalMatrix:
    @CHECKS
    @given(square_matrices())
    def test_det_and_inverse(self, a):
        m = RationalMatrix(a)
        rows, scales = scale_rows(m.entries)
        assert Q(bareiss(rows, len(a))[1], math.prod(scales)) == gauss_det(a)
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
        assert len(bareiss(scale_rows(a)[0], len(a[0]))[0]) == gauss_rank(a)

    def test_non_square(self):
        m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(NonSquare):
            m.inverse()
        with pytest.raises(NonSquare):
            p_reduce(m, 2)
        assert len(bareiss(scale_rows(m.entries)[0], m.ncols)[0]) == 2

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

    @pytest.mark.parametrize("coeffs", [[1, 2], [Q(1, 3), Q(-4, 5)], [1, 5, 4], [Q(1, 3), 7, Q(2, 9)],
                                        [3, -1, 5, 2], [Q(1, 3), 7, Q(-4, 5), Q(2, 9)]])
    def test_large_entries_at_degree_two_to_four(self, coeffs, monkeypatch):
        """The written-out cofactors on numerators of 10^60 over powers of
        p, with no elimination."""

        def no_elimination(*args):
            raise AssertionError("bareiss ran")

        monkeypatch.setattr(preduce, "bareiss", no_elimination)
        mp = MinPoly(2, coeffs)
        rng = random.Random(len(coeffs))
        for _ in range(40):
            b = [Q(rng.randint(-10**60, 10**60), 2 ** rng.randint(0, 60)) for _ in range(mp.degree)]
            a = mp.element(b)
            assert a.inverse().coeffs == tuple(euclid_inverse(mp, b))
            assert a * a.inverse() == mp.one()

    def test_elimination_only_from_degree_five(self, monkeypatch):
        calls, bareiss = [], preduce.bareiss

        def counted(rows, width):
            calls.append(width)
            return bareiss(rows, width)

        monkeypatch.setattr(preduce, "bareiss", counted)
        for coeffs in ([1, 2], [0, 1, 2], [0, 0, 1, 2], [1, 0, 0, 3, 6]):
            MinPoly(2, coeffs).element([2, 1]).inverse()
        assert calls == [5]

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

    # (x + 1)(x + 2), (x + 1)(x^2 + 2) and (x + 1)(x^3 + 2): z + 1 divides zero
    @pytest.mark.parametrize("coeffs", [[3, 2], [1, 2, 2], [1, 0, 2, 2]])
    def test_zero_divisor_message_at_every_degree(self, coeffs):
        mp = MinPoly(2, coeffs)
        with pytest.raises(ZeroDivisionError, match="^zero divisor modulo a reducible polynomial$"):
            mp.element([1, 1]).inverse()

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
        det = bareiss(polys.multiplication_rows(mp._int_f, nums), n)[1]
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


class TestElementMinpoly:
    """One elimination over the columns 1, a, .., a^n against one solve per
    candidate degree."""

    @CHECKS
    @given(st.data())
    def test_matches_power_by_power_solves(self, data):
        field = data.draw(st.sampled_from(["integral", "odd_denominator", "even", "rationals", "ring_cubic"]))
        if field == "rationals":
            mp = MinPoly.rationals(2)
        elif field == "ring_cubic":
            mp = MinPoly(2, [0, 1, 2])  # (x + 1)(x^2 - x + 2): zero divisors, lower degrees
        else:
            n = data.draw(st.integers(2, 5))
            kind = odd_denominator_coeffs if field == "odd_denominator" else integral_coeffs
            coeffs = data.draw(st.lists(kind, min_size=n, max_size=n))
            if field == "even":  # f(x) = g(x^2): z^2 generates a proper subring
                n = 2 * (n // 2)
                coeffs = [c if i % 2 else Q(0) for i, c in enumerate(coeffs[:n])]
            mp = MinPoly(2, coeffs)
        n = mp.degree
        shape = data.draw(st.sampled_from(["dense", "rational", "power of generator", "ring factor"]))
        if shape == "rational" or n == 1:
            a = mp.rational(data.draw(entries))
        elif shape == "power of generator":
            a = mp.gen() ** data.draw(st.integers(1, 3))
        elif shape == "ring factor" and field == "ring_cubic":
            z = mp.gen()
            a = (z * z - z + 2) * data.draw(entries) + data.draw(entries)
        else:
            a = mp.element(data.draw(st.lists(entries, min_size=n, max_size=n)))
        assert element_minpoly(a) == element_minpoly_by_solves(a)


class TestResultant:
    """disc(G) of the monic form, a norm of G', against the Euclid resultant."""

    @CHECKS
    @given(f=st.lists(entries, min_size=2, max_size=8))
    def test_discriminant(self, f):
        f = polys.ptrim(f)
        assume(len(f) >= 2)
        n = len(f) - 1
        # G's roots are a times those of f
        G, a, got = polys._monic_form(f)
        assert all(c * a ** i * f[-1] == f[i] * a ** n for i, c in enumerate(G))
        assert got == euclid_resultant(G, polys.pderiv(G)) * (-1) ** (n * (n - 1) // 2)

    @CHECKS
    @given(st.integers(2, 6), st.sampled_from([2, 3]), st.integers(-10**20, 10**20), st.integers(-10**20, 10**20))
    def test_trinomial_discriminant(self, n, p, a, b):
        """x^n + a x + b p, the z-set's shape: the written-out determinant
        through degree 4, the elimination at 5 and 6."""
        f = [Q(b * p), Q(a)] + [Q(0)] * (n - 2) + [Q(1)]
        G, lead, got = polys._monic_form(f)
        assert (G, lead) == (tuple(f), 1)
        assert got == discriminant(f)
