"""Field elements as integer numerators over one denominator: every
operation against the Fraction-tuple reference in ``oracles``, and the
canonical form (den > 0, gcd(den, *nums) = 1, zero as (0, .., 0)/1) that
makes equality, hashing and ``key()`` structural."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiccf.cfrac import _unit_normalizer
from padiccf.field import FieldElement, MinPoly, VectorElement, _reduced, height_z
from padiccf.rationals import Q
from oracles import fraction_tuple_op, height_by_coeffs, unit_normalizer_by_coeffs

CHECKS = settings(max_examples=150, deadline=None)

# numerators up to hundreds of digits, as at the late convergents
# horizons; denominators share small factors so gcd(d_a, d_b) > 1 is common
numerators = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-10**300, 10**300),
)
shared = st.sampled_from([1, 2, 3, 4, 6, 12, 2**64, 6**40])
denominators = st.builds(operator.mul, shared, st.one_of(st.integers(1, 9), st.integers(1, 10**200)))
rationals = st.builds(Q, numerators, denominators)
# defining coefficients: integral, or p-integral with D > 1 (p = 2)
integral = st.integers(-12, 12).map(Q)
odd_denominator = st.builds(Q, st.integers(-12, 12), st.sampled_from([1, 3, 5, 9, 15, 45]))


@st.composite
def fields(draw):
    """Degrees 1 to 6: the rational sentinel, a linear x + a, and monic
    polynomials of degree 2-6 with integral or non-integral coefficients."""
    kind = draw(st.sampled_from(["rationals", "linear", "integral", "odd_denominator"]))
    if kind == "rationals":
        return MinPoly.rationals(2)
    if kind == "linear":
        return MinPoly(2, [draw(odd_denominator)])
    n = draw(st.integers(2, 6))
    coeffs = integral if kind == "integral" else odd_denominator
    return MinPoly(2, draw(st.lists(coeffs, min_size=n, max_size=n)))


@st.composite
def operand_pairs(draw, mp):
    """Two coefficient lists of length n; the second is often built from
    the first so that sums cancel content or vanish outright."""
    n = mp.degree
    x = draw(st.lists(rationals, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["dense", "constant", "zero", "opposite", "multiple", "near"]))
    if shape == "constant":
        y = [draw(rationals)] + [Q(0)] * (n - 1)
    elif shape == "zero":
        y = [Q(0)] * n
    elif shape == "opposite":
        y = [-c for c in x]
    elif shape == "multiple":
        c = draw(rationals)
        y = [c * v for v in x]
    elif shape == "near":
        y = [-v + draw(st.builds(Q, st.integers(-3, 3), shared)) for v in x]
    else:
        y = draw(st.lists(rationals, min_size=n, max_size=n))
    return x, y


def assert_canonical(a):
    assert type(a.den) is int and a.den > 0
    assert type(a.nums) is tuple and len(a.nums) == a.minpoly.degree
    assert all(type(v) is int for v in a.nums)
    assert math.gcd(a.den, *a.nums) == 1
    if not any(a.nums):
        assert a.den == 1


def assert_matches(a, want):
    assert_canonical(a)
    assert a.coeffs == tuple(Fraction(c) for c in want)


def lift(mp, c):
    return [c] + [Q(0)] * (mp.degree - 1)


def check_op(mp, op, x, y, got):
    """``got()`` computes x op y in the field; the oracle decides whether it
    must raise ZeroDivisionError."""
    try:
        want = fraction_tuple_op(mp, op, x, y)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got()
    else:
        assert_matches(got(), want)


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class TestAgainstFractionTuples:
    @CHECKS
    @given(st.data())
    def test_element_operands(self, data):
        mp = data.draw(fields())
        x, y = data.draw(operand_pairs(mp))
        a, b = mp.element(x), mp.element(y)
        assert_matches(a, x)
        assert_matches(b, y)
        for op, fn in OPS.items():
            check_op(mp, op, x, y, lambda: fn(a, b))
            check_op(mp, op, y, x, lambda: fn(b, a))

    @CHECKS
    @given(st.data())
    def test_scalar_operands(self, data):
        mp = data.draw(fields())
        x = data.draw(st.lists(rationals, min_size=mp.degree, max_size=mp.degree))
        c = data.draw(st.one_of(rationals, st.integers(-10**40, 10**40)))
        a = mp.element(x)
        for op, fn in OPS.items():
            check_op(mp, op, x, lift(mp, c), lambda: fn(a, c))
            check_op(mp, op, lift(mp, c), x, lambda: fn(c, a))

    @CHECKS
    @given(st.data())
    def test_negation_and_inverse(self, data):
        mp = data.draw(fields())
        x, _ = data.draw(operand_pairs(mp))
        a = mp.element(x)
        assert_matches(-a, fraction_tuple_op(mp, "neg", x))
        check_op(mp, "inv", x, None, a.inverse)


    @CHECKS
    @given(st.data())
    def test_gauges_read_nums_as_the_fractions_would(self, data):
        # height_z and _unit_normalizer reduce each num_i/den by its own gcd
        mp = data.draw(fields())
        x, y = data.draw(operand_pairs(mp))
        p = data.draw(st.sampled_from([2, 3, 5]))
        for a in (mp.element(x), mp.element(x) + mp.element(y)):
            assert height_z(a) == height_by_coeffs(a)
            assert _unit_normalizer(a.nums, a.den, p)[0] == unit_normalizer_by_coeffs(a, p)
        vec = mp.vector([mp.element(x), mp.element(y)])
        assert height_z(vec) == max(height_by_coeffs(c) for c in vec)


class TestUnitNormalizer:
    """The one n-ary gcd g / gcd(g, den) against the gcd of the
    z-coefficient numerators in lowest terms, on canonical elements built
    to hit each case: a zero z-part, numerators sharing primes with den,
    negative numerators and content that is a power of p; and on the same
    values unreduced by a common factor."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_gcd_is_the_gcd_of_lowest_terms_numerators(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(1, 5))
        mp = MinPoly(p, [1] * (n - 1) + [p])  # only nums and den are read
        den = data.draw(st.builds(operator.mul, st.sampled_from([1, p, p ** 7, 6, 35, 2**10 * 3**4 * 5]),
                                  st.integers(1, 10**6)))
        content = data.draw(st.sampled_from([1, p, p ** 9, -1, -p ** 4]))
        content *= math.gcd(den, data.draw(st.integers(1, 10**9)))  # shares primes with den
        zpart = data.draw(st.one_of(
            st.just([0] * (n - 1)),
            st.lists(st.integers(-10**40, 10**40), min_size=n - 1, max_size=n - 1),
        ))
        const = data.draw(st.one_of(st.just(1), st.integers(-10**40, 10**40)))
        a = _reduced(mp, (const,) + tuple(content * x for x in zpart), den)
        assert _unit_normalizer(a.nums, a.den, p)[0] == unit_normalizer_by_coeffs(a, p)
        # the value decides it: an unreduced form of a gives the same unit,
        # and unit * c bounds the content of (h, z-part) over unit * den
        k = data.draw(st.sampled_from([1, p, p ** 5, 6, 35])) * data.draw(st.integers(1, 10**6))
        nums, den = tuple(k * x for x in a.nums), k * a.den
        unit, c = _unit_normalizer(nums, den, p)
        assert unit == unit_normalizer_by_coeffs(a, p)
        h = data.draw(st.integers(-10**40, 10**40))
        assert (unit * c) % math.gcd(h, *nums[1:], unit * den) == 0


class TestCanonicalForm:
    def test_slots_hold_ints(self, k3):
        a = k3.element([Q(1, 6), Q(-5, 4), Q(7, 9)])
        assert FieldElement.__slots__ == ("minpoly", "nums", "den")
        assert (a.nums, a.den) == ((6, -45, 28), 36)
        with pytest.raises(AttributeError):
            a.coeffs = (Q(1),) * 3

    def test_sum_reduces_by_the_common_denominator_factor(self, k2):
        # g = gcd(6, 6) = 6 and the numerators share 2 with it
        a = k2.element([Q(1, 6), Q(1, 6)])
        assert ((a + a).nums, (a + a).den) == ((1, 1), 3)
        # g = 4: 1/4 + z/2 plus 1/4 - z/2 is 1/2
        s = k2.element([Q(1, 4), Q(1, 2)]) + k2.element([Q(1, 4), Q(-1, 2)])
        assert (s.nums, s.den) == ((1, 0), 2)
        d = k2.element([Q(5, 12), Q(1, 6)]) - k2.element([Q(1, 12), Q(1, 6)])
        assert (d.nums, d.den) == ((1, 0), 3)

    @pytest.mark.parametrize("mp_name", ["k2", "k3", "ring_cubic"])
    def test_zero_from_every_path(self, mp_name, request):
        mp = request.getfixturevalue(mp_name)
        a = mp.element([Q(3, 4), Q(-1, 6)])
        zeros = [
            mp.zero(),
            mp.element([0] * mp.degree),
            mp.rational(Q(0, 7)),
            a - a,
            a + (-a),
            a * 0,
            0 * a,
            a * mp.zero(),
            a / Q(7, 3) - a * Q(3, 7),
            FieldElement.from_json(mp, {"coeffs": ["0", "0/5"]}),
        ]
        for z in zeros:
            assert (z.nums, z.den) == ((0,) * mp.degree, 1)
            assert z == mp.zero() and hash(z) == hash(mp.zero()) and z.key() == mp.zero().key()

    @CHECKS
    @given(st.data())
    def test_equal_values_are_equal_objects(self, data):
        mp = data.draw(fields())
        x, y = data.draw(operand_pairs(mp))
        a, b = mp.element(x), mp.element(y)
        prod = a * b
        paths = [
            mp.element(fraction_tuple_op(mp, "*", x, y)),
            FieldElement.from_json(mp, prod.to_json()),
            (prod + a) - a,
            b * a,
        ]
        if b:
            try:
                paths.append(prod / b * b)
                paths.append((a.inverse() * b.inverse()).inverse() if a else prod)
            except ZeroDivisionError:
                pass  # a zero divisor of a reducible f
        for q in paths:
            assert_canonical(q)
            assert q == prod and hash(q) == hash(prod) and q.key() == prod.key()

    def test_vectors_compare_and_hash_by_components(self, k3):
        u = k3.vector([[Q(1, 2), 3], [0, Q(-2, 9)]])
        v = k3.vector([k3.element([Q(2, 4), 3]), k3.element([Q(1, 9), Q(-1, 9)]) * k3.rational(2) - Q(2, 9)])
        assert u == v and hash(u) == hash(v) and u.key() == v.key()
        assert {u: 1}[v] == 1
        assert VectorElement(u.components[::-1]) != u

    def test_mixed_fields_never_equal(self, k2):
        other = MinPoly(2, [1, 6])
        assert k2.element([1, 1]) != other.element([1, 1])
