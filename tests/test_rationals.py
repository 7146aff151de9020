import pytest
import sympy
from hypothesis import given, settings, strategies as st

from padiccf.errors import NotPrime
from padiccf.rationals import (
    ORD_INF,
    PRIME_BOUND,
    Q,
    _vp_pos,
    check_prime,
    head_tail,
    height,
    is_prime,
    omega,
    ordp,
    qexact,
    qformat,
    qparse,
)
from oracles import digit_at, digit_stream, head_by_digits, vp_by_division

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
).map(lambda f: Q(f.numerator, f.denominator))
primes = st.sampled_from([2, 3, 5, 7, 13])


class TestOrd:
    def test_zero_is_infinite(self):
        assert ordp(Q(0), 2) is ORD_INF
        assert ordp(Q(0), 97) is ORD_INF

    def test_seven_halves(self):
        assert ordp(Q(7, 2), 2) == -1

    def test_valuation_additivity(self):
        # p^3 * a/b with p coprime to ab
        for p in (2, 5):
            assert ordp(Q(p**3 * 3, 7), p) == 3

    @given(rationals.filter(bool), primes)
    def test_unit_part_has_valuation_zero(self, q, p):
        assert ordp(q * Q(p) ** -ordp(q, p), p) == 0

    @given(rationals.filter(bool), primes)
    def test_matches_digit_oracle(self, q, p):
        e, _ = digit_stream(q, p, 1)
        assert ordp(q, p) == e


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vp_pos_matches_division_loop(p):
    for unit in (1, -1, p + 1, -(p ** 9 + 1), (p + 1) ** 40):
        for v in range(501):
            n = unit * p ** v
            assert _vp_pos(n, p) == vp_by_division(n, p) == v, (unit, v)


class TestOmega:
    def test_worked_examples(self):
        assert omega(Q(3), 2) == 1
        assert omega(Q(5), 5) == 0  # c0 of p is 0
        assert omega(Q(7, 2), 2) == 1

    def test_zero_convention(self):
        assert omega(Q(0), 3) == 0

    @given(rationals.filter(bool), primes)
    def test_matches_digit_oracle(self, q, p):
        assert omega(q, p) == digit_at(q, p, 0)

    @given(rationals.filter(bool), primes)
    def test_zero_iff_ord_nonzero_on_integers(self, q, p):
        # Restricted to Z_p-valued inputs: for ord < 0 the digit c0 is
        # unconstrained (p=2, q=3/2 has ord=-1 and omega=1).
        if ordp(q, p) >= 0:
            assert (omega(q, p) == 0) == (ordp(q, p) != 0)


class TestHeadTail:
    def test_seven_halves(self):
        assert head_tail(Q(7, 2), 2, 0) == (Q(3, 2), Q(2))

    def test_multiple_of_p(self):
        assert head_tail(Q(4), 2, 0) == (Q(0), Q(4))

    @given(rationals, primes, st.integers(min_value=-6, max_value=8))
    def test_partition_identity(self, q, p, m):
        h, t = head_tail(q, p, m)
        assert h + t == q
        assert not t or ordp(t, p) > m

    @given(rationals.filter(bool), primes, st.integers(min_value=-4, max_value=8))
    def test_head_matches_digit_oracle(self, q, p, m):
        want = head_by_digits(q, p, m)
        h, _ = head_tail(q, p, m)
        assert h == Q(want.numerator, want.denominator)

    @given(rationals.filter(bool), primes, st.integers(min_value=-4, max_value=8))
    def test_head_digit_range(self, q, p, m):
        h, _ = head_tail(q, p, m)
        if h:
            assert ordp(h, p) >= ordp(q, p)
            # nonnegative, denominator a power of p, below p^(m+1)
            den = int(h.denominator)
            while den % p == 0:
                den //= p
            assert den == 1
            assert 0 <= h < Q(p) ** (m + 1)


class TestHeight:
    def test_worked_examples(self):
        assert height(Q(2, 3)) == 5
        assert height(Q(-4)) == 5
        assert height(Q(0)) == 1

    @given(rationals)
    def test_sign_invariance(self, q):
        assert height(q) == height(-q)


class TestSerialization:
    @pytest.mark.parametrize(
        "q,text", [(Q(-5, 7), "-5/7"), (Q(3), "3"), (Q(0), "0"), (Q(10, 4), "5/2")]
    )
    def test_canonical_strings(self, q, text):
        assert qformat(q) == text
        assert qparse(text) == q

    @given(rationals)
    def test_round_trip(self, q):
        assert qparse(qformat(q)) == q

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            qparse(text)


def test_prime_checker():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2**31 - 1)
    assert not is_prime(561 * 997)


def test_prime_checker_against_sympy():
    assert [n for n in range(-3, 20_000) if is_prime(n)] == list(sympy.primerange(20_000))
    assert not is_prime(318665857834031151167461)  # a strong pseudoprime to the bases 2..37


@settings(max_examples=300, deadline=None)
@given(st.integers(2, PRIME_BOUND - 1))
def test_prime_checker_against_sympy_below_bound(n):
    assert is_prime(n) == sympy.isprime(n)


# the least strong pseudoprimes to the bases 2..37 (399165290221 *
# 798330580441) and to the bases 2..41, PRIME_BOUND itself
@pytest.mark.parametrize("n", [318665857834031151167461, PRIME_BOUND])
def test_strong_pseudoprimes_are_refused(n):
    assert not sympy.isprime(n)
    with pytest.raises(NotPrime):
        check_prime(n)


@pytest.mark.parametrize("p", [2.0, 2.5, True, "2"])
def test_check_prime_takes_only_ints(p):
    with pytest.raises(NotPrime):
        check_prime(p)


def test_qexact_keeps_a_fraction_and_refuses_a_float():
    q = Q(-7, 12)
    assert qexact(q) is q
    assert type(qexact(3)) is Q and qexact(3) == 3
    assert qexact("5/10") == Q(1, 2)
    with pytest.raises(TypeError, match="^a float is not an exact rational"):
        qexact(0.5)
