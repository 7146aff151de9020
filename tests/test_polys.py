import pytest

from padiccf import polys
from padiccf.rationals import Q


def P(*coeffs):
    return polys.ptrim(Q(c) for c in coeffs)


class TestArithmetic:
    def test_eval_and_deriv(self):
        f = P(1, 2, 3)
        assert polys.peval(f, Q(2)) == Q(17)
        assert polys.pderiv(f) == P(2, 6)

    def test_discriminant_quadratic(self):
        # x^2 + bx + c has discriminant b^2 - 4c
        for b, c in [(1, 2), (3, -5), (0, 7)]:
            assert polys.discriminant(P(c, b, 1)) == Q(b * b - 4 * c)

    def test_discriminant_cubic(self):
        # x^3 + px + q: -4p^3 - 27q^2
        assert polys.discriminant(P(4, 1, 0, 1)) == Q(-4 - 27 * 16)


def irreducible_mod_q(f, q):
    """The certificate stage's per-prime decision on f, made monic mod q:
    one distinct-degree factor of full degree."""
    f = polys._mtrim(list(f), q)
    inv = pow(f[-1], -1, q)
    return polys._pattern(polys._ddf([c * inv % q for c in f], q)) == (len(f) - 1,)


class TestModQ:
    def test_known_irreducible(self):
        assert irreducible_mod_q([1, 1, 1], 2)  # x^2+x+1 over GF(2)
        assert irreducible_mod_q([2, 1, 1], 3)  # x^2+x+2 over GF(3)

    def test_known_reducible(self):
        assert not irreducible_mod_q([1, 0, 1], 2)  # (x+1)^2
        assert not irreducible_mod_q([1, 2, 2, 1], 3)  # root at -1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_against_exhaustive_products(self, q):
        # degree-4 polynomials reducible over GF(q) are exactly products;
        # cross-check the criterion against brute-force trial division
        def brute_irreducible(f):
            n = len(f) - 1
            for d in range(1, n // 2 + 1):
                for code in range(q**d):
                    g = [code // q**i % q for i in range(d)] + [1]
                    if not polys._mrem(f, g, q):
                        return False
            return True

        import random

        rnd = random.Random(7)
        for _ in range(40):
            f = [rnd.randrange(q) for _ in range(4)] + [1]
            assert irreducible_mod_q(f, q) == brute_irreducible(f)


class TestCertificates:
    def test_certificate_for_worked_quadratic(self):
        assert polys.certificate_prime(P(2, 1, 1), 2) == 3

    def test_no_certificate_for_reducible(self):
        assert polys.certificate_prime(P(-4, 0, 1), 2) is None

    def test_a4_quartic_has_no_certificate_but_is_irreducible(self):
        # x^4 + 8x + 12: Galois group A4, irreducible over Q yet reducible
        # mod every prime
        f = P(12, 8, 0, 0, 1)
        assert polys.certificate_prime(f, 3) is None
        assert polys.is_irreducible_exact(f)

    def test_exact_irreducibility_basics(self):
        assert polys.is_irreducible_exact(P(2, 1, 1))
        assert not polys.is_irreducible_exact(P(-4, 0, 1))
        assert polys.is_irreducible_exact(P(4, 1, 0, 1))  # x^3+x+4
        assert not polys.is_irreducible_exact(P(2, 1, 0, 1))  # x^3+x+2 = (x+1)(x^2-x+2)

    def test_non_squarefree_without_rational_root(self):
        # (x^2+1)^2 and (x^2-2)^2: a repeated factor and no rational root
        assert not polys.is_irreducible_exact(P(1, 0, 2, 0, 1))
        assert not polys.is_irreducible_exact(P(4, 0, -4, 0, 1))

    def test_exact_agrees_with_certificates_on_trinomials(self):
        # every certified polynomial must also pass the exact route
        for degree in (2, 3, 4):
            for a in range(1, 11):
                for b in (-3, -1, 1, 3):
                    f = P(*([2 * b, a] + [0] * (degree - 2) + [1]))
                    cert = polys.certificate_prime(f, 2)
                    if cert is not None:
                        assert polys.is_irreducible_exact(f), (degree, a, b)
