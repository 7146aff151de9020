import random

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


class TestRecombination:
    """Zassenhaus recombination on monic integer polynomials, called with
    a prime q that does not divide the discriminant."""

    def test_fermat_inverses_invert_cofactors(self):
        # (G/u)^(q^deg(u) - 2) is the inverse of G/u modulo (u, q) for each
        # irreducible factor u of G mod q
        G = (12, 8, 0, 0, 1)  # x^4 + 8x + 12
        for q in (5, 7, 11, 13):
            if polys._monic_form(G)[2] % q == 0:
                continue
            Gq, rng = polys._mtrim(G, q), random.Random(0)
            factors = [u for k, g in polys._ddf(Gq, q) for u in polys._edf(g, k, q, rng)]
            assert len(factors) > 1, q
            for u in factors:
                a = polys._mdivmod(Gq, u, q)[0]
                inv = polys._mpow(a, q ** polys.pdeg(u) - 2, u, q)
                assert polys._mulmod(a, inv, u, q) == [1], (q, u)

    def test_exact_product_check_finds_a_true_factor(self):
        # (x^3 - 5x + 7)(x^2 + 4x - 3): the cubic and the quadratic are found,
        # negative coefficients included; no product of degree 1 divides G
        G = tuple(polys._zmul([7, -5, 0, 1], [-3, 4, 1]))
        for q in (5, 7, 11, 13, 17):
            if polys._monic_form(G)[2] % q == 0:
                continue
            assert not polys._recombine(G, q, {2, 3}), q
            assert polys._recombine(G, q, {1}), q

    def test_swinnerton_dyer_octic_has_no_factor(self):
        # irreducible over Q, yet a product of factors of degree <= 2 mod
        # every prime: every subset is rejected by the exact product check
        G = (576, 0, -960, 0, 352, 0, -40, 0, 1)
        tried = 0
        for q in (7, 11, 13, 17, 19, 23):
            if polys._monic_form(G)[2] % q == 0:
                continue
            assert polys._recombine(G, q, {1, 2, 3, 4}), q
            tried += 1
        assert tried >= 2
