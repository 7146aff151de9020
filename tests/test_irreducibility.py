"""Differential tests of irreducibility certification.

The oracles are the single-prime criterion with divisor-based rational
roots and sympy's factorization (``tests/oracles.py``), brute-force
factorization over GF(q), and constructed factorizations.
"""

import functools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from padiccf import lab, polys
from padiccf.cli import main
from padiccf.errors import CapExceeded, Reducible
from padiccf.field import validate_minpoly

SRC = str(Path(__file__).resolve().parents[1] / "src")
BIG = 10**30 + 57
# (x^2 + x + 1)(x^2 + x + 2 BIG): no rational root, and the rational root
# test by trial division up to sqrt(2 BIG) never ends
BIG_QUARTIC = [2, 2 * BIG + 2, 2 * BIG + 1, 2 * BIG]
# prod (x +- sqrt2 +- sqrt3 +- sqrt5): irreducible, yet every factor mod
# every prime has degree at most 2
SWINNERTON_DYER = (576, 0, -960, 0, 352, 0, -40, 0, 1)


def F(coeffs):
    return tuple(Fraction(c) for c in coeffs)


def product(*factors):
    return F(functools.reduce(polys._zmul, factors))


def outcome(p, coeffs):
    try:
        cert = validate_minpoly(p, coeffs).certificate_prime
    except Reducible:
        return "reducible"
    return "unknown" if cert is None else cert


def oracle_outcome(p, coeffs):
    asc = F(coeffs[::-1]) + (Fraction(1),)
    cert = oracles.certificate_prime(asc, p)
    if cert is not None:
        return cert
    return "unknown" if oracles.is_irreducible_exact(asc) else "reducible"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_z_set_candidates_match_the_criterion_and_sympy(p):
    # every build_z_set candidate at degrees 2..6: same verdict, same prime
    for degree in range(2, 7):
        for a in range(lab.Z_A_RANGE[0], lab.Z_A_RANGE[1] + 1):
            if a % p == 0:
                continue
            for b in range(lab.Z_B_RANGE[0], lab.Z_B_RANGE[1] + 1):
                if b:
                    coeffs = [0] * (degree - 2) + [a, b * p]
                    assert outcome(p, coeffs) == oracle_outcome(p, coeffs), (degree, a, b)


@pytest.mark.parametrize("p, coeffs, result", [
    (2, [1, 2], 3),  # certified at q = 3
    (2, [3, 2], "reducible"),  # (x + 1)(x + 2): a rational root
    (3, [0, 0, 8, 12], "unknown"),  # the A4 quartic: settled by the sieve
    (3, [0, 0, 7, -12], "reducible"),  # (x^2 + x - 3)(x^2 - x + 4): by recombination
])
def test_one_monic_form_per_candidate(monkeypatch, p, coeffs, result):
    # G and disc(G) are built once and shared by every stage
    calls = []
    monic_form = polys._monic_form
    monkeypatch.setattr(polys, "_monic_form", lambda f: calls.append(f) or monic_form(f))
    assert outcome(p, coeffs) == result
    assert len(calls) == 1


@pytest.mark.parametrize("p, coeffs", [
    (2, [1, 2]), (3, [1, 3]),  # x^2 + x + 2 and x^2 + x + 3
    (2, [0, 1, 2]), (3, [0, 1, 3]),  # x^3 + x + 2 and x^3 + x + 3
    (2, [0, 3, -4]),  # x^3 + 3x - 4: the root 1
])
def test_quadratic_and_cubic_decisions_compute_no_pattern(monkeypatch, p, coeffs):
    # without a rational root a quadratic or cubic is irreducible, so the
    # rational-root stage ends the decision; the certificate is found on read
    want = oracle_outcome(p, coeffs)
    memo, calls = polys._residue_pattern, []
    monkeypatch.setattr(polys, "_residue_pattern", lambda Gq, q: calls.append(q) or memo(Gq, q))
    if want == "reducible":
        with pytest.raises(Reducible):
            validate_minpoly(p, coeffs)
        assert calls == []
        return
    mp = validate_minpoly(p, coeffs)
    assert polys.is_irreducible_exact(mp.ascending())
    assert calls == []
    assert mp.certificate_prime == want and calls


def test_quartic_decision_stops_at_its_first_pattern(monkeypatch):
    # x^4 + x + 4 splits as 1 + 3 mod 3, its least good prime at p = 2:
    # with no rational root, no factor of degree 2 is left, so the sieve
    # proves it irreducible there; its certificate, 5, is found on read
    memo, seen = polys._residue_pattern, []

    def recorded(Gq, q):
        seen.append((q, memo(Gq, q)))
        return seen[-1][1]

    monkeypatch.setattr(polys, "_residue_pattern", recorded)
    f = F([4, 1, 0, 0, 1])
    pending = polys.certify(f, 2)
    assert seen == [(3, (1, 3))]
    assert polys.find_certificate(*pending, 2) == 5 == oracles.certificate_prime(f, 2)
    assert polys.certificate_prime(f, 2) == 5


@pytest.mark.parametrize("coeffs, p, cert", [
    ([1, 1, 0, 0, 1], 3, 2),  # x^4 + x + 1: the witness q = 2 ends the decision
    ([4, 1, 0, 0, 1], 2, 5),  # x^4 + x + 4: the sieve ends it at q = 3
    ([12, 8, 0, 0, 1], 3, None),  # the A4 quartic: the sieve, with no witness at all
    (SWINNERTON_DYER, 2, None),  # recombination
])
def test_certify_returns_the_monic_form_whichever_proof_ends_it(coeffs, p, cert):
    # one result shape: (G, disc(G)), from which the certificate is read
    f = F(coeffs)
    G, _, disc = polys._monic_form(f)
    assert polys.certify(f, p) == (G, disc)
    assert polys.find_certificate(G, disc, p) == cert == oracles.certificate_prime(f, p)


def _monic(draw, degree, bound):
    return [draw(st.integers(-bound, bound)) for _ in range(degree)] + [1]


@pytest.mark.parametrize("split", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_constructed_products_against_sympy(split, data):
    bound = data.draw(st.sampled_from([5, 10**6, 10**30]))
    factors = [_monic(data.draw, d, bound) for d in split]
    f = product(*factors)
    assert not polys.is_irreducible_exact(f)
    assert not oracles.sympy_irreducible(f)
    # each factor alone, which sympy decides either way
    for g in factors:
        assert polys.is_irreducible_exact(F(g)) == oracles.sympy_irreducible(g)


def test_a4_quartic_is_settled_by_the_sieve(monkeypatch):
    # x^4 + 8x + 12 (Galois group A4) splits as 1+1+1+1, 2+2 or 1+3 mod
    # every good prime; a 1+3 prime has no sub-multiset of degree 2
    monkeypatch.setattr(polys, "_recombine", None)
    f = F([12, 8, 0, 0, 1])
    assert polys.is_irreducible_exact(f)
    assert oracles.sympy_irreducible(f)


def test_swinnerton_dyer_octic_needs_recombination():
    f = F(SWINNERTON_DYER)
    assert polys.certificate_prime(f, 2) is None
    assert polys.is_irreducible_exact(f)
    assert oracles.sympy_irreducible(f)
    # the product of the sqrt2,sqrt3 and sqrt2,sqrt5 quartics: reducible
    # with the same degree patterns
    g = product([1, 0, -10, 0, 1], [9, 0, -14, 0, 1])
    assert not polys.is_irreducible_exact(g)
    assert not oracles.sympy_irreducible(g)


def test_recombination_budget(monkeypatch):
    monkeypatch.setattr(polys, "RECOMBINATION_TRIES", 3)
    with pytest.raises(CapExceeded):
        polys.is_irreducible_exact(F(SWINNERTON_DYER))


def test_recombination_budget_exits_2(monkeypatch, capsys):
    # x^4 + 7x - 12 = (x^2 + x - 3)(x^2 - x + 4), a z-set candidate at p = 3
    assert outcome(3, [0, 0, 7, -12]) == "reducible"
    monkeypatch.setattr(polys, "RECOMBINATION_TRIES", 0)
    code = main(["expand", "--p", "3", "--minpoly", "0,0,7,-12",
                 "--elem", '{"coeffs": ["1"]}', "--algo", "phi0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7, 11, 13]), data=st.data())
def test_distinct_degree_patterns_match_brute_force(q, data):
    degree = data.draw(st.integers(1, 5))
    f = [data.draw(st.integers(0, q - 1)) for _ in range(degree)] + [1]
    factors = oracles.brute_factors(f, q)
    pattern = polys._pattern(polys._ddf(f, q))  # f is monic mod q
    assert (pattern == (degree,)) == (len(factors) == 1)
    assume(len(set(factors)) == len(factors))  # squarefree
    assert pattern == tuple(sorted(len(g) - 1 for g in factors))


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7, 31, 65537]), data=st.data())
def test_fused_product_and_power_match_the_oracle(q, data):
    # _mulmod and _mpow against the oracle's product, remainder and x-power;
    # factors may reach degree n, as x does modulo a linear f
    n = data.draw(st.integers(1, 8))
    f = [data.draw(st.integers(0, q - 1)) for _ in range(n)] + [1]
    residues = st.lists(st.integers(0, q - 1), max_size=n + 1).map(lambda c: polys._mtrim(c, q))
    a, b = data.draw(residues), data.draw(residues)
    assert polys._mulmod(a, b, f, q) == oracles._mrem(oracles._mmul(a, b, q), f, q)
    e = data.draw(st.sampled_from([0, 1, q, q ** data.draw(st.integers(2, 4))]) | st.integers(0, 10**6))
    assert polys._mpow([0, 1], e, f, q) == oracles._mpow_x(e, f, q)
    power = [1]
    for k in range(data.draw(st.integers(0, 12))):
        assert polys._mpow(a, k, f, q) == oracles._mrem(power, f, q)
        power = oracles._mmul(power, a, q)
    if n == 1:
        assert polys._ddf(f, q) == [(1, f)]


def test_residue_memo_matches_cold_patterns(monkeypatch):
    # every pattern a z-set build reads from the memo is the pattern a cold
    # distinct-degree factorization of that residue gives
    memo, seen = polys._residue_pattern, []

    def recorded(Gq, q):
        pattern = memo(Gq, q)
        seen.append((Gq, q, pattern))
        return pattern

    memo.cache_clear()
    monkeypatch.setattr(polys, "_residue_pattern", recorded)
    for p in (2, 3):
        for n in (2, 3, 4):
            lab.build_z_set.__wrapped__(p, n)
    assert memo.cache_info().hits > 0
    for Gq, q, pattern in seen:
        assert pattern == polys._pattern(polys._ddf(list(Gq), q)), (Gq, q)


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**6)), max_size=3),
    c=st.integers(1, 10**30),
    repeat=st.booleans(),
)
@example(roots=[(2, 1), (-2, 1)], c=1, repeat=False)
@example(roots=[(0, 1), (-1, 1)], c=1, repeat=False)
@example(roots=[(1, 2), (-1, 1)], c=1, repeat=True)
@example(roots=[], c=2, repeat=False)
def test_rational_roots_of_constructed_products(roots, c, repeat):
    # (x^2 + c) times (s x - r) for each root, squared when ``repeat``:
    # certify finds a root (or a square factor) and refuses the product,
    # and the rational-root stage finds exactly the roots, scaled by the
    # leading coefficient, in the monic form of the squarefree product
    f = [c, 0, 1]
    for r, s in roots:
        for _ in range(1 + repeat):
            f = polys._zmul(f, [-r, s])
    want = {Fraction(r, s) for r, s in roots}
    if want:
        with pytest.raises(Reducible):
            polys.certify(F(f), 2)
    else:
        polys.certify(F(f), 2)  # x^2 + c is irreducible: no Reducible
    squarefree = [c, 0, 1]
    for x in want:
        squarefree = polys._zmul(squarefree, [-x.numerator, x.denominator])
    G, a, disc = polys._monic_form(F(squarefree))
    assert disc and sorted(polys._integer_roots(G, disc)) == sorted(a * x for x in want)


def test_big_constant_quartic_is_reducible():
    with pytest.raises(Reducible):
        validate_minpoly(2, BIG_QUARTIC)
    # the irreducible cubic x^3 + x + 2 BIG still certifies at q = 5
    assert validate_minpoly(2, [0, 1, 2 * BIG]).certificate_prime == 5


def _cli(*args, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    script = ("import sys; from padiccf.cli import main; code = main(sys.argv[1:]); "
              "print('sympy loaded' if 'sympy' in sys.modules else 'stdlib only', file=sys.stderr); "
              "sys.exit(code)")
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_big_constant_quartic_cli_exits_2_quickly():
    t0 = time.perf_counter()
    res = _cli("expand", "--p", "2", "--minpoly", ",".join(map(str, BIG_QUARTIC)),
               "--elem", '{"coeffs": ["1"]}', "--algo", "phi0", timeout=20)
    assert res.returncode == 2
    assert "error: polynomial factors over Q" in res.stderr
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("p", [2, 3])
def test_zset_runs_without_sympy(p):
    # the quartic z-sets hold reducible quartics without a rational root
    # and (at p = 3) an irreducible one without a certificate
    res = _cli("zset", "--p", str(p), "--degree", "4")
    assert res.returncode == 0
    assert "stdlib only" in res.stderr
    assert len(res.stdout.splitlines()) == len(lab.build_z_set(p, 4))
