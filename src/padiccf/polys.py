"""Dense polynomial helpers over Q and irreducibility certification.

Polynomials are tuples of rationals in ascending order, trimmed so the
leading coefficient is nonzero (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import math

from .preduce import bareiss, scale_rows
from .rationals import Q, QZERO, is_prime, inv_mod

Poly = tuple


def ptrim(c) -> Poly:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def pdeg(f: Poly) -> int:
    return len(f) - 1


def peval(f: Poly, x):
    acc = QZERO
    for c in reversed(f):
        acc = acc * x + c
    return acc


def pderiv(f: Poly) -> Poly:
    return ptrim(c * i for i, c in enumerate(f) if i)


def resultant(f: Poly, g: Poly):
    """res(f, g) as the determinant of the Sylvester matrix, exact over Q.

    f and g are first cleared to integer polynomials F = u f and G = v g,
    so res(f, g) = det Syl(F, G) / (u^deg g v^deg f)."""
    if not f or not g:
        return QZERO
    m, n = pdeg(f), pdeg(g)
    (fd, gd), (u, v) = scale_rows((f[::-1], g[::-1]))
    rows = [[0] * i + fd + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (m - 1 - i) for i in range(m)]
    return Q(bareiss(rows, m + n)[1], u ** n * v ** m)


def discriminant(f: Poly):
    n = pdeg(f)
    d = resultant(f, pderiv(f)) / f[-1]
    if (n * (n - 1) // 2) % 2:
        d = -d
    return d


# --- monic integer polynomials modulo a prime -------------------------------
# Support for the single-prime irreducibility certificate: a monic
# polynomial that is irreducible over GF(q) is irreducible over Q.


def _mtrim(f, q):
    f = [c % q for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _mmul(f, g, q):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return _mtrim(out, q)


def _mrem(f, g, q):
    f = list(f)
    inv = inv_mod(g[-1], q)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1] * inv % q
        if c:
            for j, b in enumerate(g):
                f[k + j] = (f[k + j] - c * b) % q
    return _mtrim(f[: len(g) - 1], q)


def _msub(f, g, q):
    n = max(len(f), len(g))
    return _mtrim(
        [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)],
        q,
    )


def _mgcd(f, g, q):
    while g:
        f, g = g, _mrem(f, g, q)
    if not f:
        return []
    inv = inv_mod(f[-1], q)
    return _mtrim([c * inv % q for c in f], q)


def _mpow_x(e, modpoly, q):
    """x**e modulo (modpoly, q)."""
    result = [1]
    base = _mrem([0, 1], modpoly, q)
    while e:
        if e & 1:
            result = _mrem(_mmul(result, base, q), modpoly, q)
        e >>= 1
        if e:
            base = _mrem(_mmul(base, base, q), modpoly, q)
    return result


_X = [0, 1]


def irreducible_mod_q(f_int, q: int) -> bool:
    """Distinct-degree criterion: monic integer f irreducible over GF(q).

    f irreducible of degree n iff x**(q**n) = x mod f and
    gcd(x**(q**(n/r)) - x, f) = 1 for every prime r | n.
    """
    f = _mtrim(list(f_int), q)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if _msub(_mpow_x(q ** n, f, q), _X, q):
        return False
    for r in range(2, n + 1):
        if n % r == 0 and is_prime(r):
            g = _msub(_mpow_x(q ** (n // r), f, q), _X, q)
            if not g or len(_mgcd(f, g, q)) > 1:
                return False
    return True


CERTIFICATE_TRIES = 25


def certificate_prime(f: Poly, p: int):
    """Search a prime witness q != p among the first CERTIFICATE_TRIES
    candidates, coprime to disc(f) and the coefficient denominators, with
    f mod q irreducible.

    Returns the witness or None.  Soundness is one-sided: a witness proves
    irreducibility over Q; absence proves nothing.
    """
    disc = discriminant(f)
    if not disc:
        return None
    bad = abs(disc.numerator) * disc.denominator
    for c in f:
        bad *= c.denominator
    q = 1
    seen = 0
    while seen < CERTIFICATE_TRIES:
        q += 1
        if not is_prime(q) or q == p or bad % q == 0:
            continue
        seen += 1
        f_int = [c.numerator * inv_mod(c.denominator, q) % q for c in f]
        if irreducible_mod_q(f_int, q):
            return q
    return None


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(f: Poly):
    """All rational roots, by the rational root test on the cleared form."""
    f = ptrim(f)
    if not f or pdeg(f) == 0:
        return []
    (ints,), _ = scale_rows([f])
    roots = set()
    while ints and ints[0] == 0:
        ints = ints[1:]
        roots.add(Q(0))
    if len(ints) <= 1:
        return sorted(roots)
    for r in _divisors(ints[0]):
        for s in _divisors(ints[-1]):
            if math.gcd(r, s) == 1:
                for cand in (Q(r, s), Q(-r, s)):
                    if not peval(f, cand):
                        roots.add(cand)
    return sorted(roots)


def is_irreducible_exact(f: Poly) -> bool:
    """Exact irreducibility over Q for a monic polynomial.

    Order: degree shortcuts, squarefree check, rational root test, then
    sympy factorization as the complete fallback.  The certificate search
    is the caller's fast path; some quartics (A4 Galois group) are
    irreducible over Q yet reducible mod every prime and land here.
    """
    f = ptrim(f)
    n = pdeg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if not discriminant(f):  # a repeated root: gcd(f, f') is nontrivial
        return False
    if rational_roots(f):
        return False
    if n <= 3:
        return True
    from sympy import Poly as SymPoly, Rational as SymRational
    from sympy.abc import x

    sym = sum(
        SymRational(c.numerator, c.denominator) * x ** i
        for i, c in enumerate(f)
    )
    return SymPoly(sym, x).is_irreducible
