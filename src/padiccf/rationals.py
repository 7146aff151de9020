"""Exact p-adic digit arithmetic on arbitrary-precision rationals.

Every scalar in the package is a ``fractions.Fraction`` (``Q``) in lowest
terms with positive denominator, or a plain int.  The canonical string
form used for serialization is ``"num/den"`` with the denominator omitted
when 1 and the sign carried by the numerator, e.g. ``"-5/7"``, ``"3"``.

Valuations are plain ints with ``ORD_INF`` (``math.inf``) reserved for the
zero input.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

BACKEND = "fractions"  # the one scalar type; stamped on benchmark results


def _vp_pos(n: int, p: int) -> int:
    # valuation of a nonzero integer: the lowest set bit for p = 2,
    # otherwise one division at a time
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


ORD_INF = math.inf

QZERO = Q(0)
QONE = Q(1)


def qpow(p: int, e: int):
    """p**e as an exact rational, e may be negative."""
    if e >= 0:
        return Q(p ** e)
    return Q(1, p ** (-e))


def inv_mod(a, m: int) -> int:
    return pow(a, -1, m)


def vp_int(n, p: int):
    """p-adic valuation of an integer; ORD_INF for 0."""
    if n == 0:
        return ORD_INF
    return _vp_pos(n, p)


def ordp(q, p: int):
    """Valuation of a rational: v_p(num) - v_p(den); ORD_INF iff q = 0."""
    if not q:
        return ORD_INF
    return _vp_pos(q.numerator, p) - _vp_pos(q.denominator, p)


def absp(q, p: int):
    """p-adic absolute value p**(-ordp); 0 for the zero input."""
    if not q:
        return QZERO
    return qpow(p, -ordp(q, p))


def omega(q, p: int) -> int:
    """Digit c0 of the canonical expansion; 0 for the zero input.

    The convention omega(0) = 0 keeps the fractional maps total on exact
    zeros produced mid-expansion.
    """
    if not q:
        return 0
    num, den = q.numerator, q.denominator
    t = _vp_pos(den, p)
    pt = p ** t
    mod = pt * p
    r = num % mod * inv_mod(den // pt, mod) % mod
    return r // pt


def head_tail(q, p: int, m: int):
    """Split q into (head, tail) at digit index m.

    head carries the digits from ordp(q) up to m (a rational whose
    denominator is a power of p); tail = q - head has valuation > m.
    The unindexed floor/tail notation corresponds to m = 0.
    """
    if not q:
        return QZERO, QZERO
    if ordp(q, p) > m:
        return QZERO, q
    num, den = q.numerator, q.denominator
    t = _vp_pos(den, p)
    mod = p ** (m + t + 1)
    r = num % mod * inv_mod(den // p ** t, mod) % mod
    head = Q(r, p ** t)
    return head, q - head


def head(q, p: int, m: int = 0):
    return head_tail(q, p, m)[0]


def tail(q, p: int, m: int = 0):
    return head_tail(q, p, m)[1]


def height(q) -> int:
    """|numerator| + denominator on the canonical form; height(0) = 1."""
    return abs(q.numerator) + q.denominator


def qformat(q) -> str:
    """Canonical string: "num/den", den omitted when 1, sign on numerator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def qparse(s: str):
    """Inverse of :func:`qformat`; a zero denominator is a ValueError."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        return Q(int(num), den)
    return Q(int(s))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word-sized range used here."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses decide primality for all n < 3.3e24.
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p
