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

from .errors import NotPrime, RecordFormatError

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


def omega(q, p: int) -> int:
    """Digit c0 of the canonical expansion; 0 for the zero input.

    The convention omega(0) = 0 keeps the fractional maps total on exact
    zeros produced mid-expansion.  The digit is the floor of the head at
    index 0, read off :func:`head_num` as its numerator over den.
    """
    den = q.denominator
    return head_num(q.numerator, den, p, 0) // den


def head_num(num: int, den: int, p: int, m: int) -> int:
    """The head of num/den at digit index m (see :func:`head_tail`) as a
    numerator over den, for any int num and int den > 0: with den = p^t u
    and u prime to p, the head r/p^t is r u/den."""
    t = _vp_pos(den, p)
    if m + t < 0:
        return 0  # every digit of num/den lies at index -t > m or above
    u = den // p ** t
    mod = p ** (m + t + 1)
    return num * pow(u, -1, mod) % mod * u


def head_tail(q, p: int, m: int):
    """Split q into (head, tail) at digit index m.

    head carries the digits from ordp(q) up to m (a rational whose
    denominator is a power of p); tail = q - head has valuation > m.
    The unindexed floor/tail notation corresponds to m = 0.
    """
    num, den = q.numerator, q.denominator
    h = head_num(num, den, p, m)
    if not h:
        return QZERO, q
    return Q(h, den), Q(num - h, den)


def height(q) -> int:
    """|numerator| + denominator on the canonical form; height(0) = 1."""
    return abs(q.numerator) + q.denominator


def qexact(x) -> Q:
    """``Fraction(x)``, for anything ``Fraction`` accepts but a float: a
    float is a TypeError, since ``Fraction`` would read it as its binary
    value (0.1 as 3602879701896397/36028797018963968).  A ``Fraction``
    is returned as it is."""
    if type(x) is Q:
        return x
    if isinstance(x, float):
        raise TypeError(f"a float is not an exact rational: {x!r}")
    return Q(x)


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


def qparse_list(data) -> list:
    """:func:`qparse` over a JSON list of strings; any other shape is a
    RecordFormatError, so a string is never read character by character."""
    if not isinstance(data, list) or not all(isinstance(c, str) for c in data):
        raise RecordFormatError(f"expected a list of rational strings, got {data!r}")
    return [qparse(c) for c in data]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _SMALL_PRIMES (Sorenson and
# Webster, 2017): below it those bases decide primality.
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, exact for n < PRIME_BOUND."""
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
    """p if it is an int prime below PRIME_BOUND, else NotPrime."""
    if type(p) is not int or p >= PRIME_BOUND or not is_prime(p):
        raise NotPrime(f"{p!r} is not a prime below {PRIME_BOUND}")
    return p
