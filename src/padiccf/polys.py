"""Dense polynomials over Q and exact irreducibility certification.

Polynomials are tuples of rationals in ascending order, trimmed so the
leading coefficient is nonzero (the zero polynomial is the empty tuple).

Certification works on the monic integer form G(y) = a^(n-1) A(y/a) of
f, where A is f's cleared integer form and a its leading coefficient: G
is irreducible exactly when f is, and its roots are a times those of f.
A prime q is *good* when it does not divide disc(G); then G mod q is
squarefree.  :func:`certify` makes the whole decision: it builds G and
disc(G) once per polynomial, the discriminant on integers as one
determinant (the norm of G' in Q[z]/(G), from
``preduce.first_row_expansion``), and runs, cheapest first:

1. **squarefree**: disc(f) = 0 means a repeated factor;
2. **rational roots**: the roots of G modulo the least good prime,
   lifted by :func:`newton_lift` past twice the Cauchy bound and tested
   exactly;
3. **patterns**: one distinct-degree factorization of G mod q for each
   of the first ``CERTIFICATE_TRIES`` good primes q != p, in increasing
   order, with x^(q^k) from the Frobenius matrix of x^q (Cohen, *A Course
   in Computational Algebraic Number Theory*, Alg. 3.4.3), records the
   degrees of the factors mod q.  x^q and each matrix row cost one fused
   product mod (G, q), a convolution whose top terms fold down by G's low
   coefficients.  The degrees depend on G mod q alone, so they are
   memoized per (G mod q, q): a z-set meets the same residue again and
   again;
4. **sieve**: a factor of degree k over Q is a sub-multiset of degree k
   in every pattern (Musser 1978, *J. ACM* 25), and with no rational
   root k lies in 2..n-2.  The decision stops at the first proof: at a
   single factor of degree n mod q, the *witness*, or at the first prime
   after which no k in 2..n-2 is a subset sum of every pattern so far.
   For n <= 3 that range is empty, so the rational-root stage ends the
   decision and no pattern is computed;
5. **recombination**: when all the tries leave a degree open and met no
   witness, G is factored modulo the odd tried prime with the fewest
   factors (distinct-degree split, then Cantor-Zassenhaus with a fixed
   seed), the factors u are Hensel-lifted past twice the Mignotte bound,
   with the inverse of G/u mod (u, q) a Fermat power as u is irreducible
   mod q, and each product g of up to r/2 of them, centered mod the
   lifted modulus m, is checked by one exact product: g divides G exactly
   when g times the centered quotient of G by g mod m is G, as a true
   cofactor's coefficients lie under the bound (Zassenhaus 1969; von zur
   Gathen and Gerhard, *Modern Computer Algebra*, ch. 15);
6. **budget**: recombination examines at most ``RECOMBINATION_TRIES``
   subsets and raises ``CapExceeded`` past that.

:func:`certify` returns (G, disc(G)) whichever proof ended the
decision.  The *certificate prime*, the first witness among the tries or
None when there is none, is found from that pair when it is read:
:func:`find_certificate` runs the same prime sequence, and the memo
answers for the patterns the decision computed.
:func:`certificate_prime` (the certificate or None) and
:func:`is_irreducible_exact` (the decision as a bool, no certificate)
are views of :func:`certify`.  Past the monic form, which clears f's
denominators once, every stage computes on integers and residues alone.
:func:`newton_lift` is also the Hensel lift of ``hensel.hensel_lift``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .errors import CapExceeded, Reducible
from .preduce import first_row_expansion, scale_rows
from .rationals import is_prime

Poly = tuple


def ptrim(c) -> Poly:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def pdeg(f: Poly) -> int:
    return len(f) - 1


def peval(f: Poly, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def pderiv(f: Poly) -> Poly:
    return ptrim(c * i for i, c in enumerate(f) if i)


def multiplication_rows(int_f, nums):
    """Integer matrix, as lists of rows, of multiplication by b = sum
    nums_i z^i in Q[z]/(f), for the monic f of degree n whose cleared form
    is int_f = (D, (D a_n, .., D a_1)) (``MinPoly._int_f``), D the lcm of
    the denominators of f's coefficients: column j is D^j (b z^j mod f) over
    the basis 1, z, .., z^(n-1).  Its determinant is D^(n(n-1)/2) N(b), and
    the norm N(b) is Res(f, b) as f is monic."""
    den, low = int_f
    col = list(nums)
    cols = [col]
    for _ in range(len(low) - 1):
        # D z (col) mod f: shift up, then z^n = -(a_n + .. + a_1 z^(n-1))
        top = col[-1]
        col = [-top * low[0]] + [den * x - top * c for x, c in zip(col, low[1:])]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _monic_form(f: Poly):
    """(G, a, disc(G)) for f of degree >= 1: the monic integer
    G(y) = a^(n-1) A(y/a), A the cleared form of f with leading
    coefficient a.  disc(G) = (-1)^(n(n-1)/2) N(G'), the norm in
    Q[z]/(G), is the determinant of the integer
    :func:`multiplication_rows` of G', as G is monic and integral
    (:func:`preduce.first_row_expansion`)."""
    (ints,), _ = scale_rows([f])
    n, a = len(ints) - 1, ints[-1]
    G = tuple(c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])) + (1,)
    norm = first_row_expansion(multiplication_rows((1, G[:-1]), [i * c for i, c in enumerate(G) if i]))[0]
    return G, a, norm * (-1) ** (n * (n - 1) // 2)


# --- polynomials over GF(q): ascending int lists, reduced and trimmed ---------


def _mtrim(f, q):
    f = [c % q for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _zmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _mdivmod(f, g, q):
    f = list(f)
    n = len(g) - 1
    inv = pow(g[-1], -1, q)
    quo = [0] * max(len(f) - n, 0)
    for k in range(len(f) - 1 - n, -1, -1):
        c = quo[k] = f[k + n] * inv % q
        if c:
            for j in range(n):
                f[k + j] -= c * g[j]
    return _mtrim(quo, q), _mtrim(f[:n], q)


def _mrem(f, g, q):
    return _mdivmod(f, g, q)[1]


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
    inv = pow(f[-1], -1, q)
    return _mtrim([c * inv % q for c in f], q)


def _mulmod(a, b, f, q):
    """a*b modulo (f, q) for monic f of degree n: one convolution, then each
    term of degree k >= n, top first, folded down by
    x^n = -(f_0 + .. + f_(n-1) x^(n-1))."""
    prod = _zmul(a, b)
    n = len(f) - 1
    low = f[:-1]
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % q
        if c:
            for j, v in enumerate(low, k - n):
                prod[j] -= c * v
    return _mtrim(prod[:n], q)


def _mpow(g, e, f, q):
    """g**e modulo (f, q), f monic."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _mulmod(result, result, f, q)
        if bit == "1":
            result = _mulmod(result, g, f, q)
    return result


_X = [0, 1]


def _ddf(f, q):
    """Distinct-degree factorization of monic f over GF(q): the pairs
    (k, product of the irreducible factors of degree k), k ascending.

    x^(q^k) mod f comes from x^(q^(k-1)) by the Frobenius matrix, whose
    row i is x^(iq) mod f; k = 1 reads x^q alone, so the rows are built
    when k reaches 2.  For squarefree f the products multiply to f;
    for any f, [(n, f)] means f is irreducible, since a reducible f has a
    factor of degree at most n/2 and the loop reaches that degree with
    f whole.
    """
    n = len(f) - 1
    parts, rest, h, k = [], f, _X, 0
    while 2 * (k + 1) <= len(rest) - 1:
        k += 1
        if k == 1:
            h = xq = _mpow(_X, q, f, q)
        else:
            if k == 2:
                frob = [[1]]
                for _ in range(n - 1):
                    frob.append(_mulmod(frob[-1], xq, f, q))
            acc = [0] * n
            for c, row in zip(h, frob):
                if c:
                    for j, v in enumerate(row):
                        acc[j] += c * v
            h = _mtrim(acc, q)
        g = _mgcd(rest, _msub(h, _X, q), q)
        if len(g) > 1:
            parts.append((k, g))
            rest = _mdivmod(rest, g, q)[0]
    if len(rest) > 1:
        parts.append((len(rest) - 1, rest))
    return parts


def _pattern(parts):
    """The degrees of the irreducible factors, from a _ddf result."""
    return tuple(k for k, g in parts for _ in range((len(g) - 1) // k))


def _edf(g, k, q, rng):
    """The monic irreducible factors of g over GF(q), q odd, g a
    squarefree product of factors of degree k (Cantor-Zassenhaus)."""
    n = len(g) - 1
    if n == k:
        return [g]
    e = (q ** k - 1) // 2
    while True:
        a = _mtrim([rng.randrange(q) for _ in range(n)], q)
        d = _mgcd(g, _msub(_mpow(a, e, g, q), [1], q), q)
        if 0 < len(d) - 1 < n:
            return _edf(d, k, q, rng) + _edf(_mdivmod(g, d, q)[0], k, q, rng)


# --- certification -------------------------------------------------------------

CERTIFICATE_TRIES = 25
RECOMBINATION_TRIES = 4096


def _patterns(G, disc, p):
    """(q, factor degrees of G mod q) for the first CERTIFICATE_TRIES
    good primes q != p, in increasing order; disc = disc(G) is nonzero."""
    q, seen = 1, 0
    while seen < CERTIFICATE_TRIES:
        q += 1
        if not is_prime(q) or q == p or disc % q == 0:
            continue
        seen += 1
        yield q, _residue_pattern(tuple(c % q for c in G), q)


@functools.lru_cache(maxsize=4096)
def _residue_pattern(Gq, q):
    """The factor degrees of G mod q, from its residue Gq: the pattern
    depends on nothing else, and a z-set meets the same residue often.
    4096 entries hold every residue of the p in {2, 3} z-sets of degree 2-6."""
    return _pattern(_ddf(list(Gq), q))


def certify(f: Poly, p):
    """Decide the irreducibility of f, of degree >= 1, over Q.

    Builds the monic integer form G and disc(G) once and runs the stages
    of the module docstring in order, up to the first proof, and returns
    (G, disc), from which ``find_certificate(G, disc, p)`` reads the
    certificate prime.  Raises Reducible when f factors over Q, and
    CapExceeded past RECOMBINATION_TRIES subsets.
    """
    G, _, disc = _monic_form(ptrim(f))
    n = pdeg(G)
    if not disc or n > 1 and _integer_roots(G, disc):
        raise Reducible("polynomial factors over Q")
    # no rational root, so a proper factor and its cofactor have degree >= 2:
    # bit k of left is a degree in 2..n-2 that every pattern so far admits
    left = sum(1 << k for k in range(2, n - 1))
    patterns = {}
    for q, pattern in _patterns(G, disc, p) if left else ():
        if pattern == (n,):
            return G, disc
        patterns[q] = pattern
        sums = 1
        for k in pattern:
            sums |= sums << k
        left &= sums
        if not left:
            break
    if left:
        q = min((q for q in patterns if q % 2), key=lambda q: len(patterns[q]))
        if not _recombine(G, q, {k for k in range(n) if left >> k & 1}):
            raise Reducible("polynomial factors over Q")
    return G, disc


def find_certificate(G, disc, p):
    """The certificate prime of the monic integer G with disc(G) = disc,
    nonzero: the first good prime q != p among the first
    CERTIFICATE_TRIES with G mod q irreducible, None when there is none."""
    n = pdeg(G)
    return next((q for q, pattern in _patterns(G, disc, p) if pattern == (n,)), None)


def certificate_prime(f: Poly, p):
    """The certificate prime of :func:`certify`, None when it finds none:
    f irreducible without a one-prime witness, reducible, or past the
    recombination budget.  Soundness is one-sided: a witness proves
    irreducibility over Q; absence proves nothing."""
    f = ptrim(f)
    if pdeg(f) < 1:
        return None
    try:
        G, disc = certify(f, p)
    except (Reducible, CapExceeded):
        return None
    return find_certificate(G, disc, p)


def is_irreducible_exact(f: Poly) -> bool:
    """Exact irreducibility over Q: :func:`certify` without an excluded
    prime, so CapExceeded passes through, and without looking for the
    certificate.  Some quartics (A4 Galois group) are irreducible over Q
    yet reducible mod every prime; the sieve settles them."""
    f = ptrim(f)
    if pdeg(f) < 1:
        return False
    try:
        certify(f, None)
    except Reducible:
        return False
    return True


def newton_lift(F, r, q, bound):
    """Lift a simple root r of the integer polynomial F modulo q (F'(r) a
    unit mod the prime q) by Newton's iteration, squaring the modulus m
    until it exceeds ``bound``.  Returns (root in [0, m), m).

    s = 1/F'(r) is carried along and refined by its own Newton step,
    s (2 - F'(r) s), in place of a modular inversion per step: s correct
    mod m and F(r) = 0 mod m make r - F(r) s correct mod m^2.  It is
    refined at the top of each step after the first, so the last root
    step pays for no refinement it would not use.
    """
    dF = pderiv(F)
    m, s = q, None
    while m <= bound:
        s = pow(peval(dF, r), -1, q) if s is None else s * (2 - peval(dF, r) * s) % m
        m *= m
        r = (r - peval(F, r) * s) % m
    return r, m


def _integer_roots(G, disc):
    """The integer roots of a monic squarefree integer G: its roots modulo
    the least prime q not dividing disc(G), Newton-lifted past twice the
    Cauchy bound 1 + max |G_i| and tested exactly."""
    q = 2
    while not is_prime(q) or disc % q == 0:
        q += 1
    Gq = _mtrim(G, q)
    bound = 1 + max(abs(c) for c in G[:-1])
    roots = []
    for r in range(q):
        if peval(Gq, r) % q:
            continue
        r, m = newton_lift(G, r, q, 2 * bound)
        if 2 * r > m:
            r -= m
        if not peval(G, r):
            roots.append(r)
    return roots


def _recombine(G, q, degrees) -> bool:
    """Zassenhaus: False when a product of at most r/2 of the r lifted
    factors of G mod q, of a degree in ``degrees``, divides G."""
    rng, Gq = random.Random(0), _mtrim(G, q)
    factors = [u for k, g in _ddf(Gq, q) for u in _edf(g, k, q, rng)]
    n = pdeg(G)
    # every coefficient of a factor of degree < n is at most this in size
    bound = math.comb(n - 1, (n - 1) // 2) * (math.isqrt(sum(c * c for c in G)) + 1)
    # Hensel: sum e_i G/u_i = 1 mod q, so the error E = (G - prod u_i)/m
    # is sum (E e_i mod u_i) G/u_i and each u_i gains m (E e_i mod u_i);
    # u_i is irreducible mod q, so e_i = (G/u_i)^(q^deg(u_i) - 2) (Fermat)
    inverses = [_mpow(_mdivmod(Gq, u, q)[0], q ** pdeg(u) - 2, u, q) for u in factors]
    lifted, m = [list(u) for u in factors], q
    while m <= 2 * bound:
        prod = functools.reduce(_zmul, lifted)
        err = [(c - d) // m for c, d in zip(G, prod)]
        for u, e, v in zip(factors, inverses, lifted):
            for j, c in enumerate(_mulmod(err, e, u, q)):
                v[j] += m * c
        m *= q
    tries = 0
    for size in range(1, len(factors) // 2 + 1):
        for subset in itertools.combinations(range(len(factors)), size):
            tries += 1
            if tries > RECOMBINATION_TRIES:
                raise CapExceeded(
                    f"factor recombination passed {RECOMBINATION_TRIES} subsets undecided"
                )
            if sum(pdeg(factors[i]) for i in subset) not in degrees:
                continue
            g = [1]
            for i in subset:
                g = [c % m for c in _zmul(g, lifted[i])]
            # g is monic, so a true cofactor is the centered quotient mod m
            g = [c - m if 2 * c > m else c for c in g]
            h = [c - m if 2 * c > m else c for c in _mdivmod(G, g, m)[0]]
            if _zmul(g, h) == list(G):
                return False
    return True
