"""Independent oracles for the test suite.

Everything here deliberately avoids the library's computation paths:
digits come from one-at-a-time extraction, bits from Fraction-based
bisection, lookahead indices from a plain recursive tree walk, and so on.
Expected values frozen into tests were produced by these.
"""

import math
from fractions import Fraction

from padiccf.field import denom_z, integer_parts
from padiccf.rationals import Q


def digit_stream(q, p, count):
    """First ``count`` digits c_e, c_(e+1), ... from index e = ord_p(q),
    by repeated extract-and-divide; returns (e, [digits]).  (0 -> (None, []))."""
    q = Fraction(int(q.numerator), int(q.denominator))
    if not q:
        return None, []
    e = 0
    while q.numerator % p == 0:
        q /= p
        e += 1
    while q.denominator % p == 0:
        q *= p
        e -= 1
    digits = []
    for _ in range(count):
        c = q.numerator * pow(q.denominator, -1, p) % p
        digits.append(c)
        q = (q - c) / p
    return e, digits


def digit_at(q, p, n):
    """Digit c_n of q."""
    e, digits = digit_stream(q, p, 1)
    if e is None or n < e:
        return 0
    _, digits = digit_stream(q, p, n - e + 1)
    return digits[n - e]


def head_by_digits(q, p, m):
    """Head up to index m as a Fraction, straight from the digit stream."""
    e, _ = digit_stream(q, p, 1)
    if e is None or e > m:
        return Fraction(0)
    _, digits = digit_stream(q, p, m - e + 1)
    return sum(Fraction(c) * Fraction(p) ** (e + i) for i, c in enumerate(digits))


def bits_by_fraction(b, c, count):
    """Binary digits of the positive root of x^2 + bx - c in (0,1),
    via Fraction midpoint sign evaluation."""
    def f(x):
        return x * x + b * x - c

    q = Fraction(0)
    bits = []
    for k in range(1, count + 1):
        mid = q + Fraction(1, 2 ** k)
        if f(mid) < 0:
            bits.append(1)
            q = mid
        else:
            bits.append(0)
    return bits


def schneider_orbit(xi, p, steps):
    """The classical one-dimensional recurrence, straight from its
    definition: digits a_n in {1..p-1} and exponents ord(xi_n).

    xi must lie in pZ_p; returns (digits, exponents, remainders) up to
    ``steps`` entries or until a zero remainder."""
    xi = Fraction(int(xi.numerator), int(xi.denominator))
    digits, exps, rems = [], [], [xi]
    for _ in range(steps):
        if xi == 0:
            break
        e = 0
        num, den = xi.numerator, xi.denominator
        while num % p == 0:
            num //= p
            e += 1
        a = 0
        # choose the digit making the next value land in pZ_p
        val = Fraction(p ** e) / xi
        for cand in range(p):
            nxt = val - cand
            if nxt == 0 or (nxt.numerator % p == 0 and nxt.denominator % p != 0):
                a = cand
                break
        else:
            raise AssertionError("no digit found")
        xi = val - a
        digits.append(a)
        exps.append(e)
        rems.append(xi)
    return digits, exps, rems


def brute_phi2_index(emb, alpha, eps, n, h_image):
    """Reference lookahead: plain recursion, no memoization.

    ``h_image`` maps (vec, pivot) to the image vector, supplied by the
    caller so this walk shares no cache with the library."""
    s = len(alpha.components)

    def v(vec, depth):
        if depth == 0:
            return 1
        return min(
            denom_z(h_image(vec, i)) * v(h_image(vec, i), depth - 1)
            for i in range(1, s + 1)
        )

    target = v(alpha, n + 1)
    for i in range(1, s + 1):
        img = h_image(alpha, i)
        if denom_z(img) * v(img, n) == target:
            return i
    raise AssertionError("no index attains the minimum")


def relation_search(elements, bound=20):
    """Brute-force a nonzero integer relation q0 + q1 t1 + .. + qk tk = 0
    with coefficients in [-bound, bound]; returns one or None."""
    import itertools

    k = len(elements)
    mp = elements[0].minpoly
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k + 1):
        if all(c == 0 for c in coeffs):
            continue
        acc = mp.rational(Q(coeffs[0]))
        for c, t in zip(coeffs[1:], elements):
            acc = acc + t * c
        if acc.is_zero():
            return coeffs
    return None


def hensel_root_search(minpoly, m):
    """Exhaustive root of f in Z/p^m congruent to 0 mod p."""
    p = minpoly.p
    mod = p ** m
    asc = minpoly.ascending()
    den = 1
    for c in asc:
        den *= int(c.denominator)
    ints = [int(c * den) for c in asc]  # den is p-free, so f(r) = 0 mod p^m
    hits = []                           # iff the cleared combination is
    for r in range(0, mod, p):
        acc = 0
        for c in reversed(ints):
            acc = (acc * r + c) % mod
        if acc == 0:
            hits.append(r)
    return hits


def vp_by_division(n, p):
    """Valuation of a nonzero integer, one division at a time."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def root_by_digits(minpoly, m):
    """The root of f in pZ_p modulo p^m, digit by digit: each next digit is
    the one digit keeping f(r) = 0 mod p^(k+1) (unique, since f' is a unit)."""
    p = minpoly.p
    asc = minpoly.ascending()
    den = 1
    for c in asc:
        den *= int(c.denominator)
    ints = [int(c * den) for c in asc]
    r = 0
    for k in range(1, m):
        mod = p ** (k + 1)
        hits = [d for d in range(p) if _eval_int(ints, r + d * p ** k) % mod == 0]
        assert len(hits) == 1, "the root is not unique"
        r += hits[0] * p ** k
    return r


def _eval_int(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ord_by_digits(a, root, m):
    """Valuation of a field element from its leading zero digits: clear the
    denominators, evaluate at the root known modulo p^m and count.  Raises
    when the value vanishes to that precision, i.e. m was too small."""
    p = a.minpoly.p
    den = math.lcm(*(c.denominator for c in a.coeffs))
    val = _eval_int([int(c * den) for c in a.coeffs], root) % p ** m
    if not val:
        raise ValueError("root precision too low for this element")
    return vp_by_division(val, p) - vp_by_division(den, p)


def ord_with_inverse_cap(emb, a):
    """The valuation ladder of ``Embedding.ord`` as it stood with its cap
    taken from the field inverse: ord(a) <= v_p(denom_z(1/a))."""
    nums, d = integer_parts(a)
    t = vp_by_division(d, emb.p)
    m = emb._base_precision
    cap = None
    while True:
        val = emb._combination_mod(nums, m)
        if val:
            return vp_by_division(val, emb.p) - t
        if cap is None:
            cap = t + vp_by_division(denom_z(a.inverse()), emb.p) + 1
            m = max(m, cap)
            continue
        if m >= cap:
            raise AssertionError("ladder passed its cap")
        m = min(2 * m, cap)


class ClosedFormPole(ArithmeticError):
    """The closed-form step map met its pole."""


def forward_step_closed_form(step, x):
    """T(x) = A F(x) + gamma on rationals, straight from the fractional map
    f_j = k_j / x_j - w_j, f_i = k_i x_i / x_j - w_i with k = c p^e."""
    x = [Fraction(c) for c in x]
    if step.identity:
        f = x
    else:
        j = step.pivot - 1
        if not x[j]:
            raise ClosedFormPole("zero pivot coordinate")
        f = []
        for i, (c, e, w) in enumerate(zip(step.coeffs, step.exps, step.shifts)):
            k = Fraction(c) * Fraction(step.p) ** e
            f.append((k if i == j else k * x[i]) / x[j] - Fraction(w))
    a = [[Fraction(c) for c in row] for row in step.matrix.entries]
    return tuple(sum(r * v for r, v in zip(row, f)) + Fraction(g) for row, g in zip(a, step.gamma))


def inverse_step_closed_form(step, y):
    """Inverse of :func:`forward_step_closed_form`: undo gamma and A by
    Gauss-Jordan elimination, then invert the fractional map in closed form."""
    s = len(y)
    aug = [[Fraction(c) for c in row] + [Fraction(v) - Fraction(g)]
           for row, v, g in zip(step.matrix.entries, y, step.gamma)]
    for col in range(s):
        piv = next(r for r in range(col, s) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [c / aug[col][col] for c in aug[col]]
        for r in range(s):
            if r != col and aug[r][col]:
                aug[r] = [u - aug[r][col] * v for u, v in zip(aug[r], aug[col])]
    w = [row[s] for row in aug]
    if step.identity:
        return tuple(w)
    j = step.pivot - 1
    k = [Fraction(c) * Fraction(step.p) ** e for c, e in zip(step.coeffs, step.exps)]
    denom = w[j] + Fraction(step.shifts[j])
    if not denom:
        raise ClosedFormPole("inverse map at its pole")
    xj = k[j] / denom
    return tuple(xj if i == j else (w[i] + Fraction(step.shifts[i])) * xj / k[i] for i in range(s))


# --- Gauss-Jordan and Euclid over Fractions ---------------------------------
# The elimination and resultant code the package ran before it moved to one
# fraction-free integer routine; kept as references for it.


def gauss_jordan_inverse(entries):
    """Inverse of a square matrix of Fractions (rows); ZeroDivisionError
    when singular."""
    n = len(entries)
    a = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(entries)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def gauss_det(entries):
    a = [[Fraction(c) for c in row] for row in entries]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def gauss_rank(entries):
    a = [[Fraction(c) for c in row] for row in entries]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def gauss_solve(rows, target):
    """Solve sum x_i rows[i] = target by Gauss-Jordan; unknowns off the
    pivot columns are 0; None when inconsistent."""
    m, width = len(rows), len(target)
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(target[j])] for j in range(width)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, width) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(width):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    if any(aug[i][m] for i in range(r, width)):
        return None
    sol = [Fraction(0)] * m
    for row_idx, c in enumerate(piv_cols):
        sol[c] = aug[row_idx][m]
    return tuple(sol)


def _ptrim(f):
    f = [Fraction(c) for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _pdivmod(f, g):
    r = list(f)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    for k in range(len(r) - len(g), -1, -1):
        c = r[k + len(g) - 1] / g[-1]
        q[k] = c
        for j, b in enumerate(g):
            r[k + j] -= c * b
    return _ptrim(q), _ptrim(r[: len(g) - 1])


def euclid_inverse(minpoly, coeffs):
    """Inverse of sum coeffs_i z^i modulo the (ascending) defining
    polynomial by the extended Euclidean algorithm, as an ascending
    coefficient list of length n; ZeroDivisionError for a zero divisor."""
    g = _ptrim(minpoly.ascending())
    n = len(g) - 1
    r0, r1 = g, _ptrim(coeffs)
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        prod = [Fraction(0)] * max(len(q) + len(t1) - 1, 0)
        for i, a in enumerate(q):
            for j, b in enumerate(t1):
                prod[i + j] += a * b
        width = max(len(t0), len(prod))
        t0, t1 = t1, _ptrim(
            (t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0) for i in range(width)
        )
    if len(r0) > 1:
        raise ZeroDivisionError("zero divisor modulo a reducible polynomial")
    rem = _pdivmod([c / r0[0] for c in t0], g)[1]
    return rem + [Fraction(0)] * (n - len(rem))


def euclid_resultant(f, g):
    """res(f, g) of ascending coefficient lists via the Euclidean recurrence."""
    a, b = _ptrim(f), _ptrim(g)
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while len(b) > 1:
        r = _pdivmod(a, b)[1]
        if not r:
            return Fraction(0)
        res *= b[-1] ** (len(a) - len(r))
        if ((len(a) - 1) * (len(b) - 1)) % 2:
            res = -res
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def convolution_product(minpoly, a, b):
    """a b for ascending coefficient lists of length n = deg f: the
    schoolbook convolution over Fractions, then each z^e with e >= n
    replaced by its reduced form from a table built from f."""
    n = minpoly.degree
    if n == 1:
        return [Fraction(a[0]) * Fraction(b[0])]
    base = [-Fraction(c) for c in reversed(minpoly.coeffs)]  # z^n over 1, .., z^(n-1)
    zpows = {n: base}
    for e in range(n + 1, 2 * n - 1):
        cur = zpows[e - 1]
        zpows[e] = [x + cur[-1] * y for x, y in zip([Fraction(0)] + cur[:-1], base)]
    conv = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += Fraction(x) * Fraction(y)
    out = conv[:n]
    for e in range(n, 2 * n - 1):
        out = [x + conv[e] * y for x, y in zip(out, zpows[e])]
    return out
