"""Independent oracles for the test suite.

Everything here deliberately avoids the library's computation paths:
digits come from one-at-a-time extraction, bits from Fraction-based
bisection, lookahead indices from a plain recursive tree walk, and so on.
Expected values frozen into tests were produced by these.
"""

import math
from fractions import Fraction

from padiccf.cfrac import CMapStep
from padiccf.errors import NonSquare
from padiccf.field import FieldElement, VectorElement, _reduced, _scale, denom_z
from padiccf.preduce import RationalMatrix
from padiccf.rationals import ORD_INF, Q, head_num, qparse_list


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


def height_by_coeffs(a):
    """``field.height_z`` of one element through its Fraction coefficients:
    max |num| + den."""
    return max(abs(c.numerator) + c.denominator for c in a.coeffs)


def unit_normalizer_by_coeffs(a, p):
    """``cfrac._unit_normalizer`` through the Fraction coefficients: the
    p-free part of the gcd of the z-coefficient numerators, 1 if none."""
    g = 0
    for c in a.coeffs[1:]:
        g = math.gcd(g, c.numerator)
    if g == 0:
        return 1
    while g % p == 0:
        g //= p
    return g


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


def element_by_root(a, k):
    """A rational congruent to the field element ``a`` at its embedded root
    modulo p^(k - v_p(d)), d the lcm of a's coefficient denominators: the
    cleared numerator polynomial evaluated at ``root_by_digits(f, k)``,
    over d."""
    den = math.lcm(*(c.denominator for c in a.coeffs))
    root = root_by_digits(a.minpoly, k)
    return Fraction(_eval_int([int(c * den) for c in a.coeffs], root), den)


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
    nums, d = a.nums, a.den
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


# --- the p-reduced normal form ----------------------------------------------


def matrix_from_json(data):
    """The ``RationalMatrix`` whose ``to_json`` form is ``data``: rows of
    rational strings."""
    return RationalMatrix([qparse_list(row) for row in data])


def is_p_reduced(matrix, p):
    """Literal check of the four normal-form clauses of a square
    ``RationalMatrix``, on digit streams: each pivot is a power of p,
    entries below a pivot vanish, entries above it have no digit at or
    past its valuation, and the pivot columns do not decrease."""
    a = matrix.entries
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquare("is_p_reduced requires a square matrix")
    steps = []
    for i, row in enumerate(a):
        u = next((j for j, c in enumerate(row) if c), n)
        if u < n:
            e = digit_stream(row[u], p, 1)[0]
            if row[u] != Fraction(p) ** e:
                return False
            if any(a[k][u] for k in range(i + 1, n)):
                return False
            if any(a[j][u] != head_by_digits(a[j][u], p, e - 1) for j in range(i)):
                return False
        steps.append(u)
    return steps == sorted(steps)


def p_reduce_by_fractions(matrix, p):
    """(M', N) of ``p_reduce`` in ``Fraction`` arithmetic: the routine the
    package ran before its rows became integers over one denominator.
    Every row operation runs once, on the rows of [M | I]."""
    if not matrix.is_square():
        raise NonSquare("p_reduce requires a square matrix")
    n = matrix.nrows
    rows = [list(r) + [Fraction(int(j == i)) for j in range(n)] for i, r in enumerate(matrix.entries)]
    k1 = 0
    for k2 in range(n):
        cands = [(digit_stream(rows[i][k2], p, 1)[0], i) for i in range(k1, n) if rows[i][k2]]
        if not cands:
            continue
        best, m = min(cands)
        rows[k1], rows[m] = rows[m], rows[k1]
        pk = Fraction(p) ** best
        scale = pk / rows[k1][k2]
        top = rows[k1] = [c * scale for c in rows[k1]]
        for i in range(n):
            c = rows[i][k2]
            if i < k1:
                c -= head_by_digits(c, p, best - 1)
            if c and i != k1:
                f = c / pk
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        k1 += 1
    return RationalMatrix([r[:n] for r in rows]), RationalMatrix([r[n:] for r in rows])


def coeff_matrix(vec):
    """(M, M') with row i the coefficients of component i in descending
    power order z^s, ..., z, 1, as its ``nums`` over its ``den``; M' keeps
    the first s columns."""
    s = max(vec.minpoly.degree - 1, 1)
    pad = (0,) * (s + 1 - vec.minpoly.degree)  # one for the degree-1 sentinel
    rows = [(comp.nums + pad)[::-1] for comp in vec.components]
    dens = [comp.den for comp in vec.components]
    return RationalMatrix.from_ints(rows, dens), RationalMatrix.from_ints([row[:s] for row in rows], dens)


def omega_by_root(a):
    """Digit c0 of a field element, read off a rational congruent to it at
    the embedded root (:func:`element_by_root`) two digits past index 0."""
    if a.is_zero():
        return 0
    p = a.minpoly.p
    return digit_at(element_by_root(a, vp_by_division(a.den, p) + 2), p, 0)


def head_by_root(a, m=0):
    """Head of a field element up to index m as a Fraction, read off a
    rational congruent to it at the embedded root (:func:`element_by_root`)
    two digits past index m."""
    if a.is_zero():
        return Fraction(0)
    p = a.minpoly.p
    return head_by_digits(element_by_root(a, max(m, 0) + vp_by_division(a.den, p) + 2), p, m)


def identity_rows(s):
    """The identity A as a step holds it: integer rows over denominators 1."""
    return tuple(tuple(int(i == j) for j in range(s)) for i in range(s)), (1,) * s


def as_pair(q):
    """A rational step parameter as the (numerator, denominator) pair a step
    holds."""
    q = Fraction(q)
    return q.numerator, q.denominator


def g_map_by_fractions(emb, alpha, eps, j):
    """``g_map`` as the package ran it on ``Fraction`` scalars: each
    component times the rational eps p^e as a field element, less its digit
    (from :func:`omega_by_root`) as a rational field element."""
    comps = alpha.components
    aj = comps[j - 1]
    s = len(comps)
    eye, zero = identity_rows(s), (0,) * s
    if aj.is_zero():
        return CMapStep(emb.p, j, eps, True, (1,) * s, zero, zero, eye, zero), alpha
    p = emb.p
    m = emb.ord(aj)
    inv_aj = aj.inverse()
    exps, shifts, image = [], [], []
    for i, ai in enumerate(comps, start=1):
        if i == j:
            e = m
            val = inv_aj * (Fraction(p) ** e * eps)
        else:
            oi = emb.ord(ai)
            e = max(m - oi, 0) if oi is not ORD_INF else 0
            val = ai * inv_aj * (Fraction(p) ** e * eps)
        om = omega_by_root(val)
        exps.append(e)
        shifts.append(om)
        image.append(val - om)
    step = CMapStep(p, j, eps, False, (eps,) * s, tuple(exps), tuple(shifts), eye, zero)
    return step, VectorElement(image)


def h_map_by_fractions(emb, alpha, eps, j):
    """``h_map`` as the package ran it on ``Fraction`` coefficients: the
    :func:`g_map_by_fractions` image divided by its unit normalizer as a
    field element, less the digit tail of its constant coefficient."""
    g_step, g_image = g_map_by_fractions(emb, alpha, eps, j)
    if g_step.identity:
        return g_step, g_image
    p = emb.p
    coeffs, shifts, image = [], [], []
    for c, w, g_img in zip(g_step.coeffs, g_step.shifts, g_image):
        ap = unit_normalizer_by_coeffs(g_img, p)
        scaled = g_img / ap
        c0 = scaled.coeffs[0]
        tl = c0 - head_by_digits(c0, p, 0)
        coeffs.append(as_pair(c / ap))
        shifts.append(as_pair(w / ap + tl))
        image.append(scaled - tl)
    step = CMapStep(p, j, eps, False, tuple(coeffs), g_step.exps, tuple(shifts), g_step.rows, g_step._gamma)
    return step, VectorElement(image)


# --- the fractional maps as a composition of canonical operations ---------
# The chain the package ran before its fused kernel: every operation
# returns a reduced element, and the digit is read off the image.


def g_map_by_composition(emb, alpha, eps, j):
    """``g_map`` as a chain of canonical operations: ``FieldElement.inverse``,
    ``*``, ``field._scale`` by eps p^e and ``Embedding.omega`` on the scaled
    image, whose integer digit is taken off the constant numerator."""
    comps = alpha.components
    aj = comps[j - 1]
    s = len(comps)
    eye, zero = identity_rows(s), (0,) * s
    if aj.is_zero():
        return CMapStep(emb.p, j, eps, True, (1,) * s, zero, zero, eye, zero), alpha
    p = emb.p
    m = emb.ord(aj)
    inv_aj = aj.inverse()
    exps, shifts, image = [], [], []
    for i, ai in enumerate(comps, start=1):
        if i == j:
            val, e = inv_aj, m
        else:
            oi = emb.ord(ai)
            e = max(m - oi, 0) if oi is not ORD_INF else 0
            val = ai * inv_aj
        val = _scale(val, eps * p ** max(e, 0), p ** max(-e, 0))
        om = emb.omega(val)
        exps.append(e)
        shifts.append(om)
        image.append(FieldElement(val.minpoly, (val.nums[0] - om * val.den,) + val.nums[1:], val.den))
    step = CMapStep(p, j, eps, False, (eps,) * s, tuple(exps), tuple(shifts), eye, zero)
    return step, VectorElement(image)


def h_map_by_composition(emb, alpha, eps, j):
    """``h_map`` on :func:`g_map_by_composition`'s reduced image: divide by
    the unit normalizer with ``field._scale``, take the head of the
    constant coefficient and reduce again."""
    g_step, g_image = g_map_by_composition(emb, alpha, eps, j)
    if g_step.identity:
        return g_step, g_image
    p = emb.p
    coeffs, shifts, image = [], [], []
    for om, g_img in zip(g_step._shifts, g_image):
        ap = unit_normalizer_by_coeffs(g_img, p)
        g_img = _scale(g_img, 1, ap) if ap != 1 else g_img
        nums, den = g_img.nums, g_img.den
        hd = head_num(nums[0], den, p, 0)
        coeffs.append((eps, ap))
        shifts.append((om * den + ap * (nums[0] - hd), ap * den))
        image.append(_reduced(g_img.minpoly, (hd,) + nums[1:], den))
    step = CMapStep(p, j, eps, False, tuple(coeffs), g_step.exps, tuple(shifts), g_step.rows, g_step._gamma)
    return step, VectorElement(image)


def step_phi3_by_fractions(emb, alpha, g_variant=False):
    """``step_phi3`` built from rational parts: the coefficient matrix of
    the image, :func:`p_reduce_by_fractions`, ``RationalMatrix.apply`` on
    the constant column and ``MinPoly.element`` on the reduced rows."""
    s = len(alpha)
    fmap = g_map_by_fractions if g_variant else h_map_by_fractions
    step, image = fmap(emb, alpha, 1, s)
    m_full, m_sq = coeff_matrix(image)
    reduced, a_mat = p_reduce_by_fractions(m_sq, emb.p)
    consts = a_mat.apply([row[s] for row in m_full.entries])
    heads = [head_by_digits(c, emb.p, 0) for c in consts]
    nxt = VectorElement(tuple(
        alpha.minpoly.element((hd,) + row[::-1]) for hd, row in zip(heads, reduced.entries)
    ))
    gamma = tuple(as_pair(hd - c) for hd, c in zip(heads, consts))
    return CMapStep(emb.p, s, 1, step.identity, step._coeffs, step.exps, step._shifts,
                    (a_mat.nums, a_mat.dens), gamma), nxt


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


def element_minpoly_by_solves(a):
    """Reference for ``field.element_minpoly``: the least r for which a^r
    is a rational combination of 1, a, .., a^(r-1), found by one
    Gauss-Jordan solve per r; ascending coefficients with leading 1."""
    n = a.minpoly.degree
    powers = [a.minpoly.one()]
    for _ in range(n):
        powers.append(powers[-1] * a)
    rows = [list(x.coeffs) for x in powers]
    for r in range(1, n + 1):
        sol = gauss_solve(rows[:r], rows[r])
        if sol is not None:
            return tuple(-c for c in sol) + (Fraction(1),)
    raise AssertionError("no annihilating polynomial within the ring's degree")


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


def fraction_tuple_op(minpoly, op, x, y=None):
    """x op y on ascending coefficient lists of length n = deg f, all in
    Fractions: "+", "-" and "neg" coefficientwise, "*" by the convolution,
    "inv" and "/" through the Euclid inverse (ZeroDivisionError as there)."""
    x = [Fraction(c) for c in x]
    if op == "neg":
        return [-c for c in x]
    if op == "inv":
        return euclid_inverse(minpoly, x)
    y = [Fraction(c) for c in y]
    if op == "+":
        return [a + b for a, b in zip(x, y)]
    if op == "-":
        return [a - b for a, b in zip(x, y)]
    if op == "*":
        return convolution_product(minpoly, x, y)
    if op == "/":
        return convolution_product(minpoly, x, euclid_inverse(minpoly, y))
    raise ValueError(f"unknown operation {op!r}")


# --- irreducibility: the single-prime criterion and sympy ---------------------
# The certification before the distinct-degree rewrite: x^(q^n) and each
# x^(q^(n/r)) by square-and-multiply from scratch, divisor-based rational
# roots, and sympy's factorization as the complete decision.


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
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return _mtrim(out, q)


def _mrem(f, g, q):
    f = list(f)
    inv = pow(g[-1], -1, q)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1] * inv % q
        for j, b in enumerate(g):
            f[k + j] = (f[k + j] - c * b) % q
    return _mtrim(f[: len(g) - 1], q)


def _mgcd(f, g, q):
    while g:
        f, g = g, _mrem(f, g, q)
    return f


def _mpow_x(e, modpoly, q):
    """x**e modulo (modpoly, q)."""
    result, base = [1], _mrem([0, 1], modpoly, q)
    while e:
        if e & 1:
            result = _mrem(_mmul(result, base, q), modpoly, q)
        e >>= 1
        base = _mrem(_mmul(base, base, q), modpoly, q)
    return result


def _x_minus(h, q):
    h = list(h) + [0] * max(0, 2 - len(h))
    h[1] -= 1
    return _mtrim(h, q)


def irreducible_mod_q(f_int, q):
    """Monic integer f irreducible over GF(q): x**(q**n) = x mod f and
    gcd(x**(q**(n/r)) - x, f) = 1 for every prime r | n."""
    f = _mtrim(list(f_int), q)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if _x_minus(_mpow_x(q ** n, f, q), q):
        return False
    for r in range(2, n + 1):
        if n % r == 0 and all(r % d for d in range(2, r)):
            g = _x_minus(_mpow_x(q ** (n // r), f, q), q)
            if not g or len(_mgcd(f, g, q)) > 1:
                return False
    return True


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lead(f), by the Euclid resultant."""
    n = len(f) - 1
    deriv = [i * Fraction(c) for i, c in enumerate(f) if i]
    return euclid_resultant(f, deriv) / Fraction(f[-1]) * (-1) ** (n * (n - 1) // 2)


def certificate_prime(f, p, tries=25):
    """The first of ``tries`` primes q != p coprime to disc(f) and the
    coefficient denominators with f mod q irreducible, else None."""
    disc = discriminant(f)
    if not disc:
        return None
    bad = abs(disc.numerator) * disc.denominator
    for c in f:
        bad *= c.denominator
    q, seen = 1, 0
    while seen < tries:
        q += 1
        if any(q % d == 0 for d in range(2, q)) or q == p or bad % q == 0:
            continue
        seen += 1
        if irreducible_mod_q([c.numerator * pow(c.denominator, -1, q) % q for c in f], q):
            return q
    return None


def _divisors(n):
    n = abs(n)
    return [d for d in range(1, math.isqrt(n) + 1) if n % d == 0 for d in {d, n // d}]


def has_rational_root(f):
    """The rational root test on the cleared form: some +-r/s with r | a0
    and s | an is a root (zero roots first)."""
    def value(x):
        return sum(Fraction(c) * x ** i for i, c in enumerate(f))

    den = math.lcm(*(Fraction(c).denominator for c in f))
    ints = [int(Fraction(c) * den) for c in f]
    if not ints[0]:
        return True
    return any(
        not value(Fraction(sign * r, s))
        for r in _divisors(ints[0]) for s in _divisors(ints[-1]) for sign in (1, -1)
    )


def sympy_irreducible(f):
    """Irreducibility over Q by sympy's factorization."""
    from sympy import Poly as SymPoly, Rational as SymRational
    from sympy.abc import x

    sym = sum(SymRational(Fraction(c).numerator, Fraction(c).denominator) * x ** i for i, c in enumerate(f))
    return SymPoly(sym, x).is_irreducible


def is_irreducible_exact(f):
    """Exact irreducibility over Q for a monic f of degree >= 2: squarefree
    check, rational root test, then sympy."""
    if not discriminant(f) or has_rational_root(f):
        return False
    return len(f) <= 4 or sympy_irreducible(f)


def brute_factors(f, q):
    """The monic irreducible factors of monic f over GF(q), with
    multiplicity, by trial division with every monic polynomial of each
    degree in turn."""
    f = _mtrim(list(f), q)
    factors, d = [], 1
    while 2 * d <= len(f) - 1:
        for code in range(q ** d):
            g = [code // q ** i % q for i in range(d)] + [1]
            while not _mrem(f, g, q):
                f = _quo(f, g, q)
                factors.append(tuple(g))
        d += 1
    return factors + [tuple(f)] * (len(f) > 1)


def _quo(f, g, q):
    f, quo = list(f), [0] * (len(f) - len(g) + 1)
    for k in range(len(f) - len(g), -1, -1):
        c = quo[k] = f[k + len(g) - 1] % q
        for j, b in enumerate(g):
            f[k + j] = (f[k + j] - c * b) % q
    return _mtrim(quo, q)
