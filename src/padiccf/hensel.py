"""Embedding K = Q(z) into Q_p and p-adic functionals on field elements.

The admissibility clauses of the defining polynomial guarantee a unique
root in pZ_p with unit derivative; Newton iteration lifts it to any
requested precision.  Valuations, digits and digit heads of arbitrary
field elements are then exact integer computations against that residue:
write a = (1/d) * sum(b_i z^i) with integer b_i, evaluate the integer
combination at the residue modulo a suitable power of p, and shift by the
valuation of d.

``Embedding`` is the workhorse used by the expansion engine; it keeps one
residue, an int, and lifts it again from scratch whenever a computation
needs more digits than it holds.
"""

from __future__ import annotations

from .errors import CapExceeded, NotPrimitive, PrecisionCapExceeded
from .field import FieldElement, MinPoly, VectorElement, element_minpoly, integer_parts, multiplication_rows
from .preduce import bareiss
from .rationals import (
    ORD_INF,
    Q,
    QZERO,
    head_tail,
    inv_mod,
    omega as omega_q,
    ordp,
    qpow,
    vp_int,
)


def _poly_mod(minpoly: MinPoly, mod: int):
    """Ascending integer coefficients of f and f' modulo ``mod``."""
    asc = minpoly.ascending()
    f = [c.numerator * inv_mod(c.denominator, mod) % mod for c in asc]
    fp = [i * c % mod for i, c in enumerate(f)][1:]
    return f, fp


def _eval_mod(coeffs, x, mod):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def hensel_lift(minpoly: MinPoly, m: int) -> int:
    """Newton-lift the distinguished root (the one in pZ_p) to precision m:
    the residue in [0, p^m) of the unique root congruent to 0 mod p."""
    if minpoly.is_rational_field:
        raise ValueError("the rational sentinel field has no residue")
    p = minpoly.p
    x, prec = 0, 1  # f(0) = an = 0 mod p and f'(0) = a_{n-1} is a unit
    while prec < m:
        prec *= 2
        mod = p ** prec
        f, fp = _poly_mod(minpoly, mod)
        fx = _eval_mod(f, x, mod)
        fpx = _eval_mod(fp, x, mod)
        x = (x - fx * inv_mod(fpx, mod)) % mod
    return x % p ** m


class Embedding:
    """Extend-on-demand view of K inside Q_p.

    Holds the residue of z modulo p^precision as an int; a request for more
    digits lifts it again from scratch, which is as cheap as extending.
    """

    def __init__(self, minpoly: MinPoly):
        self.minpoly = minpoly
        self.p = minpoly.p
        self._precision = self._residue = 0
        if minpoly.is_rational_field:
            self._base_precision = 1
        else:
            an_ord = ordp(minpoly.coeffs[-1], minpoly.p)
            self._base_precision = 2 * (1 + int(an_ord) * minpoly.degree)

    # --- integer-combination view -------------------------------------
    def _combination_mod(self, nums, m: int) -> int:
        if m > self._precision:
            self._residue, self._precision = hensel_lift(self.minpoly, m), m
        mod = self.p ** m
        r = self._residue % mod
        acc = 0
        for b in reversed(nums):
            acc = (acc * r + b) % mod
        return acc

    # --- p-adic functionals --------------------------------------------
    def ord(self, a):
        """Valuation of a field element (ORD_INF for zero), exact.

        Write a = b(z)/d with b an integer polynomial of degree below n =
        deg f.  The integer combination b(z0) at the embedded root z0 is
        evaluated modulo p^m on a doubling precision ladder; it is nonzero
        there as soon as m exceeds v_p(b(z0)), and then ord(a) is its
        valuation minus v_p(d).

        The ladder stops at a sound cap from the norm.  f is monic with
        p-integral coefficients, so all its roots theta_1 = z0, ...,
        theta_n are integral over Z_p and v(b(theta_i)) >= 0 for each.
        Hence v_p(b(z0)) <= sum_i v(b(theta_i)) = v_p(N(b)), where
        N(b) = prod_i b(theta_i) = Res(f, b) (f monic) is the determinant
        of the matrix of multiplication by b on 1, z, .., z^(n-1).  That
        matrix is built over the integers with column j scaled by D^j, D
        the p-free lcm of f's denominators, so its determinant
        D^(n(n-1)/2) N(b) has the same valuation; one fraction-free
        elimination gives it, and the cap is that valuation plus one.  The
        determinant vanishes only when b shares a root with f, which for
        nonzero a of degree below n needs a reducible f: a zero divisor
        of an uncertified ring, reported as ZeroDivisionError.
        """
        if isinstance(a, VectorElement):
            return min(self.ord(c) for c in a.components)
        if a.is_zero():
            return ORD_INF
        if a.is_rational():
            return ordp(a.coeffs[0], self.p)
        nums, d = integer_parts(a)
        t = vp_int(d, self.p)
        m = self._base_precision
        cap = None
        while True:
            val = self._combination_mod(nums, m)
            if val:
                return vp_int(val, self.p) - t
            if cap is None:
                rows = multiplication_rows(self.minpoly, nums)
                norm = bareiss(rows, len(rows))[1]
                if not norm:
                    raise ZeroDivisionError("zero divisor modulo a reducible polynomial")
                cap = vp_int(norm, self.p) + 1
                m = max(m, cap)
                continue
            if m >= cap:
                raise PrecisionCapExceeded(f"valuation ladder passed cap {cap}")
            m = min(2 * m, cap)

    def omega(self, a: FieldElement) -> int:
        """Digit c0 of the expansion of ``a``; 0 for the zero element."""
        if a.is_zero():
            return 0
        if a.is_rational():
            return omega_q(a.coeffs[0], self.p)
        nums, d = integer_parts(a)
        t = vp_int(d, self.p)
        mod = self.p ** (t + 1)
        val = self._combination_mod(nums, t + 1) * inv_mod(d // self.p ** t, mod) % mod
        return val // self.p ** t

    def head(self, a: FieldElement, m: int = 0):
        """Digit head up to index m as an exact rational."""
        if a.is_zero():
            return QZERO
        if a.is_rational():
            return head_tail(a.coeffs[0], self.p, m)[0]
        nums, d = integer_parts(a)
        t = vp_int(d, self.p)
        if m + t < 0:
            return QZERO
        mod = self.p ** (m + t + 1)
        val = self._combination_mod(nums, m + t + 1) * inv_mod(d // self.p ** t, mod) % mod
        return Q(val, self.p ** t)

    def t_b(self, a: FieldElement) -> FieldElement:
        """One digit-stripping step: p^ord(a)/a minus its unit digit.

        Fixed on zero; the image always lands in pZ_p."""
        if a.is_zero():
            return a
        e = self.ord(a)
        w = a.inverse() * qpow(self.p, e)
        return w - self.minpoly.element((Q(self.omega(w)),))

    # --- admissible generators ------------------------------------------
    def satisfies_H(self, a: FieldElement) -> bool:
        """Admissibility of ``a``'s own minimal polynomial, plus a in pZ_p."""
        if a.is_zero() or a.is_rational():
            return False
        g = element_minpoly(a)
        n = len(g) - 1
        if n < 2:
            return False
        if any(c and ordp(c, self.p) < 0 for c in g[:-1]):
            return False
        if not g[1] or ordp(g[1], self.p) != 0:
            return False
        if g[0] and ordp(g[0], self.p) <= 0:
            return False
        return self.ord(a) >= 1

    def find_H_generator(self, a: FieldElement, cap: int = 64):
        """Iterate digit stripping until the orbit member is admissible.

        Returns (m, b) with b = t_b^m(a).  Existence is guaranteed for
        primitive elements of pZ_p but without an effective bound, hence
        the configurable cap.
        """
        if a.is_rational() or len(element_minpoly(a)) - 1 < self.minpoly.degree:
            raise NotPrimitive("element generates a proper subfield")
        if self.ord(a) < 1:
            raise ValueError("search requires an element of pZ_p")
        b = a
        for m in range(cap + 1):
            if self.satisfies_H(b):
                return m, b
            b = self.t_b(b)
        raise CapExceeded(f"no admissible iterate within {cap} steps")
