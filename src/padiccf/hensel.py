"""Embedding K = Q(z) into Q_p and p-adic functionals on field elements.

The admissibility clauses of the defining polynomial guarantee a unique
root in pZ_p with unit derivative; Newton iteration lifts it to any
requested precision.  Valuations, digits and digit heads of arbitrary
field elements are then exact integer computations against that residue:
write a = (1/d) * sum(b_i z^i) with integer b_i, evaluate the integer
combination at the residue modulo a suitable power of p, and shift by the
valuation of d.

``Embedding`` is the workhorse used by the expansion engine; it keeps a
single residue that grows on demand and hands out immutable
``EmbeddingContext`` snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NotPrimitive, PrecisionCapExceeded
from .field import FieldElement, MinPoly, VectorElement, denom_z, element_minpoly
from .polys import ptrim, resultant
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


@dataclass(frozen=True)
class EmbeddingContext:
    """Residue of z modulo p**precision, with f(residue) = 0 there."""

    minpoly: MinPoly
    precision: int
    residue: int


def _poly_mod(minpoly: MinPoly, mod: int):
    """Ascending integer coefficients of f and f' modulo ``mod``."""
    asc = minpoly.ascending()
    f = [int(c.numerator) * inv_mod(c.denominator, mod) % mod for c in asc]
    fp = [i * c % mod for i, c in enumerate(f)][1:]
    return f, fp


def _eval_mod(coeffs, x, mod):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def hensel_lift(minpoly: MinPoly, m: int, start: EmbeddingContext | None = None) -> EmbeddingContext:
    """Newton-lift the distinguished root (the one in pZ_p) to precision m.

    Lifting is idempotent: extending an existing context and lifting from
    scratch agree, because the root congruent to 0 mod p is unique.
    """
    if minpoly.is_rational_field:
        raise ValueError("the rational sentinel field has no residue")
    p = minpoly.p
    if start is not None and start.minpoly == minpoly and start.precision >= m:
        return EmbeddingContext(minpoly, m, start.residue % p ** m)
    if start is not None and start.minpoly == minpoly:
        x, prec = start.residue, start.precision
    else:
        x, prec = 0, 1  # f(0) = an = 0 mod p and f'(0) = a_{n-1} is a unit
    while prec < m:
        prec *= 2
        mod = p ** prec
        f, fp = _poly_mod(minpoly, mod)
        fx = _eval_mod(f, x, mod)
        fpx = _eval_mod(fp, x, mod)
        x = (x - fx * inv_mod(fpx, mod)) % mod
    return EmbeddingContext(minpoly, m, x % p ** m)


class Embedding:
    """Extend-on-demand view of K inside Q_p.

    Mutable only in its cached precision; ``context(m)`` returns immutable
    snapshots, so concurrent readers can exchange snapshots freely.
    """

    def __init__(self, minpoly: MinPoly, initial_precision: int | None = None):
        self.minpoly = minpoly
        self.p = minpoly.p
        if minpoly.is_rational_field:
            self._ctx = None
            self._base_precision = 1
        else:
            an_ord = ordp(minpoly.coeffs[-1], minpoly.p)
            self._base_precision = 2 * (1 + int(an_ord) * minpoly.degree)
            m0 = initial_precision or self._base_precision
            self._ctx = hensel_lift(minpoly, m0)

    def context(self, m: int) -> EmbeddingContext:
        if self._ctx is None:
            raise ValueError("the rational sentinel field has no residue")
        self._ctx = hensel_lift(self.minpoly, max(m, self._ctx.precision), self._ctx)
        return EmbeddingContext(self.minpoly, m, self._ctx.residue % self.p ** m)

    def residue(self, m: int) -> int:
        return self.context(m).residue

    # --- integer-combination view -------------------------------------
    def _integer_parts(self, a: FieldElement):
        """(b_i integers, d) with a = (1/d) sum b_i z^i and d = denom_z(a)."""
        d = denom_z(a)
        return [int(c * d) for c in a.coeffs], d

    def _combination_mod(self, nums, m: int) -> int:
        r = self.residue(m)
        mod = self.p ** m
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
        Hence v_p(b(z0)) <= sum_i v(b(theta_i)) = v_p(Res(f, b)), since
        Res(f, b) is the product of the b(theta_i) for monic f.  The
        resultant vanishes only when b shares a root with f, which for
        nonzero a of degree below n needs a reducible f: a zero divisor
        of an uncertified ring, reported as ZeroDivisionError.
        """
        if isinstance(a, VectorElement):
            return min(self.ord(c) for c in a.components)
        if a.is_zero():
            return ORD_INF
        if a.is_rational():
            return ordp(a.coeffs[0], self.p)
        nums, d = self._integer_parts(a)
        t = vp_int(d, self.p)
        m = self._base_precision
        cap = None
        while True:
            val = self._combination_mod(nums, m)
            if val:
                return vp_int(val, self.p) - t
            if cap is None:
                norm = resultant(self.minpoly.ascending(), ptrim(nums))
                if not norm:
                    raise ZeroDivisionError("zero divisor modulo a reducible polynomial")
                cap = ordp(norm, self.p) + 1
                m = max(m, cap)
                continue
            if m >= cap:
                raise PrecisionCapExceeded(f"valuation ladder passed cap {cap}")
            m = min(2 * m, cap)

    def absolute(self, a):
        e = self.ord(a)
        if e is ORD_INF:
            return QZERO
        return qpow(self.p, -e)

    def omega(self, a: FieldElement) -> int:
        """Digit c0 of the expansion of ``a``; 0 for the zero element."""
        if a.is_zero():
            return 0
        if a.is_rational():
            return omega_q(a.coeffs[0], self.p)
        nums, d = self._integer_parts(a)
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
        nums, d = self._integer_parts(a)
        t = vp_int(d, self.p)
        if m + t < 0:
            return QZERO
        mod = self.p ** (m + t + 1)
        val = self._combination_mod(nums, m + t + 1) * inv_mod(d // self.p ** t, mod) % mod
        return Q(val, self.p ** t)

    def in_pzp(self, a) -> bool:
        return self.ord(a) >= 1

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

    # --- componentwise vector views --------------------------------------
    def ord_vector(self, vec: VectorElement):
        return min(self.ord(c) for c in vec.components)

    def head_vector(self, vec: VectorElement, m: int = 0):
        return tuple(self.head(c, m) for c in vec.components)
