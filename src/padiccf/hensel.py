"""Embedding K = Q(z) into Q_p and p-adic functionals on field elements.

The admissibility clauses of the defining polynomial guarantee a unique
root in pZ_p with unit derivative; Newton iteration (the one of
``polys.newton_lift``, shared with the rational-root test) lifts it to any
requested precision.  Valuations and digits of arbitrary field
elements are then exact integer computations against that residue:
for a = (1/d) * sum(b_i z^i), stored as its integer numerators b_i over
d, evaluate the integer combination at the residue modulo a suitable
power of p, and shift by the valuation of d.  ``ord_digit`` reads a
valuation and the unit digit together off the one residue the valuation
is found from, which is how the fractional maps take their digits without
evaluating an image at the root; the engine reads no other digit.
``omega``, the digit c0, takes its residue through ``rationals.head_num``,
the package's one digit-head routine.

``Embedding`` is the workhorse used by the expansion engine; it keeps one
residue, an int, and lifts it again from scratch whenever a computation
needs more digits than it holds.  It refuses a polynomial that fails an
admissibility clause (HViolation), since every root of an admissible f is
integral over Z_p, and that is what bounds a valuation.

A valuation is found on a ladder: the integer combination is evaluated
modulo p^m for m doubling from a base precision until it is nonzero, with
m clamped to a cap from the Hadamard bound on the resultant of D f and the
combination (von zur Gathen and Gerhard, Modern Computer Algebra, 6.8),
which needs only the bit lengths of two integer norms.  The doubling keeps
the work near the true valuation, which lies far below the cap for tall
elements; the field inverse (``field._inverse_nums``, the determinant of
the multiplication matrix) runs only when the cap is reached with the
value still zero, to tell a zero divisor from a broken cap.
"""

from __future__ import annotations

from .errors import CapExceeded, NotPrimitive, PrecisionCapExceeded, Reducible
from .field import FieldElement, MinPoly, VectorElement, _inverse_nums, check_admissible, element_minpoly, failed_clause
from .polys import newton_lift
from .rationals import ORD_INF, head_num, ordp, vp_int


def hensel_lift(minpoly: MinPoly, m: int) -> int:
    """The distinguished root (the one in pZ_p) to precision m: the residue
    in [0, p^m) of the unique root congruent to 0 mod p.

    :func:`polys.newton_lift` lifts the root 0 of D f mod p, D the lcm of
    f's coefficient denominators (``MinPoly._int_f``): admissibility makes
    D prime to p, so D f is an integer polynomial with D f(0) = D an = 0
    mod p and (D f)'(0) = D a_{n-1} a unit.
    """
    if minpoly.is_rational_field:
        raise ValueError("the rational sentinel field has no residue")
    den, low = minpoly._int_f
    mod = minpoly.p ** m
    return newton_lift(low + (den,), 0, minpoly.p, mod - 1)[0] % mod


class Embedding:
    """Extend-on-demand view of K inside Q_p.

    Holds the residue of z modulo p^precision as an int; a request for more
    digits lifts it again from scratch, which is as cheap as extending.

    ``cycles`` (closed cycles: per step key (algorithm, eps, lookahead,
    g_variant), each cycle remainder's (step, next remainder)) and
    ``elements`` (pivots: per short element, keyed by its canonical
    (nums, den), :meth:`ord_digit`'s (ord, unit digit), its inverse and
    the inverse's multiplication rows) are the expansion engine's memos.
    They live as long as the embedding; ``cfrac`` fills and reads them,
    and its module docstring states what they admit and hold.
    """

    def __init__(self, minpoly: MinPoly):
        self.minpoly = minpoly
        self.p = minpoly.p
        self.cycles: dict = {}
        self.elements: dict = {}
        self._precision = self._residue = 0
        if minpoly.is_rational_field:
            self._base_precision = 1
            return
        check_admissible(minpoly)
        if not minpoly.coeffs[-1]:
            raise Reducible("x divides a minimal polynomial with zero constant term")
        an_ord = ordp(minpoly.coeffs[-1], minpoly.p)
        self._base_precision = 2 * (1 + an_ord * minpoly.degree)

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
    def ord(self, a: FieldElement):
        """Valuation of one field element (ORD_INF for zero), exact; a
        vector's valuation is the least over its components.

        Write a = b(z)/d with b an integer polynomial of degree below n =
        deg f.  The integer combination b(z0) at the embedded root z0 is
        evaluated modulo p^m; it is nonzero there as soon as m exceeds
        v_p(b(z0)), and then ord(a) is its valuation minus v_p(d).  The
        first evaluation is at the base precision; while b(z0) vanishes,
        m doubles, clamped to a sound cap.  Jumping straight to the cap
        would lift the root far past the true valuation of a tall element,
        whose norm, and so its cap, grows with its coefficients.

        The cap is the resultant bound.  Let F = D f, D the lcm of f's
        denominators (``MinPoly._int_f``), which admissibility makes prime
        to p.  f is monic with p-integral coefficients, so all its roots
        theta_1 = z0, .., theta_n are integral over Z_p and v(b(theta_i))
        >= 0 for each.  Hence v_p(b(z0)) <= v_p(N(b)), N(b) = prod_i
        b(theta_i), and Res(F, b) = D^deg(b) N(b) has the same valuation,
        at most log_p |Res(F, b)| <= log_p(||F||^(n-1) ||b||^n) by
        Hadamard's bound on the Sylvester matrix, ||.|| the Euclidean norm
        of the coefficients (deg b < n and ||F|| >= 1).  With the
        squared norms' bit lengths and floor(log2 p) that is the integer
        ((n - 1) bitlen(||F||^2) + n bitlen(||b||^2)) // (2 floor(log2 p)),
        and the cap is one more.  When b(z0) still vanishes at the cap,
        N(b) is 0: b shares a root with f, which for nonzero a of degree
        below n needs a reducible f, a zero divisor of an uncertified ring.
        The field inverse settles that: it takes the determinant of the
        multiplication matrix, D^(n(n - 1)/2) N(b), and raises
        ZeroDivisionError when it is 0; a nonzero one would mean a broken
        cap, PrecisionCapExceeded.
        """
        if a.is_zero():
            return ORD_INF
        return vp_int(self._ladder(a), self.p) - vp_int(a.den, self.p)

    def ord_digit(self, a: FieldElement) -> tuple:
        """(ord(a), u) for u the unit digit of a, the first digit of
        p^-ord(a) a, in 1..p-1; (ORD_INF, 0) for zero.

        Both come from the one residue r of :meth:`ord`'s ladder: r = b(z0)
        mod p^m with v = v_p(b(z0)) < m, so b(z0) / p^v = r / p^v mod p,
        and with d = p^t u_d the digit is (r / p^v) u_d^-1 mod p."""
        if not any(a.nums):
            return ORD_INF, 0
        p, den = self.p, a.den
        r = self._ladder(a)
        v, t = vp_int(r, p), vp_int(den, p)
        return v - t, r // p ** v * pow(den // p ** t, -1, p) % p

    def _ladder(self, a: FieldElement) -> int:
        """The residue :meth:`ord` reads its valuation from, for nonzero
        ``a``: the constant numerator of a rational element, else the
        combination b(z0) modulo the first p^m of the ladder where it is
        nonzero."""
        nums = a.nums
        if not any(nums[1:]):
            return nums[0]
        m = self._base_precision
        val = self._combination_mod(nums, m)
        if not val:
            cap = self._ord_cap(nums)
            while not val and m < cap:
                m = min(2 * m, cap)
                val = self._combination_mod(nums, m)
            if not val:
                _inverse_nums(a)  # ZeroDivisionError for a zero divisor
                raise PrecisionCapExceeded(f"valuation passed its cap {cap}")
        return val

    def _ord_cap(self, nums) -> int:
        """:meth:`ord`'s cap on the combination of the integer numerators
        ``nums``: one more than the resultant bound
        ((n - 1) bitlen(||D f||^2) + n bitlen(||b||^2)) // (2 floor(log2 p))."""
        den, low = self.minpoly._int_f
        f_bits = (den * den + sum(c * c for c in low)).bit_length()
        b_bits = sum(b * b for b in nums).bit_length()
        n = self.minpoly.degree
        return ((n - 1) * f_bits + n * b_bits) // (2 * (self.p.bit_length() - 1)) + 1

    def omega(self, a: FieldElement) -> int:
        """Digit c0 of the expansion of ``a``, as an int: the floor of its
        head at index 0, by :func:`rationals.head_num` on the residue of
        the numerators at the root modulo p^(v_p(den) + 1), the precision
        that head needs; 0 for the zero element.  A rational element
        passes its constant numerator, so the degree-1 sentinel never
        lifts."""
        nums, den, p = a.nums, a.den, self.p
        r = self._combination_mod(nums, vp_int(den, p) + 1) if any(nums[1:]) else nums[0]
        return head_num(r, den, p, 0) // den

    def t_b(self, a: FieldElement) -> FieldElement:
        """One digit-stripping step: p^ord(a)/a minus its unit digit, which
        is :func:`cfrac.g_map` at s = 1 (eps = 1, pivot 1), the maps' one
        kernel.

        Fixed on zero; the image always lands in pZ_p."""
        from .cfrac import g_map  # cfrac imports this module

        return g_map(self, VectorElement((a,)), 1, 1)[1][0]

    # --- admissible generators ------------------------------------------
    def satisfies_H(self, a: FieldElement) -> bool:
        """Admissibility of ``a``'s own minimal polynomial, plus a in pZ_p."""
        if a.is_zero() or a.is_rational():
            return False
        return failed_clause(element_minpoly(a), self.p) is None and self.ord(a) >= 1

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
