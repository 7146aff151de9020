"""Exact arithmetic in K = Q(z) for an admissible generator z.

A ``MinPoly`` fixes the ambient data: the prime p and the monic minimal
polynomial x^n + a1 x^(n-1) + ... + an of z.  Admissibility means every
coefficient is p-integral, the x^1 coefficient is a p-adic unit and the
constant term is not; under those clauses Hensel's lemma pins a unique
root of the polynomial in pZ_p, which is the embedding K -> Q_p used
throughout (see hensel.py).

Field elements are coefficient vectors over the basis 1, z, ..., z^s in
ascending order and always in lowest terms, so equality and hashing are
structural.  The degenerate degree-1 case (K = Q, still with s = 1) is
represented by the ``MinPoly.rationals`` sentinel; its elements carry a
single coefficient.
"""

from __future__ import annotations

import math

from . import polys
from .errors import HViolation, IrreducibilityUnknown, MixedField, Reducible
from .preduce import RationalMatrix
from .rationals import Q, QONE, QZERO, check_prime, height, ordp, qformat, qparse


class MinPoly:
    """Prime p plus the monic defining polynomial, coefficients a1..an.

    Instances created through :func:`validate_minpoly` carry an
    irreducibility certificate; direct construction skips certification
    and yields plain quotient-ring semantics (used by tests and by the
    degree-1 sentinel).
    """

    __slots__ = ("p", "coeffs", "degree", "s", "certificate_prime", "is_rational_field", "_zpows", "_key")

    def __init__(self, p: int, coeffs, certificate_prime=None, _rational=False):
        self.p = check_prime(int(p))
        self.coeffs = tuple(Q(c) for c in coeffs)  # a1 .. an, descending powers
        self.degree = len(self.coeffs)
        if self.degree < 1:
            raise ValueError("empty coefficient list")
        self.s = self.degree - 1 if self.degree >= 2 else 1
        self.certificate_prime = certificate_prime
        self.is_rational_field = _rational
        self._key = (self.p, self.coeffs, _rational)
        # reduction table: z^e for e in [degree, 2*degree-2] as ascending vectors
        n = self.degree
        base = [-c for c in reversed(self.coeffs)]  # z^n = base . (1, z, .., z^(n-1))
        table = {n: tuple(base)}
        cur = list(base)
        for e in range(n + 1, 2 * n - 1):
            shifted = [QZERO] + cur[: n - 1]
            top = cur[n - 1]
            if top:
                shifted = [a + top * b for a, b in zip(shifted, base)]
            table[e] = tuple(shifted)
            cur = shifted
        self._zpows = table

    @classmethod
    def rationals(cls, p: int) -> "MinPoly":
        """Degree-1 sentinel: K = Q with s = 1 and no generator."""
        return cls(p, (QZERO,), _rational=True)

    # polynomial views -------------------------------------------------
    def ascending(self):
        """The polynomial as an ascending coefficient tuple (an, .., a1, 1)."""
        return tuple(reversed(self.coeffs)) + (QONE,)

    def __eq__(self, other):
        return isinstance(other, MinPoly) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.is_rational_field:
            return f"MinPoly(rationals, p={self.p})"
        terms = ",".join(qformat(c) for c in self.coeffs)
        return f"MinPoly(p={self.p}, x^{self.degree}+[{terms}])"

    # element constructors ---------------------------------------------
    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(Q(c) for c in coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        coeffs = coeffs + (QZERO,) * (self.degree - len(coeffs))
        return FieldElement(self, coeffs)

    def rational(self, q) -> "FieldElement":
        return self.element((Q(q),))

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((QONE,))

    def gen(self) -> "FieldElement":
        if self.is_rational_field:
            raise ValueError("the rational field has no generator")
        return self.element((QZERO, QONE))

    def vector(self, components) -> "VectorElement":
        elems = []
        for c in components:
            if isinstance(c, FieldElement):
                elems.append(c)
            elif isinstance(c, (list, tuple)):
                elems.append(self.element(c))
            else:
                elems.append(self.rational(c))
        return VectorElement(tuple(elems))

    def to_json(self):
        return {
            "p": self.p,
            "coeffs": [qformat(c) for c in self.coeffs],
            "certificate_prime": self.certificate_prime,
        }

    @classmethod
    def from_json(cls, data) -> "MinPoly":
        return cls(data["p"], [qparse(c) for c in data["coeffs"]],
                   certificate_prime=data.get("certificate_prime"))


def validate_minpoly(p: int, coeffs, *, force: bool = False, tries: int = 25) -> MinPoly:
    """Certify a candidate minimal polynomial x^n + a1 x^(n-1) + .. + an.

    Checks the admissibility clauses (p-integral coefficients, unit x^1
    coefficient, non-unit constant term) and searches an irreducibility
    certificate prime.  When certification fails, reducible candidates
    raise Reducible; irreducible-but-uncertified ones raise
    IrreducibilityUnknown unless ``force`` is set.
    """
    check_prime(p)
    mp = MinPoly(p, coeffs)
    n = mp.degree
    if n < 2:
        raise HViolation("degree", "degree must be at least 2")
    for i, a in enumerate(mp.coeffs):
        if a and ordp(a, p) < 0:
            raise HViolation("integrality", f"coefficient a{i + 1} is not p-integral")
    a_n1, a_n = mp.coeffs[-2], mp.coeffs[-1]
    if not a_n1 or ordp(a_n1, p) != 0:
        raise HViolation("unit-subleading", "x^1 coefficient must be a p-adic unit")
    if a_n and ordp(a_n, p) <= 0:
        raise HViolation("divisible-constant", "constant term must lie in pZ_p")
    asc = mp.ascending()
    cert = polys.certificate_prime(asc, p, tries=tries)
    if cert is None:
        if not polys.is_irreducible_exact(asc):
            raise Reducible("polynomial factors over Q")
        if not force:
            raise IrreducibilityUnknown(
                f"no certificate among the first {tries} candidate primes"
            )
    return MinPoly(p, coeffs, certificate_prime=cert)


def _is_scalar(x) -> bool:
    # ints, mpz, mpq, Fraction all expose numerator/denominator
    return isinstance(x, int) or hasattr(x, "denominator")


class FieldElement:
    """Element of K as the coefficient vector c0 + c1 z + ... + cs z^s."""

    __slots__ = ("minpoly", "coeffs")

    def __init__(self, minpoly: MinPoly, coeffs):
        self.minpoly = minpoly
        self.coeffs = coeffs  # trusted callers pass canonical tuples of Q

    # helpers ------------------------------------------------------------
    def _check(self, other: "FieldElement"):
        if self.minpoly is not other.minpoly and self.minpoly != other.minpoly:
            raise MixedField("operands from different fields")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return other
        if _is_scalar(other):
            return self.minpoly.element((Q(other),))
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def key(self):
        return self.coeffs

    # arithmetic ----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.minpoly, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.minpoly, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.minpoly, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _mul(self, other)
        if _is_scalar(other):
            c = Q(other)
            return FieldElement(self.minpoly, tuple(a * c for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _mul(self, other.inverse())
        if _is_scalar(other):
            c = Q(other)
            return FieldElement(self.minpoly, tuple(a / c for a in self.coeffs))
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return self.inverse() * Q(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.minpoly.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def inverse(self) -> "FieldElement":
        """Extended Euclid of the coefficient polynomial against the
        defining polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return self.minpoly.element((QONE / self.coeffs[0],))
        f = polys.ptrim(self.coeffs)
        g = self.minpoly.ascending()
        # Bezout: u*f + v*g = gcd
        r0, r1 = g, f
        t0, t1 = (), (QONE,)
        while r1:
            q, r = polys.pdivmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, polys.psub(t0, polys.pmul(q, t1))
        if polys.pdeg(r0) > 0:
            raise ZeroDivisionError("zero divisor modulo a reducible polynomial")
        inv = polys.pscale(t0, QONE / r0[0])
        _, rem = polys.pdivmod(inv, g)
        return self.minpoly.element(rem)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.minpoly == other.minpoly and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.minpoly._key, self.coeffs))

    def __repr__(self):
        names = ["", "z"] + [f"z^{i}" for i in range(2, self.minpoly.degree)]
        parts = [
            f"{qformat(c)}{'*' if n else ''}{n}"
            for c, n in zip(self.coeffs, names)
            if c
        ]
        return f"<{' + '.join(parts) if parts else '0'}>"

    def to_json(self):
        return {"coeffs": [qformat(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, minpoly: MinPoly, data) -> "FieldElement":
        return minpoly.element([qparse(c) for c in data["coeffs"]])


def _mul(a: FieldElement, b: FieldElement) -> FieldElement:
    mp = a.minpoly
    n = mp.degree
    if n == 1:
        return FieldElement(mp, (a.coeffs[0] * b.coeffs[0],))
    conv = [QZERO] * (2 * n - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if y:
                conv[i + j] += x * y
    out = conv[:n]
    for e in range(n, 2 * n - 1):
        c = conv[e]
        if c:
            zp = mp._zpows[e]
            for i in range(n):
                if zp[i]:
                    out[i] += c * zp[i]
    return FieldElement(mp, tuple(out))


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    a._check(b)
    return _mul(a, b)


def invert(a: FieldElement) -> FieldElement:
    return a.inverse()


def element_minpoly(a: FieldElement):
    """Lowest-degree monic rational polynomial annihilating ``a``.

    Computed from the kernel of the coordinate matrix of 1, a, a^2, ...;
    returned as an ascending coefficient tuple with leading 1.
    """
    n = a.minpoly.degree
    powers = [a.minpoly.one()]
    for _ in range(n):
        powers.append(powers[-1] * a)
    rows = [list(p.coeffs) for p in powers]
    # least r with a^r a combination of lower powers
    for r in range(1, n + 1):
        sol = _solve(rows[:r], rows[r])
        if sol is not None:
            return tuple(-c for c in sol) + (QONE,)
    raise AssertionError("no annihilating polynomial within field degree")


def _solve(rows, target):
    """Solve sum x_i rows[i] = target over Q; None when inconsistent."""
    if not rows:
        return () if not any(target) else None
    m = len(rows)
    width = len(target)
    aug = [[rows[i][j] for i in range(m)] + [target[j]] for j in range(width)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, width) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = QONE / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(width):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, width):
        if aug[i][m]:
            return None
    sol = [QZERO] * m
    for row_idx, c in enumerate(piv_cols):
        sol[c] = aug[row_idx][m]
    return tuple(sol)


def denom_z(value) -> int:
    """Least positive integer clearing all basis-coefficient denominators.

    Vectors take the max over components.
    """
    if isinstance(value, VectorElement):
        return max(denom_z(c) for c in value.components)
    d = 1
    for c in value.coeffs:
        d = d * int(c.denominator) // math.gcd(d, int(c.denominator))
    return d


def height_z(value) -> int:
    """Max over basis coefficients of |num| + den; vectors take the max
    over components.  The divergence gauge for the experiment harness."""
    if isinstance(value, VectorElement):
        return max(height_z(c) for c in value.components)
    return max(height(c) for c in value.coeffs)


def coeff_matrix(vec: "VectorElement"):
    """(M, M') with row i the coefficients of component i in descending
    power order z^s, ..., z, 1; M' keeps the first s columns."""
    s = vec.s
    rows = []
    for comp in vec.components:
        padded = list(comp.coeffs) + [QZERO] * (s + 1 - len(comp.coeffs))
        rows.append(list(reversed(padded[: s + 1])))
    m = RationalMatrix(rows)
    msq = RationalMatrix([row[:s] for row in m.entries])
    return m, msq


def independent_with_one(elements) -> bool:
    """True iff 1, t1, ..., tk are linearly independent over Q."""
    elements = tuple(elements)
    if not elements:
        return True
    width = elements[0].minpoly.degree
    rows = [[QONE] + [QZERO] * (width - 1)]
    for t in elements:
        rows.append(list(t.coeffs))
    return RationalMatrix(rows).rank() == len(rows)


class VectorElement:
    """Tuple of field elements sharing one ambient field."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty vector")
        mp = components[0].minpoly
        for c in components[1:]:
            if c.minpoly != mp:
                raise MixedField("vector components from different fields")
        self.components = components

    @property
    def minpoly(self) -> MinPoly:
        return self.components[0].minpoly

    @property
    def s(self) -> int:
        return self.minpoly.s

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def key(self):
        return tuple(c.coeffs for c in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, VectorElement)
            and self.minpoly == other.minpoly
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.minpoly._key, self.key()))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.components) + ")"

    def to_json(self):
        return [c.to_json() for c in self.components]

    @classmethod
    def from_json(cls, minpoly: MinPoly, data) -> "VectorElement":
        return cls(tuple(FieldElement.from_json(minpoly, e) for e in data))
