"""Exact arithmetic in K = Q(z) for an admissible generator z.

A ``MinPoly`` fixes the ambient data: the prime p and the monic minimal
polynomial x^n + a1 x^(n-1) + ... + an of z.  Admissibility means every
coefficient is p-integral, the x^1 coefficient is a p-adic unit and the
constant term is not; under those clauses Hensel's lemma pins a unique
root of the polynomial in pZ_p, which is the embedding K -> Q_p used
throughout (see hensel.py).

A field element is a vector of integer numerators over one positive
denominator in the basis 1, z, ..., z^(n-1), ascending, with the content
removed: gcd(den, *nums) = 1, so zero is (0, .., 0)/1, and equality and
hashing are structural (Cohen, *A Course in Computational Algebraic
Number Theory*, 4.2).  A product is one integer matrix-vector product
with the multiplication matrix, and an inverse its first-row cofactors
over its determinant (``preduce.first_row_expansion``; at degree 2 read
off the numerators, with no matrix).  Both are
unreduced helpers (``_product_nums``, ``_inverse_nums``) that the
fractional maps of ``cfrac`` share; ``*`` and ``inverse`` reduce their
result once.  Sums follow Knuth, TAOCP vol. 2, 4.5.1, and reduce
only by the gcd of the two denominators.  ``Fraction`` coefficients are a
derived view (``.coeffs``) for serialization and printing.  The
degenerate degree-1 case (K = Q, still with s = 1) is represented by the
``MinPoly.rationals`` sentinel; its elements carry a single coefficient.
"""

from __future__ import annotations

import math
import operator

from . import polys
from .errors import CapExceeded, HViolation, MixedField, RecordFormatError
from .polys import multiplication_rows
from .preduce import back_substitute, bareiss, canonical, first_row_expansion, scale_rows
from .rationals import Q, QONE, QZERO, check_prime, ordp, qexact, qformat, qparse_list


class MinPoly:
    """Prime p plus the monic defining polynomial, coefficients a1..an.

    Instances created through :func:`validate_minpoly`, which
    :meth:`from_json` goes through too, are proven irreducible and keep
    the pending (G, disc(G)) that ``polys.certify`` returns, a pair of
    ints that pickles; :attr:`certificate_prime` finds the certificate
    prime from it on its first read (None when no one prime witnesses
    irreducibility).  Direct construction skips certification and
    yields plain quotient-ring semantics (used by tests and by the
    degree-1 sentinel).  The polynomial x, coefficients (0,), is that
    sentinel, K = Q, however it is built or loaded.
    """

    __slots__ = ("p", "coeffs", "degree", "is_rational_field", "_key", "_int_f", "_certificate", "_pending")

    def __init__(self, p: int, coeffs):
        self.p = check_prime(p)
        self.coeffs = tuple(qexact(c) for c in coeffs)  # a1 .. an, descending powers
        self.degree = len(self.coeffs)
        if self.degree < 1:
            raise ValueError("empty coefficient list")
        self._certificate = self._pending = None  # validate_minpoly sets _pending
        self.is_rational_field = self.coeffs == (QZERO,)
        self._key = (self.p, self.coeffs)
        # (D, (D a_n, .., D a_1)): the lower coefficients cleared by their lcm D
        (low,), (den,) = scale_rows([self.coeffs[::-1]])
        self._int_f = (den, tuple(low))

    @property
    def certificate_prime(self):
        """The certificate prime, found from the pending pair on the
        first read (``polys.find_certificate``)."""
        if self._pending:
            self._certificate, self._pending = polys.find_certificate(*self._pending, self.p), None
        return self._certificate

    @classmethod
    def rationals(cls, p: int) -> "MinPoly":
        """Degree-1 sentinel x: K = Q with s = 1 and no generator."""
        return cls(p, (QZERO,))

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
        """The element sum c_i z^i; canonical Fractions scaled by the lcm of
        their denominators share no factor with it."""
        coeffs = [qexact(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        (nums,), (den,) = scale_rows([coeffs])
        return FieldElement(self, tuple(nums) + (0,) * (self.degree - len(nums)), den)

    def rational(self, q) -> "FieldElement":
        q = qexact(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

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
        """The polynomial :meth:`to_json` writes: the rational sentinel x,
        or one that :func:`validate_minpoly` admits (CapExceeded,
        HViolation or Reducible otherwise).  The recorded certificate
        prime must be the one certification finds, an int or None of the
        same value; any other value is a RecordFormatError."""
        p, coeffs = data["p"], qparse_list(data["coeffs"])
        mp = cls.rationals(p) if coeffs == [QZERO] else validate_minpoly(p, coeffs)
        cert = data.get("certificate_prime")
        if type(cert) is not type(mp.certificate_prime) or cert != mp.certificate_prime:
            raise RecordFormatError(f"certificate_prime {cert!r} is not the certificate of {mp!r}")
        return mp


# Degree cap of every certified polynomial: certification grows fast with
# the degree (one `padiccf expand` at degree 80 takes about 1.2 s on a
# 2-core host), and the 200 candidates of one z-set take about 2.5 s at 20
# for p = 2; the criteria go up to degree 6.
MAX_DEGREE = 20


def check_degree(degree: int) -> None:
    """CapExceeded when a degree is above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise CapExceeded(f"degree {degree} is above MAX_DEGREE = {MAX_DEGREE}")


CLAUSES = {
    "degree": "degree must be at least 2",
    "integrality": "coefficients must be p-integral",
    "unit-subleading": "x^1 coefficient must be a p-adic unit",
    "divisible-constant": "constant term must lie in pZ_p",
}


def failed_clause(f, p: int):
    """Name of the first admissibility clause (a key of ``CLAUSES``) that the
    monic polynomial f, an ascending coefficient tuple, fails; None if it
    passes them all."""
    if len(f) < 3:
        return "degree"
    if any(c and ordp(c, p) < 0 for c in f):
        return "integrality"
    if not f[1] or ordp(f[1], p) != 0:
        return "unit-subleading"
    if f[0] and ordp(f[0], p) <= 0:
        return "divisible-constant"
    return None


def check_admissible(mp: MinPoly) -> None:
    """HViolation naming the first admissibility clause ``mp`` fails."""
    clause = failed_clause(mp.ascending(), mp.p)
    if clause:
        raise HViolation(clause, CLAUSES[clause])


def validate_minpoly(p: int, coeffs) -> MinPoly:
    """Certify a candidate minimal polynomial x^n + a1 x^(n-1) + .. + an:
    the one way a defining polynomial enters the package.

    Refuses a degree above MAX_DEGREE (CapExceeded), checks the
    admissibility clauses (p-integral coefficients, unit x^1
    coefficient, non-unit constant term), then makes the irreducibility
    decision with one call to :func:`polys.certify`, which raises
    Reducible (or CapExceeded) and stops at the first proof.  The pair
    (G, disc(G)) it returns is kept pending, and the certificate prime is
    found from it on its first read (:attr:`MinPoly.certificate_prime`),
    as when a record or z-set JSON is written; it is None when the
    polynomial is proven irreducible without a one-prime witness.
    """
    mp = MinPoly(p, coeffs)
    check_degree(mp.degree)
    check_admissible(mp)
    mp._pending = polys.certify(mp.ascending(), mp.p)
    return mp


ZERO_DIVISOR = "zero divisor modulo a reducible polynomial"


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Q))


class FieldElement:
    """Element of K as (nums_0 + nums_1 z + ... + nums_s z^s) / den.

    ``nums`` is a tuple of ints and ``den`` an int > 0 with
    gcd(den, *nums) = 1; callers of the constructor pass that canonical
    form, :func:`_reduced` makes it from any nonzero denominator.
    """

    __slots__ = ("minpoly", "nums", "den")

    def __init__(self, minpoly: MinPoly, nums, den: int):
        self.minpoly = minpoly
        self.nums = nums
        self.den = den

    @property
    def coeffs(self):
        """The coefficients c0, .., cs as canonical Fractions."""
        return tuple(Q(x, self.den) for x in self.nums)

    # helpers ------------------------------------------------------------
    def _check(self, other: "FieldElement"):
        if self.minpoly is not other.minpoly and self.minpoly != other.minpoly:
            raise MixedField("operands from different fields")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return other
        if _is_scalar(other):
            return self.minpoly.rational(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Q(self.nums[0], self.den)

    def key(self):
        return self.coeffs

    # arithmetic ----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.minpoly, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o, self, -1)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _mul(self, other)
        if _is_scalar(other):
            return _scale(self, other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _mul(self, other.inverse())
        if _is_scalar(other):
            return self * (QONE / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return _scale(self.inverse(), other.numerator, other.denominator)
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
        """The inverse: :func:`_inverse_nums` reduced once."""
        return _reduced(self.minpoly, *_inverse_nums(self))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.nums == other.nums and self.den == other.den and self.minpoly == other.minpoly
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

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
        """The element {"coeffs": [..]} that :meth:`to_json` writes; any
        other shape is a RecordFormatError."""
        if not isinstance(data, dict) or "coeffs" not in data:
            raise RecordFormatError(f'an element is {{"coeffs": [...]}}, got {data!r}')
        return minpoly.element(qparse_list(data["coeffs"]))


def _inverse_nums(a: FieldElement) -> tuple:
    """a^-1 as integer numerators over a positive denominator, unreduced:
    Cramer's rule on the multiplication matrix.

    Write a = b(z)/d with integer b and let M be the integer matrix of
    :func:`polys.multiplication_rows`, whose column j is D^j (b z^j mod f).
    The inverse c of b solves M_b c = e_0, where M_b = M diag(D^-j), so
    c_j = D^j (adj(M) e_0)_j / det(M) and a^-1 = d c; adj(M) e_0 is the
    cofactor vector C_0j of M's first row, and det(M) = sum_j M_0j C_0j
    (Cohen 4.2), both from :func:`preduce.first_row_expansion`.  det(M) = 0
    means b shares a root with f: a zero divisor of a reducible f, and the
    one place that is decided (the valuation ladder of ``hensel.Embedding``
    asks here too).  A rational a is d / b_0.

    At degree 2 the rows are not built: with ``MinPoly._int_f`` = (D, (l0,
    l1)), M is [[x0, -x1 l0], [x1, D x0 - x1 l1]], so the cofactors are
    C0 = D x0 - x1 l1 and -x1, and det(M) = x0 C0 + x1^2 l0, the integers
    the expansion gives; the numerators (d C0, -d D x1) are returned as
    they are.  This is the only route to a 2 x 2 inverse.  Zero and
    rationality are read off the numerators.
    """
    mp, d, nums = a.minpoly, a.den, a.nums
    x0 = nums[0]
    if not any(nums[1:]):
        if not x0:
            raise ZeroDivisionError("inverse of zero")
        return (d if x0 > 0 else -d,) + (0,) * (mp.degree - 1), abs(x0)
    den, low = mp._int_f
    if mp.degree == 2:
        x1 = nums[1]
        c0 = den * x0 - x1 * low[1]
        det, cof = x0 * c0 + x1 * x1 * low[0], None
    else:
        det, cof = first_row_expansion(multiplication_rows(mp._int_f, nums))
    if not det:
        raise ZeroDivisionError(ZERO_DIVISOR)
    if det < 0:
        d, det = -d, -det
    if cof is None:
        return (d * c0, -d * den * x1), det
    return tuple(d * den ** j * c for j, c in enumerate(cof)), det


def _product_nums(mp: MinPoly, rows, nums) -> tuple:
    """The integer numerators of b_a b_b over D^(n-1), for ``rows`` the
    :func:`polys.multiplication_rows` of b_a and ``nums`` those of b_b.

    Column j of that matrix M is D^j (b_a z^j mod f), so b_a b_b = sum_j
    b_b,j M e_j / D^j = M w / D^(n-1) with the integer vector w_j = b_b,j
    D^(n-1-j).  One matrix of b_a serves every b_b it multiplies."""
    den, n = mp._int_f[0], mp.degree
    w = nums if den == 1 else [x * den ** (n - 1 - j) for j, x in enumerate(nums)]
    return tuple([sum(map(operator.mul, row, w)) for row in rows])


def _reduced(mp: MinPoly, nums: tuple, den: int, bound: int | None = None) -> FieldElement:
    """The canonical element nums/den for any nonzero int den; ``bound``,
    when given, is a multiple of every factor nums and den can share."""
    return FieldElement(mp, *canonical(nums, den, bound))


def _sum(a: FieldElement, b: FieldElement, sign: int) -> FieldElement:
    """a + sign b after Knuth 4.5.1.  With g = gcd(d_a, d_b) the
    numerators A (d_b/g) + sign B (d_a/g) over d_a d_b / g can share with
    it only factors of g, since gcd(d_a, A) = gcd(d_b, B) = 1."""
    da, db = a.den, b.den
    g = math.gcd(da, db)
    ka, kb = db // g, sign * (da // g)
    return _reduced(a.minpoly, tuple(x * ka + y * kb for x, y in zip(a.nums, b.nums)), da * ka, g)


def _scale(a: FieldElement, u: int, v: int) -> FieldElement:
    """a u/v for ints u and v > 0, reduced once: the package's one scaling
    of an element by a rational."""
    return _reduced(a.minpoly, tuple(x * u for x in a.nums), a.den * v)


def _mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """a b: :func:`_product_nums` over d_a d_b D^(n-1), reduced once."""
    mp = a.minpoly
    nums = _product_nums(mp, multiplication_rows(mp._int_f, a.nums), b.nums)
    return _reduced(mp, nums, a.den * b.den * mp._int_f[0] ** (mp.degree - 1))


def element_minpoly(a: FieldElement):
    """Lowest-degree monic rational polynomial annihilating ``a``.

    The coordinates of 1, a, .., a^n over one common denominator are the
    columns of one fraction-free elimination.  A power independent of the
    lower ones gets a pivot, and past the first dependent power a^r none
    does, so r is the number of pivots; back substitution writes a^r in
    the first r powers.  Returned as an ascending coefficient tuple with
    leading 1.
    """
    n = a.minpoly.degree
    powers = [a.minpoly.one()]
    for _ in range(n):
        powers.append(powers[-1] * a)
    den = math.lcm(*(x.den for x in powers))
    rows = [[x.nums[j] * (den // x.den) for x in powers] for j in range(n)]
    pivots, _ = bareiss(rows, n + 1)
    d, x = back_substitute(rows, pivots, len(pivots))
    return tuple(Q(-xi[0], d) for xi in x) + (QONE,)


def denom_z(value) -> int:
    """Least positive integer clearing all basis-coefficient denominators:
    the element's ``den``.  Vectors take the max over components.
    """
    if isinstance(value, VectorElement):
        return max(c.den for c in value.components)
    return value.den


def height_z(value) -> int:
    """Max over basis coefficients of |num| + den; vectors take the max
    over components.  The divergence gauge for the experiment harness."""
    if isinstance(value, VectorElement):
        return max(height_z(c) for c in value.components)
    d = value.den  # x/d in lowest terms has height (|x| + d) / gcd(x, d)
    return max((abs(x) + d) // math.gcd(x, d) for x in value.nums)


def independent_with_one(elements) -> bool:
    """True iff 1, t1, ..., tk are linearly independent over Q."""
    elements = tuple(elements)
    if not elements:
        return True
    width = elements[0].minpoly.degree
    rows = [[1] + [0] * (width - 1)] + [list(t.nums) for t in elements]
    return len(bareiss(rows, width)[0]) == len(rows)


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
        return isinstance(other, VectorElement) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.components) + ")"

    def to_json(self):
        return [c.to_json() for c in self.components]

    @classmethod
    def from_json(cls, minpoly: MinPoly, data) -> "VectorElement":
        """The vector :meth:`to_json` writes, a list of elements; any other
        shape is a RecordFormatError."""
        if not isinstance(data, list):
            raise RecordFormatError(f"a vector is a list of elements, got {data!r}")
        return cls(tuple(FieldElement.from_json(minpoly, e) for e in data))
