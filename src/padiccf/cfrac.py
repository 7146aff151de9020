"""The expansion engine: fractional-map steps, the four algorithms,
step evaluation in both directions, convergents, and orbit
classification.

One step of every algorithm has the same split shape: a fractional map F
evaluated at the current remainder, then an invertible p-integral matrix A
and a shift vector gamma with entries in pZ_p, giving the next remainder
T(x) = A F(x) + gamma.  A step records the per-component parameters of F
(unit factor, p-power exponent, shift) together with A and gamma, in one
representation, on integers: each parameter and gamma entry is an int or
an unreduced (numerator, denominator) pair, as the map computed it, and A
is integer rows over their own denominators, the form
``preduce.reduce_rows`` returns.  The identity and the cyclic shift are
constant rows per s, and a phi3 A is built from its image's z-part rows
when first read.  Steps are built from ints and pairs only; a
``Fraction`` or a ``RationalMatrix`` is a view a reader derives.

Every component of F is a ratio with the pivot coordinate x_j as its
denominator, so T is projective-linear in (x, 1): a step is one
(s+1) x (s+1) integer matrix M in homogeneous coordinates, and
T(x) = (M (x, 1))[:s] / (M (x, 1))[s].  Both directions evaluate the same
way, forward with M and backward with its inverse; a last homogeneous
coordinate of 0 is the pole of that direction.  The integer matrices are
derived from the recorded parameters on first use and never serialized.
A vector of rationals or field elements is evaluated by the dot products
of the rows with (x, 1) and one division by the last coordinate.
A convergent replays the inverse steps on one primitive homogeneous
integer point, from (0, .., 0, 1): each step is s + 1 integer dot products
and one gcd against the step's scalar lambda (forward times inverse
matrix is lambda I), and the rationals are built once, at the end.

The fractional maps and the phi3 step work on the integer numerators and
the denominator of each component.  ``g_map`` and ``h_map`` are one
kernel, ``_fractional_map``, with a different function finishing each
component; the kernel finishes the pivot's component first, and a
one-component vector (s = 1) ends there, with no pass over the others;
otherwise it makes one pass over the rest, and it builds the step once.
a_j's inverse is taken once, as
numerators over a determinant (``field._inverse_nums``), each a_i a_j^-1
is one product with its multiplication rows (``field._product_nums``),
eps p^e is folded into the same integers, and each digit is read off the
valuation residues of ``Embedding.ord_digit`` rather than off the image.
The pivot goes through the embedding's element memo (``Embedding.elements``,
filled by ``_element``), so a short pivot met again takes no valuation,
inverse or multiplication rows; every other component takes its
valuation directly.
Each map's one finish function hands its image component, an unreduced
(nums, den) pair, to the maker its caller passes: ``g_map``'s finish the
pair as the kernel computed it, ``h_map``'s after reading the unit
normalizer and the digit head off it, both functions of its value.
``g_map`` and ``h_map`` pass ``field._reduced``, which reduces each pair
once, as the finish always did.  ``step_phi3`` passes ``_pair`` and makes
no field element of the image: it p-reduces the pairs' own integer rows
with their constant column carried along
(``preduce.reduce_rows``), which yields the next remainder and gamma
without forming the transformer A, and removes the rows' content once
per next component; A is built from the step's z-part rows only when
read (``CMapStep.rows``).  The step's projective integer matrix is built
from the parameter pairs and A's rows, and ``to_json`` formats the same
integers.

All remainders from index 1 on lie componentwise in pZ_p; remainders are
compared structurally on their canonical integer numerators and
denominators, so cycle detection is sound and complete up to the step
limit.  With detection off, a remainder met again in the same expansion
takes the (step, next remainder) of its first visit from the record and
runs no map, as the map is a function of the remainder alone; from the
first recurrence on every remainder recurs.  Such a record holds one step
object at several indices, so the step's projective matrices, cached on
the object, are built once per distinct step.

The phi2 lookahead is a branch and bound over the depth-(n+1) tree: it
visits children in increasing denom_z and maps no remainder whose own
denominator already reaches the least product found, so it returns the
full tree's index while mapping a pruned tree.  That pruned tree is the
memo of the next step: each remainder the call mapped, with its s
``h_map`` (step, image) pairs.  The step is read from that tree, and the
next tree maps only the remainders the last one did not reach.

The expansions of one generator share their closed cycles through the
embedding they run on (``Embedding.cycles``): a periodic expansion
stores its cycle, from the preperiod on, as each remainder's (step, next
remainder), and a later expansion with the same step key reads a step
from there instead of running the map.  The lookup sits where the step
would run, after the zero, recurrence, height and step-limit checks, so
every classification is computed as before; preperiods and orbits of any
other ending are not stored.

The memos of the embedding keep one policy.  A memo admits an element
only if it is short (``_short``: its denominator and every numerator
below ``ELEMENT_LIMIT`` in absolute value), since repeats come from the
small elements of periodic orbits and a tall element seldom recurs.  A
memo stores only what a later step reads: the element memo holds pivots,
each with its inverse, and the cycle memo holds a cycle only when every
component of every cycle remainder is short.  Each memo dict holds at
most ``MEMO_BUDGET`` entries: an embedding's pivots, or one step key's
cycle steps.  An entry is what the map would compute, so records and
tables are the same with or without the memos.

The engine is the one validator of its records: a record loads by
running :func:`expand` again on its initial vector, with the record's
parameters and stopping rules read from the record, and only if that
writes the same JSON (``ExpansionRecord.from_json``).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import CapExceeded, MixedField, NonSquare, PadiccfError, PoleHit, RecordFormatError
from .field import FieldElement, MinPoly, VectorElement, _inverse_nums, _product_nums, _reduced, denom_z, height_z
from .hensel import Embedding
from .polys import multiplication_rows
from .preduce import RationalMatrix, p_reduce, reduce_rows, solve
from .rationals import Q, QONE, head_num, qexact, qformat


def _is_int(v) -> bool:
    return type(v) is int  # not a bool, a float or a numeric string


def at_least(value, low: int, what: str) -> int:
    """value if it is an int (not a bool or a float) >= low, else a ValueError."""
    if not _is_int(value) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


@lru_cache(maxsize=None)
def cyclic_rows(s: int, k: int) -> tuple:
    """A of the cyclic shift by k, (x_1, .., x_s) -> (x_1+k, .., x_s+k)
    with indices mod s, as (integer rows, their denominators): the identity
    for k = 0, and (x2, .., xs, x1) for k = 1."""
    return tuple(tuple(int(j == (i + k) % s) for j in range(s)) for i in range(s)), (1,) * s


def _ratio(v) -> tuple:
    """A step parameter, an int or an unreduced (numerator, denominator)
    pair, as a pair."""
    return v if type(v) is tuple else (v, 1)


@dataclass(eq=False)
class CMapStep:
    """One recorded expansion step: the fractional map F, then A and gamma.

    For the pivot component j:   f_j(x) = c_j p^e_j / x_j - w_j
    for the others:              f_i(x) = c_i p^e_i x_i / x_j - w_i
    with (c, e, w) = (``coeffs``, ``exps``, ``shifts``).  An identity map
    (pivot component of the anchor is zero) leaves x unchanged.  The
    fractional maps return their own step, with A = I and gamma = 0.

    The step keeps every parameter on integers, as the maps computed it:
    c, w and gamma hold ints (g_map's digit and eps) or unreduced
    (numerator, denominator) pairs, and A is ``rows``, integer rows over
    their own denominators, the form ``preduce.reduce_rows`` leaves.
    ``coeffs``, ``shifts``, ``gamma`` and ``matrix`` are derived views
    (``Fraction``s and a ``RationalMatrix``) for readers and tests; only
    ``matrix`` is cached.  Equality and hashing compare ``to_json()``, the
    form a record loader compares, so steps of the same values are equal.

    A fresh map's A is the identity, and phi0 and phi1 take the cyclic
    shift, both constant rows per s (:func:`cyclic_rows`).  A phi3 step is
    given the z-part rows (integer rows, their denominators) of its image
    instead, and its A is ``p_reduce``'s transformer of those, built on the
    first read of ``rows`` and kept in their place.
    """

    p: int
    pivot: int
    eps: int
    identity: bool
    _coeffs: tuple
    exps: tuple
    _shifts: tuple
    _rows: tuple | None
    _gamma: tuple
    _zparts: tuple | None = None

    @property
    def rows(self) -> tuple:
        """A as (integer rows, their positive denominators)."""
        if self._rows is None:
            a = p_reduce(RationalMatrix.from_ints(*self._zparts), self.p)[1]
            self._rows, self._zparts = (a.nums, a.dens), None  # A replaces the z-part rows
        return self._rows

    @cached_property
    def matrix(self) -> RationalMatrix:
        return RationalMatrix.from_ints(*self.rows)

    @property
    def coeffs(self) -> tuple:
        return tuple(Q(*_ratio(v)) for v in self._coeffs)

    @property
    def shifts(self) -> tuple:
        return tuple(Q(*_ratio(v)) for v in self._shifts)

    @property
    def gamma(self) -> tuple:
        return tuple(Q(*_ratio(v)) for v in self._gamma)

    def __eq__(self, other):
        return self.to_json() == other.to_json() if isinstance(other, CMapStep) else NotImplemented

    def __hash__(self):
        return hash(json.dumps(self.to_json(), sort_keys=True))

    @cached_property
    def forward_matrix(self) -> tuple:
        """The step as a projective integer matrix: rows of ints acting on
        (x_1, .., x_s, 1), the pivot coordinate x_j becoming the new
        homogeneous coordinate.  Defined up to a scalar; kept primitive.

        With k_i = c_i p^e_i, F(x) ~ (k_i x_i - w_i x_j for i != j,
        k_j - w_j x_j; x_j), so row r of A F + gamma is
        (A_ri k_i for i != j, gamma_r - sum_i A_ri w_i at j, A_rj k_j).
        The rows are built on integers from the parameter pairs: A's rows
        over the lcm D of their denominators, and k, w and gamma over the lcm
        L of theirs, which scales the whole matrix by D L."""
        s, p = len(self._gamma), self.p
        a, dens = self.rows
        da = math.lcm(*dens)
        rows = [[x * (da // d) for x in row] for row, d in zip(a, dens)]
        k = [(c * p ** e, d) if e >= 0 else (c, d * p ** -e)
             for (c, d), e in zip(map(_ratio, self._coeffs), self.exps)]
        w, g = list(map(_ratio, self._shifts)), list(map(_ratio, self._gamma))
        den = math.lcm(*(d for _, d in k), *(d for _, d in w), *(d for _, d in g))
        k, w = [x * (den // d) for x, d in k], [x * (den // d) for x, d in w]
        g = [x * (da * den // d) for x, d in g]
        last = [0] * (s + 1)
        if self.identity:
            rows = [[x * den for x in row] + [gr] for row, gr in zip(rows, g)]
            last[s] = da * den
        else:
            j = self.pivot - 1
            for r, (row, gr) in enumerate(zip(rows, g)):
                out = [x * kc for x, kc in zip(row, k)] + [row[j] * k[j]]
                out[j] = gr - sum(map(operator.mul, row, w))
                rows[r] = out
            last[j] = da * den
        rows.append(last)
        return _primitive(rows)

    @cached_property
    def inverse_matrix(self) -> tuple:
        """Projective integer matrix of the inverse step: +-adj(M) for M =
        ``forward_matrix``, from one fraction-free elimination of [M | I],
        made primitive."""
        fwd = self.forward_matrix
        n = len(fwd)
        rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(fwd)]
        return _primitive(solve(rows, n, "singular step matrix")[1])

    @cached_property
    def inverse_scale(self) -> int:
        """The lambda of ``forward_matrix`` . ``inverse_matrix`` = lambda I.
        The inverse matrix times a primitive integer point has content
        dividing lambda, so one gcd against it makes the image primitive.
        ``math.gcd(*out)`` alone gives the same image, but that gcd starts
        from two entries as large as the point, while this one starts from
        the small lambda and reduces each entry by it once; so lambda stays
        while :func:`convergent` replays the steps one by one."""
        return sum(map(operator.mul, self.forward_matrix[-1], (row[-1] for row in self.inverse_matrix)))

    def to_json(self):
        return {
            "p": self.p,
            "pivot": self.pivot,
            "eps": self.eps,
            "identity": self.identity,
            "coeffs": [qformat(c) for c in self.coeffs],
            "exps": list(self.exps),
            "shifts": [qformat(w) for w in self.shifts],
            "matrix": [[qformat(Q(x, d)) for x in row] for row, d in zip(*self.rows)],
            "gamma": [qformat(g) for g in self.gamma],
        }


@dataclass(frozen=True)
class Status:
    """Terminal classification of an expansion."""

    kind: str  # "finite", "periodic", "height_exceeded" or "step_limit"
    index: int
    preperiod: int | None = None
    period: int | None = None

    def to_json(self):
        out = {"kind": self.kind, "index": self.index}
        if self.kind == "periodic":
            out["preperiod"] = self.preperiod
            out["period"] = self.period
        return out


@dataclass
class ExpansionRecord:
    """Recorded steps, the remainders from the initial vector on (one more
    than the steps), and the terminal status."""

    algorithm: str
    eps: int
    lookahead: int | None
    g_variant: bool
    steps: list
    remainders: list
    status: Status

    @property
    def initial(self) -> VectorElement:
        return self.remainders[0]

    @property
    def identity_steps(self) -> int:
        return sum(step.identity for step in self.steps)

    def to_json(self):
        return {
            "format": 1,
            "algorithm": self.algorithm,
            "eps": self.eps,
            "lookahead": self.lookahead,
            "g_variant": self.g_variant,
            "minpoly": self.initial.minpoly.to_json(),
            "initial": self.initial.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "remainders": [r.to_json() for r in self.remainders],
            "status": self.status.to_json(),
            "identity_steps": self.identity_steps,
        }

    @classmethod
    def from_json(cls, data) -> "ExpansionRecord":
        """Load a format-1 record: the record :func:`expand` writes, or a
        RecordFormatError.

        Only the minimal polynomial, the initial vector, the parameters,
        the status kind and the remainders are read.  ``expand`` runs on
        the initial vector with those parameters, and the record loads if
        and only if what it writes is the input, compared as sorted-key
        JSON text (so a bool or a float where it writes an int differs
        too).  The stopping rules come from the record, each reproducing
        where its writer stopped:

        - ``max_steps`` is the number of remainders less one.  A
          step-limit record took exactly that many steps, and any other
          record stopped at that index, where the zero, cycle and height
          checks come before the step limit.
        - ``detect_cycles`` is on only for a periodic status.  A periodic
          record ends at its first recurrence; a record of another kind
          written with cycle detection on has no recurrence, so turning
          it off changes nothing, and one written with it off may hold
          cycles that must not stop the replay.
        - ``height_exponent`` is the least h with 10^h at or above the
          largest remainder height, the last remainder left out for a
          height-exceeded status (h = 0 when none is left).  The writer's
          own h bounds every remainder it stepped from, so it is at least
          this one, and a height-exceeded record's last remainder lies
          above both.

        So the work is bounded by the record: at most its number of
        steps, from remainders below ten times its largest height.
        """
        fmt = data.get("format") if isinstance(data, dict) else None
        if not _is_int(fmt) or fmt != 1:
            raise RecordFormatError(f"unsupported record format {fmt!r}; this version reads format 1")
        try:
            mp = MinPoly.from_json(data["minpoly"])
            kind, remainders = data["status"]["kind"], data["remainders"]
            heights = [height_z(VectorElement.from_json(mp, r)) for r in remainders]
            if kind == "height_exceeded":
                heights.pop()
            algorithm = data["algorithm"]
            rec = expand(
                VectorElement.from_json(mp, data["initial"]),
                algorithm,
                eps=data["eps"],
                lookahead=data["lookahead"] if algorithm == "phi2" else 1,
                g_variant=data["g_variant"],
                max_steps=len(remainders) - 1,
                height_exponent=_least_exponent(max(heights, default=1)),
                detect_cycles=kind == "periodic",
            )
            written = json.dumps(rec.to_json(), sort_keys=True) == json.dumps(data, sort_keys=True)
        except (PadiccfError, ValueError, ArithmeticError, LookupError, TypeError) as exc:
            # a missing key, a value of the wrong type or out of range, a
            # polynomial validate_minpoly refuses, a lookahead over its budget
            raise RecordFormatError(f"malformed format-1 record: {exc!r}") from exc
        if not written:
            raise RecordFormatError("malformed format-1 record: expand writes another record for its initial vector")
        return rec


def _least_exponent(height: int) -> int:
    """The least h >= 0 with 10^h >= height, for a height >= 1.  The start
    is below it (0.30102 < log10 2) by a few steps at most."""
    h = (height.bit_length() - 1) * 30102 // 100000
    while 10 ** h < height:
        h += 1
    return h


# --- fractional maps ---------------------------------------------------------


def _short(a: FieldElement) -> bool:
    """The admission test of both memos: a's denominator and every
    numerator lie below ``ELEMENT_LIMIT`` in absolute value."""
    return a.den < ELEMENT_LIMIT and max(a.nums) < ELEMENT_LIMIT and min(a.nums) > -ELEMENT_LIMIT


def _element(emb: Embedding, a: FieldElement) -> list:
    """The pivot a's entry in the element memo (``Embedding.elements``),
    keyed by its canonical (nums, den): the list [(ord, unit digit),
    inverse, inverse rows] of ``Embedding.ord_digit``,
    ``field._inverse_nums`` and the inverse's ``multiplication_rows``
    (None until the first product needs them).

    The admission test (:func:`_short`) comes before any hashing, so a
    tall pivot costs that test and gets a fresh entry no one keeps.  An
    entry is stored with its inverse, while the memo holds fewer than
    ``MEMO_BUDGET`` entries: a zero-divisor pivot, whose inverse raises,
    leaves nothing behind."""
    short = _short(a)
    key = a.nums, a.den
    entry = emb.elements.get(key) if short else None
    if entry is None:
        entry = [emb.ord_digit(a), _inverse_nums(a), None]
        if short and len(emb.elements) < MEMO_BUDGET:
            emb.elements[key] = entry
    return entry


def _component(finish, make, mp: MinPoly, p: int, eps: int, e: int, om: int, nums: tuple, den: int) -> tuple:
    """``finish`` on the unreduced pair of eps p^e nums/den less om."""
    if e < 0:
        den *= p ** -e
        k = eps
    else:
        k = eps * p ** e
    if k != 1:
        nums = tuple([x * k for x in nums])
    return finish(make, mp, p, eps, om, (nums[0] - om * den,) + nums[1:], den)


def _pair(mp: MinPoly, nums: tuple, den: int, bound: int | None = None) -> tuple:
    """The image component as its unreduced (nums, den) pair: ``step_phi3``'s
    ``make``, where ``g_map`` and ``h_map`` take ``field._reduced``."""
    return nums, den


def _fractional_map(emb: Embedding, alpha: VectorElement, eps: int, j: int, finish, make):
    """The kernel of both fractional maps: (step, image) for the
    digit-subtracting map with pivot j at alpha, each component finished
    by ``finish`` and made by ``make``; the image is the tuple of the
    components, and None for a zero pivot, whose step is the identity.

    For each a_i the kernel computes its exponent e, its digit om and the
    unreduced pair (nums, den), den > 0, of eps p^e a_i / a_j less om;
    then ``finish(make, mp, p, eps, om, nums, den)`` gives the component's
    (coefficient, shift, image component), the component being
    ``make(mp, nums', den', bound)`` on the finished unreduced pair, with
    ``bound`` a multiple of every factor nums' and den' can share or None:
    ``field._reduced`` makes the field element of ``g_map`` and ``h_map``,
    :func:`_pair` keeps the pair for ``step_phi3``.  The pivot goes first,
    and a one-component vector (s = 1) ends there: its step is built from
    that one component, with no pass over the others and no product.

    a_j's inverse is taken once, unreduced (``field._inverse_nums``), and
    its multiplication rows serve every other a_i (``field._product_nums``);
    the scaling by eps p^e is folded into the same integers.  The digits come
    from ``Embedding.ord_digit``, not from the images: with a_i = p^o_i
    u_i, the image value has valuation e + o_i - o_j, which is 0 for the
    pivot and for o_i <= o_j and positive otherwise, so its digit is eps
    u_i u_j^-1 mod p at valuation 0 and 0 above it.  The pivot is read
    through the element memo (:func:`_element`, ``Embedding.elements``),
    which returns what those kernels compute."""
    comps, s, p = alpha.components, len(alpha), emb.p
    eye, zero = cyclic_rows(s, 0), (0,) * s
    aj = comps[j - 1]
    if aj.is_zero():
        return CMapStep(p, j, eps, True, (1,) * s, zero, zero, eye, zero), None
    mp = alpha.minpoly
    pivot = _element(emb, aj)
    (oj, uj), (inv, inv_den) = pivot[0], pivot[1]
    unit = eps * pow(uj, -1, p)
    own = _component(finish, make, mp, p, eps, oj, unit % p, inv, inv_den)
    if s == 1:
        c, w, x = own
        return CMapStep(p, j, eps, False, (c,), (oj,), (w,), eye, zero), (x,)
    if pivot[2] is None:  # the rows, built at the pivot's first product
        pivot[2] = multiplication_rows(mp._int_f, inv)
    prod_den = inv_den * mp._int_f[0] ** (mp.degree - 1)
    parts, exps = [], []
    for ai in comps[:j - 1] + comps[j:]:
        oi, ui = emb.ord_digit(ai)  # a zero a_i has ord inf: e = 0, digit 0
        e = max(oj - oi, 0)
        om = unit * ui % p if oi <= oj else 0
        parts.append(_component(finish, make, mp, p, eps, e, om,
                                _product_nums(mp, pivot[2], ai.nums), ai.den * prod_den))
        exps.append(e)
    parts.insert(j - 1, own)
    exps.insert(j - 1, oj)
    coeffs, shifts, image = zip(*parts)
    return CMapStep(p, j, eps, False, coeffs, tuple(exps), shifts, eye, zero), image


def _g_finish(make, mp: MinPoly, p: int, eps: int, om: int, nums: tuple, den: int) -> tuple:
    """g's component: coefficient eps, shift the digit, the image made of
    the pair as it is."""
    return eps, om, make(mp, nums, den)


def g_map(emb: Embedding, alpha: VectorElement, eps: int, j: int):
    """Digit-subtracting fractional map with pivot j, anchored at alpha.

    Pivot component: eps p^ord(a_j)/x_j minus the unit digit of its value
    at the anchor; the others get eps p^k x_i/x_j with k chosen so the
    anchor value is p-integral, minus its digit.  Every image component
    of the anchor lands in pZ_p.  A zero pivot yields the identity.
    Returns (step, F(alpha)), the step with A = I and gamma = 0.

    :func:`_fractional_map` runs it; each image is the kernel's pair
    reduced once, and the step records the ints eps and the digits as its
    coefficients and shifts (:func:`_g_finish`).
    """
    step, image = _fractional_map(emb, alpha, eps, j, _g_finish, _reduced)
    return step, alpha if image is None else VectorElement(image)


def _unit_normalizer(nums: tuple, den: int, p: int) -> tuple:
    """(a, c) for the value nums/den, den > 0, in any representation.  a
    is the p-free part of the gcd of the z-coefficient numerators in lowest
    terms, 1 if the z-part vanishes: a p-adic unit, so dividing by it keeps
    p-integrality.  c = gcd(g, den) for g = gcd(nums_1, .., nums_s), and a c
    is a multiple of every factor (h, nums_1, .., nums_s) shares with a den,
    whatever h.

    The numerator of x_i/d in lowest terms is x_i / gcd(x_i, d), and
    gcd_i(x_i / gcd(x_i, d)) = g / gcd(g, d): at each prime r,
    min_i max(v_r(x_i) - v_r(d), 0) = max(min_i v_r(x_i) - v_r(d), 0).  So
    one n-ary gcd and one more suffice, and a factor common to nums and den
    cancels from g / gcd(g, d).  A factor shared with a den divides
    gcd(g, a den), which divides gcd(g, den) gcd(g, a) = c a, as a divides g."""
    g = math.gcd(*nums[1:])
    c = math.gcd(g, den)
    if g == 0:
        return 1, c
    a = g // c
    while a % p == 0:
        a //= p
    return a, c


def _h_finish(make, mp: MinPoly, p: int, eps: int, om: int, nums: tuple, den: int) -> tuple:
    """h's component, all read off the kernel's unreduced pair (nums, den).

    The unit normalizer a and the head depend only on the value: the
    division by a makes it nums over a den, and the head of nums_0/(a den),
    a den = p^t u, is (r u)/(a den) for its digits r/p^t.  The image is
    made of the pair with that head as its constant numerator, over a den,
    a c bounding its content.  The coefficient is the pair (eps, a) and
    the shift the pair (om a den + a (nums_0 - r u), a a den),
    om/a + (nums_0 - r u)/(a den) for g's integer digit om, neither
    reduced."""
    a, c = _unit_normalizer(nums, den, p)
    den *= a
    hd = head_num(nums[0], den, p, 0)
    return (eps, a), (om * den + a * (nums[0] - hd), a * den), make(mp, (hd,) + nums[1:], den, a * c)


def h_map(emb: Embedding, alpha: VectorElement, eps: int, j: int):
    """Normalized variant of :func:`g_map`: each component is divided by
    the p-free gcd of its z-coefficient numerators, and the digit tail of
    the resulting constant coefficient is subtracted.  Keeps images in
    pZ_p while shrinking coefficient denominators.  A zero pivot yields
    the identity, as in :func:`g_map`.

    :func:`_fractional_map` runs it, each component finished by
    :func:`_h_finish` and reduced once."""
    step, image = _fractional_map(emb, alpha, eps, j, _h_finish, _reduced)
    return step, alpha if image is None else VectorElement(image)


# --- the four step builders --------------------------------------------------


def _rotated(step: CMapStep, image: VectorElement):
    """Give a pivot-1 map's own fresh step the cyclic shift as its A
    (gamma stays 0) and rotate its image to match.  At s = 1 the shift is
    the identity the step already holds, so both come back untouched."""
    comps = image.components
    if len(comps) == 1:
        return step, image
    step._rows = cyclic_rows(len(comps), 1)
    return step, VectorElement(comps[1:] + comps[:1])


def step_phi0(emb: Embedding, alpha: VectorElement, eps: int):
    return _rotated(*g_map(emb, alpha, eps, 1))


def step_phi1(emb: Embedding, alpha: VectorElement, eps: int):
    return _rotated(*h_map(emb, alpha, eps, 1))


LOOKAHEAD_BUDGET = 4096  # images a phi2 step's lookahead tree may hold


def lookahead_fits(s: int, n: int) -> bool:
    """True iff a depth-(n+1) lookahead tree over s pivots, s^(n+1)
    images, is within LOOKAHEAD_BUDGET; decided without building a power
    above the budget."""
    return s < 2 or (n + 1 < LOOKAHEAD_BUDGET.bit_length() and s ** (n + 1) <= LOOKAHEAD_BUDGET)


def _children(pairs) -> list:
    """(denom_z, index, image) of a node's (step, image) pairs, in
    increasing denom_z, ties by index."""
    return sorted((denom_z(img), i, img) for i, (_, img) in enumerate(pairs, start=1))


def _branch_cost(node, vec: VectorElement, depth: int, bound: int | None = None) -> int:
    """The least product of denom_z along the depth-``depth`` branches below
    vec if it is below ``bound``, else some value at or above it (no bound
    for None), each node's (step, image) pairs read through ``node``.

    Branch and bound (Land and Doig, 1960): the children are visited in
    increasing denom_z, and as every factor of a product is at least 1, a
    child whose own denominator reaches the least product so far, best,
    is not mapped; below a child of denominator d the bound is
    ceil(best / d).  A module-level function: a nested one calling itself
    would hold its caller's tree in a reference cycle until the cycle
    collector ran."""
    if depth == 0:
        return 1
    best = bound
    for den, _, img in _children(node(vec)):
        if best is not None and den >= best:
            break
        cost = den * _branch_cost(node, img, depth - 1, None if best is None else -(-best // den))
        if best is None or cost < best:
            best = cost
    return best


def lookahead_phi2(emb: Embedding, alpha: VectorElement, eps: int, n: int, memo: dict):
    """Index minimizing the depth-(n+1) denominator product tree.

    The product of denom_z along each branch of candidate images is
    minimized recursively; ties break to the least index.  One pivot has
    nothing to choose, so at s = 1 the tree is the root alone.  The
    minimum is a branch and bound (:func:`_branch_cost`): each subtree's
    cost is exact only below the least product found so far, and a child
    whose denominator reaches it is not mapped.  At the root, whose
    children are visited the same way, a child of lower index than the
    current choice wins on an equal product, so it is expanded when its
    denominator equals the best product, and its bound admits that
    product.

    The tree maps each remainder it visits to its s ``h_map`` (step,
    image) pairs, so a repeated subtree maps once.  ``memo`` holds the
    previous call's tree: a remainder found there is not mapped again, and
    the call leaves its own pruned tree in ``memo``, the remainders it
    mapped.  So through :func:`step_phi2` each step of one expansion maps
    only the remainders its predecessor's tree did not reach, and the memo
    stays the size of one tree.  Subtree costs are not kept: a remainder
    seldom recurs at the same depth.  A step holds little of its own:
    ``h_map`` steps share the cached identity rows and the zero gamma.
    """
    at_least(n, 1, "lookahead depth")
    s = len(alpha)
    tree = {}

    def node(vec):
        pairs = tree.get(vec)
        if pairs is None:
            pairs = tree[vec] = memo.get(vec) or tuple(h_map(emb, vec, eps, i) for i in range(1, s + 1))
        return pairs

    best = choice = None
    for den, i, img in _children(node(alpha)):
        target = best if best is None or i > choice else best + 1  # a lower index wins a tie
        if target is not None and den >= target:
            continue
        cost = den * _branch_cost(node, img, n if s > 1 else 0, None if target is None else -(-target // den))
        if target is None or cost < target:
            best, choice = cost, i
    memo.clear()
    memo.update(tree)
    return choice


def step_phi2(emb: Embedding, alpha: VectorElement, eps: int, n: int, memo: dict):
    """The ``h_map`` step at the :func:`lookahead_phi2` index, read from
    the tree the lookahead leaves in ``memo``."""
    j = lookahead_phi2(emb, alpha, eps, n, memo)
    return memo[alpha][j - 1]


def step_phi3(emb: Embedding, alpha: VectorElement, *, g_variant: bool = False):
    """Pivot-s step whose matrix renormalizes the image to the row normal
    form of its coefficient matrix; the shift clears the digit tails of
    the resulting constant column.  The normalized map is the default;
    ``g_variant`` runs the raw digit-subtracting map instead.

    The step stays on integers from the map to the next remainder: the
    kernel's image is one unreduced (nums, den) pair per component, and no
    field element is made of it.  Its rows, each component's numerators
    reversed (its z^s .. z coefficients, then its constant) over its den,
    go through ``preduce.reduce_rows`` with width s, so the constant
    column c ends as A c with no A formed; the rows end in no canonical
    form.  Reduced row r gives both outputs: with num its last entry and d
    its denominator, gamma_r is the unreduced pair (head - num, d), and
    the next component is the row's z-part with the head as its constant,
    over d, reduced once, the one removal of the row's content.  The map's own
    fresh step is completed in place: it keeps the image's z-part rows
    and gamma, and A (``CMapStep.rows``) is built from the z-part rows
    when first read.  The z-part is square only for s = degree - 1
    components; any other s raises NonSquare."""
    s, p, mp = len(alpha), emb.p, alpha.minpoly
    if mp.degree != s + 1:
        raise NonSquare(f"phi3 needs degree - 1 components, got {s} over degree {mp.degree}")
    step, image = _fractional_map(emb, alpha, 1, s, _g_finish if g_variant else _h_finish, _pair)
    if image is None:  # the identity step: alpha's own rows
        image = [(c.nums, c.den) for c in alpha.components]
    rows, dens = [x[0][::-1] for x in image], [x[1] for x in image]
    zparts = tuple([row[:s] for row in rows]), tuple(dens)
    reduce_rows(rows, dens, s, p)
    gamma, nxt = [], []
    for row, d in zip(rows, dens):
        hd = head_num(row[s], d, p, 0)
        gamma.append((hd - row[s], d))
        nxt.append(_reduced(mp, (hd,) + row[s - 1::-1], d))
    step._rows, step._zparts, step._gamma = None, zparts, tuple(gamma)
    return step, VectorElement(nxt)


# --- forward / inverse evaluation -------------------------------------------


def _primitive(rows) -> tuple:
    """Integer rows divided by their content, as tuples."""
    g = math.gcd(*(c for row in rows for c in row))
    return tuple(tuple(c // g for c in row) for row in rows)


def _projective_apply(rows: tuple, x, pole: str):
    """Evaluate a projective integer matrix at x, a VectorElement or a
    tuple of rationals (no floats) or field elements: the dot product of
    each row with (x, 1), then one division by the last coordinate.  An x
    whose length is not the matrix's size less one is a ValueError."""
    if isinstance(x, VectorElement):
        return VectorElement(_projective_apply(rows, x.components, pole))
    if len(x) != len(rows) - 1:
        raise ValueError(f"shape mismatch: {len(x)} coordinates for a step on {len(rows) - 1}")
    x = [c if isinstance(c, FieldElement) else qexact(c) for c in x]
    *h, last = [sum(map(operator.mul, x, row), row[-1]) for row in rows]  # row[-1] takes the 1
    if not last:
        raise PoleHit(pole)
    inv = QONE / last  # a Fraction or a field element, never a float
    return tuple(v * inv for v in h)


def forward_step(step: CMapStep, x):
    """T(x) = A F(x) + gamma on a vector of field elements or rationals.

    Raises PoleHit when the pivot coordinate of x is zero.
    """
    return _projective_apply(step.forward_matrix, x, "forward map undefined at zero pivot coordinate")


def inverse_step(step: CMapStep, y):
    """Exact inverse of :func:`forward_step` on the image domain.

    y is a vector as for :func:`forward_step`, or a primitive homogeneous
    integer point: a list [h_1, .., h_s, h_0] standing for (h_i / h_0),
    whose image is returned in the same form, primitive again.

    Raises PoleHit when the pivot coordinate hits the pole of the
    inverse fractional map, and ValueError on a y of the wrong length.
    """
    pole = "inverse map evaluated at its pole"
    rows = step.inverse_matrix
    if type(y) is not list:
        return _projective_apply(rows, y, pole)
    if len(y) != len(rows):
        raise ValueError(f"shape mismatch: {len(y)} homogeneous coordinates for a step on {len(rows) - 1}")
    out = [sum(map(operator.mul, row, y)) for row in rows]
    if not out[-1]:
        raise PoleHit(pole)
    g = math.gcd(step.inverse_scale, *out)
    return [h // g for h in out] if g > 1 else out


# --- expansion driver ---------------------------------------------------------

# the parameters each algorithm takes; every other one keeps its default
TAKES = {"phi0": ("eps",), "phi1": ("eps",), "phi2": ("eps", "lookahead"), "phi3": ("g_variant",)}
ALGORITHMS = tuple(TAKES)


def check_params(algorithm, s: int, eps=1, lookahead=1, g_variant=False) -> None:
    """The one rule for an algorithm's parameters over s components, which
    ``expand``, records, table configs and the CLI all go through.

    eps is the int 1 or -1, lookahead an int >= 1 (a bool or a float is
    no int here) and g_variant a bool, and a parameter the algorithm does
    not take (``TAKES``) keeps its default; any other value is a
    ValueError.  A phi2 lookahead whose tree exceeds
    LOOKAHEAD_BUDGET images raises CapExceeded.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not _is_int(eps) or eps not in (1, -1):
        raise ValueError(f"eps must be the integer 1 or -1, got {eps!r}")
    at_least(lookahead, 1, "lookahead")
    if type(g_variant) is not bool:
        raise ValueError(f"g_variant must be a bool, got {g_variant!r}")
    for key, value, default in (("eps", eps, 1), ("lookahead", lookahead, 1), ("g_variant", g_variant, False)):
        if key not in TAKES[algorithm] and value != default:
            raise ValueError(f"{algorithm} takes no {key}, got {value!r}")
    if algorithm == "phi2" and not lookahead_fits(s, lookahead):
        raise CapExceeded(f"phi2 lookahead {lookahead} over {s} components evaluates "
                          f"more than {LOOKAHEAD_BUDGET} images per step")


ELEMENT_LIMIT = 1 << 16  # bound on |den| and |nums| of an element a memo admits (_short)
MEMO_BUDGET = 4096  # entries one memo dict may hold: an embedding's pivots, or one step key's cycle steps
MAX_STEPS = 100_000  # expand's default step limit
HEIGHT_EXPONENT = 60  # expand's default height cap, 10**60


def expand(
    alpha: VectorElement,
    algorithm: str,
    *,
    eps: int = 1,
    lookahead: int = 1,
    max_steps: int = MAX_STEPS,
    height_exponent: int = HEIGHT_EXPONENT,
    embedding: Embedding | None = None,
    g_variant: bool = False,
    detect_cycles: bool = True,
) -> ExpansionRecord:
    """Iterate the chosen step map and classify the orbit.

    Checks, in order, on the initial vector and after each step: exact
    zero (finite), exact recurrence of a previous remainder (periodic),
    coefficient height above 10**height_exponent (height exceeded), then
    ``max_steps`` steps taken (step limit).  ``detect_cycles=False``
    disables the recurrence check, which is useful for studying
    convergents past the first cycle; a recurrence then replays its first
    visit: it takes that visit's step object and next remainder from the
    record, and the map does not run.  The record may so hold one step
    object at several indices, whose projective matrices are built once.
    The height check reads the plain bound max |x| + den of each
    component first, which is at least the height; only when it passes 3h
    bits, so it may exceed 10^h, does the exact ``height_z`` run.  The
    parameters go through :func:`check_params` before the first step, and
    ``max_steps`` and ``height_exponent`` must be ints >= 0 (ValueError).  The embedding, when not given, is built
    before the first check, so a polynomial without one (HViolation,
    Reducible) is refused even for an orbit that takes no step; a given
    one of another field raises MixedField.

    The cycle memo (``Embedding.cycles``) of the embedding the expansion
    runs on, given or its own, is read for this expansion's step key
    (algorithm, eps, lookahead, g_variant) where a step would run: a
    remainder on a stored cycle takes the stored (step, next remainder),
    the pair the map would compute; an empty memo is not looked up.  A
    periodic ending stores its cycle, the remainders from the preperiod
    on, unless it is stored already, would take the memo past
    ``MEMO_BUDGET`` steps, or has a component that is not short
    (:func:`_short`); other endings store nothing.
    """
    check_params(algorithm, len(alpha), eps, lookahead, g_variant)
    at_least(max_steps, 0, "max_steps")
    at_least(height_exponent, 0, "height_exponent")
    if algorithm != "phi0" and alpha.minpoly.is_rational_field:
        raise ValueError(f"{algorithm} requires a proper extension field")
    emb = Embedding(alpha.minpoly) if embedding is None else embedding
    if emb.minpoly is not alpha.minpoly and emb.minpoly != alpha.minpoly:
        raise MixedField(f"an embedding of {emb.minpoly!r} cannot expand a vector over {alpha.minpoly!r}")
    memo = {}  # the phi2 lookahead tree
    key = (algorithm, eps, lookahead, g_variant)
    cycles = emb.cycles.get(key, {})
    advance = {
        "phi0": lambda vec: step_phi0(emb, vec, eps),
        "phi1": lambda vec: step_phi1(emb, vec, eps),
        "phi2": lambda vec: step_phi2(emb, vec, eps, lookahead, memo),
        "phi3": lambda vec: step_phi3(emb, vec, g_variant=g_variant),
    }[algorithm]

    bits = 3 * height_exponent

    def exceeds(vec) -> bool:
        # a value of at most 3h bits is below 2^(3h) <= 10^h, so the cap
        # itself, a huge int for a huge h, is built only past that; the
        # plain bound comes first, and height_z's gcds run only past it
        if max(max(map(abs, c.nums)) + c.den for c in vec.components).bit_length() <= bits:
            return False
        h = height_z(vec)
        return h.bit_length() > bits and h > 10 ** height_exponent

    remainders = [alpha]
    steps: list = []
    seen: dict = {}
    status = None
    while status is None:
        cur, n = remainders[-1], len(steps)
        first = seen.setdefault(cur, n)
        if cur.is_zero():
            status = Status("finite", n)
        elif detect_cycles and first != n:
            status = Status("periodic", n, preperiod=first, period=n - first)
        elif exceeds(cur):
            status = Status("height_exceeded", n)
        elif n >= max_steps:
            status = Status("step_limit", n)
        elif first != n:  # a recurrence replays its first visit
            steps.append(steps[first])
            remainders.append(remainders[first + 1])
        else:
            hit = cycles.get(cur) if cycles else None
            step, nxt = advance(cur) if hit is None else hit
            steps.append(step)
            remainders.append(nxt)

    if status.kind == "periodic":
        cycle = remainders[status.preperiod:-1]
        if (cycle[0] not in cycles and len(cycles) + len(cycle) <= MEMO_BUDGET
                and all(_short(c) for vec in cycle for c in vec.components)):
            emb.cycles[key] = cycles
            cycles.update(zip(cycle, zip(steps[status.preperiod:], remainders[status.preperiod + 1:])))

    return ExpansionRecord(
        algorithm=algorithm,
        eps=eps,
        lookahead=lookahead if algorithm == "phi2" else None,
        g_variant=g_variant,
        steps=steps,
        remainders=remainders,
        status=status,
    )


def convergent(record: ExpansionRecord, n: int):
    """Rational vector obtained by pulling 0 back through the first n
    inverse steps.  For finite expansions the sequence stabilizes, so n
    past the recorded horizon is allowed there.

    The pull-back carries one primitive homogeneous integer point, from
    (0, .., 0, 1), and divides by its last coordinate once at the end."""
    if at_least(n, 0, "n") > len(record.steps):
        if record.status.kind == "finite":
            n = len(record.steps)
        else:
            raise ValueError("n exceeds the recorded steps")
    point = [0] * len(record.initial.components) + [1]
    for k in range(n - 1, -1, -1):
        point = inverse_step(record.steps[k], point)
    *h, last = point
    return tuple(Q(v, last) for v in h)


def in_E(emb: Embedding, vec: VectorElement) -> bool:
    """Componentwise membership in pZ_p."""
    return all(emb.ord(c) >= 1 for c in vec.components)
