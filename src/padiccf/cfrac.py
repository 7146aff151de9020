"""The expansion engine: fractional-map steps, the four algorithms,
step evaluation in both directions, convergents, and orbit
classification.

One step of every algorithm has the same split shape: a fractional map F
evaluated at the current remainder, then an invertible p-integral matrix A
and a shift vector gamma with entries in pZ_p, giving the next remainder
T(x) = A F(x) + gamma.  A step records the per-component parameters of F
(unit factor, p-power exponent, shift) together with A and gamma.

Every component of F is a ratio with the pivot coordinate x_j as its
denominator, so T is projective-linear in (x, 1): a step is one
(s+1) x (s+1) integer matrix M in homogeneous coordinates, and
T(x) = (M (x, 1))[:s] / (M (x, 1))[s].  Both directions evaluate the same
way, forward with M and backward with its inverse; a last homogeneous
coordinate of 0 is the pole of that direction.  The integer matrices are
derived from the recorded parameters on first use and never serialized.

All remainders from index 1 on lie componentwise in pZ_p; remainders are
compared structurally on canonical coefficient tuples, so cycle detection
is sound and complete up to the step limit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import PoleHit, RecordFormatError
from .field import FieldElement, MinPoly, VectorElement, coeff_matrix, denom_z, height_z
from .hensel import Embedding
from .preduce import RationalMatrix, back_substitute, bareiss, p_reduce
from .rationals import ORD_INF, Q, QONE, QZERO, head_tail, qformat, qparse, qpow


def shift_matrix(s: int) -> RationalMatrix:
    """Cyclic shift: (x1, .., xs) -> (x2, .., xs, x1); identity for s = 1."""
    return RationalMatrix(
        [[Q(1) if j == (i + 1) % s else QZERO for j in range(s)] for i in range(s)]
    )


@dataclass(frozen=True)
class MapFragment:
    """Fractional-map data for one step, before A and gamma are attached.

    For the pivot component j:   f_j(x) = c_j p^e_j / x_j - w_j
    for the others:              f_i(x) = c_i p^e_i x_i / x_j - w_i
    Identity fragments (pivot component of the anchor is zero) leave x
    unchanged.  ``image`` is F evaluated at the anchor.
    """

    pivot: int
    identity: bool
    coeffs: tuple
    exps: tuple
    shifts: tuple
    image: tuple


@dataclass(frozen=True)
class CMapStep:
    """One recorded expansion step: fragment parameters plus A and gamma."""

    p: int
    pivot: int
    eps: int
    identity: bool
    coeffs: tuple
    exps: tuple
    shifts: tuple
    matrix: RationalMatrix
    gamma: tuple

    @cached_property
    def forward_matrix(self) -> tuple:
        """The step as a projective integer matrix: rows of ints acting on
        (x_1, .., x_s, 1), the pivot coordinate x_j becoming the new
        homogeneous coordinate.  Defined up to a scalar; kept primitive.

        With k_i = c_i p^e_i, F(x) ~ (k_i x_i - w_i x_j for i != j,
        k_j - w_j x_j; x_j), so row r of A F + gamma is
        (A_ri k_i for i != j, gamma_r - sum_i A_ri w_i at j, A_rj k_j)."""
        s = len(self.gamma)
        a = self.matrix.entries
        if self.identity:
            rows = [list(row) + [g] for row, g in zip(a, self.gamma)]
            rows.append([QZERO] * s + [QONE])
        else:
            j = self.pivot - 1
            k = [c * qpow(self.p, e) for c, e in zip(self.coeffs, self.exps)]
            rows = []
            for row, g in zip(a, self.gamma):
                out = [arc * kc for arc, kc in zip(row, k)] + [row[j] * k[j]]
                out[j] = g - sum((arc * w for arc, w in zip(row, self.shifts)), QZERO)
                rows.append(out)
            rows.append([QONE if i == j else QZERO for i in range(s + 1)])
        return _integer_rows(rows)

    @cached_property
    def inverse_matrix(self) -> tuple:
        """Projective integer matrix of the inverse step: +-adj(M) for M =
        ``forward_matrix``, from one fraction-free elimination of [M | I],
        made primitive."""
        fwd = self.forward_matrix
        n = len(fwd)
        rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(fwd)]
        pivots, _ = bareiss(rows, n)
        if len(pivots) < n:
            raise ZeroDivisionError("singular step matrix")
        return _integer_rows(back_substitute(rows, pivots, n)[1])

    def to_json(self):
        return {
            "p": self.p,
            "pivot": self.pivot,
            "eps": self.eps,
            "identity": self.identity,
            "coeffs": [qformat(c) for c in self.coeffs],
            "exps": list(self.exps),
            "shifts": [qformat(w) for w in self.shifts],
            "matrix": self.matrix.to_json(),
            "gamma": [qformat(g) for g in self.gamma],
        }

    @classmethod
    def from_json(cls, data) -> "CMapStep":
        return cls(
            p=data["p"],
            pivot=data["pivot"],
            eps=data["eps"],
            identity=data["identity"],
            coeffs=tuple(qparse(c) for c in data["coeffs"]),
            exps=tuple(data["exps"]),
            shifts=tuple(qparse(w) for w in data["shifts"]),
            matrix=RationalMatrix.from_json(data["matrix"]),
            gamma=tuple(qparse(g) for g in data["gamma"]),
        )


@dataclass(frozen=True)
class Status:
    """Terminal classification of an expansion."""

    kind: str  # "finite" | "periodic" | "height_exceeded" | "step_limit"
    index: int
    preperiod: int | None = None
    period: int | None = None

    def to_json(self):
        out = {"kind": self.kind, "index": self.index}
        if self.kind == "periodic":
            out["preperiod"] = self.preperiod
            out["period"] = self.period
        return out

    @classmethod
    def from_json(cls, data) -> "Status":
        return cls(data["kind"], data["index"], data.get("preperiod"), data.get("period"))


@dataclass
class ExpansionRecord:
    """Initial vector, recorded steps and remainders, terminal status."""

    algorithm: str
    eps: int
    lookahead: int | None
    g_variant: bool
    initial: VectorElement
    steps: list
    remainders: list
    status: Status
    identity_steps: int = 0

    @property
    def identity_dominated(self) -> bool:
        """Warning flag: convergence claims need infinitely many proper steps."""
        return len(self.steps) >= 4 and 2 * self.identity_steps > len(self.steps)

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
        fmt = data.get("format") if isinstance(data, dict) else None
        if fmt != 1:
            raise RecordFormatError(f"unsupported record format {fmt!r}; this version reads format 1")
        mp = MinPoly.from_json(data["minpoly"])
        return cls(
            algorithm=data["algorithm"],
            eps=data["eps"],
            lookahead=data["lookahead"],
            g_variant=data["g_variant"],
            initial=VectorElement.from_json(mp, data["initial"]),
            steps=[CMapStep.from_json(s) for s in data["steps"]],
            remainders=[VectorElement.from_json(mp, r) for r in data["remainders"]],
            status=Status.from_json(data["status"]),
            identity_steps=data.get("identity_steps", 0),
        )


# --- fractional maps ---------------------------------------------------------


def g_map(emb: Embedding, alpha: VectorElement, eps: int, j: int):
    """Digit-subtracting fractional map with pivot j, anchored at alpha.

    Pivot component: eps p^ord(a_j)/x_j minus the unit digit of its value
    at the anchor; the others get eps p^k x_i/x_j with k chosen so the
    anchor value is p-integral, minus its digit.  Every image component
    of the anchor lands in pZ_p.  A zero pivot yields the identity.
    """
    comps = alpha.components
    aj = comps[j - 1]
    s = len(comps)
    if aj.is_zero():
        triv = (Q(1),) * s
        zero = (QZERO,) * s
        return MapFragment(j, True, triv, (0,) * s, zero, comps)
    p = emb.p
    m = emb.ord(aj)
    inv_aj = aj.inverse()
    coeffs, exps, shifts, image = [], [], [], []
    for i, ai in enumerate(comps, start=1):
        if i == j:
            val = inv_aj * (qpow(p, m) * eps)
            e = m
        else:
            oi = emb.ord(ai)
            e = max(m - oi, 0) if oi is not ORD_INF else 0
            val = ai * inv_aj * (qpow(p, e) * eps)
        om = Q(emb.omega(val))
        coeffs.append(Q(eps))
        exps.append(e)
        shifts.append(om)
        image.append(val - om)
    return MapFragment(j, False, tuple(coeffs), tuple(exps), tuple(shifts), tuple(image))


def _unit_normalizer(elem: FieldElement, p: int) -> int:
    """p-free part of the gcd of the z-coefficient numerators; 1 if the
    z-part vanishes.  Always a p-adic unit, so dividing by it keeps
    p-integrality."""
    g = 0
    for c in elem.coeffs[1:]:
        if c:
            g = math.gcd(g, c.numerator)
    if g == 0:
        return 1
    while g % p == 0:
        g //= p
    return g


def h_map(emb: Embedding, alpha: VectorElement, eps: int, j: int):
    """Normalized variant of :func:`g_map`: each component is divided by
    the p-free gcd of its z-coefficient numerators, and the digit tail of
    the resulting constant coefficient is subtracted.  Keeps images in
    pZ_p while shrinking coefficient denominators."""
    frag = g_map(emb, alpha, eps, j)
    if frag.identity:
        return frag
    p = emb.p
    coeffs, shifts, image = [], [], []
    for c, w, g_img in zip(frag.coeffs, frag.shifts, frag.image):
        ap = _unit_normalizer(g_img, p)
        scaled = g_img / ap if ap != 1 else g_img
        tl = head_tail(scaled.coeffs[0], p, 0)[1]
        coeffs.append(c / ap)
        shifts.append(w / ap + tl)
        image.append(scaled - tl)
    return MapFragment(frag.pivot, False, tuple(coeffs), frag.exps, tuple(shifts), tuple(image))


# --- the four step builders --------------------------------------------------


def step_phi0(emb: Embedding, alpha: VectorElement, eps: int):
    frag = g_map(emb, alpha, eps, 1)
    s = len(alpha)
    step = CMapStep(emb.p, 1, eps, frag.identity, frag.coeffs, frag.exps,
                    frag.shifts, shift_matrix(s), (QZERO,) * s)
    nxt = VectorElement(frag.image[1:] + frag.image[:1])
    return step, nxt


def step_phi1(emb: Embedding, alpha: VectorElement, eps: int):
    frag = h_map(emb, alpha, eps, 1)
    s = len(alpha)
    step = CMapStep(emb.p, 1, eps, frag.identity, frag.coeffs, frag.exps,
                    frag.shifts, shift_matrix(s), (QZERO,) * s)
    nxt = VectorElement(frag.image[1:] + frag.image[:1])
    return step, nxt


def lookahead_phi2(emb: Embedding, alpha: VectorElement, eps: int, n: int, memo=None):
    """Index minimizing the depth-(n+1) denominator product tree.

    The product of denom_z along each branch of candidate images is
    minimized recursively; ties break to the least index.  Memoization is
    keyed on canonical remainders so repeated subtrees are shared (and can
    be shared across the steps of one expansion via ``memo``).
    """
    if n < 1:
        raise ValueError("lookahead depth must be >= 1")
    s = len(alpha)
    if s == 1:
        return 1
    memo = memo if memo is not None else {}

    def images(vec):
        key = ("img", vec.key())
        out = memo.get(key)
        if out is None:
            out = tuple(
                VectorElement(h_map(emb, vec, eps, i).image) for i in range(1, s + 1)
            )
            memo[key] = out
        return out

    def v(vec, depth):
        if depth == 0:
            return 1
        key = (vec.key(), depth)
        out = memo.get(key)
        if out is None:
            out = min(denom_z(img) * v(img, depth - 1) for img in images(vec))
            memo[key] = out
        return out

    target = v(alpha, n + 1)
    for i, img in enumerate(images(alpha), start=1):
        if denom_z(img) * v(img, n) == target:
            return i
    raise AssertionError("minimizing index must exist")


def step_phi2(emb: Embedding, alpha: VectorElement, eps: int, n: int, memo=None):
    j = lookahead_phi2(emb, alpha, eps, n, memo)
    frag = h_map(emb, alpha, eps, j)
    s = len(alpha)
    step = CMapStep(emb.p, j, eps, frag.identity, frag.coeffs, frag.exps,
                    frag.shifts, RationalMatrix.identity(s), (QZERO,) * s)
    return step, VectorElement(frag.image)


def step_phi3(emb: Embedding, alpha: VectorElement, *, g_variant: bool = False):
    """Pivot-s step whose matrix renormalizes the image to the row normal
    form of its coefficient matrix; the shift clears the digit tails of
    the resulting constant column.  The normalized map is the default;
    ``g_variant`` runs the raw digit-subtracting map instead."""
    s = len(alpha)
    frag = (g_map if g_variant else h_map)(emb, alpha, 1, s)
    beta = VectorElement(frag.image)
    m_full, m_sq = coeff_matrix(beta)
    _, a_mat = p_reduce(m_sq, emb.p)
    ell = a_mat.matmul(m_full)
    gamma = tuple(-head_tail(ell[i, s], emb.p, 0)[1] for i in range(s))
    mixed = a_mat.apply(beta.components)
    nxt = VectorElement(tuple(x + g for x, g in zip(mixed, gamma)))
    step = CMapStep(emb.p, s, 1, frag.identity, frag.coeffs, frag.exps,
                    frag.shifts, a_mat, gamma)
    return step, nxt


# --- forward / inverse evaluation -------------------------------------------


def _integer_rows(rows) -> tuple:
    """Primitive integer multiple of a rational (or integer) matrix, as rows
    of ints."""
    den = math.lcm(*(c.denominator for row in rows for c in row))
    ints = [[c.numerator * (den // c.denominator) for c in row] for row in rows]
    g = math.gcd(*(c for row in ints for c in row))
    return tuple(tuple(c // g for c in row) for row in ints)


def _projective_apply(rows: tuple, x, pole: str):
    """Evaluate a projective integer matrix at x, a VectorElement or a
    tuple of rationals or field elements: multiply by (x, 1) and divide by
    the last coordinate.  Rationals are first scaled to one integer
    vector, which the projective map allows."""
    comps = x.components if isinstance(x, VectorElement) else tuple(x)
    field = next((c.minpoly for c in comps if isinstance(c, FieldElement)), None)
    if field is None:
        dens = [c.denominator for c in comps]
        den = math.lcm(*dens)
        vec = [c.numerator * (den // d) for c, d in zip(comps, dens)]
        vec.append(den)
        *h, last = [sum(map(operator.mul, row, vec)) for row in rows]
        if not last:
            raise PoleHit(pole)
        return tuple(Q(v, last) for v in h)
    vec = list(comps) + [field.one()]
    *h, last = [sum((v * m for m, v in zip(row, vec) if m), field.zero()) for row in rows]
    if last.is_zero():
        raise PoleHit(pole)
    inv = last.inverse()
    out = tuple(v * inv for v in h)
    return VectorElement(out) if isinstance(x, VectorElement) else out


def forward_step(step: CMapStep, x):
    """T(x) = A F(x) + gamma on a vector of field elements or rationals.

    Raises PoleHit when the pivot coordinate of x is zero.
    """
    return _projective_apply(step.forward_matrix, x, "forward map undefined at zero pivot coordinate")


def inverse_step(step: CMapStep, y):
    """Exact inverse of :func:`forward_step` on the image domain.

    Raises PoleHit when the pivot coordinate hits the pole of the
    inverse fractional map.
    """
    return _projective_apply(step.inverse_matrix, y, "inverse map evaluated at its pole")


# --- expansion driver ---------------------------------------------------------

ALGORITHMS = ("phi0", "phi1", "phi2", "phi3")


def expand(
    alpha: VectorElement,
    algorithm: str,
    *,
    eps: int = 1,
    lookahead: int = 1,
    max_steps: int = 100_000,
    height_exponent: int = 60,
    embedding: Embedding | None = None,
    g_variant: bool = False,
    detect_cycles: bool = True,
) -> ExpansionRecord:
    """Iterate the chosen step map and classify the orbit.

    Checks, in order, after each remainder: exact zero (finite), exact
    recurrence of a previous remainder (periodic), coefficient height
    above 10**height_exponent (height exceeded); the step budget bounds
    everything else.  ``detect_cycles=False`` disables the recurrence
    check, which is useful for studying convergents past the first cycle.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if algorithm != "phi0" and alpha.minpoly.is_rational_field:
        raise ValueError(f"{algorithm} requires a proper extension field")
    emb = embedding if embedding is not None else Embedding(alpha.minpoly)
    memo = {} if algorithm == "phi2" else None

    def advance(cur):
        if algorithm == "phi0":
            return step_phi0(emb, cur, eps)
        if algorithm == "phi1":
            return step_phi1(emb, cur, eps)
        if algorithm == "phi2":
            return step_phi2(emb, cur, eps, lookahead, memo)
        return step_phi3(emb, cur, g_variant=g_variant)

    cap = 10 ** height_exponent
    remainders = [alpha]
    steps: list = []
    seen = {alpha.key(): 0}
    identity_steps = 0
    status = None

    if alpha.is_zero():
        status = Status("finite", 0)
    elif height_z(alpha) > cap:
        status = Status("height_exceeded", 0)

    while status is None:
        if len(steps) >= max_steps:
            status = Status("step_limit", len(steps))
            break
        step, nxt = advance(remainders[-1])
        steps.append(step)
        remainders.append(nxt)
        if step.identity:
            identity_steps += 1
        n = len(steps)
        if nxt.is_zero():
            status = Status("finite", n)
        elif detect_cycles and nxt.key() in seen:
            first = seen[nxt.key()]
            status = Status("periodic", n, preperiod=first, period=n - first)
        else:
            if detect_cycles:
                seen[nxt.key()] = n
            if height_z(nxt) > cap:
                status = Status("height_exceeded", n)

    return ExpansionRecord(
        algorithm=algorithm,
        eps=eps,
        lookahead=lookahead if algorithm == "phi2" else None,
        g_variant=g_variant if algorithm == "phi3" else False,
        initial=alpha,
        steps=steps,
        remainders=remainders,
        status=status,
        identity_steps=identity_steps,
    )


def convergent(record: ExpansionRecord, n: int):
    """Rational vector obtained by pulling 0 back through the first n
    inverse steps.  For finite expansions the sequence stabilizes, so n
    past the recorded horizon is allowed there."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > len(record.steps):
        if record.status.kind == "finite":
            n = len(record.steps)
        else:
            raise ValueError("n exceeds the recorded steps")
    y = tuple(QZERO for _ in record.initial.components)
    for k in range(n - 1, -1, -1):
        y = inverse_step(record.steps[k], y)
    return y


def in_E(emb: Embedding, vec: VectorElement) -> bool:
    """Componentwise membership in pZ_p."""
    return all(emb.ord(c) >= 1 for c in vec.components)
