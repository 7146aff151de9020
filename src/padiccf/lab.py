"""Experiment harness: pseudorandom test sets, generator enumeration,
batch classification and table emission.

The pseudorandom source is the binary expansion of the positive real root
of a fixed quadratic, read exactly (no floating point anywhere) from one
integer square root: the first k bits are floor(r 2^k) for the root r.
Bytes pack eight bits least-significant-first; test elements draw
(denominator-1, numerator, sign) byte triples per basis coefficient.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, fields

from .cfrac import ALGORITHMS, HEIGHT_EXPONENT, MAX_STEPS, TAKES, at_least, check_params, expand
from .errors import CapExceeded, ConfigError, HViolation, Reducible, StreamExhausted
from .field import CLAUSES, MinPoly, VectorElement, check_degree, independent_with_one, validate_minpoly
from .hensel import Embedding
from .rationals import Q, check_prime, qformat

SELECTORS = {
    "x2+x-1": (1, 1),
    "x2+2x-1": (2, 1),
    "x2+2x-2": (2, 2),
}


class BitStream:
    """Exact binary digits of the positive root of x^2 + bx - c.

    When the root exceeds 1 it is shifted to its fractional part first
    (x -> x + 1 substitutions keep the trinomial shape); a rational root
    has no usable digit stream and is rejected.

    For the shifted root r = (sqrt(b^2 + 4c) - b)/2 in (0, 1), the first k
    bits are the k binary digits of
    floor(r 2^k) = (isqrt((b^2 + 4c) 4^k) - b 2^k) >> 1,
    exact because floor(x/2) = floor(floor(x)/2) for real x.  Each
    extension at least doubles k, so reading n bits one by one takes
    about log2(n) square roots, the last of a 2n-bit integer.
    """

    __slots__ = ("b", "c", "_bits")

    def __init__(self, selector):
        if isinstance(selector, str):
            selector = SELECTORS[selector]
        b, c = selector
        if c <= 0:
            raise ValueError("positive constant term required")
        while 1 + b - c <= 0:  # value at 1 is <= 0, so the root is >= 1
            if 1 + b - c == 0:
                raise ValueError("rational root, degenerate bit stream")
            b, c = b + 2, c - b - 1
        self.b, self.c = b, c
        self._bits = ""  # d_1 d_2 .. d_k as the digits of floor(r 2^k)

    def _extend(self, upto: int):
        if len(self._bits) < upto:
            k, b = max(upto, 2 * len(self._bits)), self.b
            self._bits = format((math.isqrt((b * b + 4 * self.c) << (2 * k)) - (b << k)) >> 1, f"0{k}b")

    def bit(self, k: int) -> int:
        """d_k, 1-based."""
        self._extend(k)
        return int(self._bits[k - 1])

    def byte(self, i: int) -> int:
        """e_i = sum 2^(k-1) d_(8i+k), least significant bit first."""
        self._extend(8 * i + 8)
        return int(self._bits[8 * i:8 * i + 8][::-1], 2)


def irrational_bits(selector, count: int):
    """First ``count`` binary digits of the selector's root."""
    st = BitStream(selector)
    return [st.bit(k) for k in range(1, count + 1)]


def byte_stream(bits):
    """Pack a bit sequence (d_1, d_2, ...) into bytes e_0, e_1, ..., as
    many as it holds whole."""
    return [sum(bits[8 * i + k] << k for k in range(8)) for i in range(len(bits) // 8)]


@dataclass(frozen=True)
class TestSuite:
    """Deterministic element sample over one field."""

    minpoly: MinPoly
    s: int
    elements: tuple
    consumed_indices: int
    rejected: tuple


def _stream_polys(s: int):
    """Stream selectors per component: x^2+x-1 alone for s = 1, else
    x^2+2x-c for ascending c, skipping constants with a rational root
    (c+1 a perfect square), which carry no digit stream."""
    if s == 1:
        return [(1, 1)]
    out = []
    c = 0
    while len(out) < s:
        c += 1
        r = math.isqrt(c + 1)
        if r * r == c + 1:
            continue
        out.append((2, c))
    return out


MAX_DRAWS = 100_000  # draws a suite may take before StreamExhausted
SUITE_SIZE = 100  # elements per suite unless a caller says otherwise


def build_test_set(minpoly: MinPoly, s: int, size: int = SUITE_SIZE) -> TestSuite:
    """Draw vectors until ``size`` distinct admissible ones are collected.

    Component j comes from stream j; coefficient r of a component uses the
    byte triple (denominator-1, numerator, sign) at offset 3(s+1)i + 3r.
    Vectors whose components are rationally dependent with 1 are rejected
    (for s = 1 that is exactly the rational draws); duplicates collapse.
    More than MAX_DRAWS draws raise StreamExhausted.  An s that is not an
    int in 1 <= s < degree or a size that is not an int >= 1 is a
    ValueError before any draw.
    """
    degree = minpoly.degree
    if at_least(s, 1, f"s (below the degree {degree})") >= degree:
        raise ValueError(f"s must be below the degree {degree}, got {s}")
    at_least(size, 1, "size")
    streams = [BitStream(sel) for sel in _stream_polys(s)]
    chosen: dict = {}
    rejected = []
    i = 0
    while len(chosen) < size:
        if i > MAX_DRAWS:
            raise StreamExhausted(f"no {size} elements within {MAX_DRAWS} draws")
        comps = []
        for stream in streams:
            coeffs = []
            for r in range(s + 1):
                base = 3 * (s + 1) * i + 3 * r
                den = stream.byte(base)
                num = stream.byte(base + 1)
                sign = stream.byte(base + 2)
                c = Q(num, den + 1)
                coeffs.append(-c if sign % 2 else c)
            comps.append(minpoly.element(coeffs))
        if independent_with_one(comps):
            vec = VectorElement(tuple(comps))
            chosen.setdefault(vec, vec)
        else:
            rejected.append(i)
        i += 1
    return TestSuite(minpoly, s, tuple(chosen.values()), i, tuple(rejected))


Z_A_RANGE = (1, 10)
Z_B_RANGE = (-10, 10)


@functools.lru_cache(maxsize=32)
def build_z_set(p: int, degree: int):
    """All certified generators with defining polynomial x^deg + a x + b p,
    a in Z_A_RANGE with ord_p(a) = 0, b in Z_B_RANGE, as a tuple in
    deterministic (a, b) order.  b = 0 drops out via reducibility.
    Memoized per (p, degree): the ranges are module constants.  A degree
    above MAX_DEGREE raises CapExceeded before any candidate is built."""
    if degree < 2:
        raise HViolation("degree", CLAUSES["degree"])
    check_degree(degree)
    out = []
    for a in range(Z_A_RANGE[0], Z_A_RANGE[1] + 1):
        if a % p == 0:
            continue
        for b in range(Z_B_RANGE[0], Z_B_RANGE[1] + 1):
            if b == 0:
                continue
            coeffs = [0] * (degree - 2) + [a, b * p]
            try:
                out.append(validate_minpoly(p, coeffs))
            except Reducible:
                continue
    return tuple(out)


# --- batch classification -----------------------------------------------------

_KIND_TO_COL = {
    "periodic": "P",
    "height_exceeded": "H",
    "finite": "F",
    "step_limit": "L",
}

COLUMNS = ("P", "H", "F", "L")


def algo_label(algo: str, eps, lookahead) -> str:
    if algo == "phi3":
        return "phi3"
    base = f"phi2({lookahead})" if algo == "phi2" else algo
    return f"{base}[{'+1' if eps == 1 else '-1'}]"


def _algo_spec(entry, s: int) -> tuple:
    """(algo, eps, lookahead) from one config entry for s components, with
    the defaults filled in and None for what the algorithm does not take,
    which the entry leaves out or sets to null.  The values go through
    :func:`cfrac.check_params`."""
    if not isinstance(entry, dict) or entry.get("algo") not in ALGORITHMS:
        raise ConfigError(f"an algorithm is an object with \"algo\" one of {ALGORITHMS}, got {entry!r}")
    algo = entry["algo"]
    unknown = set(entry) - {"algo", "eps", "lookahead"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {entry!r}")
    spec = []
    for key in ("eps", "lookahead"):
        value = entry.get(key)
        if key not in TAKES[algo] and value is not None:
            raise ConfigError(f"{algo} takes no {key}, got {entry!r}")
        spec.append(1 if value is None and key in TAKES[algo] else value)
    check_params(algo, s, *(1 if v is None else v for v in spec))
    return (algo, *spec)


@dataclass
class RunConfig:
    """Full description of one table run.  The defaults are the run
    defaults of the package: ``SUITE_SIZE`` elements per suite, and
    ``cfrac.expand``'s own ``MAX_STEPS`` and ``HEIGHT_EXPONENT``."""

    primes: tuple
    degree: int
    algorithms: tuple  # entries (algo, eps, lookahead); eps/lookahead None where unused
    suite_size: int = SUITE_SIZE
    max_steps: int = MAX_STEPS
    height_exponent: int = HEIGHT_EXPONENT
    jobs: int = 1
    z_limit: int | None = None

    @classmethod
    def from_json(cls, data) -> "RunConfig":
        """Validate a ``padiccf table`` config; every defect is a ConfigError.

        An omitted optional key takes its field's default.  eps defaults
        to +1 and phi2's lookahead to 1, so each column label names what
        runs.  The algorithm parameters go through
        :func:`cfrac.check_params` at s = degree - 1."""
        try:
            if not isinstance(data, dict):
                raise ConfigError(f"a config is a JSON object, got {type(data).__name__}")
            missing = {"primes", "degree", "algorithms"} - set(data)
            unknown = set(data) - {f.name for f in fields(cls)}
            if missing or unknown:
                raise ConfigError(f"config keys missing: {sorted(missing)}, unknown: {sorted(unknown)}")
            primes, algos = data["primes"], data["algorithms"]
            if not isinstance(primes, list) or not primes:
                raise ConfigError(f"primes must be a non-empty list, got {primes!r}")
            for q in primes:
                check_prime(at_least(q, 2, "a prime"))
            degree = at_least(data["degree"], 2, "degree")
            check_degree(degree)
            if not isinstance(algos, list) or not algos:
                raise ConfigError(f"algorithms must be a non-empty list, got {algos!r}")
            specs = tuple(_algo_spec(a, degree - 1) for a in algos)
            if len(set(primes)) < len(primes) or len({algo_label(*s) for s in specs}) < len(specs):
                raise ConfigError("primes and algorithm columns must not repeat")
            given = {f.name: data.get(f.name, f.default) for f in fields(cls)}
            z_limit = given["z_limit"]
            return cls(
                primes=tuple(primes),
                degree=degree,
                algorithms=specs,
                suite_size=at_least(given["suite_size"], 1, "suite_size"),
                max_steps=at_least(given["max_steps"], 1, "max_steps"),
                height_exponent=at_least(given["height_exponent"], 0, "height_exponent"),
                jobs=at_least(given["jobs"], 1, "jobs"),
                z_limit=None if z_limit is None else at_least(z_limit, 1, "z_limit"),
            )
        except (ValueError, CapExceeded) as exc:  # a NotPrime and a ConfigError are ValueErrors
            raise ConfigError(str(exc)) from None


@dataclass
class TableRow:
    prime: int
    counts: dict  # label -> {"P": n, "H": n, "F": n, "L": n}

    def to_json(self):
        return {"prime": self.prime, "counts": self.counts}


def _suite_coefficients(degree: int, size: int):
    """Suite coefficient tuples for one degree; field-independent, since
    both the draws and the rejection rule live at coefficient level."""
    s = degree - 1
    probe = MinPoly(2, [0] * (degree - 2) + [1, 2])
    suite = build_test_set(probe, s, size)
    return [[list(c.coeffs) for c in vec.components] for vec in suite.elements]


def _z_task(args):
    """Classify every (element, algorithm) pair for one generator."""
    mp, suite_coeffs, algo_specs, max_steps, height_exponent = args
    p = mp.p
    emb = Embedding(mp)
    counts = {
        algo_label(*spec): {c: 0 for c in COLUMNS} for spec in algo_specs
    }
    errors = []
    for idx, comp_coeffs in enumerate(suite_coeffs):
        vec = mp.vector([mp.element(cs) for cs in comp_coeffs])
        for spec in algo_specs:
            algo, eps, lookahead = spec
            label = algo_label(*spec)
            try:
                rec = expand(
                    vec,
                    algo,
                    eps=eps if eps is not None else 1,
                    lookahead=lookahead if lookahead is not None else 1,
                    max_steps=max_steps,
                    height_exponent=height_exponent,
                    embedding=emb,
                )
                counts[label][_KIND_TO_COL[rec.status.kind]] += 1
            except Exception as exc:  # collected, never aborts the batch
                errors.append((p, tuple(qformat(c) for c in mp.coeffs), idx, label, repr(exc)))
    return p, counts, errors


def _pooled(tasks, workers: int) -> list:
    """Each task's :func:`_z_task` result from one pool of ``workers``
    processes, None for a task the pool lost: one whose worker died, or
    one still unfinished when a worker died (``BrokenProcessPool``)."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    out = []
    with ProcessPoolExecutor(workers) as pool:
        for future in [pool.submit(_z_task, t) for t in tasks]:
            try:
                out.append(future.result())
            except BrokenProcessPool:
                out.append(None)
    return out


def _lost(task) -> tuple:
    """The result of a task that broke a pool of its own: no counts, and
    one error naming its prime, generator and algorithm labels."""
    mp, _, algo_specs, _, _ = task
    labels = [algo_label(*spec) for spec in algo_specs]
    error = (mp.p, tuple(qformat(c) for c in mp.coeffs), None, ",".join(labels),
             "BrokenProcessPool: the worker running this generator's task died")
    return mp.p, {lab: {c: 0 for c in COLUMNS} for lab in labels}, [error]


def run_batch(config: RunConfig):
    """Run the full grid and aggregate one row per prime.

    Returns (rows, errors).  Tasks are independent; with jobs > 1 they run
    in a process pool of at most one worker per task and per CPU, and
    aggregation order is fixed by sorted task keys either way.  The batch
    is fail-soft: when a worker dies (killed by the OS, say), each task
    the pool lost runs again alone in a fresh one-worker pool, and a task
    that breaks that pool too becomes an error (:func:`_lost`) while the
    other tasks count as usual.
    """
    suite_coeffs = _suite_coefficients(config.degree, config.suite_size)
    tasks = [(mp, suite_coeffs, tuple(config.algorithms), config.max_steps, config.height_exponent)
             for p in sorted(config.primes) for mp in build_z_set(p, config.degree)[:config.z_limit]]
    workers = min(config.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        results = _pooled(tasks, workers)
        for k, res in enumerate(results):
            if res is None:
                res = _pooled([tasks[k]], 1)[0]
                results[k] = _lost(tasks[k]) if res is None else res
    else:
        results = [_z_task(t) for t in tasks]

    rows: dict[int, TableRow] = {}
    errors = []
    labels = [algo_label(*spec) for spec in config.algorithms]
    for p, counts, errs in results:
        row = rows.setdefault(
            p, TableRow(p, {lab: {c: 0 for c in COLUMNS} for lab in labels})
        )
        for lab in labels:
            for c in COLUMNS:
                row.counts[lab][c] += counts[lab][c]
        errors.extend(errs)
    return [rows[p] for p in sorted(rows)], errors


def emit_table(rows, fmt: str = "csv") -> str:
    """Render rows byte-stably; CSV and JSON-lines are supported."""
    if fmt == "jsonl":
        return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in rows) + ("\n" if rows else "")
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        return "prime\n"
    # every label's P and H, then every label's F and L
    cols = [(lab, c) for pair in (("P", "H"), ("F", "L")) for lab in rows[0].counts for c in pair]
    lines = [",".join(["prime"] + [f"{lab}:{c}" for lab, c in cols])]
    lines += [",".join([str(row.prime)] + [str(row.counts[lab][c]) for lab, c in cols]) for row in rows]
    return "\n".join(lines) + "\n"

