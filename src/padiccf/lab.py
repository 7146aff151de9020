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


def _algo_spec(entry) -> tuple:
    """(algo, eps, lookahead) as one config entry gives them, None for a
    key it leaves out or sets to null; ``RunConfig`` checks the values."""
    if not isinstance(entry, dict) or entry.get("algo") not in ALGORITHMS:
        raise ConfigError(f"an algorithm is an object with \"algo\" one of {ALGORITHMS}, got {entry!r}")
    unknown = set(entry) - {"algo", "eps", "lookahead"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {entry!r}")
    return entry["algo"], entry.get("eps"), entry.get("lookahead")


def _checked_spec(spec, s: int) -> tuple:
    """spec = (algo, eps, lookahead) for s components, with the default 1
    filled in where the algorithm takes the parameter (``cfrac.TAKES``)
    and spec has None; a parameter it does not take stays None.  A value
    given for a parameter the algorithm does not take, or refused by
    :func:`cfrac.check_params`, is a ValueError."""
    algo, eps, lookahead = spec
    given = {"eps": eps, "lookahead": lookahead}
    check_params(algo, s, **{key: 1 if v is None else v for key, v in given.items()})
    for key, value in given.items():
        if key not in TAKES[algo] and value is not None:
            raise ValueError(f"{algo} takes no {key}, got {value!r}")
        if key in TAKES[algo] and value is None:
            given[key] = 1
    return algo, given["eps"], given["lookahead"]


@dataclass(frozen=True)
class RunConfig:
    """Full description of one table run.  The defaults are the run
    defaults of the package: ``SUITE_SIZE`` elements per suite, and
    ``cfrac.expand``'s own ``MAX_STEPS`` and ``HEIGHT_EXPONENT``.  Every
    field is checked once, at construction, however the config is built;
    a frozen config cannot be changed afterwards."""

    primes: tuple
    degree: int
    algorithms: tuple  # entries (algo, eps, lookahead); eps/lookahead None where unused
    suite_size: int = SUITE_SIZE
    max_steps: int = MAX_STEPS
    height_exponent: int = HEIGHT_EXPONENT
    jobs: int = 1
    z_limit: int | None = None

    def __post_init__(self):
        """The one check of every field.  primes is a non-empty tuple of
        primes below ``rationals.PRIME_BOUND`` (NotPrime otherwise);
        degree is an int >= 2, and CapExceeded above ``field.MAX_DEGREE``;
        suite_size, max_steps and jobs are ints >= 1, height_exponent an
        int >= 0 and z_limit None or an int >= 1 (a bool or a float is no
        int here).  Each algorithm entry goes through :func:`_checked_spec`
        at s = degree - 1: eps defaults to +1 and phi2's lookahead to 1, so
        each column label names what runs.  Any other defect, a repeated
        prime or column included, is a ValueError before any task starts."""
        if not self.primes or not self.algorithms:
            raise ValueError(f"primes and algorithms must not be empty, got {self.primes!r}, {self.algorithms!r}")
        for q in self.primes:
            check_prime(at_least(q, 2, "a prime"))
        check_degree(at_least(self.degree, 2, "degree"))
        for name, low in (("suite_size", 1), ("max_steps", 1), ("height_exponent", 0), ("jobs", 1)):
            at_least(getattr(self, name), low, name)
        if self.z_limit is not None:
            at_least(self.z_limit, 1, "z_limit")
        object.__setattr__(self, "algorithms", tuple(_checked_spec(spec, self.degree - 1) for spec in self.algorithms))
        labels = {algo_label(*spec) for spec in self.algorithms}
        if len(set(self.primes)) < len(self.primes) or len(labels) < len(self.algorithms):
            raise ValueError("primes and algorithm columns must not repeat")

    @classmethod
    def from_json(cls, data) -> "RunConfig":
        """Read a ``padiccf table`` config; every defect is a ConfigError.

        Only the JSON's shape is read here: an object with no missing or
        unknown keys, ``primes`` and ``algorithms`` lists, each algorithm
        entry an object (:func:`_algo_spec`).  An omitted optional key takes
        its field's default, and the values get the check every
        ``RunConfig`` gets, its ValueError or CapExceeded turned into a
        ConfigError."""
        try:
            if not isinstance(data, dict):
                raise ConfigError(f"a config is a JSON object, got {type(data).__name__}")
            missing = {"primes", "degree", "algorithms"} - set(data)
            unknown = set(data) - {f.name for f in fields(cls)}
            if missing or unknown:
                raise ConfigError(f"config keys missing: {sorted(missing)}, unknown: {sorted(unknown)}")
            if not isinstance(data["primes"], list) or not isinstance(data["algorithms"], list):
                raise ConfigError(f"primes and algorithms are lists, got {data['primes']!r}, {data['algorithms']!r}")
            given = {f.name: data.get(f.name, f.default) for f in fields(cls)}
            return cls(**{**given, "primes": tuple(given["primes"]),
                          "algorithms": tuple(map(_algo_spec, given["algorithms"]))})
        except (ValueError, CapExceeded) as exc:  # a NotPrime and a ConfigError are ValueErrors
            raise ConfigError(str(exc)) from None


@dataclass
class TableRow:
    prime: int
    counts: dict  # label -> {"P": n, "H": n, "F": n, "L": n}

    def to_json(self):
        return {"prime": self.prime, "counts": self.counts}


@functools.lru_cache(maxsize=1)
def _suite_coefficients(degree: int, size: int):
    """Suite coefficient tuples for one degree; field-independent, since
    both the draws and the rejection rule live at coefficient level.
    Memoized per process with one entry, so every task of a batch reads
    one suite; the list is shared, and no caller may change it."""
    s = degree - 1
    probe = MinPoly(2, [0] * (degree - 2) + [1, 2])
    suite = build_test_set(probe, s, size)
    return [[list(c.coeffs) for c in vec.components] for vec in suite.elements]


def _z_task(task):
    """Classify every (element, algorithm) pair for one generator; a task
    is (generator, config)."""
    mp, config = task
    p = mp.p
    emb = Embedding(mp)
    counts = {
        algo_label(*spec): {c: 0 for c in COLUMNS} for spec in config.algorithms
    }
    errors = []
    for idx, comp_coeffs in enumerate(_suite_coefficients(config.degree, config.suite_size)):
        vec = mp.vector([mp.element(cs) for cs in comp_coeffs])
        for spec in config.algorithms:
            algo, eps, lookahead = spec
            label = algo_label(*spec)
            try:
                rec = expand(
                    vec,
                    algo,
                    **{key: v for key, v in (("eps", eps), ("lookahead", lookahead)) if v is not None},
                    max_steps=config.max_steps,
                    height_exponent=config.height_exponent,
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
    """The result of a task that broke a pool of its own: an empty count
    table, which ``run_batch`` reads as zeros, and one error naming its
    prime, generator and algorithm labels."""
    mp, config = task
    labels = [algo_label(*spec) for spec in config.algorithms]
    error = (mp.p, tuple(qformat(c) for c in mp.coeffs), None, ",".join(labels),
             "BrokenProcessPool: the worker running this generator's task died")
    return mp.p, {}, [error]


def run_batch(config: RunConfig):
    """Run the full grid and aggregate one row per prime.

    Returns (rows, errors).  Every task, one (generator, config) pair,
    runs in a process pool of max(1, min(jobs, tasks, CPUs)) workers, and
    aggregation order is fixed by sorted task keys.  The suite is read
    once here, before any worker starts, so a bad suite raises before any
    task runs and forked workers inherit it.  Every batch is fail-soft:
    when a worker dies (killed by the OS, say), each task the pool lost
    runs again alone in a fresh one-worker pool, and a task that breaks
    that pool too becomes an error (:func:`_lost`) while the other tasks
    count as usual.  Starting the pool costs a jobs = 1 batch about 40 ms
    on a 2-core host.
    """
    _suite_coefficients(config.degree, config.suite_size)
    tasks = [(mp, config) for p in sorted(config.primes) for mp in build_z_set(p, config.degree)[:config.z_limit]]
    results = _pooled(tasks, max(1, min(config.jobs, len(tasks), os.cpu_count() or 1)))
    for k, res in enumerate(results):
        if res is None:
            res = _pooled([tasks[k]], 1)[0]
            results[k] = _lost(tasks[k]) if res is None else res

    rows: dict[int, TableRow] = {}
    errors = []
    labels = [algo_label(*spec) for spec in config.algorithms]
    for p, counts, errs in results:
        row = rows.setdefault(
            p, TableRow(p, {lab: {c: 0 for c in COLUMNS} for lab in labels})
        )
        for lab, cols in counts.items():
            for c, n in cols.items():
                row.counts[lab][c] += n
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

