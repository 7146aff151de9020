"""Experiment harness: pseudorandom test sets, generator enumeration,
batch classification and table emission.

The pseudorandom source is the binary expansion of the positive real root
of a fixed quadratic, computed by exact integer comparisons (no floating
point anywhere): with partial sum N/2^k, the next bit is 1 exactly when
the polynomial is still negative at (2N+1)/2^(k+1).  Bytes pack eight
bits least-significant-first; test elements draw (denominator-1,
numerator, sign) byte triples per basis coefficient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .cfrac import ALGORITHMS, expand
from .errors import ConfigError, HViolation, Reducible, StreamExhausted
from .field import MinPoly, VectorElement, independent_with_one, validate_minpoly
from .hensel import Embedding
from .rationals import Q, is_prime, qformat, qparse

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
    """

    __slots__ = ("b", "c", "_bits", "_n")

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
        self._bits = []  # d_1, d_2, ... (1-based in the formulas)
        self._n = 0  # partial sum numerator: sum d_j 2^(k-j)

    def _extend(self, upto: int):
        k = len(self._bits)
        while k < upto:
            k += 1
            t = 2 * self._n + 1
            val = t * t + self.b * t * (1 << k) - self.c * (1 << (2 * k))
            bit = 1 if val < 0 else 0
            self._n = 2 * self._n + bit
            self._bits.append(bit)

    def bit(self, k: int) -> int:
        """d_k, 1-based."""
        self._extend(k)
        return self._bits[k - 1]

    def byte(self, i: int) -> int:
        """e_i = sum 2^(k-1) d_(8i+k), least significant bit first."""
        self._extend(8 * i + 8)
        out = 0
        for k in range(1, 9):
            out |= self._bits[8 * i + k - 1] << (k - 1)
        return out


def irrational_bits(selector, count: int):
    """First ``count`` binary digits of the selector's root."""
    st = BitStream(selector)
    return [st.bit(k) for k in range(1, count + 1)]


def byte_stream(bits, count: int | None = None):
    """Pack a bit sequence (d_1, d_2, ...) into bytes e_0, e_1, ..."""
    n = len(bits) // 8 if count is None else count
    if 8 * n > len(bits):
        raise ValueError("not enough bits")
    return [sum(bits[8 * i + k - 1] << (k - 1) for k in range(1, 9)) for i in range(n)]


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


def build_test_set(minpoly: MinPoly, s: int, size: int = 100, max_index: int = 100_000) -> TestSuite:
    """Draw vectors until ``size`` distinct admissible ones are collected.

    Component j comes from stream j; coefficient r of a component uses the
    byte triple (denominator-1, numerator, sign) at offset 3(s+1)i + 3r.
    Vectors whose components are rationally dependent with 1 are rejected
    (for s = 1 that is exactly the rational draws); duplicates collapse.
    """
    streams = [BitStream(sel) for sel in _stream_polys(s)]
    chosen: dict = {}
    rejected = []
    i = 0
    while len(chosen) < size:
        if i > max_index:
            raise StreamExhausted(f"no {size} elements within {max_index} draws")
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
            chosen.setdefault(vec.key(), vec)
        else:
            rejected.append(i)
        i += 1
    return TestSuite(minpoly, s, tuple(chosen.values()), i, tuple(rejected))


Z_A_RANGE = (1, 10)
Z_B_RANGE = (-10, 10)


def build_z_set(p: int, degree: int):
    """All certified generators with defining polynomial x^deg + a x + b p,
    a in Z_A_RANGE with ord_p(a) = 0, b in Z_B_RANGE; deterministic (a, b)
    order.  b = 0 drops out via reducibility."""
    if degree < 2:
        raise HViolation("degree", "degree must be at least 2")
    out = []
    for a in range(Z_A_RANGE[0], Z_A_RANGE[1] + 1):
        if a % p == 0:
            continue
        for b in range(Z_B_RANGE[0], Z_B_RANGE[1] + 1):
            if b == 0:
                continue
            coeffs = [0] * (degree - 2) + [a, b * p]
            try:
                out.append(validate_minpoly(p, coeffs, force=True))
            except Reducible:
                continue
    return out


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


# parameters each algorithm takes, all defaulting to 1
_ALGO_PARAMS = {"phi0": ("eps",), "phi1": ("eps",), "phi2": ("eps", "lookahead"), "phi3": ()}


def _int_at_least(value, low: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _algo_spec(entry) -> tuple:
    """(algo, eps, lookahead) from one config entry, with the defaults
    filled in and None for what the algorithm does not take."""
    if not isinstance(entry, dict) or entry.get("algo") not in ALGORITHMS:
        raise ConfigError(f"an algorithm is an object with \"algo\" one of {ALGORITHMS}, got {entry!r}")
    algo = entry["algo"]
    unknown = set(entry) - {"algo", "eps", "lookahead"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {entry!r}")
    spec = [algo]
    for key in ("eps", "lookahead"):
        value = entry.get(key)
        if key not in _ALGO_PARAMS[algo]:
            if value is not None:
                raise ConfigError(f"{algo} takes no {key}, got {entry!r}")
        elif value is None:
            value = 1
        elif key == "lookahead":
            _int_at_least(value, 1, key)
        elif _int_at_least(value, -1, key) not in (1, -1):
            raise ConfigError(f"eps must be 1 or -1, got {value!r}")
        spec.append(value)
    return tuple(spec)


@dataclass
class RunConfig:
    """Full description of one table run."""

    primes: tuple
    degree: int
    algorithms: tuple  # entries (algo, eps, lookahead); eps/lookahead None where unused
    suite_size: int = 100
    max_steps: int = 100_000
    height_exponent: int = 60
    jobs: int = 1
    z_limit: int | None = None

    @classmethod
    def from_json(cls, data) -> "RunConfig":
        """Validate a ``padiccf table`` config; every defect is a ConfigError.

        eps defaults to +1 and phi2's lookahead to 1, so each column label
        names what runs."""
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
            if not is_prime(_int_at_least(q, 2, "a prime")):
                raise ConfigError(f"{q} is not prime")
        if not isinstance(algos, list) or not algos:
            raise ConfigError(f"algorithms must be a non-empty list, got {algos!r}")
        specs = tuple(_algo_spec(a) for a in algos)
        if len(set(primes)) < len(primes) or len({algo_label(*s) for s in specs}) < len(specs):
            raise ConfigError("primes and algorithm columns must not repeat")
        z_limit = data.get("z_limit")
        return cls(
            primes=tuple(primes),
            degree=_int_at_least(data["degree"], 2, "degree"),
            algorithms=specs,
            suite_size=_int_at_least(data.get("suite_size", 100), 1, "suite_size"),
            max_steps=_int_at_least(data.get("max_steps", 100_000), 1, "max_steps"),
            height_exponent=_int_at_least(data.get("height_exponent", 60), 0, "height_exponent"),
            jobs=_int_at_least(data.get("jobs", 1), 1, "jobs"),
            z_limit=None if z_limit is None else _int_at_least(z_limit, 1, "z_limit"),
        )


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
    probe = MinPoly(2, [0] * (degree - 2) + [1, 2]) if degree >= 2 else MinPoly.rationals(2)
    suite = build_test_set(probe, s, size)
    return [[list(c.coeffs) for c in vec.components] for vec in suite.elements]


def _z_task(args):
    """Classify every (element, algorithm) pair for one generator."""
    p, coeff_strs, suite_coeffs, algo_specs, max_steps, height_exponent = args
    mp = MinPoly(p, [qparse(c) for c in coeff_strs])
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
                errors.append((p, tuple(coeff_strs), idx, label, repr(exc)))
    return p, counts, errors


def run_batch(config: RunConfig):
    """Run the full grid and aggregate one row per prime.

    Returns (rows, errors).  Tasks are independent; with jobs > 1 they run
    in a process pool, and aggregation order is fixed by sorted task keys
    either way.
    """
    suite_coeffs = _suite_coefficients(config.degree, config.suite_size)
    tasks = []
    for p in sorted(config.primes):
        zs = build_z_set(p, config.degree)
        if config.z_limit is not None:
            zs = zs[: config.z_limit]
        for mp in zs:
            tasks.append(
                (
                    p,
                    tuple(qformat(c) for c in mp.coeffs),
                    suite_coeffs,
                    tuple(config.algorithms),
                    config.max_steps,
                    config.height_exponent,
                )
            )
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        import multiprocessing as mp_mod

        with mp_mod.Pool(workers) as pool:
            results = pool.map(_z_task, tasks, chunksize=1)
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
    labels = list(rows[0].counts)
    head = ["prime"]
    head += [f"{lab}:{c}" for lab in labels for c in ("P", "H")]
    head += [f"{lab}:{c}" for lab in labels for c in ("F", "L")]
    lines = [",".join(head)]
    for row in rows:
        cells = [str(row.prime)]
        cells += [str(row.counts[lab][c]) for lab in labels for c in ("P", "H")]
        cells += [str(row.counts[lab][c]) for lab in labels for c in ("F", "L")]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_table(text: str, fmt: str = "csv"):
    """Inverse of :func:`emit_table`."""
    if fmt == "jsonl":
        rows = []
        for line in text.splitlines():
            if line.strip():
                data = json.loads(line)
                rows.append(TableRow(data["prime"], data["counts"]))
        return rows
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = TableRow(int(cells[0]), {})
        for name, cell in zip(header[1:], cells[1:]):
            lab, col = name.rsplit(":", 1)
            row.counts.setdefault(lab, {c: 0 for c in COLUMNS})[col] = int(cell)
        rows.append(row)
    return rows
