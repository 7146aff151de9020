"""Workload grids and the code of one pass.

A pass is one closed-loop, single-process run of a workload's whole grid,
one op at a time, in a fresh interpreter.  The census pass repeats what
``lab.run_batch`` does with ``jobs=1``, call by call: draw the suite
coefficients once per table, build each prime's z-set, build one
``Embedding`` per generator, ``expand`` every element, aggregate the
counts into ``TableRow``s and ``emit_table`` them.  The convergents
pass builds criterion-10-style records and verifies one horizon per op.

The seed only picks windows: which generators of each z-set's leading
``z_pool`` (in ``build_z_set`` order), which elements of a slightly longer
suite pool (``build_test_set`` is prefix-stable), and which candidate jobs
each convergents leg takes, in what order.  Seed 0 is the prefix window, so
its tables equal ``padiccf table`` with ``z_limit``/``suite_size``.
Only the legs that hold most ops are windowed, and their pools are a
generator or a few larger than their windows: a percentile over several
hundred ops then moves between seeds by a few percent at most.  The few
slow legs that make the tail latency are the same at every seed (pool
equal to window), since a window over them would make the tail a property
of the seed rather than of the code; see ``CENSUS`` and ``CONVERGENTS``.

After every op the pass times ``probe``, a fixed computation that uses
nothing of padiccf, so that ``run.py`` can scale the pass's times to a
reference host speed.

This module imports padiccf lazily: the parent process uses the grid
definitions and ``window`` without loading the package under test.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

SUITE_SIZE = 10  # elements per census table, as in criteria 8 and 9
MAX_STEPS = 100_000
KIND_COL = {"periodic": "P", "height_exceeded": "H", "finite": "F", "step_limit": "L"}

CONV_STEPS = 70  # horizons per convergents record, as in criterion 10
CONV_HEIGHT = 400
CONV_PRIME = 2
CONV_FINAL_MIN = 50  # criterion 10: valuation at the last horizon exceeds this


@dataclass(frozen=True)
class CensusLeg:
    """One ``padiccf table`` config: ``z_limit`` generators per prime, drawn
    from the first ``z_pool`` of its z-set, each against ``SUITE_SIZE``
    elements drawn from the first ``suite_pool`` of the suite."""

    name: str
    algo: str
    eps: int | None
    lookahead: int | None
    degree: int
    primes: tuple
    z_limit: int
    z_pool: int
    suite_pool: int
    height_exponent: int

    def run_config(self) -> dict:
        """The equivalent ``padiccf table --config`` JSON at seed 0."""
        return {
            "primes": list(self.primes),
            "degree": self.degree,
            "algorithms": [{"algo": self.algo, "eps": self.eps, "lookahead": self.lookahead}],
            "suite_size": SUITE_SIZE,
            "max_steps": MAX_STEPS,
            "height_exponent": self.height_exponent,
            "jobs": 1,
            "z_limit": self.z_limit,
        }


@dataclass(frozen=True)
class ConvLeg:
    """Criterion-10-style records: job i pairs generator (i + offset) mod |z-set|
    with suite element i.  Jobs run in the seed's order of the first ``pool``
    candidates, skipping height-divergent draws, until ``pick`` records ran."""

    name: str
    algo: str
    eps: int
    degree: int
    offset: int
    pool: int
    pick: int


CENSUS = {
    # Criterion 8 mirror: every orbit periodic with bounded height.  Degrees
    # 5 and 6 are left out: their few, slow expansions would make the tail
    # latency a property of whichever two generators a seed picks.  The
    # degree-4 ops are the slowest ~120 of the pass and make the whole tail;
    # a window over them (6 of 9 generators, 10 of 12 elements) moved
    # op_tail_ms between seeds by 0.12 of its median, so that leg is fixed.
    "census_phi3": (
        CensusLeg("phi3.d3", "phi3", None, None, 3, (2, 3), 20, 24, 11, 60),
        CensusLeg("phi3.d4", "phi3", None, None, 4, (2, 3), 6, 6, 10, 60),
    ),
    # Criterion 9 mirror plus the lookahead map: tall coefficients.  The
    # cheap phi1 expansions are the majority, so the median op stays inside
    # one leg instead of between the legs' latency clusters; the slow phi0
    # and phi2 legs make the tail and are fixed.
    "census_contrast": (
        CensusLeg("phi0", "phi0", 1, None, 2, (2, 3, 5, 7), 1, 1, 10, 60),
        CensusLeg("phi1", "phi1", 1, None, 3, (2,), 20, 24, 11, 300),
        CensusLeg("phi2", "phi2", 1, 1, 3, (2, 3), 2, 2, 10, 60),
    ),
}

# The quadratic records hold two thirds of the horizons, so the median op
# lies well inside their latencies rather than at the edge of the cubic
# ones; a seed takes four of the first five candidates of each quadratic
# leg.  The cubic records are the same at every seed: the cubic phi1
# record's late horizons make the tail, and among the first three
# candidates the cost of a cubic phi2 record differs by up to 26% (up to
# fourteenfold among the first 16), which alone would spread op_tail_ms
# between seeds.
CONVERGENTS = (
    ConvLeg("phi0+", "phi0", 1, 2, 0, 5, 4),
    ConvLeg("phi1-", "phi1", -1, 2, 7, 5, 4),
    ConvLeg("phi1+", "phi1", 1, 3, 0, 1, 1),
    ConvLeg("phi2+", "phi2", 1, 3, 3, 1, 1),
    ConvLeg("phi3", "phi3", 1, 3, 11, 2, 2),
)

WORKLOADS = ("census_phi3", "census_contrast", "convergents")


def order(seed: int, key: str, pool: int) -> list:
    """The seed's order of ``range(pool)``; the identity at seed 0."""
    if seed == 0:
        return list(range(pool))
    return random.Random(f"{seed}/{key}").sample(range(pool), pool)


def window(seed: int, key: str, pool: int, size: int) -> list:
    """Sorted indices of ``size`` items out of ``pool``; the prefix at seed 0."""
    if size > pool:
        raise ValueError(f"window {size} larger than pool {pool}")
    return sorted(order(seed, key, pool)[:size])


PROBE_MOD = 10**120 + 7
PROBE_WIDE = (7**3000, 3**4000)


def probe() -> float:
    """Seconds taken by a fixed stdlib computation of about 0.6 ms, with
    nothing of padiccf in it: an interpreted loop of 120-digit and
    ``Fraction`` arithmetic, then products of 2500- and 1900-digit integers.
    Its time tracks the host's speed at the moment and is the same on every
    commit.  The halves follow the host differently: over a fast stretch
    in which ``census_phi3`` passes ran 1.35x faster, the loop ran 1.5x and
    the products 1.3x faster; their sum tracked pass times and latencies
    better than the loop alone."""
    t0 = time.perf_counter()
    a, b, f = 3**200, 7**190, Fraction(0)
    for i in range(1, 40):
        a = (a * b + i) % PROBE_MOD
        f += Fraction(a % 1000003, i)
    x, y = PROBE_WIDE
    for i in range(2):
        a += (x * (y + i)) % (x + i)
    return time.perf_counter() - t0


def fmt_val(v) -> object:
    """JSON form of a valuation: ints as is, ORD_INF as "inf"."""
    return "inf" if v == math.inf else int(v)


# --- passes (run in the pass interpreter) ---------------------------------


def expand_census(leg: CensusLeg, vec, emb):
    """One census cell: ``expand`` with the arguments ``lab._z_task`` passes."""
    from padiccf import cfrac

    return cfrac.expand(
        vec,
        leg.algo,
        eps=leg.eps if leg.eps is not None else 1,
        lookahead=leg.lookahead if leg.lookahead is not None else 1,
        max_steps=MAX_STEPS,
        height_exponent=leg.height_exponent,
        embedding=emb,
    )


def conv_record(leg: ConvLeg, zs, pool, i: int) -> tuple:
    """Job i of a convergents leg: generator (i + offset) mod |z-set| with
    suite element i, expanded for ``CONV_STEPS`` steps.  Returns (mp, emb, rec)."""
    from padiccf import cfrac
    from padiccf.hensel import Embedding

    mp = zs[(i + leg.offset) % len(zs)]
    emb = Embedding(mp)
    vec = mp.vector([mp.element(c) for c in pool[i]])
    rec = cfrac.expand(
        vec, leg.algo, eps=leg.eps, max_steps=CONV_STEPS,
        height_exponent=CONV_HEIGHT, embedding=emb, detect_cycles=False,
    )
    return mp, emb, rec


def horizon_vals(mp, emb, rec, n: int) -> list:
    """One convergents op: ord(alpha_i - pi_i) of each component at horizon n."""
    from padiccf import cfrac

    pi = cfrac.convergent(rec, n)
    return [emb.ord(a - mp.rational(q)) for a, q in zip(rec.initial.components, pi)]


def census_pass(workload: str, seed: int, ctx) -> dict:
    """Run every census table of ``workload``; one op is one ``expand``."""
    from padiccf import lab
    from padiccf.hensel import Embedding

    clock = time.perf_counter
    lat, probes, errors, tables, zset_sizes = [], [], [], [], []
    for leg in CENSUS[workload]:
        pool = lab._suite_coefficients(leg.degree, leg.suite_pool)
        elems = [pool[i] for i in window(seed, f"{workload}/{leg.name}/suite", leg.suite_pool, SUITE_SIZE)]
        label = lab.algo_label(leg.algo, leg.eps, leg.lookahead)
        rows = []
        for p in sorted(leg.primes):
            zs = lab.build_z_set(p, leg.degree)
            zset_sizes.append(len(zs))
            row = lab.TableRow(p, {label: {c: 0 for c in lab.COLUMNS}})
            for gi in window(seed, f"{workload}/{leg.name}/{p}", min(len(zs), leg.z_pool), leg.z_limit):
                mp = zs[gi]
                emb = Embedding(mp)
                for cs in elems:
                    vec = mp.vector([mp.element(c) for c in cs])
                    ctx.op = len(lat)
                    t0 = clock()
                    try:
                        rec = expand_census(leg, vec, emb)
                    except Exception as exc:  # a failed op; the table check catches the gap
                        lat.append(None)
                        errors.append(f"op {ctx.op}: {exc!r}")
                        continue
                    lat.append(clock() - t0)
                    probes.append(probe())
                    row.counts[label][KIND_COL[rec.status.kind]] += 1
            rows.append(row)
        ctx.op = -1
        tables.append(lab.emit_table(rows))
    return {
        "lat": lat,
        "probes": probes,
        "errors": errors,
        "output": tables,
        "expansions": len(lat),
        "zset_generators": sum(zset_sizes),
    }


def convergents_pass(seed: int, ctx) -> dict:
    """Criterion-10-style records; one op is one horizon n: ``convergent(rec, n)``
    then ``Embedding.ord`` of each component difference, bound asserted.

    All records are expanded first; their horizons then run in one fixed
    shuffled order.  Horizons are independent, and spreading the slowest
    ones (late horizons of the cubic records) over the whole pass keeps
    one burst of host load from slowing all of them in every pass.
    """
    from padiccf import lab

    clock = time.perf_counter
    degrees = sorted({leg.degree for leg in CONVERGENTS})
    pools = {d: lab._suite_coefficients(d, max(leg.pool for leg in CONVERGENTS if leg.degree == d))
             for d in degrees}
    zsets = {d: lab.build_z_set(CONV_PRIME, d) for d in degrees}
    records, rows = [], []  # rows: skip markers and (record, n) ops, in output order
    for leg in CONVERGENTS:
        zs = zsets[leg.degree]
        taken = 0
        for i in order(seed, f"convergents/{leg.name}", leg.pool):
            if taken == leg.pick:
                break
            mp, emb, rec = conv_record(leg, zs, pools[leg.degree], i)
            if rec.status.kind != "step_limit":
                rows.append([leg.name, i, "skip", rec.status.kind])
                continue
            taken += 1
            prefix = [0]
            for k, step in enumerate(rec.steps):
                j = 0 if step.identity else min(emb.ord(c) for c in rec.remainders[k].components)
                prefix.append(prefix[-1] + j)
            records.append((leg.name, i, mp, emb, rec, prefix))
            rows += [(len(records) - 1, n) for n in range(1, CONV_STEPS + 1)]
    ops = [row for row in rows if isinstance(row, tuple)]
    schedule = list(range(len(ops)))
    random.Random("convergents/schedule").shuffle(schedule)
    lat, vals, errors, probes = [None] * len(ops), [None] * len(ops), [], []
    horizons = sum_n = 0
    for op in schedule:
        r, n = ops[op]
        _, _, mp, emb, rec, _ = records[r]
        ctx.op = op
        t0 = clock()
        try:
            vals[op] = horizon_vals(mp, emb, rec, n)
        except Exception as exc:
            errors.append(f"op {op}: {exc!r}")
            continue
        lat[op] = clock() - t0
        probes.append(probe())
        horizons += 1
        sum_n += n
    ctx.op = -1
    out, op = [], 0
    for row in rows:
        if not isinstance(row, tuple):
            out.append(row)
            continue
        name, i, _, _, _, prefix = records[row[0]]
        n, v = row[1], vals[op]
        if v is None:
            out.append([name, i, n, "error"])
        else:
            bad = [x for x in v if x != math.inf and x < prefix[n]]
            if n == CONV_STEPS and min(v) <= CONV_FINAL_MIN:
                bad.append(min(v))
            if bad:
                lat[op] = None
                errors.append(f"op {op}: {name}/{i} n={n} valuations {v} under bound {prefix[n]}")
            out.append([name, i, n, [fmt_val(x) for x in v]])
        op += 1
    return {
        "lat": lat,
        "probes": probes,
        "errors": errors,
        "output": out,
        "expansions": len(records) + sum(1 for row in rows if not isinstance(row, tuple)),
        "horizons": horizons,
        "sum_n": sum_n,
        "zset_generators": sum(len(z) for z in zsets.values()),
    }


def run_pass(workload: str, seed: int, ctx) -> dict:
    if workload == "convergents":
        return convergents_pass(seed, ctx)
    return census_pass(workload, seed, ctx)
