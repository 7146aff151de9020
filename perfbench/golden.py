"""Recorded outputs of the workloads, and the expected output of any seed.

A seed picks windows out of fixed pools, so the benchmark records every
outcome in those pools once, at the baseline commit:

- census: the orbit class (P/H/F/L) of each of the first ``z_pool``
  generators of every table's z-set against each of the first
  ``suite_pool`` suite elements;
- convergents: the component valuations at every horizon of every
  candidate job in each leg's pool (or why the job is skipped).

``expected(workload, seed)`` rebuilds from these the exact table bytes and
the convergent list a correct program prints for that seed, without
importing the package under test.  Re-record only when an output change is
intended:

    python3 perfbench/golden.py --record
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
from pathlib import Path

import workloads as W

GOLDEN = Path(__file__).resolve().parent / "golden"
COLS = ("P", "H", "F", "L")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def algo_label(leg) -> str:
    if leg.algo == "phi3":
        return "phi3"
    base = f"phi2({leg.lookahead})" if leg.algo == "phi2" else leg.algo
    return f"{base}[{'+1' if leg.eps == 1 else '-1'}]"


def render_csv(label: str, rows) -> str:
    """The CSV ``emit_table`` prints for one algorithm: rows are (prime, counts)."""
    lines = [",".join(["prime"] + [f"{label}:{c}" for c in COLS])]
    for prime, counts in rows:
        lines.append(",".join([str(prime)] + [str(counts[c]) for c in COLS]))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def load(name: str) -> dict:
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


def expected(workload: str, seed: int) -> dict:
    """{"output": what the pass returns as output, "ops": op count}."""
    if workload == "convergents":
        legs = load("convergents")["legs"]
        out = []
        for leg in W.CONVERGENTS:
            taken = 0
            for i in W.order(seed, f"convergents/{leg.name}", leg.pool):
                if taken == leg.pick:
                    break
                job = legs[leg.name][i]
                if "skip" in job:
                    out.append([leg.name, i, "skip", job["skip"]])
                    continue
                taken += 1
                for n, vals in enumerate(job["vals"], start=1):
                    out.append([leg.name, i, n, vals])
        return {"output": out, "ops": sum(1 for row in out if row[2] != "skip")}
    tables, ops = [], 0
    golden = load("census")["legs"]
    for leg in W.CENSUS[workload]:
        elems = W.window(seed, f"{workload}/{leg.name}/suite", leg.suite_pool, W.SUITE_SIZE)
        rows = []
        for p in sorted(leg.primes):
            outcomes = golden[f"{workload}/{leg.name}"][str(p)]["outcomes"]
            counts = dict.fromkeys(COLS, 0)
            for gi in W.window(seed, f"{workload}/{leg.name}/{p}", len(outcomes), leg.z_limit):
                for ei in elems:
                    counts[outcomes[gi][ei]] += 1
                    ops += 1
            rows.append((p, counts))
        tables.append(render_csv(algo_label(leg), rows))
    return {"output": tables, "ops": ops}


# --- recording (imports the package under test) ----------------------------------


@functools.lru_cache(maxsize=None)
def _inputs(p: int, degree: int, pool: int):
    from padiccf import lab

    return lab.build_z_set(p, degree), lab._suite_coefficients(degree, pool)


def census_outcomes(leg, p: int) -> dict:
    """Orbit class of each pool generator against each pool element."""
    from padiccf.hensel import Embedding
    from padiccf.rationals import qformat

    zs, pool = _inputs(p, leg.degree, leg.suite_pool)
    zs = zs[: leg.z_pool]
    outcomes = []
    for mp in zs:
        emb = Embedding(mp)
        row = [W.KIND_COL[W.expand_census(leg, mp.vector([mp.element(c) for c in cs]), emb).status.kind]
               for cs in pool]
        outcomes.append("".join(row))
    return {"generators": [",".join(qformat(c) for c in mp.coeffs) for mp in zs], "outcomes": outcomes}


def conv_job(leg, i: int) -> dict:
    """Valuations at every horizon of job i of one convergents leg."""
    zs, pool = _inputs(W.CONV_PRIME, leg.degree, leg.pool)
    mp, emb, rec = W.conv_record(leg, zs, pool, i)
    if rec.status.kind != "step_limit":
        return {"skip": rec.status.kind}
    vals = [[W.fmt_val(v) for v in W.horizon_vals(mp, emb, rec, n)] for n in range(1, W.CONV_STEPS + 1)]
    return {"vals": vals}


def record() -> None:
    """Write both golden files from the package in this checkout."""
    census = {}
    for workload, legs in W.CENSUS.items():
        for leg in legs:
            census[f"{workload}/{leg.name}"] = {str(p): census_outcomes(leg, p) for p in leg.primes}
    conv = {leg.name: [conv_job(leg, i) for i in range(leg.pool)] for leg in W.CONVERGENTS}
    _dump("census", {"legs": census})
    _dump("convergents", {"legs": conv})


def _dump(name: str, data: dict) -> None:
    with open(GOLDEN / f"{name}.json", "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--record", action="store_true", required=True)
    ap.parse_args()
    import checkout

    checkout.use_src()
    record()
