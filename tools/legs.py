"""Paired CPU time of one census leg between two checkouts.

    python tools/legs.py PARENT CHANGE --workload census_phi3 --leg phi3.d4 --seed 11 --rounds 10 [--out FILE]

Each round runs the leg once in each checkout, each run in a fresh
interpreter, and the side that runs first alternates from round to round
(the parent first in even rounds).  A run builds the leg as
``perfbench/workloads.py`` builds it in its census pass: the seed's window
of suite elements and, per prime, the z-set and the seed's window of its
generators, each generator on its own embedding.  Every z-set is built
before the clock starts, and ``time.process_time`` is summed over the
leg's ``expand`` calls alone.  The run then emits the leg's table, and
its sha256 goes with the time.

It prints each round's two times, then each side's median and quartiles,
the median of the paired ratios change / parent and the rounds the
change won (ties count for neither side).  With ``--out`` it writes the
rounds and that summary as JSON.  Exits 1 when a run fails, the leg is
not in the workload, or the two sides emit different tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# the code of one run, in the checkout given as argv[1]
RUN = """
import hashlib, json, sys, time
root, workload, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
from padiccf import lab
from padiccf.hensel import Embedding
legs = [leg for leg in workloads.CENSUS.get(workload, ()) if leg.name == name]
if not legs:
    sys.exit(f"no census leg {name!r} in workload {workload!r}")
leg = legs[0]
pool = lab._suite_coefficients(leg.degree, leg.suite_pool)
elems = [pool[i] for i in workloads.window(seed, f"{workload}/{leg.name}/suite", leg.suite_pool, workloads.SUITE_SIZE)]
zsets = {p: lab.build_z_set(p, leg.degree) for p in sorted(leg.primes)}
label = lab.algo_label(leg.algo, leg.eps, leg.lookahead)
rows, cpu = [], 0.0
for p, zs in zsets.items():
    row = lab.TableRow(p, {label: {c: 0 for c in lab.COLUMNS}})
    for gi in workloads.window(seed, f"{workload}/{leg.name}/{p}", min(len(zs), leg.z_pool), leg.z_limit):
        mp = zs[gi]
        emb = Embedding(mp)
        for cs in elems:
            vec = mp.vector([mp.element(c) for c in cs])
            t0 = time.process_time()
            rec = workloads.expand_census(leg, vec, emb)
            cpu += time.process_time() - t0
            row.counts[label][workloads.KIND_COL[rec.status.kind]] += 1
    rows.append(row)
table = lab.emit_table(rows)
print(json.dumps({"cpu_s": cpu, "table": hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()}))
"""


def sides(k: int) -> tuple:
    """The order the two sides run in round k: the parent first in even
    rounds, the change first in odd ones."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def run_leg(checkout: Path, workload: str, leg: str, seed: int) -> dict:
    """One run of the leg in ``checkout``: {"cpu_s", "table"}, the table
    as its sha256."""
    proc = subprocess.run([sys.executable, "-c", RUN, str(checkout.resolve()), workload, leg, str(seed)],
                          capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"run in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs) -> tuple:
    """(lower quartile, median, upper quartile)."""
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rounds) -> dict:
    """Over rounds of {"parent": cpu_s, "change": cpu_s}: each side's
    quartiles, the median paired ratio change / parent and the rounds the
    change won and lost."""
    old, new = [r["parent"] for r in rounds], [r["change"] for r in rounds]
    return {
        "parent": quartiles(old),
        "change": quartiles(new),
        "ratio": statistics.median(b / a for a, b in zip(old, new)),
        "won": sum(b < a for a, b in zip(old, new)),
        "lost": sum(b > a for a, b in zip(old, new)),
    }


def at_least_one(text: str) -> int:
    """An argparse type: an int >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--leg", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=at_least_one, default=10)
    ap.add_argument("--out", type=Path, help="write the rounds and the summary to this JSON file")
    args = ap.parse_args(argv)
    paths = {"parent": args.parent, "change": args.change}
    rounds, differ = [], False
    print("round first    parent_s   change_s")
    for k in range(args.rounds):
        got = {}
        for name in sides(k):
            try:
                got[name] = run_leg(paths[name], args.workload, args.leg, args.seed)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
        if got["parent"]["table"] != got["change"]["table"]:
            print(f"round {k}: the tables differ", file=sys.stderr)
            differ = True
        rounds.append({"first": sides(k)[0], **{name: got[name]["cpu_s"] for name in paths}})
        print(f"{k:5d} {sides(k)[0]:6} {got['parent']['cpu_s']:10.4f} {got['change']['cpu_s']:10.4f}", flush=True)
    summary = summarize(rounds)
    fmt = lambda q: "/".join(f"{x:.4f}" for x in q)  # noqa: E731
    print(f"cpu_s: parent {fmt(summary['parent'])}  change {fmt(summary['change'])}  (q1/median/q3)  "
          f"ratio {summary['ratio']:.4f}  won {summary['won']}/{len(rounds)}, lost {summary['lost']}")
    if args.out:
        doc = {"workload": args.workload, "leg": args.leg, "seed": args.seed, "rounds": rounds,
               "tables_match": not differ, "summary": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
