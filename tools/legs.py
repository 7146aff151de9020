"""Paired CPU time of one census leg between two checkouts.

    python tools/legs.py PARENT CHANGE --workload census_phi3 --leg phi3.d4 --seed 11 --rounds 10 [--out FILE]

Each round runs the leg once in each checkout, each run in a fresh
interpreter, and the side that runs first alternates from round to round
(the parent first in even rounds).  A run is the benchmark's own census
pass, ``perfbench/workloads.py``'s ``census_pass``, over the one leg: the
run sets ``CENSUS`` to that leg alone, stubs ``probe`` and wraps
``expand_census`` so that ``time.process_time`` is summed over the leg's
expansions alone, leaving out the z-sets, the embeddings and the vectors
the pass builds around them.  The run then emits the leg's table, the
pass's output, and its sha256 goes with the time.  A change to how the
benchmark builds a leg is timed here as well, and a run whose checkout
has no ``census_pass``, ``CENSUS``, ``probe`` or ``expand_census`` fails.

It prints each round's two times, then each side's median and quartiles,
the median of the paired ratios change / parent and the rounds the
change won (ties count for neither side).  With ``--out`` it writes the
rounds and that summary as JSON.  Exits 1 when a run fails or records an
op error, the leg is not in the workload, or the two sides emit
different tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from pairs import at_least_one, quartiles, sides

# the code of one run, in the checkout given as argv[1]
RUN = """
import hashlib, json, sys, time, types
root, workload, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
census, expand, _ = workloads.CENSUS, workloads.expand_census, workloads.probe  # a renamed hook fails here
legs = tuple(leg for leg in census.get(workload, ()) if leg.name == name)
if not legs:
    sys.exit(f"no census leg {name!r} in workload {workload!r}")
cpu = 0.0
def timed(*args):
    global cpu
    t0 = time.process_time()
    rec = expand(*args)
    cpu += time.process_time() - t0
    return rec
workloads.CENSUS, workloads.expand_census, workloads.probe = {workload: legs}, timed, lambda: 0.0
out = workloads.census_pass(workload, seed, types.SimpleNamespace(op=-1))
if out["errors"]:
    sys.exit("op errors: " + "; ".join(out["errors"]))
print(json.dumps({"cpu_s": cpu, "table": hashlib.sha256(json.dumps(out["output"][0], sort_keys=True).encode()).hexdigest()}))
"""


def run_leg(checkout: Path, workload: str, leg: str, seed: int) -> dict:
    """One run of the leg in ``checkout``: {"cpu_s", "table"}, the table
    as its sha256."""
    proc = subprocess.run([sys.executable, "-c", RUN, str(checkout.resolve()), workload, leg, str(seed)],
                          capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"run in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


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
