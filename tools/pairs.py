"""Alternating pairs of benchmark passes between two checkouts.

    python tools/pairs.py PARENT CHANGE --workload census_phi3 --seed 11 --pairs 10

Each pair runs ``perfbench/onepass.py`` once in each checkout, in a fresh
interpreter, and the side that runs first alternates from pair to pair.
Every pass compiles from source, the standard library included: it reads
bytecode only under a fresh empty ``PYTHONPYCACHEPREFIX`` and writes none,
so a checkout holding ``__pycache__`` and one without are measured alike.
Cached bytecode lowers peak RSS well past the benchmark's 5% bound: a
seed-11 ``census_contrast`` pass peaked at 17.3 MB reading it and 21.4 MB
compiling (Python 3.11, 2-core host).
Only the JSON line a pass prints is read.  For every pass it prints the
pass time less the probes and the median op latency, both scaled by the
pass's median probe time to the benchmark's reference host speed (as
``perfbench/run.py`` scales them), and the peak RSS.  It then prints, per
metric, each side's median and quartiles and the pairs the change won
(lower is better; ties count for neither side).  A gain holds when the
change wins at least nine tenths of the pairs and its median beats the
parent's by more than the distance between the parent's quartiles.

Exits 1 when a pass fails, reports op errors, or the two sides print
different outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# ``perfbench/run.py``'s reference probe time, copied rather than imported:
# importing run.py loads the recorded outputs, and a pass's peak RSS counts
# this process's peak at spawn time, so this process has to stay small.
PROBE_REF_S = 6.2e-4
METRICS = ("pass_s", "op_p50_ms", "rss_mb")


def run_pass(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced pass in ``checkout``, compiled from source: the JSON
    its onepass.py prints."""
    with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "perfbench/onepass.py", "--workload", workload, "--seed", str(seed)],
            cwd=checkout, env=env, capture_output=True, text=True, check=False,
        )
    if proc.returncode:
        raise RuntimeError(f"pass in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pass_metrics(data: dict) -> dict:
    """Probe-scaled pass time less the probes (s), probe-scaled median op
    latency (ms) and peak RSS (MB) of one pass."""
    probes = data["probes"]
    scale = PROBE_REF_S / statistics.median(probes) if probes else 1.0
    lat = [x for x in data["lat"] if x is not None]
    return {
        "pass_s": scale * (data["pass_s"] - sum(probes)),
        "op_p50_ms": 1e3 * scale * statistics.median(lat),
        "rss_mb": data["rss_mb"],
    }


def quartiles(xs) -> tuple:
    """(lower quartile, median, upper quartile)."""
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs) -> dict:
    """Per metric, over pairs of (parent, change) :func:`pass_metrics`
    dicts: each side's quartiles, the pairs the change won and lost, and
    whether that makes a gain."""
    out = {}
    for name in METRICS:
        old, new = ([m[name] for m in side] for side in zip(*pairs))
        q_old, q_new = quartiles(old), quartiles(new)
        won = sum(b < a for a, b in zip(old, new))
        lost = sum(b > a for a, b in zip(old, new))
        out[name] = {
            "parent": q_old,
            "change": q_new,
            "won": won,
            "lost": lost,
            "gain": won >= 0.9 * len(old) and q_old[1] - q_new[1] > q_old[2] - q_old[0],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    pairs, bad = [], False
    print("pair first   " + "  ".join(f"{m:>11} {m:>11}" for m in METRICS))
    for k in range(args.pairs):
        order = [args.parent, args.change] if k % 2 == 0 else [args.change, args.parent]
        got = {path: run_pass(path, args.workload, args.seed) for path in order}
        pair = (got[args.parent], got[args.change])
        for d in pair:
            if d["errors"]:
                print(f"errors: {d['errors'][:3]}", file=sys.stderr)
                bad = True
        if pair[0]["output"] != pair[1]["output"]:
            print(f"pair {k}: the outputs differ", file=sys.stderr)
            bad = True
        old, new = (pass_metrics(d) for d in pair)
        pairs.append((old, new))  # only the metrics, to keep this process small
        first = "parent" if k % 2 == 0 else "change"
        print(f"{k:4d} {first:6} " + "  ".join(f"{old[m]:11.4f} {new[m]:11.4f}" for m in METRICS), flush=True)
    for name, row in summarize(pairs).items():
        fmt = lambda q: "/".join(f"{x:.4f}" for x in q)  # noqa: E731
        print(f"{name}: parent {fmt(row['parent'])}  change {fmt(row['change'])}  (q1/median/q3)  "
              f"won {row['won']}/{len(pairs)}, lost {row['lost']}  gain {'yes' if row['gain'] else 'no'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
