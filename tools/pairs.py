"""Alternating pairs of benchmark passes between two checkouts.

    python tools/pairs.py PARENT CHANGE --workload census_phi3 --seed 11 --pairs 10 [--out BENCH_tag.json]

Each pair runs ``perfbench/onepass.py`` once in each checkout, in a fresh
interpreter, and the side that runs first alternates from pair to pair.
Every pass compiles from source, the standard library included: it reads
bytecode only under a fresh empty ``PYTHONPYCACHEPREFIX`` and writes none,
so a checkout holding ``__pycache__`` and one without are measured alike.
Cached bytecode lowers peak RSS well past the benchmark's 5% bound: a
seed-11 ``census_contrast`` pass peaked at 17.3 MB reading it and 21.4 MB
compiling (Python 3.11, 2-core host).
Only the JSON line a pass prints is read.  For every pass it prints the
pass time less the probes, the median op latency and the tail op latency
(at ``perfbench/run.py``'s tail rank: the value with ten beyond it), all
scaled by the pass's median probe time to the benchmark's reference host
speed (as ``perfbench/run.py`` scales them), and the peak RSS.  It then
prints, per metric, each side's median and quartiles and the pairs the
change won (lower is better; ties count for neither side).  A gain holds
when the change wins at least nine tenths of the pairs and its median
beats the parent's by more than the distance between the parent's
quartiles; a regression is the mirror image, the change losing at least
nine tenths of the pairs with its median worse than the parent's by more
than that distance.  Last it prints each side's pooled tail: each op's
median latency over that side's passes, read at the same tail rank, the
statistic ``perfbench/run.py`` reports as ``op_tail_ms``.  One pass's
tail is its eleventh-slowest op, so a few slow ops in one pass move it;
the pooled tail reads every pass.  Then it prints each side's
``ops_per_s``, the ops of one pass over the side's median ``pass_s``, as
``perfbench/run.py`` rates a run.

With ``--out`` it also writes that evidence as JSON: for each pair, the
side that ran first and both sides' metrics with the sha256 of the pass's
output (as ``perfbench/golden.py`` digests it), and the summary above,
with the pooled tails under ``summary.op_tail_ms.pooled`` and each side's
rate under ``ops_per_s``.
Equal digests on both sides of every pair show the change left the
outputs as they were.  After the pairs it runs three traced passes per
side (``perfbench/onepass.py --spans``, spans to a temporary file), the
side that runs first alternating as in the pairs, and writes both sides'
per-layer self times (probe-scaled, the median of the three passes) and
call counts, so the file shows which layer moved: a single traced
pass's self times move with host noise.  A pass's full
output is dropped as soon as its metrics and digest are read, and its
latencies are kept as one array of scaled floats, so this process stays
small: a pass's peak RSS counts this process's peak at spawn time.

Exits 1 when a pass fails, reports op errors, the two sides print
different outputs, or one side's traced passes count different calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

# ``perfbench/run.py``'s reference probe time and tail rank, copied rather
# than imported: importing run.py loads the recorded outputs, and a pass's
# peak RSS counts this process's peak at spawn time, so this process has to
# stay small.
PROBE_REF_S = 6.2e-4
TAIL_BEYOND = 10
METRICS = ("pass_s", "op_p50_ms", "op_tail_ms", "rss_mb")
TRACED = 3  # traced passes per side behind the per-layer evidence


def sides(k: int) -> tuple:
    """The order the two sides run in round k: the parent first in even
    rounds, the change first in odd ones."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def run_pass(checkout: Path, workload: str, seed: int, traced: bool = False) -> dict:
    """One pass in ``checkout``, compiled from source: the JSON its
    onepass.py prints.  A traced pass writes its spans to a temporary file
    that goes with the pass."""
    with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as cache, \
            tempfile.TemporaryDirectory(prefix="pairs-spans-") as spans:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "perfbench/onepass.py", "--workload", workload, "--seed", str(seed)]
        if traced:
            cmd += ["--spans", os.path.join(spans, "spans.jsonl")]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"pass in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe_scale(data: dict) -> float:
    """The factor that scales one pass's times to the reference host speed."""
    probes = data["probes"]
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


def tail(ascending) -> float:
    """The value with ``TAIL_BEYOND`` values beyond it, or the least one."""
    return ascending[max(0, len(ascending) - TAIL_BEYOND - 1)]


def op_ms(data: dict) -> array:
    """One pass's probe-scaled op latencies (ms) in op order, NaN for a
    failed op."""
    scale = 1e3 * probe_scale(data)
    return array("d", (math.nan if x is None else scale * x for x in data["lat"]))


def pass_metrics(data: dict) -> dict:
    """Probe-scaled pass time less the probes (s), probe-scaled median and
    :func:`tail` op latency (ms) and peak RSS (MB) of one pass."""
    lat = sorted(x for x in op_ms(data) if not math.isnan(x))
    return {
        "pass_s": probe_scale(data) * (data["pass_s"] - sum(data["probes"])),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail(lat),
        "rss_mb": data["rss_mb"],
    }


def pooled_tail(passes) -> float:
    """The tail over one side's passes, each an :func:`op_ms` array, as
    ``perfbench/run.py`` reads it: each op's median over the passes (an op
    that failed in any pass left out), then the :func:`tail` of those."""
    return tail(sorted(statistics.median(col) for col in zip(*passes) if not any(map(math.isnan, col))))


def ops_per_s(ops: int, pass_s) -> float:
    """One pass's op count over the median of one side's :func:`pass_metrics`
    ``pass_s``: ``perfbench/run.py``'s ``ops_per_s``."""
    return ops / statistics.median(pass_s)


def digest(output) -> str:
    """sha256 of a pass's output, as ``perfbench/golden.py`` computes it."""
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def kept(data: dict) -> dict:
    """What is kept of one pass: its :func:`pass_metrics`, its op error
    count and the digest of its output."""
    return {**pass_metrics(data), "errors": len(data["errors"]), "digest": digest(data["output"])}


def layers(data: dict) -> dict:
    """Per-layer self seconds, probe-scaled as ``perfbench/run.py`` scales
    a traced pass's, and call counts of one traced pass."""
    scale = probe_scale(data)
    return {"self_s": {name: scale * s for name, s in data["trace"]["self_s"].items()},
            "calls": data["trace"]["calls"]}


def traced_layers(paths: dict, workload: str, seed: int) -> tuple:
    """Each side's per-layer evidence from ``TRACED`` traced passes, in
    :func:`sides` order: per layer, the median of the passes' probe-scaled
    self times, and the call counts.  Returns that and the sides whose
    passes counted different calls."""
    runs = {name: [] for name in paths}
    for k in range(TRACED):
        for name in sides(k):
            runs[name].append(layers(run_pass(paths[name], workload, seed, traced=True)))
    trace = {name: {"self_s": {layer: statistics.median(one["self_s"].get(layer, 0.0) for one in passes)
                               for layer in passes[0]["self_s"]},
                    "calls": passes[0]["calls"]}
             for name, passes in runs.items()}
    return trace, [name for name, passes in runs.items() if any(one["calls"] != passes[0]["calls"] for one in passes)]


def quartiles(xs) -> tuple:
    """(lower quartile, median, upper quartile)."""
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs) -> dict:
    """Per metric, over pairs of (parent, change) :func:`pass_metrics`
    dicts: each side's quartiles, the pairs the change won and lost, and
    whether that makes a gain or a regression."""
    out = {}
    for name in METRICS:
        old, new = ([m[name] for m in side] for side in zip(*pairs))
        q_old, q_new = quartiles(old), quartiles(new)
        won = sum(b < a for a, b in zip(old, new))
        lost = sum(b > a for a, b in zip(old, new))
        spread = q_old[2] - q_old[0]
        out[name] = {
            "parent": q_old,
            "change": q_new,
            "won": won,
            "lost": lost,
            "gain": won >= 0.9 * len(old) and q_old[1] - q_new[1] > spread,
            "regression": lost >= 0.9 * len(old) and q_new[1] - q_old[1] > spread,
        }
    return out


def evidence(workload: str, seed: int, rows, pooled, rates, trace) -> dict:
    """The ``--out`` document over rows of (side run first, parent
    :func:`kept`, change :func:`kept`), each side's :func:`pooled_tail`
    and :func:`ops_per_s` and, per side, its :func:`traced_layers`."""
    summary = summarize([(old, new) for _, old, new in rows])
    summary["op_tail_ms"]["pooled"] = pooled
    return {
        "workload": workload,
        "seed": seed,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "pairs": [{"first": first, "parent": old, "change": new} for first, old, new in rows],
        "outputs_match": all(old["digest"] == new["digest"] for _, old, new in rows),
        "summary": summary,
        "ops_per_s": rates,
        "trace": trace,
    }


def at_least_one(text: str) -> int:
    """An argparse type: an int >= 1, so a run always has a pair to sum up."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=at_least_one, default=10)
    ap.add_argument("--out", type=Path, help="write the pairs, digests and summary to this JSON file")
    args = ap.parse_args(argv)
    paths = {"parent": args.parent, "change": args.change}
    rows, bad = [], False
    lats = {name: [] for name in paths}
    times = {name: [] for name in paths}
    print("pair first   " + "  ".join(f"{m:>11} {m:>11}" for m in METRICS))
    for k in range(args.pairs):
        order = sides(k)
        got = {}
        for name in order:
            data = run_pass(paths[name], args.workload, args.seed)
            for err in data["errors"][:3]:
                print(f"{name}: {err}", file=sys.stderr)
            got[name] = kept(data)
            lats[name].append(op_ms(data))
            times[name].append(got[name]["pass_s"])
            del data  # not held while the next pass spawns
        old, new = got["parent"], got["change"]
        first = order[0]
        bad |= bool(old["errors"] or new["errors"])
        if old["digest"] != new["digest"]:
            print(f"pair {k}: the outputs differ", file=sys.stderr)
            bad = True
        rows.append((first, old, new))
        print(f"{k:4d} {first:6} " + "  ".join(f"{old[m]:11.4f} {new[m]:11.4f}" for m in METRICS), flush=True)
    trace, unsteady = traced_layers(paths, args.workload, args.seed) if args.out else (None, [])
    for name in unsteady:
        print(f"{name}: the {TRACED} traced passes counted different calls", file=sys.stderr)
    bad |= bool(unsteady)
    pooled = {name: pooled_tail(lats[name]) for name in paths}
    rates = {name: ops_per_s(len(lats[name][0]), times[name]) for name in paths}
    doc = evidence(args.workload, args.seed, rows, pooled, rates, trace)
    for name, row in doc["summary"].items():
        fmt = lambda q: "/".join(f"{x:.4f}" for x in q)  # noqa: E731
        print(f"{name}: parent {fmt(row['parent'])}  change {fmt(row['change'])}  (q1/median/q3)  "
              f"won {row['won']}/{len(rows)}, lost {row['lost']}  gain {'yes' if row['gain'] else 'no'}  "
              f"regression {'yes' if row['regression'] else 'no'}")
    print(f"op_tail_ms pooled over each side's passes: parent {pooled['parent']:.4f}  change {pooled['change']:.4f}")
    print(f"ops_per_s over each side's median pass_s: parent {rates['parent']:.1f}  change {rates['change']:.1f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
