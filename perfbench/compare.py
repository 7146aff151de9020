"""Summarize benchmark results, or compare two sets of them.

    python3 perfbench/compare.py summarize .perfbench_out/census_phi3-seed*-trace0.json
    python3 perfbench/compare.py compare perfbench/baseline.json .perfbench_out/*-trace0.json

``summarize`` prints, per workload, the median and quartiles of every
metric over the given result files (``run.py`` writes one per run), with
the stamp they share.  ``compare`` takes a summary (such as
``baseline.json``) and new result files, and reports each metric's median
change against the bound in ``BENCHMARK.json``.  Results whose
``padiccf.BACKEND`` differs are never summarized or compared together.
"""

from __future__ import annotations

import json
import statistics
import sys

import checkout


def load(paths) -> list:
    out = []
    for path in paths:
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def summarize(results: list) -> dict:
    """Median and quartiles of every metric over correct runs, per workload:
    end-to-end metrics from untraced runs, per-layer ones from traced runs."""
    backends = {r["stamp"]["backend"] for r in results}
    if len(backends) != 1:
        raise SystemExit(f"refusing to combine results from backends {sorted(backends)}")
    stamp = dict(results[0]["stamp"])
    for key in ("seed", "passes", "passes_planned"):
        stamp[key] = sorted({r["stamp"][key] for r in results})
    out = {"stamp": stamp, "end_to_end": {}, "per_layer": {}}
    for r in results:
        if not r["correct"]:
            continue
        kind = "per_layer" if r["trace"] else "end_to_end"
        for name, m in r[kind].items():
            slot = out[kind].setdefault(r["workload"], {}).setdefault(name, {"unit": m["unit"], "values": []})
            slot["values"].append(m["value"])
    for kind in ("end_to_end", "per_layer"):
        for metrics in out[kind].values():
            for m in metrics.values():
                vals = m.pop("values")
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                m.update(runs=len(vals), median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def compare(base: dict, new: dict) -> int:
    if base["stamp"]["backend"] != new["stamp"]["backend"]:
        raise SystemExit(
            f"refusing to compare backend {base['stamp']['backend']!r} with {new['stamp']['backend']!r}"
        )
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    for workload, metrics in new["end_to_end"].items():
        for name, m in metrics.items():
            b = base["end_to_end"].get(workload, {}).get(name)
            if b is None or name not in spec:
                continue
            change = (m["median"] - b["median"]) / b["median"]
            regress = -change if spec[name]["better"] == "higher" else change
            flag = "WORSE" if regress > spec[name]["bound"] else "ok"
            worse += flag == "WORSE"
            print(f"{workload:16s} {name:12s} {b['median']:12.6g} -> {m['median']:12.6g} {m['unit']:6s} "
                  f"{100 * change:+7.2f}%  (bound {100 * spec[name]['bound']:.0f}%, spread {100 * m['spread']:.1f}%) {flag}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "summarize":
        print(json.dumps(summarize(load(argv[1:])), indent=1, sort_keys=True))
        return 0
    if len(argv) >= 3 and argv[0] == "compare":
        base = load(argv[1:2])[0]
        return compare(base, summarize(load(argv[2:])))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
