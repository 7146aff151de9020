"""padiccf benchmark: one workload, repeated passes, correctness-gated metrics.

    python3 perfbench/run.py --workload census_phi3 --seed 1 --seconds 36 --trace 0

Each pass runs the workload's whole grid once, closed loop, one op at a
time, in a fresh interpreter (``onepass.py``), so no pass reuses work of
another.  The number of passes depends only on the workload and
``--seconds`` (``pass_count``), not on how fast the code runs, so a faster
commit gets no more passes to take its medians over than a slower one.  Only a
run that would last past ``SLACK`` times ``--seconds`` (code or host a
quarter slower than at the baseline) stops early; the passes it made are
in the result's stamp.  Every pass's
output is compared with the recorded outputs for this seed (``golden.py``);
a mismatch fails every op of the pass, and the run then exits 1.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (spawn to first
timed call, median over passes), ``ops_per_s``, ``op_p50_ms`` and
``op_tail_ms`` (the tail is the highest percentile with at least 10 ops
beyond it), ``peak_rss_mb`` (median over passes) and ``ok_ratio``
(1 - fail_ratio).  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of the traced ones (``tracing.py``), plus
``trace_overhead``, traced over untraced median pass time, unscaled.

Times are medians over the run's passes: each op's latency is its median
over the passes, ``op_p50_ms`` and ``op_tail_ms`` are percentiles of those
per-op medians, and ``ops_per_s`` divides the pass's ops by the median
pass time (z-sets, suites, embeddings and tables included).  On a shared
2-core host the same pass runs anywhere from 0.8x to 1.2x its usual time,
faster as well as slower, and a single op of a few milliseconds from 0.6x
to 1.8x; CPU time moves with wall time, so this is the core's speed, not
preemption.  Minima chase the rare fast passes: over overlapping groups of
eight consecutive passes of one seed of ``census_contrast``, the
interquartile spread (over the median) of a minimum-based ``op_p50_ms``
was 0.21 and that of the median-based one 0.03.

The host's speed also drifts over stretches of tens of seconds, longer
than a pass and often as long as a run: whole runs went 25% faster than
the ones before and after them, which no statistic within a run removes.
So every time is scaled to a reference host speed.  After each op the pass
times ``workloads.probe``, a fixed 0.6 ms computation of the same kind
(big-int and ``Fraction`` arithmetic) that uses nothing of padiccf; each
of a pass's times (set-up, ops, pass less the probes, per-layer seconds)
is multiplied by ``PROBE_REF_S`` over the pass's median probe time.  The
probe is the same on every commit, so the scale moves only with the host,
and a change to padiccf shows in full.  The record in ``.perfbench_out/``
keeps each pass's scale; on a host at the reference speed it is 1 and the
times are plain wall-clock times.

The last stdout line is the JSON result; a fuller record, stamped with the
Python version, ``padiccf.BACKEND``, core count, commit and seed, goes to
``.perfbench_out/`` in the checkout (compare two with ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout
import golden
import workloads

MIN_PASSES = 3
# Wall seconds of one untraced pass, spawn included, at the baseline commit
# on a shared 2-core host (Python 3.11, fractions backend) while other
# tenants slow it; fixes the pass count.
PASS_S = {"census_phi3": 3.9, "census_contrast": 5.2, "convergents": 5.4}
# Median ``workloads.probe`` time on that host: times are scaled to the host
# speed at which the probe takes this long.
PROBE_REF_S = 6.2e-4
SLACK = 1.25  # keeps the benchmark's many runs within their total time budget
RUN_LIMIT_S = 165  # no pass starts or runs past this, so a run ends within 180 s
PASS_TIMEOUT_S = 120
TAIL_BEYOND = 10
OUT = checkout.ROOT / ".perfbench_out"

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "ok_ratio")
# Per-layer metrics: call counts, self seconds and inclusive seconds by span name.
LAYER_CALLS = (
    "rationals.ordp", "rationals.head_tail", "rationals.omega", "rationals.vp_int",
    "field.FieldElement.__mul__", "field.FieldElement.inverse", "field.validate_minpoly",
    "polys.is_irreducible_exact", "hensel.Embedding.ord", "hensel.Embedding.omega",
    "preduce.p_reduce", "preduce.RationalMatrix.inverse", "cfrac.expand",
    "cfrac.step_phi0", "cfrac.step_phi1", "cfrac.step_phi2", "cfrac.step_phi3",
    "cfrac.h_map", "cfrac.g_map", "cfrac.convergent", "cfrac.inverse_step",
)
LAYER_SELF_S = (
    "field.FieldElement.__mul__", "field.FieldElement.inverse", "hensel.Embedding.ord",
    "hensel.Embedding.omega", "preduce.p_reduce", "preduce.RationalMatrix.matmul",
    "preduce.RationalMatrix.apply", "preduce.RationalMatrix.inverse", "cfrac.expand",
    "cfrac.step_phi0", "cfrac.step_phi1", "cfrac.step_phi2", "cfrac.step_phi3",
    "cfrac.h_map", "cfrac.g_map", "cfrac.lookahead_phi2", "cfrac.convergent", "cfrac.inverse_step",
)
LAYER_TOTAL_S = (
    "field.validate_minpoly", "polys.certificate_prime",
    "lab.build_z_set", "lab.build_test_set", "lab.emit_table",
)


class Pass:
    """One pass in a fresh interpreter, checked against the expected output.

    A pass that crashes, times out or prints other output fails all of
    its ops; otherwise an op fails when it raised or broke its bound.
    """

    def __init__(self, workload: str, seed: int, expected: dict, spans=None, timeout=PASS_TIMEOUT_S):
        cmd = [sys.executable, str(checkout.ROOT / "perfbench" / "onepass.py"),
               "--workload", workload, "--seed", str(seed)]
        if spans:
            cmd += ["--spans", str(spans)]
        self.expected_ops = expected["ops"]
        self.data, self.errors = None, []
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"pass timed out after {timeout:.0f} s")
        else:
            if proc.returncode == 0:
                self.data = json.loads(proc.stdout.splitlines()[-1])
            else:
                self.errors.append(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        self.wall_s = time.monotonic() - t_spawn
        if self.data is None:
            self.matches, self.failed, self.lat = False, self.expected_ops, []
            return
        probes = self.data["probes"]
        self.scale = PROBE_REF_S / statistics.median(probes) if probes else 1.0
        self.setup_s = self.scale * (self.data["t_start"] - t_spawn)
        self.wall_pass_s = self.data["pass_s"] - sum(probes)
        self.pass_s = self.scale * self.wall_pass_s
        self.lat = [None if x is None else self.scale * x for x in self.data["lat"]]
        self.errors += self.data["errors"]
        self.matches = self.data["output"] == expected["output"] and len(self.lat) == self.expected_ops
        if not self.matches:
            self.errors.append("output differs from the recorded output for this seed")
        self.failed = self.expected_ops if not self.matches else sum(1 for x in self.lat if x is None)


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes of a run: as many as fit in ``seconds`` at the baseline."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def tail_rank(n: int) -> int:
    """Index into n ascending values with ``TAIL_BEYOND`` values beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def rate(passes: list) -> float:
    """Ops per second of the median pass."""
    return len(passes[0].lat) / statistics.median(p.pass_s for p in passes)


def end_to_end(passes: list, attempted: int, failed: int) -> tuple:
    """Metrics over untraced passes; latencies from those whose output matched."""
    metrics = {"ok_ratio": ((attempted - failed) / attempted, "ratio")}
    notes = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted}
    started = [p.setup_s for p in passes if p.data]
    if started:
        metrics["setup_s"] = (statistics.median(started), "s")
    good = [p for p in passes if p.matches]
    if good:
        per_op = sorted(statistics.median(col) for col in zip(*(p.lat for p in good)) if None not in col)
        rank = tail_rank(len(per_op))
        metrics.update(
            ops_per_s=(rate(good), "1/s"),
            op_p50_ms=(1e3 * statistics.median(per_op), "ms"),
            op_tail_ms=(1e3 * per_op[rank], "ms"),
            peak_rss_mb=(statistics.median(p.data["rss_mb"] for p in good), "MB"),
        )
        notes.update(op_samples=len(per_op), op_tail_percentile=100.0 * (rank + 1) / len(per_op))
    return {k: metrics[k] for k in END_TO_END if k in metrics}, notes


def per_layer(traced: list, untraced: list) -> tuple:
    """Per-layer metrics (times are scaled medians over traced passes) and the
    span-count cross-checks against the passes' own counts."""
    good = [p for p in traced if p.matches]
    if not good:
        return {}, ["no traced pass matched the recorded output"]

    def med(field, name):
        return statistics.median(p.scale * p.data["trace"][field].get(name, 0) for p in good)

    def calls(name):
        return good[0].data["trace"]["calls"].get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}.calls": (calls(name), "count") for name in LAYER_CALLS}
    m.update({f"{name}.self_s": (med("self_s", name), "s") for name in LAYER_SELF_S})
    m.update({f"{name}.total_s": (med("total_s", name), "s") for name in LAYER_TOTAL_S})
    first = good[0].data
    m["hensel.ord_inverse_ratio"] = (ratio(first["trace"]["inverse_under_ord"], calls("hensel.Embedding.ord")), "ratio")
    m["cfrac.phi2_images_per_step"] = (ratio(first["trace"]["h_map_under_lookahead"], calls("cfrac.step_phi2")), "ratio")
    m["cfrac.replay_ratio"] = (ratio(calls("cfrac.inverse_step"), calls("cfrac.convergent")), "ratio")
    m["lab.zset_yield"] = (ratio(first["zset_generators"], calls("field.validate_minpoly")), "ratio")
    clean = [p for p in untraced if p.matches]
    if clean:
        # Unscaled: the tracer's spans change the heap the probe runs in.
        wall = [statistics.median(p.wall_pass_s for p in ps) for ps in (good, clean)]
        m["trace_overhead"] = (wall[0] / wall[1], "ratio")

    problems = []
    for p in good:
        counted = p.data["trace"]["calls"]
        checks = (
            ("cfrac.expand", p.data["expansions"], "expansions"),
            ("cfrac.convergent", p.data.get("horizons", 0), "horizons"),
            ("cfrac.inverse_step", p.data.get("sum_n", 0), "sum of n over horizons"),
        )
        for name, want, what in checks:
            if counted.get(name, 0) != want:
                problems.append(f"{name}.calls = {counted.get(name, 0)} but the pass counted {want} {what}")
        if counted != good[0].data["trace"]["calls"]:
            problems.append("call counts differ between traced passes of the same inputs")
    return m, problems


def fmt(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (checkout.SRC / "padiccf" / "__init__.py").is_file():
        print(f"perfbench: no src/padiccf under {checkout.ROOT}; run from a padiccf checkout", file=sys.stderr)
        return 2
    expected = golden.expected(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_dir = OUT / "spans"
    if args.trace:
        span_dir.mkdir(exist_ok=True)
        for old in span_dir.glob(f"{args.workload}.*"):
            old.unlink()

    # --trace 1 alternates untraced and traced passes, half as many of each.
    planned = pass_count(args.workload, args.seconds)
    if args.trace:
        planned = max(2, planned // 2)
    limit = min(RUN_LIMIT_S, SLACK * args.seconds)
    untraced, traced = [], []
    t0 = time.monotonic()
    while len(untraced) + len(traced) < planned * (2 if args.trace else 1):
        left = RUN_LIMIT_S - (time.monotonic() - t0)
        timeout = min(PASS_TIMEOUT_S, left)
        if args.trace and len(traced) < len(untraced):
            traced.append(Pass(args.workload, args.seed, expected,
                               span_dir / f"{args.workload}.pass{len(traced)}.jsonl", timeout))
        else:
            untraced.append(Pass(args.workload, args.seed, expected, timeout=timeout))
        done = untraced + traced
        if any(p.data is None for p in done):
            break
        end = time.monotonic() - t0 + max(p.wall_s for p in done[-2:])
        enough = len(traced) >= 2 if args.trace else len(untraced) >= MIN_PASSES
        if end > RUN_LIMIT_S or (enough and end > limit):
            break

    passes = untraced + traced
    metrics, notes = end_to_end(untraced, sum(p.expected_ops for p in passes), sum(p.failed for p in passes))
    backend = next((p.data["backend"] for p in passes if p.data), "unknown")
    problems = [e for p in passes for e in p.errors]
    if args.trace:
        layer, trace_problems = per_layer(traced, untraced)
        problems += trace_problems
        reported = layer
    else:
        reported = metrics
    failed = notes["failed"]
    correct = not problems and failed == 0

    record = {
        "stamp": checkout.stamp(backend, args.seed) | {"passes": len(untraced), "passes_planned": planned},
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "notes": notes,
        "digest": golden.digest(expected["output"]),
        "end_to_end": fmt(metrics),
        "per_layer": fmt(layer) if args.trace else None,
        "problems": problems[:50],
        "passes": [
            {"setup_s": getattr(p, "setup_s", None), "pass_s": getattr(p, "pass_s", None),
             "scale": getattr(p, "scale", None), "wall_s": p.wall_s, "traced": p in traced,
             "matches": p.matches}
            for p in passes
        ],
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    st = record["stamp"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} python={st['python']} "
          f"backend={st['backend']} cores={st['cores']} commit={st['commit'][:12]}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced, {planned} planned each; ops per pass {expected['ops']}; "
          f"output digest {record['digest'][:16]} {'matches' if all(p.matches for p in passes) else 'MISMATCH'}")
    scales = [p.scale for p in passes if p.data]
    if scales:
        print(f"# times scaled to the reference host speed; median scale {statistics.median(scales):.4f} "
              f"(range {min(scales):.4f} to {max(scales):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:14s} {value:14.6g} {unit}")
    print(f"fail_ratio     {notes['fail_ratio']:14.6g} ratio  ({failed} failed of {notes['attempted']} attempted)")
    if "op_samples" in notes:
        print(f"# latencies: each op's median of {len(untraced)} passes, {notes['op_samples']} ops; "
              f"tail at p{notes['op_tail_percentile']:.2f} ({TAIL_BEYOND} ops beyond)")
    if args.trace:
        for name, (value, unit) in layer.items():
            print(f"{name:40s} {value:14.6g} {unit}")
    for problem in problems[:20]:
        print(f"! {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": notes["attempted"],
        "failed": failed,
        "metrics": fmt(reported),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
