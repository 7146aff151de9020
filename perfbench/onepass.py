"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/onepass.py --workload NAME --seed N [--spans FILE]

With ``--spans`` the pass runs traced: per-layer wrappers are installed
before the pass and restored after it, the spans go to FILE, and the
summary rides along in the JSON.  ``t_start`` (``time.monotonic``, shared
by every process on the host) marks the end of set-up, so the parent can
time set-up from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from types import SimpleNamespace

import checkout
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    padiccf = checkout.use_src()
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(padiccf)
    ctx = tracer or SimpleNamespace(op=-1)
    t_start = time.monotonic()
    p0 = time.perf_counter()
    try:
        result = workloads.run_pass(args.workload, args.seed, ctx)
    finally:
        pass_s = time.perf_counter() - p0
        if tracer:
            tracer.restore()
    result.update(
        backend=padiccf.BACKEND,
        t_start=t_start,
        pass_s=pass_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
