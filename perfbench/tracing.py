"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced callable at every name a caller
resolves: module globals bound to the same function object in any
``padiccf`` module (``from .field import validate_minpoly`` makes
``padiccf.lab.validate_minpoly`` one such name) and class attributes
(``FieldElement.__mul__`` and its alias ``__rmul__``).  ``restore`` puts the
originals back.

A span wrapper records (name, start, end, parent span, op id) in memory;
the spans are written out when the pass ends.  The ``rationals`` digit
functions, the most frequently called and each about a microsecond of
work, get a call counter and no span, because a span would cost as much
as the call.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, attribute path, kind); the metric name is "<layer>.<path>" and
# each layer is the padiccf module of the same name.
TARGETS = (
    ("rationals", "ordp", "count"),
    ("rationals", "head_tail", "count"),
    ("rationals", "omega", "count"),
    ("rationals", "vp_int", "count"),
    ("field", "FieldElement.__mul__", "span"),
    ("field", "FieldElement.inverse", "span"),
    ("field", "validate_minpoly", "span"),
    ("polys", "certificate_prime", "span"),
    ("polys", "is_irreducible_exact", "span"),
    ("hensel", "Embedding.ord", "span"),
    ("hensel", "Embedding.omega", "span"),
    ("preduce", "p_reduce", "span"),
    ("preduce", "RationalMatrix.matmul", "span"),
    ("preduce", "RationalMatrix.apply", "span"),
    ("preduce", "RationalMatrix.inverse", "span"),
    ("cfrac", "expand", "span"),
    ("cfrac", "step_phi0", "span"),
    ("cfrac", "step_phi1", "span"),
    ("cfrac", "step_phi2", "span"),
    ("cfrac", "step_phi3", "span"),
    ("cfrac", "g_map", "span"),
    ("cfrac", "h_map", "span"),
    ("cfrac", "lookahead_phi2", "span"),
    ("cfrac", "convergent", "span"),
    ("cfrac", "inverse_step", "span"),
    ("lab", "build_z_set", "span"),
    ("lab", "build_test_set", "span"),
    ("lab", "emit_table", "span"),
)


class Tracer:
    def __init__(self):
        self.op = -1  # id of the op being timed; -1 outside ops
        self.spans: list = []  # (name, start, end, parent span id, op id); span id = index + 1
        self.counts: dict = {}
        self._stack = [0]  # span ids; 0 is the root
        self._saved: list = []  # (owner, attribute, original)

    # --- wrappers ---------------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + 1
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid - 1] = (name, t0, t1, parent, tracer.op)

        return traced

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installation -----------------------------------------------------------
    def install(self, package) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer, path, kind in TARGETS:
            name = f"{layer}.{path}"
            owner = sys.modules[f"{package.__name__}.{layer}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapper = (self._span if kind == "span" else self._count)(name, original)
            if cls_path:  # class attribute and its aliases (``__rmul__ = __mul__``)
                places = [(owner, a) for a, v in vars(owner).items() if v is original]
            else:  # every module global a caller resolves
                places = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            for place, a in places:
                self._saved.append((place, a, original))
                setattr(place, a, wrapper)

    def restore(self) -> None:
        while self._saved:
            place, a, original = self._saved.pop()
            setattr(place, a, original)

    # --- results ----------------------------------------------------------------
    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name; counts; the
        parent-aware counts behind the per-layer ratios."""
        spans = self.spans
        child = [0.0] * (len(spans) + 1)
        for name, t0, t1, parent, _ in spans:
            child[parent] += t1 - t0
        calls, total, self_s = {}, {}, {}
        for sid, (name, t0, t1, parent, _) in enumerate(spans, start=1):
            d = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - child[sid]

        def parent_name(sid):
            return spans[sid - 1][0] if sid else None

        def under(sid, ancestor):
            while sid:
                if spans[sid - 1][0] == ancestor:
                    return True
                sid = spans[sid - 1][3]
            return False

        inverse_under_ord = sum(
            1 for name, _, _, parent, _ in spans
            if name == "field.FieldElement.inverse" and parent_name(parent) == "hensel.Embedding.ord"
        )
        h_under_lookahead = sum(
            1 for name, _, _, parent, _ in spans
            if name == "cfrac.h_map" and under(parent, "cfrac.lookahead_phi2")
        )
        return {
            "calls": {**calls, **self.counts},
            "total_s": total,
            "self_s": self_s,
            "spans": len(spans),
            "inverse_under_ord": inverse_under_ord,
            "h_map_under_lookahead": h_under_lookahead,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans, start=1):
                fh.write(json.dumps([sid, name, t0, t1, parent, op]) + "\n")
