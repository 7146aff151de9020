"""Command-line interface.

Subcommands: ``expand`` one vector, ``zset`` enumeration, ``suite``
construction, ``table`` batch runs from a JSON config, and ``selftest``
golden checks.  Exit codes: 0 success, 2 validation error, 3 per-task
failures present.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lab
from .cfrac import ALGORITHMS, HEIGHT_EXPONENT, MAX_STEPS, at_least, expand
from .errors import PadiccfError
from .field import MinPoly, VectorElement, validate_minpoly
from .preduce import RationalMatrix, p_reduce
from .rationals import Q, qformat, qparse


def _parse_minpoly(p: int, text: str) -> MinPoly:
    return validate_minpoly(p, [qparse(tok) for tok in text.split(",")])


def _cmd_expand(args) -> int:
    at_least(args.show, 0, "--show")
    mp = _parse_minpoly(args.p, args.minpoly)
    elem = json.loads(args.elem)  # one element, or a list of them in the record format
    vec = VectorElement.from_json(mp, [elem] if isinstance(elem, dict) else elem)
    rec = expand(
        vec,
        args.algo,
        eps=args.eps,
        lookahead=args.lookahead,
        max_steps=args.max_steps,
        height_exponent=args.height_exp,
    )
    if args.json:
        json.dump(rec.to_json(), sys.stdout, indent=2)
        print()
    else:
        st = rec.status
        extra = f" preperiod={st.preperiod} period={st.period}" if st.kind == "periodic" else ""
        print(f"status: {st.kind} at step {st.index}{extra}")
        print(f"steps recorded: {len(rec.steps)} (identity: {rec.identity_steps})")
        for i, r in enumerate(rec.remainders[: args.show]):
            print(f"  remainder {i}: {r}")
    return 0


def _cmd_zset(args) -> int:
    zs = lab.build_z_set(args.p, args.degree)
    if args.json:
        json.dump([mp.to_json() for mp in zs], sys.stdout, indent=2)
        print()
    else:
        for mp in zs:
            print(",".join(qformat(c) for c in mp.coeffs))
        print(f"# count: {len(zs)}", file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    mp = _parse_minpoly(args.p, args.minpoly)
    suite = lab.build_test_set(mp, args.s, args.size)
    out = {
        "minpoly": mp.to_json(),
        "s": suite.s,
        "consumed_indices": suite.consumed_indices,
        "rejected": list(suite.rejected),
        "elements": [vec.to_json() for vec in suite.elements],
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _cmd_table(args) -> int:
    with open(args.config) as fh:
        config = lab.RunConfig.from_json(json.load(fh))
    rows, errors = lab.run_batch(config)
    text = lab.emit_table(rows, fmt=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 3 if errors else 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    m = RationalMatrix([[10, Q(3, 2)], [-5, 7]])
    mred, n = p_reduce(m, 2)
    check(
        "p-reduce worked example",
        mred == RationalMatrix([[1, 0], [0, Q(1, 2)]])
        and n == RationalMatrix([[Q(14, 155), Q(-3, 155)], [Q(1, 31), Q(2, 31)]]),
    )

    bits = lab.irrational_bits("x2+x-1", 8)
    check("bit stream golden root x^2+x-1", bits == [1, 0, 0, 1, 1, 1, 1, 0])
    check("byte e0 = 121", lab.byte_stream(bits)[0] == 121)
    check("byte e0 = 86 for x^2+2x-1", lab.BitStream("x2+2x-1").byte(0) == 86)

    kq = MinPoly.rationals(2)
    rec = expand(kq.vector([Q(2, 3)]), "phi0", eps=1)
    check("Schneider-style finite orbit of 2/3", rec.status.kind == "finite" and rec.status.index == 2)

    k2 = validate_minpoly(2, [1, 2])
    rec = expand(k2.vector([k2.gen()]), "phi1", eps=1)
    check(
        "quadratic generator purely periodic",
        rec.status.kind == "periodic" and rec.status.preperiod == 0,
    )
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="padiccf")
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("expand", help="expand one vector and classify the orbit")
    ex.add_argument("--p", type=int, required=True)
    ex.add_argument("--minpoly", required=True, help='coefficients "a1,...,an"')
    ex.add_argument("--elem", required=True, help="JSON element or list of elements")
    ex.add_argument("--algo", choices=ALGORITHMS, required=True)
    ex.add_argument("--eps", type=int, default=1)
    ex.add_argument("--lookahead", type=int, default=1)
    ex.add_argument("--max-steps", type=int, default=MAX_STEPS)
    ex.add_argument("--height-exp", type=int, default=HEIGHT_EXPONENT)
    ex.add_argument("--json", action="store_true")
    ex.add_argument("--show", type=int, default=8, help="remainders to print")
    ex.set_defaults(func=_cmd_expand)

    zs = sub.add_parser("zset", help="enumerate certified generators for a prime/degree")
    zs.add_argument("--p", type=int, required=True)
    zs.add_argument("--degree", type=int, required=True)
    zs.add_argument("--json", action="store_true")
    zs.set_defaults(func=_cmd_zset)

    su = sub.add_parser("suite", help="build the deterministic element sample")
    su.add_argument("--p", type=int, required=True)
    su.add_argument("--minpoly", required=True)
    su.add_argument("--s", type=int, required=True)
    su.add_argument("--size", type=int, default=lab.SUITE_SIZE)
    su.set_defaults(func=_cmd_suite)

    tb = sub.add_parser("table", help="run a batch config and emit the table")
    tb.add_argument("--config", required=True)
    tb.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    tb.add_argument("--out")
    tb.set_defaults(func=_cmd_table)

    st = sub.add_parser("selftest", help="run the golden example checks")
    st.set_defaults(func=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    # a JSONDecodeError is a ValueError; JSON nested too deep is a RecursionError
    except (PadiccfError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
