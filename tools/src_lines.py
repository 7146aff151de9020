"""Count the code lines of the ``padiccf`` package, module by module.

A code line is a non-blank line that holds some token other than a
comment and does not lie inside a docstring (the string that opens a
module, class or function body).  Run from anywhere:

    python tools/src_lines.py

It prints one ``<count> <module>`` line per module, sorted by name, then
``<count> total``.  Size claims about ``src/`` quote this total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "padiccf"
_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def counts() -> dict:
    return {p.stem: code_lines(p) for p in sorted(PACKAGE.glob("*.py"))}


def main() -> int:
    per_module = counts()
    for name, n in per_module.items():
        print(f"{n:6d} {name}")
    print(f"{sum(per_module.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
