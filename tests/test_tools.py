"""Smoke test of the repository tools."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_counts_every_module_and_sums_to_the_total():
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    rows = [line.split() for line in res.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} == {p.stem for p in (ROOT / "src" / "padiccf").glob("*.py")}
    assert sum(int(n) for n, _ in modules) == int(total) > 0
