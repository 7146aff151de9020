"""Where the package under test lives, and the stamp every result carries."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingCheckout(RuntimeError):
    """The benchmark runs from a checkout whose ``src/padiccf`` is absent."""


def use_src():
    """Import padiccf from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "padiccf" / "__init__.py").is_file():
        raise MissingCheckout(f"no src/padiccf under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import padiccf

    if Path(padiccf.__file__).resolve().parent != SRC / "padiccf":
        raise MissingCheckout(f"padiccf resolved to {padiccf.__file__}, not {SRC}")
    return padiccf


def commit() -> str:
    """The checked-out commit from ``.git`` if there is one, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def stamp(backend: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "backend": backend,
        "cores": os.cpu_count(),
        "commit": commit(),
        "seed": seed,
    }
