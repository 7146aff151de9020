"""Every backquoted ``module.name`` reference in the docs names something.

A reference is a backquoted dotted name whose first part is a
``padiccf`` module, written with or without the ``padiccf.`` prefix
(``field.MAX_DEGREE``, ``padiccf.cfrac``; ``Embedding.t_b`` is not one),
anywhere in README.md or in the modules of ``src/padiccf``.  Each
must resolve by ``getattr`` from its module, so a rename that leaves a
doc behind fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import padiccf

ROOT = Path(__file__).resolve().parents[1]
MODULES = {m.name for m in pkgutil.iter_modules(padiccf.__path__)}
REFERENCE = re.compile(r"`+((?:padiccf\.)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`+")
SOURCES = [ROOT / "README.md", *sorted((ROOT / "src" / "padiccf").glob("*.py"))]


def _references() -> list:
    """(file name, reference) for each module reference in SOURCES."""
    out = []
    for path in SOURCES:
        for ref in REFERENCE.findall(path.read_text()):
            parts = ref.split(".")
            if parts[0] == "padiccf":
                parts = parts[1:]
            if parts[0] in MODULES:
                out.append((path.name, ref))
    return out


def _resolves(ref: str) -> bool:
    module, *names = ref.removeprefix("padiccf.").split(".")
    obj = importlib.import_module(f"padiccf.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_module_reference_resolves():
    assert [(where, ref) for where, ref in _references() if not _resolves(ref)] == []


def test_references_are_found_in_the_readme_and_the_package():
    """The pattern reads both backquote styles: README's `x` and the
    docstrings' ``x``."""
    found = {where for where, _ in _references()}
    assert "README.md" in found and "cfrac.py" in found
