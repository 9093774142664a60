"""Module layout rules: only ``stabkit.f2`` converts between packed ints
and byte or bit arrays, only ``f2`` and ``pauli`` split text into lines,
and each module's ``__all__`` is its public surface."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import stabkit

SRC = Path(__file__).resolve().parents[1] / "src" / "stabkit"
CONVERSIONS = ("packbits", "unpackbits", "from_bytes", "to_bytes")
MODULES = [stabkit, *(importlib.import_module(f"stabkit.{info.name}")
                      for info in pkgutil.iter_modules(stabkit.__path__))]


def test_row_layout_conversions_live_in_f2_only():
    f2 = SRC / "f2.py"
    assert all(name in f2.read_text() for name in CONVERSIONS)
    strays = [f"{path.relative_to(SRC)}: {name}"
              for path in sorted(SRC.rglob("*.py")) if path != f2
              for name in CONVERSIONS if name in path.read_text()]
    assert strays == []


def test_text_is_split_into_lines_in_f2_and_pauli_only():
    """The headed formats and the alist are read in ``f2``, stabilizer
    tables in ``pauli``; every other module hands them the text."""
    owners = {SRC / "f2.py", SRC / "pauli.py"}
    assert all("splitlines" in path.read_text() for path in owners)
    strays = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
              if path not in owners and "splitlines" in path.read_text()]
    assert strays == []


def test_all_lists_exactly_the_public_surface():
    """Every name in ``__all__`` exists, and every public function or
    class a module defines is in its ``__all__``."""
    assert len(MODULES) == len(list(SRC.glob("*.py")))
    missing, unlisted = [], []
    for mod in MODULES:
        listed = set(mod.__all__)
        missing += [f"{mod.__name__}.{name}" for name in listed if not hasattr(mod, name)]
        unlisted += [f"{mod.__name__}.{name}" for name, obj in vars(mod).items()
                     if not name.startswith("_")
                     and (inspect.isfunction(obj) or inspect.isclass(obj))
                     and obj.__module__ == mod.__name__ and name not in listed]
    assert (missing, unlisted) == ([], [])
