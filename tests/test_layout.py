"""The packed row layout has one owner: only ``stabkit.f2`` converts
between packed ints and byte or bit arrays."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stabkit"
CONVERSIONS = ("packbits", "unpackbits", "from_bytes", "to_bytes")


def test_row_layout_conversions_live_in_f2_only():
    f2 = SRC / "f2.py"
    assert all(name in f2.read_text() for name in CONVERSIONS)
    strays = [f"{path.relative_to(SRC)}: {name}"
              for path in sorted(SRC.rglob("*.py")) if path != f2
              for name in CONVERSIONS if name in path.read_text()]
    assert strays == []
