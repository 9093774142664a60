"""GF(4) arithmetic and the map onto binary symplectic pairs.

Elements of GF(4) = {0, 1, w, W} are represented by the integers
0, 1, 2, 3 where ``w`` is the primitive element and ``W = w^2 = w + 1``
is its conjugate.  Text I/O uses exactly those four symbols.

The bijection ``gamma`` sends an element to a (z, x) bit pair so that
field addition becomes XOR and the trace of the Hermitian product
becomes the binary symplectic product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2 import BitMatrix

__all__ = [
    "F4_0",
    "F4_1",
    "F4_W",
    "F4_WBAR",
    "F4_ELEMENTS",
    "f4_add",
    "f4_mul",
    "f4_conj",
    "f4_trace",
    "gamma",
    "trace_inner",
    "F4Matrix",
    "f4_to_symplectic",
    "parse_f4",
    "format_f4",
]

F4_0 = 0
F4_1 = 1
F4_W = 2
F4_WBAR = 3
F4_ELEMENTS = (F4_0, F4_1, F4_W, F4_WBAR)

_SYMBOLS = "01wW"

# gamma: 0 -> 00, W -> 01, 1 -> 11, w -> 10   (as (z, x) pairs)
_GAMMA = {F4_0: (0, 0), F4_WBAR: (0, 1), F4_1: (1, 1), F4_W: (1, 0)}
_GAMMA_INV = {v: k for k, v in _GAMMA.items()}

# addition is XOR of gamma images
_ADD = tuple(
    tuple(
        _GAMMA_INV[(_GAMMA[a][0] ^ _GAMMA[b][0], _GAMMA[a][1] ^ _GAMMA[b][1])]
        for b in F4_ELEMENTS
    )
    for a in F4_ELEMENTS
)

# multiplicative group: w^2 = W, w*W = 1
_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

_CONJ = (F4_0, F4_1, F4_WBAR, F4_W)   # swaps w and W
_TRACE = (0, 0, 1, 1)                 # tr 0 = tr 1 = 0, tr w = tr W = 1


def f4_add(a: int, b: int) -> int:
    return _ADD[a][b]


def f4_mul(a: int, b: int) -> int:
    return _MUL[a][b]


def f4_conj(a: int) -> int:
    return _CONJ[a]


def f4_trace(a: int) -> int:
    return _TRACE[a]


def gamma(a: int) -> tuple[int, int]:
    """(z, x) bit pair of a GF(4) element."""
    return _GAMMA[a]


def trace_inner(a: int, b: int) -> int:
    """Trace of the Hermitian product conj(a) * b; a bit in {0, 1}."""
    return f4_trace(f4_mul(f4_conj(a), b))


@dataclass(frozen=True)
class F4Matrix:
    """Dense matrix over GF(4); entries is a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("F4Matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")
        for row in self.entries:
            for e in row:
                if e not in F4_ELEMENTS:
                    raise ValueError(f"invalid GF(4) element {e!r}")

    @classmethod
    def from_rows(cls, rows) -> "F4Matrix":
        entries = tuple(tuple(int(e) for e in row) for row in rows)
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    def scale(self, s: int) -> "F4Matrix":
        return F4Matrix.from_rows(
            [[f4_mul(s, e) for e in row] for row in self.entries]
        )

    def __str__(self) -> str:
        return format_f4(self)


def f4_to_symplectic(h4: F4Matrix) -> BitMatrix:
    """Binary symplectic parity check of a quaternary one.

    Stacks the w- and W-multiples of ``h4`` and applies ``gamma``
    entrywise, producing a ``2m x 2n`` bit matrix in (z|x) layout: a
    quaternary vector is undetected by ``h4`` exactly when its image is
    symplectically orthogonal to every row of the result, and weights
    are preserved.
    """
    n = h4.cols
    rows = []
    for f4_row in h4.scale(F4_W).entries + h4.scale(F4_WBAR).entries:
        z = 0
        x = 0
        for j, e in enumerate(f4_row):
            zb, xb = gamma(e)
            z |= zb << j
            x |= xb << j
        rows.append(z | (x << n))
    return BitMatrix(2 * h4.rows, 2 * n, tuple(rows))


def parse_f4(text: str) -> F4Matrix:
    """Parse the GF(4) text format: ``"ROWS COLS"`` then exactly ROWS
    rows of {0,1,w,W}."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty GF(4) matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad GF(4) header: {lines[0]!r}")
    m, n = int(header[0]), int(header[1])
    if m < 1 or n < 1:
        raise ValueError(f"GF(4) matrix dimensions must be positive, got {m}x{n}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} rows, found {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        symbols = ln.split() if " " in ln else list(ln)
        if len(symbols) != n:
            raise ValueError(f"bad GF(4) row length: {ln!r}")
        row = []
        for s in symbols:
            if s not in _SYMBOLS:
                raise ValueError(f"invalid GF(4) symbol {s!r}")
            row.append(_SYMBOLS.index(s))
        entries.append(row)
    return F4Matrix.from_rows(entries)


def format_f4(m: F4Matrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.entries:
        lines.append(" ".join(_SYMBOLS[e] for e in row))
    return "\n".join(lines) + "\n"
