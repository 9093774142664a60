"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are stored as Python integers (bit ``j`` of a row integer is the
entry in column ``j``), so row operations are single big-int XORs.
This module owns that layout: ``pack_rows`` and ``BitMatrix.to_array``
are the one pair of conversions between packed rows and 0/1 arrays.
Elimination (``_echelon``) returns the reduced row-echelon form (RREF):
each row is reduced by XOR against rows keyed by their lowest set bit
until its lowest bit is new, and the basis is then back-substituted
from the highest pivot down.  The RREF of a row space is unique, so
echelon forms, ranks and nullspace bases are deterministic and equal
to those of a column-by-column pivot search.

Also provides the two text formats used throughout, a dense
``"ROWS COLS"``-headed 0/1 format and the MacKay "alist" sparse format,
and ``_headed``, the header reader of every headed format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitMatrix",
    "pack_rows",
    "rank",
    "mat_mul",
    "in_rowspace",
    "nullspace",
    "parse_dense",
    "format_dense",
    "parse_matrix",
    "parse_alist",
    "format_alist",
]


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2) with bit-packed rows.

    ``bits[i]`` holds row ``i``; bit ``j`` of that integer is entry
    ``(i, j)``.  Instances are immutable and safe to share.
    """

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.rows}x{self.cols}")
        if len(self.bits) != self.rows:
            raise ValueError("row count does not match bit data")
        mask = (1 << self.cols) - 1
        for r in self.bits:
            if r & ~mask:
                raise ValueError("row has bits set beyond the declared column count")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows, cols=None) -> "BitMatrix":
        """Build from an iterable of 0/1 row sequences (or a numpy array)."""
        arr = np.asarray(rows, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array of bits")
        m, n = arr.shape
        if cols is not None and cols != n:
            raise ValueError(f"declared cols {cols} != data cols {n}")
        return cls(m, n, pack_rows(arr))

    @classmethod
    def zeros(cls, rows, cols) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def circulant(cls, first_row, r=None) -> "BitMatrix":
        """r x r circulant of a 0/1 first row; see ``packed_circulant``."""
        arr = np.asarray(first_row, dtype=np.uint8) & 1
        n = r if r is not None else arr.size
        if arr.size != n:
            raise ValueError("first row length must equal the circulant size")
        return cls.packed_circulant(pack_rows([arr])[0], n)

    @classmethod
    def packed_circulant(cls, first: int, n: int, blocks: int = 1) -> "BitMatrix":
        """n x (blocks * n) matrix whose row i is the packed ``first`` with
        each length-n block cyclically shifted right i times, so bit k of
        a block lands in its column (i + k) mod n.  One block is the n x n
        circulant, whose row i read as a polynomial over GF(2)[X]/(X^n - 1)
        is X^i times the first row; more blocks give a quasi-cyclic block
        row, one circulant per block."""
        low = sum(1 << (l * n) for l in range(blocks))
        high = low << (n - 1)  # the top bit of every block
        rows = []
        v = first
        for _ in range(n):
            rows.append(v)
            v = ((v & ~high) << 1) | ((v & high) >> (n - 1))
        return cls(n, blocks * n, tuple(rows))

    # -- element / row access ------------------------------------------

    def get(self, i, j) -> int:
        return (self.bits[i] >> j) & 1

    def row(self, i) -> int:
        return self.bits[i]

    def row_list(self, i) -> list[int]:
        b = self.bits[i]
        return [(b >> j) & 1 for j in range(self.cols)]

    def to_array(self) -> np.ndarray:
        """[rows, cols] uint8 0/1 array; ``pack_rows`` is its inverse."""
        nb = (self.cols + 7) // 8
        raw = np.frombuffer(b"".join(b.to_bytes(nb, "little") for b in self.bits), dtype=np.uint8)
        return np.unpackbits(raw.reshape(self.rows, nb), axis=1, bitorder="little", count=self.cols)

    # -- shape manipulation --------------------------------------------

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, pack_rows(self.to_array().T))

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if other.cols != self.cols:
            raise ValueError("column mismatch in vstack")
        return BitMatrix(self.rows + other.rows, self.cols, self.bits + other.bits)

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if other.rows != self.rows:
            raise ValueError("row mismatch in hstack")
        merged = tuple(a | (b << self.cols) for a, b in zip(self.bits, other.bits))
        return BitMatrix(self.rows, self.cols + other.cols, merged)

    def submatrix(self, row_idx) -> "BitMatrix":
        rows = tuple(self.bits[i] for i in row_idx)
        return BitMatrix(len(rows), self.cols, rows)

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.bits)

    def __str__(self) -> str:
        return format_dense(self)


def pack_rows(bits) -> tuple[int, ...]:
    """Packed row ints of a 2-D 0/1 array: bit ``j`` of int ``i`` is
    ``bits[i, j]``.  The inverse of ``BitMatrix.to_array``."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


# -- elimination core ---------------------------------------------------


def _echelon(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form of the rows' span; returns (reduced rows,
    pivot columns), both in ascending pivot order.  ``cols`` is the row
    width: no row has a bit at or beyond it.

    Each row is reduced against a basis keyed by lowest set bit until
    its lowest bit is new (it joins the basis) or it reaches zero (it is
    dropped).  Then, from the highest pivot down, each basis row is
    cleared of the higher pivot columns by XOR with their rows, which
    are already reduced, so no cleared column is set again.  The RREF
    of a row space with ascending pivot columns is unique, so the output
    is the same as that of pivoting column by column.
    """
    basis: dict[int, int] = {}
    for w in rows:
        while w:
            low = w & -w
            row = basis.get(low)
            if row is None:
                basis[low] = w
                break
            w ^= row
        if len(basis) == cols:
            break
    pivot_mask = sum(basis)
    for low in sorted(basis, reverse=True):
        w = basis[low]
        hits = (w & pivot_mask) ^ low
        while hits:
            high = hits & -hits
            w ^= basis[high]
            hits ^= high
        basis[low] = w
    lows = sorted(basis)
    return [basis[low] for low in lows], [low.bit_length() - 1 for low in lows]


def rank(m: BitMatrix) -> int:
    """Dimension of the GF(2) row space."""
    _, pivots = _echelon(list(m.bits), m.cols)
    return len(pivots)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = []
    for ra in a.bits:
        acc = 0
        v = ra
        while v:
            j = (v & -v).bit_length() - 1
            acc ^= b.bits[j]
            v &= v - 1
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def in_rowspace(m: BitMatrix, v) -> bool:
    """True iff ``v`` is a GF(2) combination of the rows of ``m``.

    ``v`` may be a packed integer or a 0/1 sequence of length ``m.cols``.
    """
    w = _pack_vector(v, m.cols)
    reduced, pivots = _echelon(list(m.bits), m.cols)
    return _reduce(w, reduced, pivots) == 0


def _reduce(w: int, reduced: list[int], pivots: list[int]) -> int:
    """Residual of ``w`` against an ``_echelon`` output; 0 iff ``w`` lies
    in its row space."""
    for row, col in zip(reduced, pivots):
        if (w >> col) & 1:
            w ^= row
    return w


def nullspace(m: BitMatrix) -> BitMatrix | None:
    """Basis of ``{v : m v^T = 0}`` as matrix rows.

    Returns ``None`` when the nullspace is trivial (an empty basis);
    otherwise a ``(cols - rank)`` x ``cols`` matrix.
    """
    reduced, pivots = _echelon(list(m.bits), m.cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    if not free_cols:
        return None
    basis = []
    for f in free_cols:
        v = 1 << f
        for row, col in zip(reduced, pivots):
            if (row >> f) & 1:
                v |= 1 << col
        basis.append(v)
    return BitMatrix(len(basis), m.cols, tuple(basis))


def _pack_vector(v, cols: int) -> int:
    if isinstance(v, (int, np.integer)):
        w = int(v)
        if w < 0 or w >> cols:
            raise ValueError("packed vector has bits outside the column range")
        return w
    seq = np.asarray(v, dtype=np.uint8).ravel() & 1
    if seq.size != cols:
        raise ValueError(f"vector length {seq.size} != column count {cols}")
    return pack_rows([seq])[0]


# -- text formats --------------------------------------------------------


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _ints(tokens: list[str], what: str, line: str) -> list[int]:
    """The integers that ``tokens``, read from ``line`` of a ``what``
    text, spell; a token that spells none is a ValueError that names
    the format and quotes the line."""
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ValueError(f"bad {what} line {line!r}: {t!r} is not an integer") from None
    return out


def _headed(text: str, what: str, names: tuple[str, ...], count: int,
            rows: str) -> tuple[list[int], list[str]]:
    """Header values and row lines of a headed text format: one positive
    integer per entry of ``names``, then exactly ``values[count]``
    non-blank lines.  ``what``, ``names`` and ``rows`` word the messages."""
    lines = _lines(text)
    if not lines:
        raise ValueError(f"empty {what} text")
    header = lines[0].split()
    if len(header) != len(names):
        raise ValueError(f"bad {what} header: {lines[0]!r}")
    values = _ints(header, what, lines[0])
    for name, value in zip(names, values):
        if value < 1:
            raise ValueError(f"{what} {name} must be positive, got {value}")
    if len(lines) - 1 != values[count]:
        raise ValueError(f"bad {what} row count: expected {values[count]} {rows}, "
                         f"found {len(lines) - 1}")
    return values, lines[1:]


def _dense_row(line: str, cols: int) -> int | None:
    """The packed row that ``line`` spells in the dense format, ``cols``
    0/1 digits which may be separated by spaces; None if it spells
    none."""
    digits = line.replace(" ", "")
    if len(digits) != cols or digits.strip("01"):
        return None
    return int(digits[::-1], 2)


def parse_dense(text: str) -> BitMatrix:
    """Parse the dense format: line 1 ``"ROWS COLS"``, then exactly ROWS
    lines of COLS 0/1 digits, which may be separated by spaces."""
    (m, n), lines = _headed(text, "dense matrix", ("dimensions",) * 2, 0, "matrix rows")
    rows = tuple(_dense_row(ln, n) for ln in lines)
    if None in rows:
        raise ValueError(f"bad dense row: {lines[rows.index(None)]!r}")
    return BitMatrix(m, n, rows)


def parse_matrix(text: str) -> BitMatrix:
    """Parse either GF(2) text format: an alist if the second line is two
    tokens that do not form a dense row (an alist's second line holds
    its largest column and row weights), else a dense matrix."""
    lines = _lines(text)
    if len(lines) > 1 and len(lines[1].split()) == 2:
        (cols,) = _ints(lines[0].split()[-1:], "dense or alist matrix", lines[0])
        if _dense_row(lines[1], cols) is None:
            return parse_alist(text)
    return parse_dense(text)


def format_dense(m: BitMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append("".join(str(b) for b in m.row_list(i)))
    return "\n".join(lines) + "\n"


def _alist_entries(lists, degrees, bound: int, what: str) -> list[tuple[int, int]]:
    """(k, i - 1) for every index i of list k: only the first
    ``degrees[k]`` entries count, and zeros are padding."""
    out = []
    for k, (entries, deg) in enumerate(zip(lists, degrees)):
        for i in entries[:deg]:
            if i == 0:
                continue
            if not 1 <= i <= bound:
                raise ValueError(f"alist {what} index {i} out of range")
            out.append((k, i - 1))
    return out


def parse_alist(text: str) -> BitMatrix:
    """Parse MacKay's alist format (1-based indices, N M header).

    Both the n column lists and the m row lists must be present, with
    nothing after them, and they must describe the same matrix."""
    lines = _lines(text)
    tokens_per_line = [_ints(ln.split(), "alist", ln) for ln in lines]
    if len(tokens_per_line) < 4:
        raise ValueError("alist file too short")
    if len(tokens_per_line[0]) != 2:
        raise ValueError(f"bad alist header: {lines[0]!r}")
    n, m = tokens_per_line[0]
    if n < 1 or m < 1:
        raise ValueError("alist dimensions must be positive")
    if len(tokens_per_line) < 4 + n:
        raise ValueError(
            f"alist file truncated: {n} column lists expected, "
            f"found {len(tokens_per_line) - 4}"
        )
    if len(tokens_per_line) < 4 + n + m:
        raise ValueError(
            f"alist file truncated: {m} row lists expected, "
            f"found {len(tokens_per_line) - 4 - n}"
        )
    if len(tokens_per_line) > 4 + n + m:
        raise ValueError(
            f"alist file too long: {n} column and {m} row lists expected, "
            f"found {len(tokens_per_line) - 4} lists"
        )
    col_deg, row_deg = tokens_per_line[2], tokens_per_line[3]
    if len(col_deg) != n:
        raise ValueError("alist column-degree list has wrong length")
    if len(row_deg) != m:
        raise ValueError("alist row-degree list has wrong length")
    rows = [0] * m
    for j, i in _alist_entries(tokens_per_line[4:4 + n], col_deg, m, "row"):
        rows[i] |= 1 << j
    listed = [0] * m
    for i, j in _alist_entries(tokens_per_line[4 + n:], row_deg, n, "column"):
        listed[i] |= 1 << j
    for i, (a, b) in enumerate(zip(rows, listed)):
        if a != b:
            raise ValueError(f"alist row list {i + 1} disagrees with the column lists")
    return BitMatrix(m, n, tuple(rows))


def format_alist(m: BitMatrix) -> str:
    """Serialize to alist (N M header, per-column then per-row 1-based lists).

    Lists are zero-padded to the largest degree, and to at least one
    entry, so an empty row or column is a "0" line rather than a blank
    one."""
    arr = m.to_array()
    col_idx = [list(np.flatnonzero(arr[:, j]) + 1) for j in range(m.cols)]
    row_idx = [list(np.flatnonzero(arr[i, :]) + 1) for i in range(m.rows)]
    cmax = max((len(c) for c in col_idx), default=0)
    rmax = max((len(r) for r in row_idx), default=0)
    lines = [f"{m.cols} {m.rows}", f"{cmax} {rmax}"]
    lines.append(" ".join(str(len(c)) for c in col_idx))
    lines.append(" ".join(str(len(r)) for r in row_idx))
    for c in col_idx:
        lines.append(" ".join(str(i) for i in c + [0] * (max(cmax, 1) - len(c))))
    for r in row_idx:
        lines.append(" ".join(str(i) for i in r + [0] * (max(rmax, 1) - len(r))))
    return "\n".join(lines) + "\n"
