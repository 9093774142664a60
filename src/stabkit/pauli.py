"""Phase-free n-qubit Pauli operators as binary symplectic vectors.

A Pauli string maps to a pair of bit vectors (z|x): per qubit,
I = (0,0), X = (0,1), Y = (1,1), Z = (1,0).  Products of operators
become XORs of vectors, and two operators commute exactly when the
symplectic product of their vectors is 0.  Overall phases are dropped
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2 import BitMatrix

__all__ = [
    "PauliVec",
    "symplectic_product",
    "swap_halves",
    "symplectic_gram",
    "paulis_to_matrix",
    "matrix_to_paulis",
    "weight",
    "parse_pauli",
    "format_pauli",
    "load_stabilizer_table",
    "format_stabilizer_table",
]

_CHARS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
_CHARS_INV = {v: k for k, v in _CHARS.items()}


@dataclass(frozen=True)
class PauliVec:
    """n-qubit Pauli in (z|x) form; z and x are bit-packed integers.

    Bit ``i`` corresponds to qubit ``i + 1``, the (i+1)-th character of
    the string form.
    """

    n: int
    z: int
    x: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("qubit count must be at least 1")
        mask = (1 << self.n) - 1
        if (self.z & ~mask) or (self.x & ~mask):
            raise ValueError("z/x bits set beyond qubit count")

    @classmethod
    def from_packed(cls, packed: int, n: int) -> "PauliVec":
        """Split a 2n-bit (z|x) row: low n bits are z, high n bits are x."""
        mask = (1 << n) - 1
        return cls(n, packed & mask, (packed >> n) & mask)

    def packed(self) -> int:
        """(z|x) as a single 2n-bit integer, z in the low half."""
        return self.z | (self.x << self.n)

    def __mul__(self, other: "PauliVec") -> "PauliVec":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return PauliVec(self.n, self.z ^ other.z, self.x ^ other.x)

    def is_identity(self) -> bool:
        return self.z == 0 and self.x == 0

    def __str__(self) -> str:
        return format_pauli(self)


def symplectic_product(u: PauliVec, v: PauliVec) -> int:
    """z . x' + z' . x mod 2; zero iff the operators commute."""
    if u.n != v.n:
        raise ValueError(f"qubit count mismatch: {u.n} != {v.n}")
    return ((u.z & v.x).bit_count() + (v.z & u.x).bit_count()) & 1


def swap_halves(packed: int, n: int) -> int:
    """Exchange the z and x halves of a packed 2n-bit (z|x) row, so that
    the symplectic product a . b is the parity of ``swap_halves(a, n) & b``."""
    return (packed >> n) | ((packed & ((1 << n) - 1)) << n)


def symplectic_gram(m: BitMatrix) -> list[int]:
    """Upper triangle of G . Omega . G^T for the (z|x) rows G of ``m``:
    bit b of entry a is the symplectic product of rows a and b, for b > a
    only.  All entries are 0 exactly when the rows pairwise commute."""
    n = _half_width(m)
    swapped = [swap_halves(row, n) for row in m.bits]
    out = []
    for a, row_a in enumerate(m.bits):
        tri = 0
        for b in range(a + 1, m.rows):
            tri |= ((row_a & swapped[b]).bit_count() & 1) << b
        out.append(tri)
    return out


def weight(u: PauliVec) -> int:
    """Number of qubits acted on non-trivially."""
    return (u.z | u.x).bit_count()


def parse_pauli(s: str) -> PauliVec:
    """Parse a Pauli string of I/X/Y/Z characters.

    A ``|`` separator (marking receiver-side qubits in the
    entanglement-assisted tables) and whitespace are ignored.
    """
    chars = [ch for ch in s if ch not in "| \t"]
    if not chars:
        raise ValueError("empty Pauli string")
    z = 0
    x = 0
    for i, ch in enumerate(chars):
        if ch not in _CHARS:
            raise ValueError(f"illegal Pauli character {ch!r} in {s!r}")
        zb, xb = _CHARS[ch]
        z |= zb << i
        x |= xb << i
    return PauliVec(len(chars), z, x)


def format_pauli(u: PauliVec) -> str:
    """Render as an I/X/Y/Z string."""
    chars = []
    for i in range(u.n):
        chars.append(_CHARS_INV[((u.z >> i) & 1, (u.x >> i) & 1)])
    return "".join(chars)


def load_stabilizer_table(text: str) -> list[PauliVec]:
    """One Pauli string per line; blank lines and ``#`` comments skipped."""
    out = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        out.append(parse_pauli(ln))
    return out


def format_stabilizer_table(gens) -> str:
    return "\n".join(format_pauli(g) for g in gens) + "\n"


def paulis_to_matrix(gens) -> BitMatrix:
    """Stack (z|x) rows of equal-length Paulis into a 2n-column matrix."""
    gens = list(gens)
    if not gens:
        raise ValueError("no generators given")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators act on different qubit counts")
    return BitMatrix(len(gens), 2 * n, tuple(g.packed() for g in gens))


def _half_width(m: BitMatrix) -> int:
    """Qubit count n of a 2n-column (z|x) matrix."""
    if m.cols % 2:
        raise ValueError("(z|x) matrix needs an even column count")
    return m.cols // 2


def matrix_to_paulis(m: BitMatrix) -> list[PauliVec]:
    """Rows of a 2n-column (z|x) matrix as Paulis."""
    n = _half_width(m)
    return [PauliVec.from_packed(row, n) for row in m.bits]
