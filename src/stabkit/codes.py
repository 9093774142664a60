"""Quantum code construction and analysis.

A :class:`QuantumCode` is a partitioned generator set: commuting
isotropic generators ``gens_i``, anticommuting entanglement pairs
``gens_e`` (one pre-shared ebit each) and gauge pairs ``gens_g``
(passively corrected degrees of freedom).  With s = len(gens_i),
c = len(gens_e), r = len(gens_g) the logical count is
k = n - s - c - r.

Codes are built from classical binary or quaternary parity checks by
expanding to a binary symplectic matrix and running the symplectic
Gram-Schmidt decomposition; the pair count of the decomposition is the
ebit cost.

:data:`NAMED` holds the paper's named codes, each with its builder and
claimed parameters.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import f2, gf4, qc_ldpc, sgs
from .f2 import BitMatrix
from .gf4 import F4Matrix
from .pauli import (
    PauliVec,
    format_pauli,
    format_stabilizer_table,
    load_stabilizer_table,
    matrix_to_paulis,
    parse_pauli,
    paulis_to_matrix,
    swap_halves,
    symplectic_gram,
)

__all__ = [
    "CssPair",
    "QuantumCode",
    "CodeReport",
    "VerificationBudgetError",
    "css_sp_matrix",
    "build_from_sp",
    "build_eaqecc_binary",
    "build_eaqecc_gf4",
    "from_stabilizer_table",
    "to_stabilizer_table",
    "is_dual_containing",
    "verify_distance",
    "find_distance_violator",
    "singleton_check",
    "hamming_check",
    "extend_code",
    "puncture_code",
    "gauge_move",
    "ungauge",
    "builtin",
    "BUILTIN_NAMES",
    "NAMED",
    "NamedCode",
    "hamming_matrix",
    "bch63_matrix",
    "q15_matrix",
    "q15_traded",
    "make_report",
    "format_report",
]


class VerificationBudgetError(Exception):
    """Distance enumeration exceeds the configured budget: the claim is
    unverifiable at desk scale, which is not the same as false."""


@dataclass(frozen=True)
class CssPair:
    """Classical structure of a CSS-form code.

    ``hz`` rows are the z-parts of the pure-Z generators (they detect X
    errors), ``hx`` the x-parts of the pure-X generators (detect Z).
    """

    hz: BitMatrix
    hx: BitMatrix


@dataclass(frozen=True)
class QuantumCode:
    n: int
    gens_i: tuple[PauliVec, ...] = ()
    gens_e: tuple[tuple[PauliVec, PauliVec], ...] = ()
    gens_g: tuple[tuple[PauliVec, PauliVec], ...] = ()
    d_claimed: int | None = None
    logicals: tuple[tuple[PauliVec, PauliVec], ...] = ()
    css: CssPair | None = field(default=None, compare=False)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        gens = self._all_gens()
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator qubit count differs from code length")
        if gens and f2.rank(paulis_to_matrix(gens)) != len(gens):
            raise ValueError("generators are linearly dependent; k would be miscounted")
        self._check_commutation()

    # -- derived parameters ---------------------------------------------

    @property
    def s(self) -> int:
        return len(self.gens_i)

    @property
    def c(self) -> int:
        return len(self.gens_e)

    @property
    def r(self) -> int:
        return len(self.gens_g)

    @property
    def k(self) -> int:
        return self.n - self.s - self.c - self.r

    @property
    def params(self) -> str:
        d = f",{self.d_claimed}" if self.d_claimed is not None else ""
        tail = f";{self.r},{self.c}" if self.r else f";{self.c}"
        return f"[[{self.n},{self.k}{d}{tail}]]"

    def _flatten(self, *pair_groups) -> list[PauliVec]:
        """The isotropic generators, then both halves of every pair of
        ``pair_groups`` in order."""
        out = list(self.gens_i)
        for pairs in pair_groups:
            for pair in pairs:
                out += pair
        return out

    def _all_gens(self) -> list[PauliVec]:
        return self._flatten(self.gens_e, self.gens_g)

    def generator_matrix(self) -> BitMatrix:
        """All generators (isotropic + both pair halves) as (z|x) rows."""
        return paulis_to_matrix(self._all_gens())

    def measured_gens(self) -> list[PauliVec]:
        """Generators whose eigenvalues the receiver extracts: the
        isotropic set plus both halves of every entanglement pair."""
        return self._flatten(self.gens_e)

    def passive_gens(self) -> list[PauliVec]:
        """Generators of the harmless group: isotropic set plus both
        halves of every gauge pair."""
        return self._flatten(self.gens_g)

    @cached_property
    def _harmless_echelon(self) -> tuple[list[int], list[int]]:
        return f2._echelon([g.packed() for g in self.passive_gens()], 2 * self.n)

    def is_harmless(self, v: int) -> bool:
        """Whether the packed (z|x) error ``v`` lies in span(isotropic ∪
        gauge): a product of stabilizers and gauge operators, which
        leaves the encoded state alone.  The span is eliminated on the
        first call and kept for the code's lifetime."""
        return f2._reduce(v, *self._harmless_echelon) == 0

    def _check_commutation(self):
        gens = self._all_gens()
        rows = gens + [g for pair in self.logicals for g in pair]
        if not rows:
            return
        m = len(gens)
        # one triangle over the generators followed by the logical pairs
        tri = symplectic_gram(paulis_to_matrix(rows))
        # among the generators, each pair's first member anticommutes
        # with the second and with nothing else
        among_gens = (1 << m) - 1
        for a in range(m):
            expected = 1 << (a + 1) if a >= self.s and (a - self.s) % 2 == 0 else 0
            diff = (tri[a] & among_gens) ^ expected
            if diff:
                b = (diff & -diff).bit_length() - 1
                raise ValueError(
                    f"generator commutation broken between #{a} and #{b}: "
                    f"{format_pauli(gens[a])} vs {format_pauli(gens[b])}"
                )
        for z in range(m, len(tri), 2):
            if not (tri[z] >> (z + 1)) & 1:
                raise ValueError("logical pair must anticommute")
            for a in range(m):
                if (tri[a] >> z) & 1:
                    raise ValueError("logical Z does not commute with a generator")
                if (tri[a] >> (z + 1)) & 1:
                    raise ValueError("logical X does not commute with a generator")
        for a in range(m, len(tri)):
            # a logical row commutes with every later one but its partner
            partner = 1 << (a + 1) if (a - m) % 2 == 0 else 0
            clash = (tri[a] & ~partner) >> (a + 1)
            if clash:
                b = a + (clash & -clash).bit_length()
                raise ValueError(
                    f"logical pairs #{(a - m) // 2} and #{(b - m) // 2} do not commute"
                )


# -- constructions --------------------------------------------------------


def css_sp_matrix(hz: BitMatrix, hx: BitMatrix | None = None) -> BitMatrix:
    """Block-diagonal (z|x) matrix [hz 0; 0 hx] of a CSS pair of binary
    parity checks; ``hx`` defaults to ``hz``."""
    hx = hz if hx is None else hx
    n = hz.cols
    rows = [hz.row(i) for i in range(hz.rows)]          # Z-type: (hz_i | 0)
    rows += [hx.row(i) << n for i in range(hx.rows)]    # X-type: (0 | hx_i)
    return BitMatrix(len(rows), 2 * n, tuple(rows))


def build_from_sp(
    hsp: BitMatrix,
    css: CssPair | None = None,
    d_claimed: int | None = None,
    name: str | None = None,
) -> QuantumCode:
    """Quantum code from a binary symplectic parity check ((z|x) rows).

    Rows may be dependent and need not commute: the symplectic
    Gram-Schmidt decomposition splits their span into hyperbolic pairs
    (entanglement subgroup, one ebit each) and a commuting remainder
    (the stabilizer).
    """
    vecs = matrix_to_paulis(hsp)
    pairs, isotropic = sgs.split_span(vecs)
    return QuantumCode(
        n=vecs[0].n,
        gens_i=isotropic,
        gens_e=pairs,
        d_claimed=d_claimed,
        css=css,
        name=name,
    )


def build_eaqecc_binary(h: BitMatrix, d_claimed: int | None = None,
                        name: str | None = None) -> QuantumCode:
    """CSS-form entanglement-assisted code from any binary parity check.

    The ebit count equals rank(h h^T) over GF(2); dual-containing
    inputs give c = 0 (a standard stabilizer code).
    """
    return build_from_sp(
        css_sp_matrix(h), css=CssPair(hz=h, hx=h), d_claimed=d_claimed, name=name
    )


def build_eaqecc_gf4(h4: F4Matrix, d_claimed: int | None = None,
                     name: str | None = None) -> QuantumCode:
    """Entanglement-assisted code from a quaternary parity check.

    Parameters come out as [[n, 2k - n + c; c]] where k is the
    classical GF(4) dimension; c = 0 recovers a standard code.
    """
    return build_from_sp(gf4.f4_to_symplectic(h4), d_claimed=d_claimed, name=name)


def from_stabilizer_table(text: str, d_claimed: int | None = None) -> QuantumCode:
    """Quantum code from a stabilizer table (one Pauli string per line).

    The listed generators need not commute; the symplectic
    Gram-Schmidt split decides which become entanglement pairs.
    """
    gens = load_stabilizer_table(text)
    if not gens:
        raise ValueError("stabilizer table holds no generators")
    return build_from_sp(paulis_to_matrix(gens), d_claimed=d_claimed)


def to_stabilizer_table(code: QuantumCode) -> str:
    """All generators of a code, one Pauli string per line."""
    return format_stabilizer_table(code._all_gens())


def is_dual_containing(hsp: BitMatrix) -> bool:
    """True iff every pair of (z|x) rows is symplectically orthogonal."""
    return not any(symplectic_gram(hsp))


# -- distance -------------------------------------------------------------

_LETTERS = ((0, 1), (1, 0), (1, 1))  # X, Z, Y as (z, x) bits


def _enumeration_budget(n: int, d: int) -> int:
    return sum(math.comb(n, w) * 3 ** w for w in range(1, d))


def _letter_bits(q: int, li: int, n: int) -> int:
    """Packed (z|x) vector of letter ``li`` (index into ``_LETTERS``) on qubit q."""
    zb, xb = _LETTERS[li]
    return (zb << q) | (xb << (q + n))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each uint64 in ``x``: a fixed, well-mixed 64-bit word
    per index (uint64 arrays wrap on overflow without a warning)."""
    z = (x + 1) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _one_longer(prefixes: np.ndarray, n: int) -> np.ndarray:
    """Every ascending row of qubits below n that extends a row of the
    ascending ``prefixes`` by one qubit, in lexicographic order."""
    start = prefixes[:, -1] + 1
    counts = n - start
    # within each prefix's block of rows the new qubit runs start .. n - 1
    tail = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start, counts)
    return np.column_stack([np.repeat(prefixes, counts, axis=0), tail])


#: letterings per batch of the head screen: 8 MB of uint64 keys
_SCREEN_BATCH = 1 << 20


def _screened_heads(tested: np.ndarray, size: int):
    """The heads of ``size`` qubits, in ascending order, that pass the
    screen of :func:`find_distance_violator`; ``tested`` is the 0/1
    (z|x) array of the tested generators, one row each.  A batch holds
    the heads of whole prefixes (their first size - 1 qubits), at most
    ``_SCREEN_BATCH`` letterings unless one prefix alone has more."""
    n = tested.shape[1] // 2
    words = _splitmix64(np.arange(len(tested), dtype=np.uint64))
    col_keys = np.bitwise_xor.reduce(
        np.where(tested.astype(bool), words[:, None], np.uint64(0)), axis=0)
    kx, kz = col_keys[:n], col_keys[n:]     # X sees z-columns, Z x-columns
    letter_keys = np.array((kx, kz, kx ^ kz)).T
    # about 64 n 3^size slots (at most 2^22), so that few heads pass by
    # chance: 14 of bch63's 1953 at d = 4
    bits = min((64 * n * 3 ** size).bit_length(), 22)
    shift = np.uint64(64 - bits)
    qubit = np.min_scalar_type(-n - 1)      # signed: -1 marks an empty slot
    table = np.full(1 << bits, -1, dtype=qubit)
    np.maximum.at(table, (letter_keys >> shift).ravel(), np.repeat(np.arange(n, dtype=qubit), 3))
    # each prefix has at most n - 1 heads
    prefixes = np.arange(n)[:, None]
    for _ in range(size - 2):
        prefixes = _one_longer(prefixes, n)
    step = max(1, _SCREEN_BATCH // 3 ** size // max(n - 1, 1))
    for lo in range(0, len(prefixes), step):
        heads = _one_longer(prefixes[lo:lo + step], n)
        keys = letter_keys[heads[:, 0]]
        for p in range(1, size):
            keys = keys[:, :, None] ^ letter_keys[heads[:, p]][:, None, :]
            keys = keys.reshape(len(heads), 3 ** (p + 1))
        top = table[keys >> shift].max(axis=1)
        for i in np.flatnonzero(top > heads[:, -1]):
            yield tuple(heads[i].tolist())


def _head_violator(code: QuantumCode, mode: str, head: tuple[int, ...],
                   masks, lookup) -> PauliVec | None:
    """The exact step for one head: the first harmful error that a letter
    on a qubit above the head's last one completes, or None."""
    n = code.n
    last = head[-1] if head else -1
    # syndromes of the head's 3^(w-1) letterings, X < Z < Y per position
    syndromes = [0]
    for q in head:
        syndromes = [s ^ m for s in syndromes for m in masks[q]]
    if lookup.keys().isdisjoint(syndromes):
        return None                 # the common case: no letter completes the head
    hits = [
        (q, hi, li)
        for hi, s in enumerate(syndromes)
        for q, li in lookup.get(s, ())
        if q > last
    ]
    # (last qubit, head lettering, last letter) is the order of the full
    # enumeration within this head
    for q, hi, li in sorted(hits):
        vec = _letter_bits(q, li, n)
        for p in reversed(head):
            hi, hl = divmod(hi, 3)
            vec |= _letter_bits(p, hl, n)
        if mode == "strict" or not code.is_harmless(vec):
            return PauliVec.from_packed(vec, n)
    return None


def find_distance_violator(
    code: QuantumCode, d: int, mode: str = "strict", budget: int = 10 ** 8
) -> PauliVec | None:
    """First error of weight < d violating the distance criterion.

    strict mode: a violator is any nonzero error commuting with every
    generator (isotropic, entanglement and gauge alike) -- the
    non-degeneracy criterion.  degenerate mode: errors commuting with
    the measured generators are excused when they lie in the span of
    the isotropic and gauge generators.

    The violator reported is the first in the order ascending weight,
    ascending support, X < Z < Y per position, so it is deterministic.
    It is found by meet-in-the-middle: an error has zero syndrome
    exactly when the syndrome mask of its last letter equals the XOR of
    the masks of the others.  So for each weight w every weight-(w-1)
    head is enumerated in that order, and the letters that complete it
    on a higher qubit are looked up in a table of single-letter masks:
    C(n, w-1) 3^(w-1) lookups instead of C(n, w) 3^w candidates.  The
    budget still counts the full candidate set, sum of C(n, w) 3^w.

    From w = 3 on (heads of two or more qubits) the heads are screened
    first, in numpy batches of at most 2^20 letterings.  The key of a
    syndrome mask is linear over GF(2): tested generator t has the fixed
    64-bit word splitmix64(t), a mask's key is the XOR of the words of
    its set bits, and so a head lettering's key is the XOR of its
    letters' keys.  A direct-address table of about 64 n 3^(w-1) slots,
    indexed by a key's top bits, holds the highest qubit of any single
    letter keyed there.  A head goes on to the exact lookup only when
    one of its letterings' slots holds a qubit above the head's last.
    No head with a completion is skipped: a letter on qubit q > last
    that completes a lettering has the lettering's mask, hence its key
    and slot, so that slot holds a qubit >= q.  The heads that pass keep
    their order, so verdicts and violators are those of the head-by-head
    search; a skipped head is one whose lookup would have found nothing.
    Weights 1 and 2 have too few heads for the screen to pay.
    """
    if mode not in ("strict", "degenerate"):
        raise ValueError(f"unknown mode {mode!r}")
    if d < 1:
        raise ValueError("distance must be positive")
    total = _enumeration_budget(code.n, d)
    if total > budget:
        raise VerificationBudgetError(
            f"distance-{d} check on n={code.n} needs {total} candidates "
            f"(> budget {budget}): unverifiable at desk scale"
        )

    n = code.n
    test_gens = code._all_gens() if mode == "strict" else code.measured_gens()
    tested = (paulis_to_matrix(test_gens).to_array() if test_gens
              else np.zeros((0, 2 * n), dtype=np.uint8))
    # syndrome masks (bit t: symplectic product with generator t) are the
    # columns of the tested (z|x) matrix: X on qubit q sees z-column q,
    # Z sees x-column q, Y both
    cols = f2.pack_rows(tested.T)
    masks = [(cols[q], cols[q + n], cols[q] ^ cols[q + n]) for q in range(n)]
    # every single letter by its mask, in ascending (qubit, letter) order
    lookup: dict[int, list[tuple[int, int]]] = {}
    for q in range(n):
        for li, m in enumerate(masks[q]):
            lookup.setdefault(m, []).append((q, li))

    for w in range(1, d):
        heads = (itertools.combinations(range(n), w - 1) if w < 3
                 else _screened_heads(tested, w - 1))
        for head in heads:
            found = _head_violator(code, mode, head, masks, lookup)
            if found is not None:
                return found
    return None


def verify_distance(code: QuantumCode, d: int, mode: str = "strict",
                    budget: int = 10 ** 8) -> bool:
    """True when no error of weight < d violates the chosen criterion."""
    return find_distance_violator(code, d, mode, budget) is None


# -- bounds ---------------------------------------------------------------


def _effective_d(code: QuantumCode, d: int | None) -> int:
    if d is None:
        d = code.d_claimed
    if d is None:
        raise ValueError("distance unknown: pass d or set d_claimed")
    return d


def singleton_check(code: QuantumCode, d: int | None = None) -> bool:
    """Entanglement-assisted Singleton bound n - (k - c) >= 2(d - 1)."""
    d = _effective_d(code, d)
    return code.n - (code.k - code.c) >= 2 * (d - 1)


def hamming_check(code: QuantumCode, d: int | None = None) -> bool:
    """Quantum Hamming bound; meaningful for non-degenerate codes only."""
    d = _effective_d(code, d)
    t = (d - 1) // 2
    lhs = sum(3 ** j * math.comb(code.n, j) for j in range(t + 1))
    return lhs <= 2 ** (code.n - code.k)


# -- derived codes --------------------------------------------------------


def extend_code(code: QuantumCode) -> QuantumCode:
    """Lengthen by one qubit, appending an overall parity check.

    Every existing generator gains an identity on the new qubit, and two
    new rows are added: all-Z-ones and all-X-ones across all n+1 qubits.
    The net yield k - c drops by one and the distance cannot decrease.
    """
    n = code.n + 1
    ones = (1 << n) - 1
    gens = [PauliVec(n, g.z, g.x) for g in code._all_gens()]
    gens += [PauliVec(n, ones, 0), PauliVec(n, 0, ones)]    # all-Z and all-X rows
    return build_from_sp(paulis_to_matrix(gens))


def _centralizer(gens: BitMatrix) -> BitMatrix | None:
    """(z|x) basis of every Pauli commuting with all rows of ``gens``:
    the ordinary nullspace of the half-swapped rows (None when only the
    identity commutes with them all)."""
    n = gens.cols // 2
    return f2.nullspace(BitMatrix(gens.rows, gens.cols, tuple(swap_halves(r, n) for r in gens.bits)))


def puncture_code(code: QuantumCode) -> QuantumCode:
    """Drop the first qubit, classical-puncturing style.

    The centralizer of the generators is punctured in its first Z and X
    coordinate and the new generator space is its symplectic dual; one
    extra logical appears and the distance drops by at most one.
    Intended for non-degenerate codes of length at least 2.
    """
    if code.n < 2:
        raise ValueError("cannot puncture a single-qubit code")
    cent = _centralizer(code.generator_matrix())
    if cent is None:
        raise ValueError("trivial centralizer; nothing to puncture")
    nn = code.n - 1
    punctured = [PauliVec(nn, p.z >> 1, p.x >> 1) for p in matrix_to_paulis(cent)]
    new_checks = _centralizer(paulis_to_matrix(punctured))
    if new_checks is None:
        return QuantumCode(n=nn)  # no checks left: bare qubits
    return build_from_sp(new_checks)


def gauge_move(code: QuantumCode, pair_index: int) -> QuantumCode:
    """Reclassify one entanglement pair as gauge: c drops, r grows,
    n and k are untouched."""
    if not 0 <= pair_index < len(code.gens_e):
        raise IndexError(f"pair index {pair_index} out of range")
    moved = code.gens_e[pair_index]
    rest = tuple(p for i, p in enumerate(code.gens_e) if i != pair_index)
    return replace(code, gens_e=rest, gens_g=code.gens_g + (moved,))


def ungauge(code: QuantumCode) -> QuantumCode:
    """Halve every gauge pair into the stabilizer: the first member of
    each pair joins the isotropic set, the partner is discarded."""
    if not code.gens_g:
        raise ValueError("code has no gauge pairs")
    new_iso = code.gens_i + tuple(u for u, _ in code.gens_g)
    return replace(code, gens_i=new_iso, gens_g=())


# -- named codes ----------------------------------------------------------

_HAMMING_H = (
    (0, 0, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 1),
)

# generators of the Pauli-string codes, which ``_pauli_code`` builds
_SHOR9 = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
          "XXXIIIXXX", "XXXXXXIII")
_STEANE7 = ("IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "IIIXXXX", "IXXIIXX", "XIXIXIX")
_FIVEQUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
_EA8_ISO = ("ZZIIIIII", "ZIZIIIII", "IIIZZIII", "IIIZIZII", "IIIIIIZZ", "XXXXXXII")
_EA8_PAIRS = (("IIIIIIIZ", "XXXIIIXX"),)
_EA8_LOGICALS = (("ZIIZIIIZ", "IIIXXXII"),)
# the operator regrouping of ea8: same pair and logicals, two gauge pairs
_EAOQ8_ISO = ("ZZIZZIII", "ZIZZIZII", "IIIIIIZZ", "XXXXXXII")
_EAOQ8_GAUGE = (("ZZIIIIII", "IXIIXIII"), ("IIIZIZII", "IIXIIXII"))

# [15,10,4] quaternary parity check; W denotes the conjugate w^2
_Q15_H4 = """5 15
1 0 0 0 1 1 W 0 1 W 0 w W 1 0
0 1 0 0 1 0 w W 1 w 0 0 1 w 1
0 0 1 0 w W 1 w 1 0 0 w 1 W w
0 0 0 1 1 W 0 1 W w 0 W 1 0 W
0 0 0 0 0 0 0 0 0 0 1 0 0 0 0
"""

# searched gauge trade of the [[15,9,4;4]] code: one symplectic pair of
# its entanglement group reclassified as gauge (first hit of an
# exhaustive search over the 2^8 - span for a pair whose trade leaves
# degenerate distance exactly 3), the rest recombined into three pairs
_Q15_TRADED_E = (
    ("ZXXIIIXXZIIZYYZ", "XZXXXXZXIIIZIZY"),
    ("ZIZIYXXXIYIIXXX", "XYXZYIXIIXIYZXY"),
    ("IIIIIIIIIIZIIII", "IIIIIIIIIIXIIII"),
)
_Q15_TRADED_G = (("IZIYXXXIYYIXXXY", "ZXYXIXYXZYIXIIX"),)
_Q15_TRADED_I = ("ZZYIZYXXYZIYZZI", "XXZIXZYYZXIZXXI")


def hamming_matrix() -> BitMatrix:
    """Parity check of the dual-containing [7,4,3] Hamming code."""
    return BitMatrix.from_rows(_HAMMING_H)


def _pure_type_css(gens) -> CssPair | None:
    """Derive classical CSS structure when every generator is pure Z or
    pure X."""
    z_rows, x_rows = [], []
    n = gens[0].n
    for g in gens:
        if g.x == 0:
            z_rows.append(g.z)
        elif g.z == 0:
            x_rows.append(g.x)
        else:
            return None
    if not z_rows or not x_rows:
        return None
    return CssPair(
        hz=BitMatrix(len(z_rows), n, tuple(z_rows)),
        hx=BitMatrix(len(x_rows), n, tuple(x_rows)),
    )


def _pauli_code(name: str, d: int, iso, pairs=(), gauge=(), logicals=()) -> QuantumCode:
    """The named code ``name``, of claimed distance ``d``, from Pauli
    strings: isotropic generators ``iso``, entanglement ``pairs``,
    ``gauge`` pairs and logical (Z, X) pairs.  Its CSS structure is
    that of the measured generators, the isotropic ones and both halves
    of each entanglement pair."""
    gens_i = tuple(map(parse_pauli, iso))
    gens_e, gens_g, logs = (tuple(tuple(map(parse_pauli, p)) for p in group)
                            for group in (pairs, gauge, logicals))
    measured = gens_i + tuple(g for pair in gens_e for g in pair)
    return QuantumCode(n=gens_i[0].n, gens_i=gens_i, gens_e=gens_e, gens_g=gens_g,
                       d_claimed=d, logicals=logs, css=_pure_type_css(measured), name=name)


def bch63_matrix() -> BitMatrix:
    """24 x 63 binary parity check of the [63,39,9] BCH code.

    Rows are the binary expansions of the GF(2^6) power rows
    alpha^(j i), i = 0..62, for j = 1, 3, 5, 7 (6 bits per symbol, low
    bit first).  GF(2^6) is GF(2)[a]/(a^6 + a + 1) with alpha = a, so
    each symbol is the last one times a^j, reduced by ``qc_ldpc.poly_mod``.
    """
    modulus = 0b1000011  # a^6 + a + 1
    rows = []
    for j in (1, 3, 5, 7):
        step = qc_ldpc.poly_mod(1 << j, modulus)
        symbols = [1]
        for _ in range(62):
            symbols.append(qc_ldpc.poly_mod(qc_ldpc.poly_mul(symbols[-1], step), modulus))
        rows += [[(s >> bit) & 1 for s in symbols] for bit in range(6)]
    return BitMatrix.from_rows(rows)


def q15_matrix() -> F4Matrix:
    """The [15,10,4] quaternary parity check."""
    return gf4.parse_f4(_Q15_H4)


def q15_traded() -> QuantumCode:
    """Gauge-traded variant of the q15 code: a searched symplectic pair
    moved from the entanglement to the gauge subgroup, trading one ebit
    for a gauge qubit at the cost of one unit of distance."""
    return _pauli_code("q15_traded", 3, _Q15_TRADED_I, _Q15_TRADED_E, _Q15_TRADED_G)


def _ex_hi() -> QuantumCode:
    """CSS code of the ex-HI pair: H_C checks on the Z side, H_D on the X side."""
    hz, hx = (qc_ldpc.expand(e) for e in qc_ldpc.make_ex_hi())
    return build_from_sp(css_sp_matrix(hz, hx), css=CssPair(hz=hz, hx=hx), name="hi")


@dataclass(frozen=True)
class NamedCode:
    """One of the paper's named codes.

    ``build`` constructs it, ``claimed`` is the parameter string the
    paper gives for it (None when it gives none) and, for quasi-cyclic
    codes, ``exponents`` returns the labelled exponent matrices that the
    ``qcldpc`` report analyses.
    """

    build: Callable[[], QuantumCode]
    claimed: str | None
    exponents: Callable[[], list[tuple[str, qc_ldpc.ExponentMatrix]]] | None = None


#: every named code in report order, keyed by the name its builder gives
#: it.  Builders look the public construction functions up when they run
#: and build nothing at import.
NAMED: dict[str, NamedCode] = {
    "shor9": NamedCode(
        lambda: _pauli_code("shor9", 3, _SHOR9, logicals=(("Z" * 9, "X" * 9),)),
        "[[9,1,3;0]]",
    ),
    "steane7": NamedCode(
        lambda: _pauli_code("steane7", 3, _STEANE7, logicals=(("Z" * 7, "X" * 7),)),
        "[[7,1,3;0]]",
    ),
    "ea8": NamedCode(
        lambda: _pauli_code("ea8", 3, _EA8_ISO, _EA8_PAIRS, logicals=_EA8_LOGICALS),
        "[[8,1,3;1]]",
    ),
    "eaoq8": NamedCode(
        lambda: _pauli_code("eaoq8", 3, _EAOQ8_ISO, _EA8_PAIRS, _EAOQ8_GAUGE, _EA8_LOGICALS),
        "[[8,1,3;2,1]]",
    ),
    "bch63": NamedCode(
        lambda: build_eaqecc_binary(bch63_matrix(), d_claimed=9, name="bch63"),
        "[[63,21,9;6]]",
    ),
    "q15": NamedCode(
        lambda: build_eaqecc_gf4(q15_matrix(), d_claimed=4, name="q15"),
        "[[15,9,4;4]]",
    ),
    "fivequbit": NamedCode(
        lambda: _pauli_code("fivequbit", 3, _FIVEQUBIT, logicals=(("Z" * 5, "X" * 5),)),
        "[[5,1,3;0]]",
    ),
    "q15_traded": NamedCode(lambda: q15_traded(), None),
    "ex1": NamedCode(
        lambda: build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex1()), name="ex1"),
        "[[128,48,6;18]]",
        lambda: [("ex1", qc_ldpc.make_ex1())],
    ),
    "ex2": NamedCode(
        lambda: build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex2()), name="ex2"),
        "[[128,48,6;18]]",
        lambda: [("ex2", qc_ldpc.make_ex2())],
    ),
    "mackay": NamedCode(
        lambda: build_eaqecc_binary(qc_ldpc.make_ex_mackay(seed=0), name="mackay"),
        None,
    ),
    "hi": NamedCode(
        _ex_hi,
        "[[120,38,4]]",
        lambda: list(zip(("hi_C", "hi_D"), qc_ldpc.make_ex_hi())),
    ),
}

#: the seven codes of the paper's tables
BUILTIN_NAMES = tuple(NAMED)[:7]


def builtin(name: str) -> QuantumCode:
    """Construct the named code ``name``, a key of :data:`NAMED`."""
    if name not in NAMED:
        raise KeyError(f"unknown builtin {name!r}; choose from {tuple(NAMED)}")
    return NAMED[name].build()


# -- reports --------------------------------------------------------------


@dataclass(frozen=True)
class CodeReport:
    params: str
    #: every generator commutes with every other, as
    #: :func:`is_dual_containing` checks on the (z|x) generator matrix
    dual_containing: bool
    singleton_ok: bool
    hamming_ok: bool | None
    verified_d: int | None


def make_report(code: QuantumCode, budget: int = 10 ** 6) -> CodeReport:
    """Analyze a code: bounds plus a distance verification attempt.

    The distance claim is verified in degenerate mode when the
    enumeration fits the budget; strict verification upgrades
    ``hamming_ok`` from None to a real answer (the bound only applies
    to non-degenerate codes).
    """
    verified = None
    hamming_ok = None
    d = code.d_claimed
    if d is not None:
        try:
            if verify_distance(code, d, "degenerate", budget):
                verified = d
                # the budget does not depend on the mode, so this fits too
                if verify_distance(code, d, "strict", budget):
                    hamming_ok = hamming_check(code, d)
        except VerificationBudgetError:
            pass
    # with no distance claim there is nothing for the bound to violate
    singleton = singleton_check(code) if d is not None else True
    return CodeReport(
        params=code.params,
        dual_containing=(code.c == 0 and code.r == 0),
        singleton_ok=singleton,
        hamming_ok=hamming_ok,
        verified_d=verified,
    )


def format_report(code: QuantumCode, report: CodeReport | None = None) -> str:
    """Text report: parameter line, checks, generator table.

    Entanglement pairs are shown with their receiver-side extension
    after a ``|``: the first pair member gets Z on its ebit, the second
    gets X.
    """
    if report is None:
        report = make_report(code)
    claimed = NAMED[code.name].claimed if code.name in NAMED else None
    lines = [f"computed: {report.params}"]
    if claimed:
        lines.append(f"claimed:  {claimed}")
    lines.append(f"dual-containing: {'yes' if report.dual_containing else 'no'}")
    lines.append(f"singleton: {'ok' if report.singleton_ok else 'VIOLATED'}")
    if report.hamming_ok is not None:
        lines.append(f"hamming: {'ok' if report.hamming_ok else 'VIOLATED'}")
    if report.verified_d is not None:
        lines.append(f"verified distance: {report.verified_d}")
    c = code.c
    idle = "|" + "I" * c if c else ""   # receiver side of every other row
    flat = itertools.chain.from_iterable
    for label, rows in (
        ("S_I", [(g, idle) for g in code.gens_i]),
        ("S_E", [(g, f"|{'I' * j}{kind}{'I' * (c - j - 1)}")
                 for j, pair in enumerate(code.gens_e) for g, kind in zip(pair, "ZX")]),
        ("S_G", [(g, idle) for g in flat(code.gens_g)]),
        ("logicals", [(g, idle) for g in flat(code.logicals)]),
    ):
        if rows:
            lines.append(f"{label}:")
            lines += (f"  {format_pauli(g)}{side}" for g, side in rows)
    return "\n".join(lines) + "\n"
