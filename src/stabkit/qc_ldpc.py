"""Quasi-cyclic LDPC codes from circulant descriptor matrices.

A J x L exponent matrix describes a binary parity check built from
r x r circulant blocks: each entry is a monomial X^e (a cyclic
permutation), a binomial X^e1 + X^e2, or zero.  Polynomials over
GF(2)[X]/(X^r - 1) have one form, a packed Python integer (bit i =
coefficient of X^i): the first row of the r x r circulant.  Products
are taken over GF(2)[X] and folded back below degree r by ``_cyclic``.

Two rank pipelines are provided: bit-level Gaussian elimination on the
expanded matrix, and a polynomial-domain route that diagonalizes the
descriptor grid over GF(2)[X] and reads each diagonal's rank off
gcd(d(X), X^r - 1).  They must agree; tests and reports cross-check.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .f2 import BitMatrix, _headed, _ints

__all__ = [
    "ExponentEntry",
    "ExponentMatrix",
    "poly_deg",
    "poly_mul",
    "poly_divmod",
    "poly_mod",
    "poly_gcd",
    "circ_rank",
    "circ_transpose",
    "expand",
    "row_difference",
    "is_multiplicity_even",
    "is_multiplicity_free",
    "girth_ge_6",
    "dual_containing_qc",
    "girth_exact",
    "hermitian_poly_product",
    "rank_bound",
    "qc_f2_rank",
    "hermitian_rank_poly",
    "hermitian_corank_poly",
    "expansion_rank_poly",
    "make_ex1",
    "make_ex2",
    "make_ex_mackay",
    "make_ex_hi",
    "parse_exponent",
    "format_exponent",
]


# -- polynomial arithmetic over GF(2)[X], packed into ints ----------------


def poly_deg(p: int) -> int:
    """Degree; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        j = (b & -b).bit_length() - 1
        acc ^= a << j
        b &= b - 1
    return acc


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = poly_deg(b)
    while poly_deg(a) >= db:
        shift = poly_deg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _cyclic(p: int, r: int) -> int:
    """p mod X^r - 1: since X^r = 1, the bits at r and above fold onto
    the low r bits."""
    mask = (1 << r) - 1
    while p >> r:
        p = (p & mask) ^ (p >> r)
    return p


def circ_transpose(p: int, r: int) -> int:
    """X^k -> X^{r-k}: the polynomial of the transposed circulant."""
    out = 0
    while p:
        k = (p & -p).bit_length() - 1
        out ^= 1 << (-k % r)
        p &= p - 1
    return out


def circ_rank(p: int, r: int) -> int:
    """GF(2) rank of the r x r circulant of p: r - deg gcd(p(X), X^r - 1)."""
    if p == 0:
        return 0
    return r - poly_deg(poly_gcd(p, (1 << r) | 1))


# -- exponent matrices ----------------------------------------------------


@dataclass(frozen=True)
class ExponentEntry:
    """One circulant descriptor: monomial X^e, binomial X^e1 + X^e2, or
    zero (written as infinity / '-')."""

    exponents: tuple[int, ...]  # () = zero block; 1 or 2 sorted exponents

    def __post_init__(self):
        if len(self.exponents) > 2:
            raise ValueError("at most two exponents per entry")
        if len(self.exponents) == 2 and self.exponents[0] == self.exponents[1]:
            raise ValueError("binomial needs two distinct exponents")

    @classmethod
    def zero(cls) -> "ExponentEntry":
        return cls(())

    @classmethod
    def monomial(cls, e: int) -> "ExponentEntry":
        return cls((e,))

    @classmethod
    def binomial(cls, e1: int, e2: int) -> "ExponentEntry":
        return cls(tuple(sorted((e1, e2))))

    @property
    def is_zero(self) -> bool:
        return not self.exponents

    @property
    def is_monomial(self) -> bool:
        return len(self.exponents) == 1

    def poly(self, r: int) -> int:
        """Sum of X^e over the exponents, each in 0..r-1."""
        p = 0
        for e in self.exponents:
            if not 0 <= e < r:
                raise ValueError(f"exponent {e} out of range for r={r}")
            p |= 1 << e
        return p

    def __str__(self) -> str:
        if self.is_zero:
            return "-"
        return "+".join(str(e) for e in self.exponents)


@dataclass(frozen=True)
class ExponentMatrix:
    r: int
    J: int
    L: int
    entries: tuple[tuple[ExponentEntry, ...], ...]

    def __post_init__(self):
        if self.r < 1 or self.J < 1 or self.L < 1:
            raise ValueError("exponent matrix dimensions must be positive")
        if len(self.entries) != self.J or any(len(row) != self.L for row in self.entries):
            raise ValueError("entry grid does not match declared shape")
        for row in self.entries:
            for e in row:
                for exp in e.exponents:
                    if not 0 <= exp < self.r:
                        raise ValueError(f"exponent {exp} out of range for r={self.r}")

    @classmethod
    def from_lists(cls, r: int, rows) -> "ExponentMatrix":
        """Rows of entries given as int (monomial), (e1, e2) tuple
        (binomial), or None (zero block)."""
        grid = []
        for row in rows:
            out = []
            for item in row:
                if item is None:
                    out.append(ExponentEntry.zero())
                elif isinstance(item, tuple):
                    out.append(ExponentEntry.binomial(*item))
                else:
                    out.append(ExponentEntry.monomial(int(item)))
            grid.append(tuple(out))
        if not grid:
            raise ValueError("exponent matrix has no rows")
        return cls(r, len(grid), len(grid[0]), tuple(grid))

    @property
    def is_type_i(self) -> bool:
        return all(e.is_monomial for row in self.entries for e in row)

    def poly_grid(self) -> list[list[int]]:
        return [[e.poly(self.r) for e in row] for row in self.entries]

    def __str__(self) -> str:
        return format_exponent(self)


def expand(e: ExponentMatrix) -> BitMatrix:
    """Jr x Lr bit matrix whose (j, l) block is the circulant of entry
    (j, l)'s polynomial; X^k puts row i's one at column (i + k) mod r."""
    r = e.r
    rows = []
    for polys in e.poly_grid():
        first = sum(p << (l * r) for l, p in enumerate(polys))
        rows += BitMatrix.packed_circulant(first, r, e.L).bits
    return BitMatrix(e.J * r, e.L * r, tuple(rows))


def row_difference(e: ExponentMatrix, i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Formal difference of exponent rows i and j, as one tuple of
    residues mod r per column.

    A zero block in either row yields an empty column; otherwise the
    column holds every pairwise exponent difference, so binomial against
    binomial gives four residues (for i == j this includes the
    structural zeros of an entry against itself, which matter for the
    dual-containment test).
    """
    cols = []
    for a, b in zip(e.entries[i], e.entries[j]):
        if a.is_zero or b.is_zero:
            cols.append(())
        else:
            cols.append(tuple((x - y) % e.r for x in a.exponents for y in b.exponents))
    return tuple(cols)


def is_multiplicity_even(d: tuple[tuple[int, ...], ...]) -> bool:
    return all(v % 2 == 0 for v in Counter(x for col in d for x in col).values())


def is_multiplicity_free(d: tuple[tuple[int, ...], ...]) -> bool:
    res = [x for col in d for x in col]
    return len(res) == len(set(res))


def girth_ge_6(e: ExponentMatrix) -> bool:
    """No 4-cycles, via the multiplicity-free criterion.

    Cross-layer: the full difference vector must be multiplicity free.
    Within a layer only the off-diagonal differences of binomial entries
    can close a 4-cycle, so the structural zeros x - x are dropped there.
    An entry's exponents are distinct and below r, so x - y = 0 mod r
    only when x = y, and the non-zero residues are exactly the proper
    ones.
    """
    for i in range(e.J):
        self_res = [d for col in row_difference(e, i, i) for d in col if d]
        if len(self_res) != len(set(self_res)):
            return False
        for j in range(i + 1, e.J):
            if not is_multiplicity_free(row_difference(e, i, j)):
                return False
    return True


def dual_containing_qc(e: ExponentMatrix) -> bool:
    """Every row difference (self-differences included) multiplicity
    even, equivalently H H^T = 0 over GF(2)."""
    return all(
        is_multiplicity_even(row_difference(e, i, j))
        for i in range(e.J)
        for j in range(i, e.J)
    )


def girth_exact(h: BitMatrix) -> float:
    """Girth of the bipartite check/bit graph; +inf when acyclic.

    One level-synchronous breadth-first search runs from every check at
    once.  Each vertex carries packed source masks: bit s of ``reached``
    means check s has reached it, bit s of the frontier that s reached
    it at the last level.  A level walks every edge into the other side
    once, keeping ``once |= f`` and ``twice |= once & f`` over the
    frontier masks f of a vertex's neighbours.

    Exact: if vertex w is first reached from s at level d through two
    frontier neighbours, the two shortest s-w paths differ in their last
    edge, so their union holds a cycle no longer than 2d.  Conversely
    every cycle of a bipartite graph passes through a check s, and on a
    shortest cycle, of length 2k, graph distances equal distances along
    the cycle, so the vertex opposite s is first reached at level k from
    both of its cycle neighbours.  The first level d with such a vertex
    is therefore girth / 2.  When a level reaches nothing new, the graph
    has no cycle.
    """
    check_nbrs = []
    bit_nbrs: list[list[int]] = [[] for _ in range(h.cols)]
    for i, v in enumerate(h.bits):
        row = []
        while v:
            low = v & -v
            j = low.bit_length() - 1
            row.append(j)
            bit_nbrs[j].append(i)
            v ^= low
        check_nbrs.append(row)
    # side 0 holds the checks, side 1 the bits; nbrs[side][w] lists the
    # other side's neighbours of w
    nbrs = (check_nbrs, bit_nbrs)
    reached = ([1 << s for s in range(h.rows)], [0] * h.cols)
    frontier = list(reached[0])
    level = side = 0
    while True:
        level += 1
        side ^= 1
        seen = reached[side]
        nxt = []
        for w, ws in enumerate(nbrs[side]):
            once = twice = 0
            for u in ws:
                f = frontier[u]
                twice |= once & f
                once |= f
            old = seen[w]
            if twice & ~old:
                return 2 * level
            new = once & ~old
            seen[w] = old | new
            nxt.append(new)
        if not any(nxt):
            return math.inf
        frontier = nxt


def hermitian_poly_product(e: ExponentMatrix) -> list[list[int]]:
    """J x J grid of H(X) H(X)^T with the transpose rule X^k -> X^{r-k}."""
    grid = e.poly_grid()
    grid_t = [[circ_transpose(p, e.r) for p in row] for row in grid]
    return [[_cyclic(functools.reduce(operator.xor, map(poly_mul, a, b), 0), e.r)
             for b in grid_t] for a in grid]


def rank_bound(e: ExponentMatrix) -> int:
    """Layer-sum estimate of rank(H H^T), which is no bound on it in
    either direction: the sum over the block rows of the polynomial
    product H H^T of each row's largest ``circ_rank``, or J(r - L + 1)
    when that is smaller, for even-row-weight Type-I matrices whose
    off-diagonal products share a factor with X^r - 1.

    A block row's largest circulant rank bounds that row's rank from
    below, while the rows' ranks sum to at least rank(H H^T), so the
    sum of the maxima can fall on either side.  It reads 27 on ex1 and
    ex2 (rank 18), but 12 on both matrices of ``make_ex_hi()`` (rank
    16), and 4 on the r = 5 exponents [[2, 0, 0, 0], [0, 3, 2, 3]]
    (rank 8).  ``hermitian_rank_poly`` gives the rank itself."""
    hat = hermitian_poly_product(e)
    layer_sum = sum(
        max(circ_rank(p, e.r) for p in row) for row in hat
    )
    bounds = [layer_sum]
    if e.is_type_i and e.L % 2 == 0:
        # a product shares a factor with X^r - 1 iff its circulant is singular
        off_diag_share = all(
            circ_rank(hat[i][j], e.r) < e.r
            for i in range(e.J)
            for j in range(e.J)
            if i != j
        )
        if off_diag_share:
            bounds.append(e.J * (e.r - e.L + 1))
    return min(bounds)


# -- polynomial-domain rank of block-circulant matrices -------------------


def qc_f2_rank(grid: list[list[int]], r: int) -> int:
    """GF(2) rank of the block matrix whose (i, j) block is the r x r
    circulant of grid[i][j].

    Diagonalizes the polynomial matrix over the Euclidean domain
    GF(2)[X] (unimodular row/column operations descend to the quotient
    modulo X^r - 1), then each diagonal d contributes
    r - deg gcd(d, X^r - 1).
    """
    M = [[_cyclic(p, r) for p in row] for row in grid]
    total = 0
    while any(map(any, M)):
        cells = [(i, j) for i, row in enumerate(M) for j, p in enumerate(row) if p]
        while cells:
            # move a minimal-degree nonzero entry (the first in row-major
            # order on ties) to the pivot position
            bi, bj = min(cells, key=lambda ij: poly_deg(M[ij[0]][ij[1]]))
            M[0], M[bi] = M[bi], M[0]
            for row in M:
                row[0], row[bj] = row[bj], row[0]
            pivot = M[0][0]
            for i in range(1, len(M)):
                if M[i][0]:
                    q, rem = poly_divmod(M[i][0], pivot)
                    M[i] = [_cyclic(a ^ poly_mul(q, b), r) for a, b in zip(M[i], M[0])]
                    M[i][0] = rem
            for j in range(1, len(M[0])):
                if M[0][j]:
                    q, rem = poly_divmod(M[0][j], pivot)
                    for i in range(len(M)):
                        M[i][j] = _cyclic(M[i][j] ^ poly_mul(q, M[i][0]), r)
                    M[0][j] = rem
            # a nonzero remainder has smaller degree than the pivot:
            # promote the least of them and reduce again
            cells = ([(0, j) for j in range(1, len(M[0])) if M[0][j]]
                     + [(i, 0) for i in range(1, len(M)) if M[i][0]])
        total += circ_rank(M[0][0], r)
        M = [row[1:] for row in M[1:]]
    return total


def hermitian_rank_poly(e: ExponentMatrix) -> int:
    """rank(H H^T) via the polynomial pipeline (the ebit count)."""
    return qc_f2_rank(hermitian_poly_product(e), e.r)


def hermitian_corank_poly(e: ExponentMatrix) -> int:
    """Total gcd degree of the diagonalized H H^T grid: the sum of
    deg gcd(d_i(X), X^r - 1) over the polynomial Smith diagonal, which
    equals Jr - rank(H H^T)."""
    return e.J * e.r - hermitian_rank_poly(e)


def expansion_rank_poly(e: ExponentMatrix) -> int:
    """rank(H) via the polynomial pipeline."""
    return qc_f2_rank(e.poly_grid(), e.r)


# -- the named constructions ----------------------------------------------


def make_ex1() -> ExponentMatrix:
    """Type-I (3,8)-regular descriptor, r=16: rows X^1..., arithmetic
    and doubled-arithmetic exponent progressions."""
    return ExponentMatrix.from_lists(16, [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 2, 3, 4, 5, 6, 7, 8],
        [1, 3, 5, 7, 9, 11, 13, 15],
    ])


def make_ex2() -> ExponentMatrix:
    """Type-II (3,8)-regular descriptor, r=16, with binomial and zero
    blocks arranged so each layer of H H^T has low circulant rank."""
    return ExponentMatrix.from_lists(16, [
        [(1, 2), None, (1, 4), None, (1, 6), None, (1, 8), None],
        [5, 5, 6, 6, 7, 7, 8, 8],
        [None, (1, 2), None, (1, 4), None, (1, 6), None, (1, 8)],
    ])


def make_ex_mackay(n: int = 128, m: int = 48, L: int = 8, seed: int = 0,
                   reject_4cycles: bool = False) -> BitMatrix:
    """Dual-containing LDPC from a random cyclic block: H0 = [C, C^T]
    with C an (n/2 x n/2) cyclic matrix of row weight L/2, keeping the
    first m rows.

    Circulants commute, so C C^T + C^T C = 0 and any row subset is
    self-orthogonal.  4-cycles are expected and kept unless
    ``reject_4cycles`` asks for resampling.  That fails at once when
    L >= 4 and m > n/4: rows i and i + delta of [C, C^T], for delta a
    difference of C's support, share a column in each half, and one of
    +-delta mod n/2 is at most n/4, so every sample keeps a 4-cycle.
    """
    if n % 2 or m > n // 2:
        raise ValueError("need even n and m <= n/2")
    if m < 1:
        raise ValueError(f"row count m must be at least 1, got {m}")
    if L % 2 or not 2 <= L <= n:
        raise ValueError(f"row weight L must be even and in 2..n (C gets weight L/2), got {L}")
    no_sample = "no 4-cycle-free sample found for these parameters"
    if reject_4cycles and L >= 4 and 4 * m > n:
        raise ValueError(no_sample)
    half = n // 2
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        support = rng.choice(half, size=L // 2, replace=False)
        c = BitMatrix.packed_circulant(sum(1 << int(k) for k in support), half)
        h0 = c.hstack(c.transpose())
        h = h0.submatrix(range(m))
        if not reject_4cycles or girth_exact(h) >= 6:
            return h
    raise ValueError(no_sample)


def make_ex_hi(J: int = 3, L: int = 8, P: int = 15, sigma: int = 2,
               tau: int = 3) -> tuple[ExponentMatrix, ExponentMatrix]:
    """Girth->=6 Type-I descriptor pair over Z_P from a multiplicative
    orbit of sigma, for CSS use (first matrix: Z checks, second: X).

    Requires sigma invertible mod P with multiplicative order L/2, and
    tau invertible.  Row j of the first matrix runs sigma^(l-j) over the
    first half and -tau sigma^(j+l-1) over the second; the companion
    matrix swaps the roles of tau and the negation.
    """
    if P <= 2:
        raise ValueError("P must exceed 2")
    if math.gcd(sigma, P) != 1:
        raise ValueError("sigma must be invertible mod P")
    if tau % P == 0:
        raise ValueError("tau must be nonzero mod P")
    order = 1
    acc = sigma % P
    while acc != 1:
        acc = acc * sigma % P
        order += 1
        if order > P:
            raise ValueError("sigma has no finite order mod P (not a unit)")
    if order != L // 2:
        raise ValueError(f"ord(sigma) = {order} but L/2 = {L // 2}")
    if not 1 <= J <= L // 2:
        raise ValueError("need 1 <= J <= L/2")

    def spow(e: int) -> int:
        return pow(sigma, e % order, P)

    hc_rows = []
    hd_rows = []
    for j in range(J):
        hc_rows.append(
            [spow(l - j) for l in range(L // 2)]
            + [(-tau * spow(j + l - 1)) % P for l in range(L // 2, L)]
        )
        hd_rows.append(
            [tau * spow(l - j - 1) % P for l in range(L // 2)]
            + [(-spow(j + l - L // 2)) % P for l in range(L // 2, L)]
        )
    return (
        ExponentMatrix.from_lists(P, hc_rows),
        ExponentMatrix.from_lists(P, hd_rows),
    )


# -- text format -----------------------------------------------------------


def parse_exponent(text: str) -> ExponentMatrix:
    """Parse the exponent format: header "r J L", then exactly J rows of
    entries from {integer, e1+e2, -}."""
    (r, _, L), lines = _headed(text, "exponent matrix", ("header r", "header J", "header L"),
                               1, "exponent rows")
    rows = []
    for ln in lines:
        tokens = ln.split()
        if len(tokens) != L:
            raise ValueError(f"bad exponent row length: {ln!r}")
        row = []
        for t in tokens:
            if t == "-":
                row.append(None)
            elif "+" in t:
                row.append(tuple(_ints(t.split("+", 1), "exponent matrix", ln)))
            else:
                row.extend(_ints([t], "exponent matrix", ln))
        rows.append(row)
    return ExponentMatrix.from_lists(r, rows)


def format_exponent(e: ExponentMatrix) -> str:
    lines = [f"{e.r} {e.J} {e.L}"]
    for row in e.entries:
        lines.append(" ".join(str(ent) for ent in row))
    return "\n".join(lines) + "\n"
