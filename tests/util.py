"""Shared generators for randomized test corpora."""

from __future__ import annotations

import re

import numpy as np
from hypothesis import strategies as st

from stabkit.f2 import BitMatrix
from stabkit.pauli import PauliVec
from stabkit.qc_ldpc import ExponentEntry, ExponentMatrix


def random_bitmatrix(rng, rows, cols, density=0.5) -> BitMatrix:
    return BitMatrix.from_rows((rng.random((rows, cols)) < density).astype(int))


def random_pauli_list(rng, count, n) -> list[PauliVec]:
    out = []
    for _ in range(count):
        z = int(rng.integers(0, 1 << n))
        x = int(rng.integers(0, 1 << n))
        out.append(PauliVec(n, z, x))
    return out


def random_exponent_matrix(rng, r_max=32, r_min=2, type_i=False) -> ExponentMatrix:
    """Random J x L exponent matrix, J in 1..4 and L in 2..8, with r in
    r_min..r_max.  Type-II by default (zero, binomial and monomial
    entries); ``type_i`` draws monomials only."""
    r = int(rng.integers(r_min, r_max + 1))
    J = int(rng.integers(1, 5))
    L = int(rng.integers(2, 9))
    grid = []
    for _ in range(J):
        row = []
        for _ in range(L):
            kind = 1.0 if type_i else rng.random()
            if kind < 0.15:
                row.append(ExponentEntry.zero())
            elif kind < 0.55 and r >= 2:
                e1, e2 = rng.choice(r, size=2, replace=False)
                row.append(ExponentEntry.binomial(int(e1), int(e2)))
            else:
                row.append(ExponentEntry.monomial(int(rng.integers(r))))
        grid.append(tuple(row))
    return ExponentMatrix(r, J, L, tuple(grid))


@st.composite
def exponent_matrices(draw, r_max=12):
    """``random_exponent_matrix`` from a drawn seed, r from 1 up, Type-I
    or Type-II."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_exponent_matrix(rng, r_max, r_min=1, type_i=draw(st.booleans()))


def random_tree_check_matrix(rng, n_bits, n_checks) -> BitMatrix:
    """Random acyclic bipartite check matrix (every check non-empty)."""
    edges = []
    bits = [0]
    checks = []
    for c in range(n_checks):
        edges.append((c, int(rng.choice(bits))))
        checks.append(c)
        if len(bits) < n_bits:
            nb = len(bits)
            bits.append(nb)
            edges.append((c, nb))
    while len(bits) < n_bits:
        nb = len(bits)
        bits.append(nb)
        edges.append((int(rng.choice(checks)), nb))
    rows = [0] * n_checks
    for c, b in edges:
        rows[c] |= 1 << b
    return BitMatrix(n_checks, n_bits, tuple(rows))


#: tokens spliced into parser inputs: signs, zeros, huge and overlong
#: integers, field and Pauli symbols, separators and control characters
FUZZ_TOKENS = ("-1", "0", "1", "-", "+", "2+", "3+4", "w", "W", "X", "I", "|", "#",
               str(2 ** 64), "9" * 5000, "1e3", "nan", " ", "\t", "\n", "\x00", "")


@st.composite
def mutated_text(draw, text: str):
    """``text`` after 1-6 insertions, replacements and deletions of its
    whitespace-delimited tokens; separators count as tokens too."""
    parts = re.split(r"(\s+)", text)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        i = draw(st.integers(0, max(len(parts) - 1, 0)))
        token = draw(st.sampled_from(FUZZ_TOKENS))
        if kind == "insert":
            parts.insert(i, token)
        elif kind == "replace" and parts:
            parts[i] = token
        elif parts:
            del parts[i]
    return "".join(parts)
