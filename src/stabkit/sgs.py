"""Constructive symplectic Gram-Schmidt over (Z_2)^{2n}.

Decomposes the span of a set of Pauli vectors into hyperbolic
(anticommuting) pairs and a residual isotropic part, while completing
the result to a full symplectic basis of the ambient space.  The pair
count ``c`` is the number of ebits an entanglement-assisted code built
on the input generators consumes; the isotropic generators become the
commuting stabilizer.

The input is brought to reduced row-echelon form once; that row order
feeds the pairing below.  The span is then completed to a basis of
(Z_2)^{2n} by appending each unit vector e_0, e_1, ... that does not
lie in the span so far.  Membership is decided by reducing e_k against
the basis rows keyed by their lowest set bit, so the completion costs
O(n^2) big-int XORs of 2n-bit rows rather than one elimination per
candidate.

The procedure then runs up to n rounds.  Each round takes the current leading
vector u, finds the first remaining vector v that anticommutes with it
(smallest index wins, so the output is deterministic for a given input
order), and makes every other vector commute with both via

    w  ->  w + (v . w) u + (u . w) v .

A symplectic product a . b is the parity of swap(a) & b, where swap
(``pauli.swap_halves``) exchanges the z and x halves; swap(u) and
swap(v) are formed once per round.  Vectors of the input span are kept
at the front of the working list, so membership of u and v in the span
is read off positionally.  The rounds whose u lies in the input span
come first; once the span is used up, every later round only builds
``completion``.

Only ``decompose`` runs those completion rounds, for ``full_basis()``.
``split_span`` and ``symp_dim``, and through them the code builders and
``cli sgs``, stop where the span is used up: on an [[n, k]] code that
skips k of the n rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .f2 import BitMatrix, _echelon
from .pauli import PauliVec, swap_halves

__all__ = ["GroupDecomposition", "decompose", "split_span", "symp_dim"]


@dataclass(frozen=True)
class GroupDecomposition:
    """Result of the symplectic Gram-Schmidt procedure.

    ``pairs`` are the c hyperbolic pairs spanning the symplectic part of
    the input, ``isotropic`` the ell generators of the (unique)
    isotropic part.  ``iso_partners[i]`` is the hyperbolic partner of
    ``isotropic[i]`` in the ambient completion, and ``completion`` holds
    the remaining pairs extending everything to a full symplectic basis
    of (Z_2)^{2n}; both lie outside the input span.
    """

    n: int
    c: int
    ell: int
    pairs: tuple[tuple[PauliVec, PauliVec], ...]
    isotropic: tuple[PauliVec, ...]
    iso_partners: tuple[PauliVec, ...] = field(repr=False, default=())
    completion: tuple[tuple[PauliVec, PauliVec], ...] = field(repr=False, default=())

    def full_basis(self) -> list[tuple[PauliVec, PauliVec]]:
        """All n hyperbolic pairs: input pairs, isotropic+partner, completion."""
        out = list(self.pairs)
        out += list(zip(self.isotropic, self.iso_partners))
        out += list(self.completion)
        return out

    def span_matrix(self) -> BitMatrix:
        """(z|x) rows spanning the input subspace (2c + ell rows)."""
        rows = []
        for u, v in self.pairs:
            rows.append(u.packed())
            rows.append(v.packed())
        rows.extend(u.packed() for u in self.isotropic)
        if not rows:
            raise ValueError("decomposition of an empty subspace has no span")
        return BitMatrix(len(rows), 2 * self.n, tuple(rows))


def _packed(basis, n: int | None) -> tuple[list[int], int]:
    """(z|x) rows of the PauliVec iterable ``basis`` and its qubit count;
    ``n`` is only needed when ``basis`` is empty."""
    vecs = list(basis)
    if vecs:
        n = vecs[0].n
        if any(v.n != n for v in vecs):
            raise ValueError("generators act on different qubit counts")
    elif n is None:
        raise ValueError("empty input needs an explicit qubit count")
    return [v.packed() for v in vecs], n


def _gram_schmidt(rows: list[int], n: int, complete: bool):
    """The Gram-Schmidt rounds over packed (z|x) ``rows``; returns the
    tuples (pairs, isotropic, iso_partners, completion) of PauliVec.
    When ``complete`` is false the rounds stop once the input span is
    used up, so ``completion`` is empty."""
    reduced, pivots = _echelon(rows, 2 * n)
    m = len(reduced)

    # extend to a basis of the full 2n-dimensional space: e_k joins when
    # it does not reduce to zero against the span so far, whose rows are
    # keyed by their lowest set bit (the pivot, for the echelon rows)
    work = list(reduced)
    span = dict(zip(pivots, reduced))
    for k in range(2 * n):
        if len(work) == 2 * n:
            break
        cand = w = 1 << k
        while w:
            low = (w & -w).bit_length() - 1
            row = span.get(low)
            if row is None:
                span[low] = w
                work.append(cand)
                break
            w ^= row

    pairs: list[tuple[int, int]] = []
    isotropic: list[int] = []
    iso_partners: list[int] = []
    completion: list[tuple[int, int]] = []

    m_rem = m
    while work and (m_rem or complete):
        u = work[0]
        su = swap_halves(u, n)
        j = None
        for idx in range(1, len(work)):
            if (su & work[idx]).bit_count() & 1:
                j = idx
                break
        assert j is not None, "no symplectic partner found; basis invariant broken"
        v = work[j]
        sv = swap_halves(v, n)

        if j + 1 <= m_rem:  # partner inside the remaining span: hyperbolic pair
            work[j], work[1] = work[1], work[j]
            rest = work[2:]
            m_rem -= 2
            pairs.append((u, v))
        else:
            work[j], work[-1] = work[-1], work[j]
            rest = work[1:-1]
            if m_rem >= 1:
                m_rem -= 1
                isotropic.append(u)
                iso_partners.append(v)
            else:
                completion.append((u, v))

        # w + (v . w) u + (u . w) v, with the two product bits as the index
        addend = (0, u, v, u ^ v)
        work = [w ^ addend[(sv & w).bit_count() & 1 | ((su & w).bit_count() & 1) << 1]
                for w in rest]

    as_pauli = lambda p: PauliVec.from_packed(p, n)
    return (
        tuple((as_pauli(u), as_pauli(v)) for u, v in pairs),
        tuple(map(as_pauli, isotropic)),
        tuple(map(as_pauli, iso_partners)),
        tuple((as_pauli(u), as_pauli(v)) for u, v in completion),
    )


def decompose(basis, n: int | None = None) -> GroupDecomposition:
    """Symplectic Gram-Schmidt decomposition of span(basis), completed to
    a full symplectic basis of (Z_2)^{2n}.

    ``basis`` is an iterable of equal-length PauliVec; it may be
    linearly dependent (dependent vectors are dropped by a preliminary
    echelonization).  ``n`` is only needed when ``basis`` is empty.
    """
    rows, n = _packed(basis, n)
    pairs, isotropic, iso_partners, completion = _gram_schmidt(rows, n, complete=True)
    return GroupDecomposition(
        n=n,
        c=len(pairs),
        ell=len(isotropic),
        pairs=pairs,
        isotropic=isotropic,
        iso_partners=iso_partners,
        completion=completion,
    )


def split_span(basis, n: int | None = None) -> tuple[
        tuple[tuple[PauliVec, PauliVec], ...], tuple[PauliVec, ...]]:
    """``(pairs, isotropic)`` of ``decompose(basis, n)``: the hyperbolic
    pairs and the isotropic part of span(basis), which is all a code
    construction needs.  The rounds stop where the input span is used
    up, so no completion to a basis of (Z_2)^{2n} is built."""
    rows, n = _packed(basis, n)
    pairs, isotropic, _, _ = _gram_schmidt(rows, n, complete=False)
    return pairs, isotropic


def symp_dim(basis, n: int | None = None) -> int:
    """Half the dimension of the symplectic part of span(basis).

    For (z|x) rows coming from a CSS block matrix this equals
    rank(H H^T) over GF(2).
    """
    return len(split_span(basis, n=n)[0])
