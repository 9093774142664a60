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

The procedure then runs n rounds.  Each round takes the current leading
vector u, finds the first remaining vector v that anticommutes with it
(smallest index wins, so the output is deterministic for a given input
order), and makes every other vector commute with both via

    w  ->  w + (v . w) u + (u . w) v .

A symplectic product a . b is the parity of swap(a) & b, where swap
(``pauli.swap_halves``) exchanges the z and x halves; swap(u) and
swap(v) are formed once per round.  Vectors of the input span are kept
at the front of the working list, so membership of u and v in the span
is read off positionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .f2 import BitMatrix, _echelon
from .pauli import PauliVec, swap_halves

__all__ = ["GroupDecomposition", "decompose", "symp_dim"]


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


def decompose(basis, n: int | None = None) -> GroupDecomposition:
    """Symplectic Gram-Schmidt decomposition of span(basis).

    ``basis`` is an iterable of equal-length PauliVec; it may be
    linearly dependent (dependent vectors are dropped by a preliminary
    echelonization).  ``n`` is only needed when ``basis`` is empty.
    """
    vecs = list(basis)
    if vecs:
        n = vecs[0].n
        if any(v.n != n for v in vecs):
            raise ValueError("generators act on different qubit counts")
    elif n is None:
        raise ValueError("empty input needs an explicit qubit count")

    reduced, pivots = _echelon([v.packed() for v in vecs], 2 * n)
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
    for _ in range(n):
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

        work = [
            w ^ (u if (sv & w).bit_count() & 1 else 0) ^ (v if (su & w).bit_count() & 1 else 0)
            for w in rest
        ]

    as_pauli = lambda p: PauliVec.from_packed(p, n)
    return GroupDecomposition(
        n=n,
        c=len(pairs),
        ell=len(isotropic),
        pairs=tuple((as_pauli(u), as_pauli(v)) for u, v in pairs),
        isotropic=tuple(as_pauli(u) for u in isotropic),
        iso_partners=tuple(as_pauli(v) for v in iso_partners),
        completion=tuple((as_pauli(u), as_pauli(v)) for u, v in completion),
    )


def symp_dim(basis, n: int | None = None) -> int:
    """Half the dimension of the symplectic part of span(basis).

    For (z|x) rows coming from a CSS block matrix this equals
    rank(H H^T) over GF(2).
    """
    return decompose(basis, n=n).c
