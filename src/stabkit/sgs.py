"""Constructive symplectic Gram-Schmidt over (Z_2)^{2n}.

Decomposes the span of a set of Pauli vectors into hyperbolic
(anticommuting) pairs and a residual isotropic part; ``decompose`` also
completes the result to a full symplectic basis of the ambient space.
The pair count ``c`` is the number of ebits an entanglement-assisted
code built on the input generators consumes; the isotropic generators
become the commuting stabilizer.

The input is brought to reduced row-echelon form once; that row order
feeds the pairing below.  The span is extended to a basis of
(Z_2)^{2n} by each unit vector e_0, e_1, ... that does not lie in the
span so far.  These extension vectors have a closed form: e_k lies in
span(input, e_0, ..., e_{k-1}) exactly when some vector of the input
span has highest set bit k, so e_k joins exactly when k is not a pivot
of a highest-set-bit echelon form of the input.

Each round takes the current leading vector u, finds the first
remaining vector v that anticommutes with it (smallest index wins, so
the output is deterministic for a given input order), and makes every
other vector commute with both via

    w  ->  w + (v . w) u + (u . w) v .

A symplectic product a . b is the parity of swap(a) & b, where swap
(``pauli.swap_halves``) exchanges the z and x halves.  The span rows
come first in the working order and the extension vectors after them,
so the rounds whose u lies in the input span come first.  A partner
from the span takes the second slot; one from outside it takes the
last slot.  Once the span is used up, every later round only builds
``completion``.

Two engines run these rounds.  ``_rounds``, for ``decompose``, runs
them over the explicit vectors until the basis is complete.
``_split``, for ``split_span`` and ``symp_dim`` and through them the
code builders and ``stabkit sgs``, stops where the span is used up (on
an [[n, k]] code that skips k of the n rounds) and touches only the
span rows.  Next to its (z|x) bits each span row carries, in the bits
above 2n, its products with the extension vectors: bit k is the product
with the extension vector that started as e_k.  The map above changes
products by

    w' . x'  =  w . x + (v . w)(u . x) + (u . w)(v . x) ,

so one lookup on the two product bits updates a row and its products
together.  An extension vector is then tracked by its id alone.  When
no span row anticommutes with u, the partner is the first extension id
in working order whose bit is set in u's products, and each span row
with that bit set gains u, since it commutes with u.  This picks the
same v and yields the same rows as ``_rounds``, so both engines give
the same pairs and isotropic part; on the n = 256 ladder input
``_split`` skips 328 extension rows beside 184 span rows.
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
    """(z|x) rows of the PauliVec iterable ``basis`` and its qubit count.
    ``n`` is needed only when ``basis`` is empty; when given, it must be
    positive and agree with the generators."""
    vecs = list(basis)
    if n is not None and n < 1:
        raise ValueError(f"qubit count n must be at least 1, got {n}")
    if vecs:
        if any(v.n != vecs[0].n for v in vecs):
            raise ValueError("generators act on different qubit counts")
        if n is not None and n != vecs[0].n:
            raise ValueError(f"generators act on {vecs[0].n} qubits, but n={n} was given")
        n = vecs[0].n
    elif n is None:
        raise ValueError("empty input needs an explicit qubit count")
    return [v.packed() for v in vecs], n


def _start(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """The echelon rows of span(rows) and the extension vectors that
    complete them to a basis of (Z_2)^{2n}, as e_k in ascending k."""
    reduced, _ = _echelon(rows, 2 * n)
    # the rows of a highest-set-bit echelon form, keyed by bit_length
    high: dict[int, int] = {}
    for w in reduced:
        while (top := w.bit_length()) in high:
            w ^= high[top]
        high[top] = w
    return reduced, [1 << k for k in range(2 * n) if k + 1 not in high]


def _split(rows: list[int], n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The span rounds over packed (z|x) ``rows``: (pairs, isotropic)."""
    wide = 2 * n
    reduced, ext = _start(rows, n)
    # each span row w is held as w | g << 2n, where bit k of g is the
    # product of w with the extension vector of id e_k (initially e_k
    # itself, so g starts as swap(w)); ``ext`` lists the ids in work order
    mask = (1 << wide) - 1
    span = [w | swap_halves(w, n) << wide for w in reduced]
    pairs: list[tuple[int, int]] = []
    isotropic: list[int] = []
    while span:
        ru = span[0]
        u = ru & mask
        su = swap_halves(u, n)
        # u . u = 0, so the first 1 is the first partner after u
        prod_u = [(su & w).bit_count() & 1 for w in span]
        if 1 in prod_u:  # partner inside the remaining span: hyperbolic pair
            j = prod_u.index(1)
            rv = span[j]
            v = rv & mask
            span[j], prod_u[j] = span[1], prod_u[1]
            sv = swap_halves(v, n)
            pairs.append((u, v))
            # w + (v . w) u + (u . w) v, with the two product bits as the
            # index; the same index gives g + (v . w) g_u + (u . w) g_v,
            # the products of the new w with the updated extension vectors
            addend = (0, ru, rv, ru ^ rv)
            span = [w ^ addend[(sv & w).bit_count() & 1 | b << 1]
                    for w, b in zip(span[2:], prod_u[2:])]
        else:  # u commutes with the whole span: isotropic
            # its partner is the first extension vector in work order that
            # anticommutes with u, and the last one takes its slot
            gu = ru >> wide
            j = next(i for i, e in enumerate(ext) if gu & e)
            partner = ext[j] << wide
            ext[j] = ext[-1]
            ext.pop()
            isotropic.append(u)
            # u . w = 0 on every span row, so w gains u exactly when it
            # anticommutes with the partner, and g gains g_u with it
            span = [w ^ ru if w & partner else w for w in span[1:]]
    return pairs, isotropic


def _rounds(rows: list[int], n: int):
    """All n rounds over packed (z|x) ``rows`` and their extension
    vectors: (pairs, isotropic, iso_partners, completion)."""
    reduced, ext = _start(rows, n)
    m = len(reduced)  # how many vectors of the input span are left
    work = reduced + ext
    pairs: list[tuple[int, int]] = []
    isotropic: list[int] = []
    iso_partners: list[int] = []
    completion: list[tuple[int, int]] = []
    while work:
        u = work[0]
        su = swap_halves(u, n)
        prod_u = [(su & w).bit_count() & 1 for w in work]
        j = prod_u.index(1)
        v = work[j]
        if j < m:  # partner inside the span: it takes the second slot
            work[j], prod_u[j] = work[1], prod_u[1]
            rest, prod_u = work[2:], prod_u[2:]
            m -= 2
            pairs.append((u, v))
        else:  # partner outside the span: the last vector takes its slot
            work[j], prod_u[j] = work[-1], prod_u[-1]
            rest, prod_u = work[1:-1], prod_u[1:-1]
            if m:
                m -= 1
                isotropic.append(u)
                iso_partners.append(v)
            else:
                completion.append((u, v))
        sv = swap_halves(v, n)
        addend = (0, u, v, u ^ v)
        work = [w ^ addend[(sv & w).bit_count() & 1 | b << 1] for w, b in zip(rest, prod_u)]
    return pairs, isotropic, iso_partners, completion


def decompose(basis, n: int | None = None) -> GroupDecomposition:
    """Symplectic Gram-Schmidt decomposition of span(basis), completed to
    a full symplectic basis of (Z_2)^{2n}.

    ``basis`` is an iterable of equal-length PauliVec; it may be
    linearly dependent (dependent vectors are dropped by a preliminary
    echelonization).  ``n`` is only needed when ``basis`` is empty; when
    given it must be positive and match the generators, else ValueError.
    """
    rows, n = _packed(basis, n)
    pairs, isotropic, iso_partners, completion = _rounds(rows, n)
    as_pauli = lambda p: PauliVec.from_packed(p, n)
    return GroupDecomposition(
        n=n,
        c=len(pairs),
        ell=len(isotropic),
        pairs=tuple((as_pauli(u), as_pauli(v)) for u, v in pairs),
        isotropic=tuple(map(as_pauli, isotropic)),
        iso_partners=tuple(map(as_pauli, iso_partners)),
        completion=tuple((as_pauli(u), as_pauli(v)) for u, v in completion),
    )


def split_span(basis, n: int | None = None) -> tuple[
        tuple[tuple[PauliVec, PauliVec], ...], tuple[PauliVec, ...]]:
    """``(pairs, isotropic)`` of ``decompose(basis, n)``: the hyperbolic
    pairs and the isotropic part of span(basis), which is all a code
    construction needs.  The rounds stop where the input span is used
    up, so no completion to a basis of (Z_2)^{2n} is built."""
    rows, n = _packed(basis, n)
    pairs, isotropic = _split(rows, n)
    as_pauli = lambda p: PauliVec.from_packed(p, n)
    return tuple((as_pauli(u), as_pauli(v)) for u, v in pairs), tuple(map(as_pauli, isotropic))


def symp_dim(basis, n: int | None = None) -> int:
    """Half the dimension of the symplectic part of span(basis).

    For the (z|x) rows of a CSS pair, ``css_sp_matrix(hz, hx)``, this
    equals rank(hz hx^T) over GF(2); that is rank(H H^T) only when
    hz = hx = H.
    """
    return len(split_span(basis, n=n)[0])
