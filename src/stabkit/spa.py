"""Sum-product (belief propagation) syndrome decoding.

Messages live in the probability domain.  One iteration is a horizontal
step (every check updates its edges), a vertical step (every bit
renormalizes its edges), a pseudoposterior pass and a tentative
decode; a syndrome stops as soon as its tentative estimate reproduces
it, or fails after ``max_iter`` rounds.

The horizontal step uses the parity identity: with dq = q0 - q1 per
incoming edge, the probability that the other bits of a check have even
parity is (1 + prod dq) / 2, which equals the configuration sum over
satisfying assignments.  The check's syndrome sign and the 1/2 ride in
the product as one head factor, (-1)^z / 2, so r0 and r1 are 1/2 plus
and minus that product, with the same bits as (1 +- (-1)^z prod dq) /
2.

There is one kernel and it works on a stream: ``decode_stream`` runs up
to ``WIDTH`` independent syndromes side by side, with the messages of
all rows held batch-last in two arrays that every iteration overwrites
in place: q edge-major (E Tanner-graph edges by B rows), r
check-slot-major (dc slots of m checks by B rows), the layout in which
the horizontal step computes it.  Each row carries its own
flip prior.  A row leaves as soon as it converges or reaches
``max_iter``, and the next queued syndrome takes its slot, from the
same block or from the next one, which the kernel pulls lazily from a
source of ``(syndromes, prior)`` blocks; results come back block by
block, in order.  So the kernel stays wide however long single rows
run, across blocks and priors alike.  The products over the edges of
each check (or bit) run on a padded slot-major [d, groups, B] gather,
one contiguous multiply per slot and always in slot order, so a row's
arithmetic does not depend on the rest of its batch.
A block at one prior settles its rows' first round before any enters
the kernel when it has at least 2^s rows, s = min(dv, log2 ``WIDTH``)
and dv the largest bit degree: in round one every edge's q is the
prior, so a bit's decision depends only on the prior and its pattern,
which of its checks are unsatisfied.  ``_round_one`` runs the
workspace's own steps once on the 2^s patterns of a bit's first s
slots, and every row with no unsatisfied check past them whose
estimate from that table reproduces its syndrome finishes at once;
only the others are queued.  Every other block queues every row.
``decode_batch`` is the stream of one block and ``decode`` the batch
of one.  The convergence test, ``SpaWorkspace.decide``, stays in the
kernel's layout as well: estimates [n, B], their parities
(``SpaGraph.parities``, the one parity routine) [m, B] against a
check-major copy of the syndromes; only finished rows become [B, n]
rows.  ``SpaWorkspace`` owns every batch-last array of the run, and a
refilled slot restarts its q only: the next horizontal step rewrites
all of r before any read.

A row whose messages repeat exactly skips whole periods.  The
bit-to-check messages q after a round are the row's whole state: the
next round's check messages r follow from q and the row's fixed
syndrome signs, the next q from r and its fixed prior, and the
tentative estimate from r and the prior.  So if q after round t equals
q after round t - k bit for bit, every later round repeats the one k
rounds before it, and the row's age moves on by the most multiples of k
that keep it within ``max_iter``: the row then sits at a round whose q
is its own, runs its last rounds, fewer than k, for real, and leaves
at ``max_iter`` through the one rule that ends every row, with the
estimate the loop without skips gives there.  It cannot converge on
the way: its estimates repeat those of rounds t - k + 1 .. t, and none
of them satisfied the syndrome (the row is still running).  A flag
per row, ``cycled``, records the skip.  Periods up to K = ``_RING``
are found, and finding them costs little: each round in which some
row is at least K rounds old, every row leaves one float fingerprint
of q in a [K, B] ring; only a row at least K rounds old whose
fingerprint matches one of its last K gets its q copied, and only a
bit-for-bit compare of q with the copy, at a later round whose
fingerprint matches the copy's, proves a period.

``exact_marginals`` is the brute-force oracle: true per-bit posteriors
by enumerating every error pattern consistent with the syndrome.
"""

from __future__ import annotations

import functools
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .f2 import BitMatrix

__all__ = ["SpaGraph", "SpaWorkspace", "DecodeResult", "decode", "decode_batch",
           "decode_stream", "exact_marginals"]

_FLOOR = 1e-300
#: a message sum at least this absorbs every product with a stand-in
_ABSORB = 2.0 ** -25
#: the least prior for which the vertical step keeps to the stand-in
_PRIOR_MIN = 2.0 ** -100
#: most syndromes ``decode_stream`` iterates at once; the kernel peaks at
#: about 21 KB per row on a graph of 384 edges
WIDTH = 64
_Q_SENTINEL = ((1.0,), (0.0,))    # q0, q1 of the sentinel edge: dq = 1
#: rounds of fingerprints a stream keeps: the longest message cycle
#: whose periods it skips
_RING = 8
_IDLE = -_RING - 1    # the copy age of a row without a usable copy


@functools.lru_cache(maxsize=None)
def _weights(count: int) -> np.ndarray:
    """Fixed weights in [0, 1), one per message row (the sentinel
    included), for ``_fingerprint``."""
    return np.random.default_rng(0).random(count)


def _fingerprint(q: np.ndarray) -> np.ndarray:
    """One float per row of the edge-major messages ``q`` [2, E + 1, B]:
    its 1-messages under fixed pseudorandom weights.  Equal messages
    give equal fingerprints, so a fingerprint that differs from an
    earlier one rules a repeat out; one that matches only makes the row
    a candidate for the exact compare."""
    return _weights(q.shape[1]) @ q[1]


def _padded_slots(groups: np.ndarray, count: int, n_edges: int) -> np.ndarray:
    """[count, dmax] array of edge ids per group, padded with n_edges
    (a sentinel slot holding the multiplicative identity)."""
    deg = np.bincount(groups, minlength=count)
    dmax = int(deg.max()) if count else 0
    order = np.argsort(groups, kind="stable")
    starts = np.zeros(count, dtype=np.int64)
    starts[1:] = np.cumsum(deg)[:-1]
    pos = np.arange(n_edges) - starts[groups[order]]
    slots = np.full((count, max(dmax, 1)), n_edges, dtype=np.int64)
    slots[groups[order], pos] = order
    return slots


def _loo_prod(x: np.ndarray, first=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Leave-one-out products along the first (slot) axis of ``x`` [d,
    ...]: ``out[k] = P_k * S_k``, the exclusive prefix product P_k =
    ``first`` * x[0] * ... * x[k - 1] times the exclusive suffix product
    S_k = x[d - 1] * ... * x[k + 1], each accumulated one slot at a time
    in that order (no division, so exact zeros are harmless).  Without
    ``first`` the prefix has no head factor, so P_1 = x[0] and P_0 = 1
    are never multiplied, and the full product P_{d-1} * x[d - 1] comes
    back as well; with ``first`` the total is None.  The suffix
    accumulates in ``out[0]``, so no slot allocates a temporary."""
    d = len(x)
    out = np.empty_like(x)
    if d == 1:
        out[0] = 1.0 if first is None else first
        return out, (x[0].copy() if first is None else None)
    p = x[0] if first is None else np.multiply(first, x[0], out=out[1])
    for k in range(2, d):
        p = np.multiply(p, x[k - 1], out=out[k])
    total = None if first is not None else p * x[d - 1]
    s = x[d - 1]
    for k in range(d - 2, 0, -1):
        if k == 1 and first is None:
            np.multiply(x[0], s, out=out[1])
        else:
            out[k] *= s
        s = np.multiply(s, x[k], out=out[0])
    if first is not None:
        np.multiply(first, s, out=out[0])
    elif d == 2:    # S_0 = x[1] and P_1 = x[0], with no product at all
        out[0], out[1] = x[1], x[0]
    return out, total


def _stand_in(dv: int) -> int:
    """The exponent s of the stand-in ``_FLOOR`` * 2^s for hard check
    messages on a graph whose bits have at most ``dv`` edges, or 0 for
    none.  Every message without a stand-in then stays above the
    stand-in band [phi, phi * 2^25] while the priors are at least
    ``_PRIOR_MIN``, and a product of one stand-in, dv - 2 messages and a
    prior stays normal, so it is not slow; no s does both past dv = 8."""
    s = 870 - 54 * (dv - 1)
    return s if s >= 54 * (dv - 2) + 75 else 0


def _slot_of_edge(slots_t: np.ndarray, n_edges: int) -> np.ndarray:
    """Flat position of every edge in the padded array ``slots_t``."""
    flat = slots_t.ravel()
    pos = np.flatnonzero(flat < n_edges)
    out = np.empty(n_edges, dtype=np.int64)
    out[flat[pos]] = pos
    return out


class SpaGraph:
    """Tanner-graph indexing of a parity check matrix ``h`` [m, n].

    ``check_slots_t`` [dc, m] and ``bit_slots_t`` [dv, n] list the edges
    of every check and bit, padded with the sentinel edge id E =
    ``n_edges``: they gather edge-major messages [E + 1, B] into the
    slot-major layout [d, groups, B], and ``check_pos`` and ``bit_pos``
    give every edge's flat position in that layout.  Check-to-bit
    messages stay check-slot-major, [dc * m + 1, B] with a sentinel
    row last, and ``bit_cells_t`` [dv, n] gathers them per bit slot:
    the cell of each edge of every bit, padded with the sentinel row.
    """

    def __init__(self, h: BitMatrix):
        arr = h.to_array()
        self.m, self.n = arr.shape
        edge_check, edge_bit = np.nonzero(arr)
        self.n_edges = len(edge_check)
        check_slots = _padded_slots(edge_check, self.m, self.n_edges)
        bit_slots = _padded_slots(edge_bit, self.n, self.n_edges)
        self.check_slots_t = np.ascontiguousarray(check_slots.T)
        self.bit_slots_t = np.ascontiguousarray(bit_slots.T)
        self.check_pos = _slot_of_edge(self.check_slots_t, self.n_edges)
        self.bit_pos = _slot_of_edge(self.bit_slots_t, self.n_edges)
        self.bit_cells_t = np.append(self.check_pos, self.check_slots_t.size)[self.bit_slots_t]
        # bits of each check, slot-major [dc, m], padded with n
        self.check_bits = np.append(edge_bit, self.n)[self.check_slots_t]
        # checks of each bit, slot-major [dv, n], padded with m
        self.bit_checks = np.append(edge_check, self.m)[self.bit_slots_t]

    def parities(self, bits: np.ndarray) -> np.ndarray:
        """The XOR over each check's bits, batch-last: [m, B] uint8 from
        ``bits`` [n + 1, B] uint8 whose row n, the pad that
        ``check_bits`` gathers, is zero."""
        return np.bitwise_xor.reduce(bits[self.check_bits], axis=0)

    def syndromes(self, bits: np.ndarray) -> np.ndarray:
        """Parities ``bits @ h.T mod 2`` of every row of ``bits`` (a [B,
        n] uint8 array) as a [B, m] uint8 array: ``parities`` of the
        bits transposed and padded with a zero row."""
        bits = np.asarray(bits, dtype=np.uint8)
        ext = np.zeros((self.n + 1, len(bits)), dtype=np.uint8)
        ext[:-1] = bits.T
        return (self.parities(ext) & 1).T


def _inputs(syndromes: np.ndarray, prior_flip, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's input, checked: ``syndromes`` (a 2-D array) as [B,
    m] uint8 0/1 and ``prior_flip``, one flip probability in (0, 1) or
    one per row, as [B] floats."""
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    if syndromes.shape[1] != m:
        raise ValueError(f"syndrome length {syndromes.shape[1]} != check count {m}")
    b = len(syndromes)
    flip = np.asarray(prior_flip, dtype=float)
    if flip.ndim > 1 or flip.size not in (1, b):
        raise ValueError(f"prior_flip must be one value or one per row, got shape "
                         f"{flip.shape} for {b} rows")
    bad = flip[~((flip > 0.0) & (flip < 1.0))]
    if bad.size:
        raise ValueError(f"prior flip probability must be in (0, 1), got {bad.flat[0]}")
    return syndromes & 1, np.broadcast_to(flip, (b,))


class SpaWorkspace:
    """The state of one decoding run over a batch of syndromes, the one
    owner of its batch-last arrays (``BATCH``): rows enter through
    ``admit``, the first fill included (``join`` appends the admitted
    rows of another workspace), and leave through ``keep``.

    A 2-D syndrome array [B, m] is a batch of B independent rows; any
    other shape is raveled into one syndrome, a batch of one.
    ``prior_flip`` is one flip probability for every row or one per row.
    ``pseudoposteriors`` are [B, n]; ``decide`` is the hard decision and
    convergence test of every row, and ``exits`` moves the rows caught
    in an exact message cycle on by whole periods.  A stream keeps each
    row's block id, row, round count and whether it skipped in ``ids``,
    ``rows``, ``age`` and ``cycled``.

    The messages are batch-last, the 0- (t = 0) and 1-messages (t = 1)
    of every row, so a gather moves whole batch rows.  ``q[t, e, b]``
    [2, E + 1, B] is edge-major; ``r[t, c, b]`` [2, dc * m + 1, B] is
    check-slot-major, cell c = k * m + i holding slot k of check i, as
    the horizontal step computes it, so it is written with no scatter.
    On checks of unequal weight r has pad cells, written but never
    read.  The last row of each is a sentinel that pads the slot-major
    gathers (``SpaGraph.check_slots_t`` of q, ``bit_cells_t`` of r): r
    is 1 there, and q is 1 and 0, so that dq = q0 - q1 is 1.  The steps
    overwrite ``q`` and ``r`` in place (the horizontal step reads q and
    writes r, the vertical step reads r and writes q), so an iteration
    allocates no message array; ``admit`` restarts rows in place too.
    The syndromes are kept check-major as well, ``checks[i, b]``, the
    layout of ``decide``'s convergence test, and so is ``half`` [m, B],
    (-1)^z / 2 per check, the horizontal step's head factor.

    A check message is hard where 1/2 - |h| is 0, so that only the floor
    is left of it; every other one is at least 2^-54.  r holds a hard
    message as the stand-in phi = ``_FLOOR`` * 2^s in place of
    ``_FLOOR``, so the products built on it stay out of the slow
    subnormal range, and q holds each message computed from one as its
    true value times 2^s; ``_true`` maps both back exactly.  A round in
    which a message sum, or a prior of a row present, leaves the range
    where that holds runs on the true r.
    """

    #: every batch-last array of a run: ``keep`` compresses them all
    BATCH = ("checks", "half", "prior", "q", "r", "fps", "since", "snap_fp", "ids", "rows",
             "age", "cycled")

    def __init__(self, graph: SpaGraph, syndrome, prior_flip):
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.ndim != 2:
            syndrome = syndrome.reshape(1, -1)
        syndrome, flip = _inputs(syndrome, prior_flip, graph.m)
        b = len(syndrome)
        self.g = graph
        self._s = _stand_in(len(graph.bit_slots_t))
        self._phi = _FLOOR * 2.0 ** self._s
        self.checks = np.empty((graph.m, b), dtype=np.uint8)
        self.half = np.empty((graph.m, b))   # (-1)^z / 2 per check
        # prior[t, 0, b]: the 0- (t = 0) and 1-probability of row b
        self.prior = np.empty((2, 1, b))
        self.q = np.empty((2, graph.n_edges + 1, b))
        self.q[:, -1] = _Q_SENTINEL
        self.r = np.ones((2, graph.check_slots_t.size + 1, b))
        self.r[:, :-1] = 0.0
        self.fps = np.full((_RING, b), np.nan)
        self.since = np.empty(b, dtype=np.int64)    # age of the row's copy
        self.snap_fp = np.full(b, np.nan)
        self.snaps = {}     # slot -> bits of the row's q at its copy
        self.round = 0      # recorded rounds, for the rings
        self.ids = np.zeros(b, dtype=np.int64)
        self.rows = np.zeros(b, dtype=np.int64)
        self.age = np.empty(b, dtype=np.int64)
        self.cycled = np.empty(b, dtype=bool)
        self.admit(np.arange(b), syndrome, flip)

    def admit(self, slots: np.ndarray, syndromes: np.ndarray, flip: np.ndarray):
        """Restart the batch rows ``slots`` on new syndromes (a [k, m]
        array) at flip probabilities ``flip`` (checked, one per slot):
        their q goes back to their prior, their age to 0.  Their r is
        left as it is, because the next horizontal step rewrites all of
        r before anything reads it; until then, ``pseudoposteriors`` of
        these rows are stale."""
        checks = syndromes.T & 1
        self.checks[:, slots] = checks
        self.half[:, slots] = 0.5 - checks
        self.prior[1, 0, slots] = flip
        self.prior[0, 0, slots] = 1.0 - flip
        body = self.q[:, :-1]
        others = body.shape[-1] - len(slots)
        if 2 * others < len(slots):
            # a row is strided, so copying one costs about as much as
            # writing every row contiguously: restart all and copy the
            # others out and back when that is fewer row copies
            kept = np.ones(body.shape[-1], dtype=bool)
            kept[slots] = False
            old = body[..., kept]
            body[...] = self.prior
            body[..., kept] = old
        else:
            body[..., slots] = self.prior[..., slots]
        self.since[slots] = _IDLE
        self.age[slots] = 0
        self.cycled[slots] = False
        self._totals = ()   # per-bit products of r and their phi, from the last vertical step

    def keep(self, kept: np.ndarray):
        """Carry on with the batch rows selected by ``kept`` (a boolean
        mask over the batch) only.  ``compress`` keeps every array of
        ``BATCH`` C-ordered with the batch axis last; fancy indexing
        would put it first in memory and make every later step stride
        over it."""
        for name in self.BATCH:
            setattr(self, name, getattr(self, name).compress(kept, axis=-1))
        slot = np.cumsum(kept) - 1
        self.snaps = {int(slot[j]): c for j, c in self.snaps.items() if kept[j]}
        self._totals = ()

    def join(self, other: SpaWorkspace):
        """Append the rows of ``other``, a workspace on the same graph
        whose rows have not run yet, to the batch: they start as
        ``admit`` starts rows, with no recorded round."""
        for name in self.BATCH:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)],
                                               axis=-1))
        self._totals = ()

    def horizontal_step(self):
        """Check-to-bit messages from the parity convolution, into r:
        r0 = 1/2 + h and r1 = 1/2 - h, with h = (-1)^z / 2 * prod dq over
        the other edges, the half-sign riding in the products' head
        factor.  Every |dq| <= 1, so no partial product is smaller than
        |h|: while |h| >= 2^-1022 each halving is exact and h is half
        of (-1)^z prod dq to the bit, and below that 1/2 + h and (1 +
        2h) / 2 are both exactly 1/2.  So r holds the bits of (1 +-
        (-1)^z prod dq) / 2, floored at the stand-in."""
        self._totals = ()
        h, _ = _loo_prod((self.q[0] - self.q[1])[self.g.check_slots_t], self.half)
        h = h.reshape(-1, h.shape[-1])
        body = self.r[:, :-1]
        np.add(0.5, h, out=body[0])
        np.subtract(0.5, h, out=body[1])
        np.maximum(body, self._phi, out=body)

    def _true(self, x: np.ndarray) -> np.ndarray:
        """The true values of messages ``x``, q or r: the stand-in band
        [phi, phi * 2^25] and the band [``_FLOOR``, ``_FLOOR`` * 2^25]
        trade places, scaled by 2^-s and 2^s; every other value is
        itself."""
        if not self._s:
            return x
        up = (x >= _FLOOR) & (x <= _FLOOR * 2.0 ** 25)
        down = (x >= self._phi) & (x <= self._phi * 2.0 ** 25)
        return x * np.where(down, 2.0 ** -self._s, np.where(up, 2.0 ** self._s, 1.0))

    def vertical_step(self):
        """Bit-to-check messages, renormalized so q0 + q1 = 1 per edge,
        into q.  Where the stand-in does not keep every value exact, the
        step runs on the true r and maps its q to stand-in form, so each
        step may take either path: the stand-in needs every flip prior
        of the rows present to be at least ``_PRIOR_MIN``."""
        # 1 - flip >= 2^-53 > _PRIOR_MIN, as flip < 1
        fast = self._s and self.prior[1].min(initial=1.0) >= _PRIOR_MIN
        if not (fast and self._vertical(self.r, self._phi)):
            self._vertical(self._true(self.r), _FLOOR)
            if self._s:
                self.q[...] = self._true(self.q)

    def _vertical(self, r: np.ndarray, phi: float) -> bool:
        """The vertical step on check messages ``r`` with hard messages
        ``phi``, flooring q at phi.  Returns False, with q unfinished, if
        a message sum is below ``_ABSORB`` while r holds a stand-in."""
        g = self.g
        body = self.q[:, :-1]
        totals = []
        for t in (0, 1):
            loo, total = _loo_prod(r[t][g.bit_cells_t])
            np.take(loo.reshape(-1, loo.shape[-1]), g.bit_pos, axis=0, out=body[t], mode="clip")
            del loo     # before the next gather: lowers the peak
            totals.append(total)
        body *= self.prior
        norm = body[0] + body[1]
        if phi == _FLOOR or norm.min(initial=1.0) < _ABSORB:    # else no floor is needed
            # a product with phi carries it into its bit's total
            if phi != _FLOOR and min(t.min(initial=1.0) for t in totals) <= phi:
                return False
            np.maximum(norm, _FLOOR, out=norm)
        body /= norm
        np.maximum(body, phi, out=body)
        self._totals = totals, phi
        return True

    def _posteriors(self, totals=None, phi=_FLOOR) -> np.ndarray:
        """``pseudoposteriors`` batch-last, [n, B], from the true r, or
        from the per-bit products ``totals`` of r with hard messages
        ``phi``: as they are when phi is ``_FLOOR`` (r was true), else
        if they give the same decisions as the true r."""
        if totals is None:
            totals = [_loo_prod(r[self.g.bit_cells_t])[1] for r in self._true(self.r)]
        tot0, tot1 = self.prior[0, 0] * totals[0], self.prior[1, 0] * totals[1]
        norm = tot0 + tot1
        if norm.min(initial=1.0) >= _ABSORB:
            return tot1 / norm    # no floor is needed
        if phi != _FLOOR and min(t.min(initial=1.0) for t in totals) <= phi:
            return self._posteriors()
        return tot1 / np.maximum(norm, _FLOOR)

    def pseudoposteriors(self) -> np.ndarray:
        """Per-bit flip probability from all incident checks, [B, n]."""
        return self._posteriors().T

    def decide(self) -> tuple[np.ndarray, np.ndarray]:
        """The tentative estimate of every row and whether it reproduces
        the row's syndrome, in the kernel's layout.  A bit flips where
        its posterior strictly exceeds 1/2 (ties favor the lower-weight
        error).  Returns the estimates as [n + 1, B] uint8 with a zero
        row n, the input ``SpaGraph.parities`` takes, and the test, [B]
        bool."""
        post = self._posteriors(*self._totals)
        est = np.zeros((len(post) + 1, post.shape[1]), dtype=np.uint8)
        np.greater(post, 0.5, out=est[:-1].view(bool))
        return est, (self.g.parities(est) == self.checks).all(axis=0)

    def exits(self, ok: np.ndarray, max_iter: int):
        """Record the round just run, and move each row, none of them
        ``ok``, whose q equals its copy from k <= K = ``_RING`` rounds
        ago on by whole periods: its age by the most multiples of k that
        stay within ``max_iter``, and its ``cycled`` flag set.  It then
        sits at a round with the same q, and reaches ``max_iter`` within
        k - 1 more real rounds.

        The ring ``fps`` [K, B] is indexed by the recorded round s, at
        entry s % K, so every round writes one contiguous row of it:
        each row's fingerprint (NaN before the first).  A row whose
        fingerprint equals one of its last K gets the bits of its q
        copied into ``snaps``, and the copy is compared bit for bit with
        q at each of the next K rounds whose fingerprint equals the
        copy's, ``snap_fp``.  A fingerprint match alone moves no row.

        Most rows converge within a few rounds, so a round in which
        every row is younger than K rounds is not recorded, and s counts
        recorded rounds only.  A row is copied only at an age of K or
        more: every later round of the row is then recorded, so k rounds
        back in the ring is k rounds back in the row's life.
        """
        if self.age.max() < _RING:
            return
        s, self.round = self.round, self.round + 1
        fp = _fingerprint(self.q)
        check = (self.snap_fp == fp).nonzero()[0]
        hits = (self.fps == fp).ravel().nonzero()[0]
        self.fps[s % _RING] = fp
        if not (len(check) or len(hits)):
            return
        # few rows match in a round, so they are taken one at a time
        ages, done, since = self.age.tolist(), ok.tolist(), self.since.tolist()
        bits = self.q.view(np.uint64)
        for j in check.tolist():
            k = ages[j] - since[j]
            if done[j] or k > _RING or not (bits[..., j] == self.snaps[j]).all():
                continue
            self.age[j] += (max_iter - ages[j]) // k * k
            self.cycled[j] = True
        for j in set((hits % len(ages)).tolist()):
            if (_RING <= ages[j] < max_iter - 1 and ages[j] - since[j] > _RING
                    and not done[j]):
                self.snaps[j] = bits[..., j].copy()
                self.snap_fp[j] = fp[j]
                self.since[j] = ages[j]


def _patterns(graph: SpaGraph) -> int:
    """2^s, the columns of ``_round_one``'s table on ``graph``: s =
    min(dv, log2 ``WIDTH``) slots of every bit, so that the table's
    workspace is never wider than the kernel's (bch63's dv of 17 would
    ask for 2^17 columns)."""
    return min(1 << len(graph.bit_slots_t), WIDTH)


def _round_one(graph: SpaGraph, flip: float) -> np.ndarray:
    """The first round's decision on every bit at flip prior ``flip``,
    as a table [n, 2^s] uint8 over the patterns of the bit's first s
    slots (``_patterns``): column pi holds the decision when the checks
    in the bit's slots k < s with bit k of pi set are unsatisfied and
    all its other checks satisfied.

    For a bit whose unsatisfied checks all lie in its first s slots,
    the table is the kernel's first round, bit for bit:

    1. In round one every edge's q is the prior, so dq = q0 - q1 is the
       same on every edge of a row.
    2. The syndrome enters the horizontal step only through the head
       factor (-1)^z / 2, and negation is exact: every partial product of
       a check with z = 1 is the negation of its z = 0 product, so its r
       is the z = 0 r with the two planes swapped, bit for bit.  The
       floor at the stand-in commutes with the swap.
    3. So the r that a bit gathers, its totals, its posterior and its
       decision are fixed by the prior and the bit's pattern; a bit
       whose unsatisfied checks all lie in its first s slots gathers
       exactly column pi's r.
    4. The vertical step and ``decide`` choose between the stand-in and
       the true r for the whole batch, and both give the same decisions
       (the stand-in's map back is exact), so a column here decides as
       every real bit with its pattern does, in any batch.

    The workspace's own steps compute it on 2^s rows: zero syndromes
    through the horizontal step give every column the zero-syndrome r;
    column pi then has its planes swapped in the cells of slot k < s of
    every bit where bit k of pi is set, and the vertical step and
    ``decide`` give the decisions."""
    width = _patterns(graph)
    ws = SpaWorkspace(graph, np.zeros((width, graph.m), dtype=np.uint8), flip)
    ws.horizontal_step()
    # the slot of every cell's edge at its bit (pad cells are never
    # read): bit k of every pi < 2^s is 0 for k >= s
    slot = np.zeros(ws.r.shape[1], dtype=np.intp)
    slot[graph.bit_cells_t] = np.arange(len(graph.bit_cells_t))[:, None]
    swap = (np.arange(width) >> slot[:, None] & 1).astype(bool)
    ws.r[...] = np.where(swap, ws.r[::-1], ws.r)
    ws.vertical_step()
    est, _ = ws.decide()
    return est[:-1]


@dataclass(frozen=True)
class DecodeResult:
    estimate: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "estimate", np.asarray(self.estimate, dtype=np.uint8))


class _Block:
    """One block of a stream: its queued syndromes and priors, and its
    results as its rows finish.

    Rows that round one settles finish at entry and are never queued.
    A block of B rows looks them up in ``round_one(prior)``,
    ``_round_one``'s table [n, 2^s], when its rows share one prior,
    which a table serves, and B >= 2^s: the table's workspace is then
    no wider than the block it serves.  A row finishes there, converged
    in one iteration, when no bit has an unsatisfied check past its
    first s slots, where the table does not look, and its round-one
    estimate from the table reproduces its syndrome.  Every other block
    (mixed priors, fewer than 2^s rows, a single ``decode`` among them)
    queues every row, and the kernel's first round settles the same
    rows."""

    def __init__(self, block_id: int, graph: SpaGraph, syndromes, prior_flip, max_iter: int,
                 round_one):
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.ndim != 2:
            raise ValueError(f"syndromes must be a [B, m] array, got shape {syndromes.shape}")
        self.syndromes, self.flip = _inputs(syndromes, prior_flip, graph.m)
        b = len(syndromes)
        self.id = block_id
        self.estimates = np.zeros((b, graph.n), dtype=np.uint8)
        self.converged = np.zeros(b, dtype=bool)
        self.iterations = np.full(b, max_iter, dtype=np.int64)
        self.cycled = np.zeros(b, dtype=bool)
        self.queue = np.arange(b)
        if b >= _patterns(graph) and (self.flip == self.flip[0]).all():
            self._settle(graph, round_one(float(self.flip[0])))
        self.pending = len(self.queue)

    def _settle(self, graph: SpaGraph, table: np.ndarray):
        """Look up every row's round-one estimate in ``table`` [n, 2^s],
        and finish the rows whose estimate reproduces their syndrome and
        that have no unsatisfied check past a bit's first s slots: only
        the others stay queued."""
        b, width = len(self.syndromes), table.shape[1]
        s = width.bit_length() - 1
        # a bit's pattern: bit k set where the check of its slot k < s is
        # unsatisfied (the pad row m is 0); the dtype holds 2^s - 1
        checks = np.zeros((graph.m + 1, b), dtype=np.min_scalar_type(width - 1))
        checks[:-1] = self.syndromes.T
        pattern = checks[graph.bit_checks[0]]
        for k, slot_checks in enumerate(graph.bit_checks[1:s], 1):
            pattern |= checks[slot_checks] << k
        est = np.zeros((graph.n + 1, b), dtype=np.uint8)
        np.take(table.ravel(), pattern + np.arange(0, table.size, width)[:, None],
                out=est[:-1], mode="clip")
        ok = (graph.parities(est) == checks[:-1]).all(axis=0)
        if s < len(graph.bit_checks):    # else every slot is in the table
            ok &= ~checks[graph.bit_checks[s:]].any(axis=(0, 1))
        self.estimates[ok] = est[:-1, ok].T
        self.converged[ok] = True
        self.iterations[ok] = 1
        self.queue = np.flatnonzero(~ok)

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.estimates, self.converged, self.iterations, self.cycled


class _Feed:
    """The kernel's side of a block stream: hands out queued rows,
    pulling the next block only when the queued ones run out and the
    open blocks hold fewer than ``WIDTH * max_iter`` rows, takes back
    finished rows, and releases finished blocks in stream order."""

    def __init__(self, graph: SpaGraph, blocks, max_iter: int):
        self.graph = graph
        self.blocks = iter(blocks)
        self.max_iter = max_iter
        self.open: deque[_Block] = deque()    # not yet released, in order
        self.queued: _Block | None = None     # with rows still to hand out
        self.pulled = 0                       # blocks pulled so far
        self.held = 0                         # rows of the open blocks
        self.dry = False                      # the source has no block left
        self.table = (None, None)             # the last prior and its round-one table

    def round_one(self, flip: float) -> np.ndarray:
        """``_round_one``'s table at ``flip``: the stream keeps the last
        one, so blocks of one prior in a row build it once."""
        if self.table[0] != flip:
            self.table = (flip, _round_one(self.graph, flip))
        return self.table[1]

    def take(self, k: int):
        """Up to ``k`` queued rows as ``(block ids, rows, syndromes,
        priors)``; fewer only when the source has run dry or the open
        blocks hold ``WIDTH * max_iter`` rows, settled ones included."""
        parts = []
        while k:
            if self.queued is None:
                if self.dry or self.held >= WIDTH * self.max_iter:
                    break
                item = next(self.blocks, None)
                if item is None:
                    self.dry = True
                    break
                syndromes, prior_flip = item
                self.queued = _Block(self.pulled, self.graph, syndromes, prior_flip,
                                     self.max_iter, self.round_one)
                self.pulled += 1
                self.held += len(self.queued.syndromes)
                self.open.append(self.queued)
            block = self.queued
            rows, block.queue = block.queue[:k], block.queue[k:]
            if not len(block.queue):
                self.queued = None
            if len(rows):
                parts.append((block, rows))
                k -= len(rows)
        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros((0, self.graph.m), dtype=np.uint8), np.zeros(0)
        fields = [(np.full(len(r), b.id), r, b.syndromes[r], b.flip[r]) for b, r in parts]
        if len(fields) == 1:   # the usual case
            return fields[0]
        return tuple(np.concatenate(f) for f in zip(*fields))

    def finish(self, ids, rows, estimates, converged, iterations, cycled):
        """Record the results of finished rows; ``cycled`` flags those
        that skipped whole periods of a message cycle."""
        first = self.open[0].id
        if (ids == ids[0]).all():   # the usual case: rows of one block
            parts = [(ids[0], slice(None))]
        else:
            parts = [(bid, ids == bid) for bid in np.unique(ids)]
        for bid, sel in parts:
            block = self.open[bid - first]
            r = rows[sel]
            block.estimates[r] = estimates[sel]
            block.converged[r] = converged[sel]
            block.iterations[r] = iterations[sel]
            block.cycled[r] = cycled[sel]
            block.pending -= len(r)

    def ready(self):
        """Release the leading run of finished blocks."""
        while self.open and not self.open[0].pending:
            block = self.open.popleft()
            self.held -= len(block.syndromes)
            yield block.result()


def decode_stream(h: BitMatrix | SpaGraph, blocks, max_iter: int = 100):
    """Flooding-schedule sum-product decoding of a stream of blocks,
    each ``(syndromes [B, m], prior_flip)`` with one flip probability
    for the block or one per row.

    Yields ``(estimates [B, n] uint8, converged [B] bool, iterations [B]
    int64, cycled [B] bool)`` per block, in stream order.  A row stops
    at the first tentative estimate that reproduces its syndrome; a row
    that has not after ``max_iter`` rounds keeps its last estimate,
    unconverged.  In a block of at least 2^s rows at one prior, s =
    min(dv, log2 ``WIDTH``) and dv the largest bit degree, a row that
    the first round settles never enters the loop when no bit has an
    unsatisfied check past its first s slots: its estimate comes from a
    table of that round over the 2^s patterns of unsatisfied checks in
    a bit's first s slots, built once per prior in a row of the stream.
    Every other row enters the loop.

    The kernel iterates an active set of at most ``WIDTH`` rows.  Each
    row counts its own rounds, and the slot of a row that stops is
    refilled with the next queued row, whichever block it comes from,
    so the batch stays wide until the stream runs out.  A block is held
    until it and every block before it are done, and pulled only when
    its predecessors have no row left to queue and the held blocks have
    fewer than ``WIDTH * max_iter`` rows, the rows settled at entry
    included: so at most ``WIDTH * max_iter`` rows and one block are
    held, whatever the blocks hold.  Each round retires at most
    ``WIDTH`` rows, so the limit only stops a pull when blocks settle
    far more rows at entry than the loop retires; the batch then
    narrows until released blocks make room, and widens back to
    ``WIDTH``.  Every row computes exactly what it would alone.

    A row whose messages q after some round equal, bit for bit, its q
    k <= ``_RING`` rounds earlier is periodic from there on and never
    converges: it skips whole periods and leaves at ``max_iter`` with
    the estimate of the loop without skips.  A fourth array per block,
    ``cycled [B] bool``, flags the rows that skipped.  ``max_iter``
    must be an integer of at least 1.
    """
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    graph = h if isinstance(h, SpaGraph) else SpaGraph(h)
    return _stream(_Feed(graph, blocks, max_iter), max_iter)


def _stream(feed: _Feed, max_iter: int):
    ids, rows, syn, flip = feed.take(WIDTH)
    ws = SpaWorkspace(feed.graph, syn, flip)
    ws.ids[:], ws.rows[:] = ids, rows
    while len(ws.rows) or not feed.dry:
        slots = np.zeros(0, dtype=np.intp)
        if len(ws.rows):
            ws.horizontal_step()
            ws.vertical_step()
            ws.age += 1
            est, ok = ws.decide()
            ws.exits(ok, max_iter)
            slots = np.flatnonzero(ok | (ws.age == max_iter))
            if len(slots):
                feed.finish(ws.ids[slots], ws.rows[slots], est[:-1, slots].T, ok[slots],
                            ws.age[slots], ws.cycled[slots])
        # release first, so that the rows of released blocks make room
        yield from feed.ready()
        ws = _refill(ws, feed, slots)
    yield from feed.ready()


def _refill(ws: SpaWorkspace, feed: _Feed, slots: np.ndarray) -> SpaWorkspace:
    """Queued rows into the freed ``slots`` of ``ws``, dropping the
    slots left over; while the source has blocks, also new rows up to
    ``WIDTH``, where the held rows' limit had narrowed the batch.
    Returns the workspace to run on."""
    want = len(slots) + (0 if feed.dry else WIDTH - len(ws.rows))
    if not want:
        return ws
    ids, rows, syn, flip = feed.take(want)
    k = min(len(rows), len(slots))
    if k:
        ws.admit(slots[:k], syn[:k], flip[:k])
        ws.ids[slots[:k]], ws.rows[slots[:k]] = ids[:k], rows[:k]
    if k < len(slots):
        kept = np.ones(len(ws.rows), dtype=bool)
        kept[slots[k:]] = False
        ws.keep(kept)
    if k < len(rows):
        new = SpaWorkspace(feed.graph, syn[k:], flip[k:])
        new.ids[:], new.rows[:] = ids[k:], rows[k:]
        if not len(ws.rows):
            return new
        ws.join(new)
    return ws


def decode_batch(h: BitMatrix | SpaGraph, syndromes, prior_flip,
                 max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``decode_stream`` on one block: sum-product decoding of a [B, m]
    batch of syndromes, each row independent of the others, at one
    flip probability ``prior_flip`` or one per row.

    Returns ``(estimates [B, n] uint8, converged [B] bool, iterations
    [B] int64)``.
    """
    return next(decode_stream(h, [(syndromes, prior_flip)], max_iter))[:3]


def decode(h: BitMatrix | SpaGraph, syndrome, prior_flip: float,
           max_iter: int = 100) -> DecodeResult:
    """Sum-product decoding of one syndrome: ``decode_batch`` on a batch
    of one.

    Returns the first tentative estimate reproducing the syndrome, or
    the last estimate with ``converged=False`` after ``max_iter``
    rounds.
    """
    syndrome = np.asarray(syndrome, dtype=np.uint8).reshape(1, -1)
    estimates, converged, iterations = decode_batch(h, syndrome, prior_flip, max_iter)
    return DecodeResult(estimates[0], bool(converged[0]), int(iterations[0]))


def exact_marginals(h: BitMatrix, syndrome, prior_flip: float) -> np.ndarray:
    """True posteriors P(n_i = 1 | syndrome) by full enumeration.

    Sums the i.i.d. flip prior over all 2^n error patterns consistent
    with the syndrome; n is capped at 24.
    """
    n = h.cols
    if n > 24:
        raise ValueError(f"exact enumeration capped at n = 24, got {n}")
    syndrome, (prior_flip,) = _inputs(np.reshape(syndrome, (1, -1)), prior_flip, h.rows)
    arr = h.to_array()
    num = np.zeros(n)
    den = 0.0
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        idx = np.arange(start, stop, dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        ok = np.all((bits @ arr.T) % 2 == syndrome, axis=1)
        if not ok.any():
            continue
        sel = bits[ok]
        w = sel.sum(axis=1)
        weights = prior_flip ** w * (1.0 - prior_flip) ** (n - w)
        den += float(weights.sum())
        num += weights @ sel
    if den == 0.0:
        raise ValueError("syndrome is not reachable from any error pattern")
    return num / den
