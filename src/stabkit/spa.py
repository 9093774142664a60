"""Sum-product (belief propagation) syndrome decoding.

Messages live in the probability domain.  One iteration is a horizontal
step (every check updates its edges), a vertical step (every bit
renormalizes its edges), a pseudoposterior pass and a tentative
decode; a syndrome stops as soon as its tentative estimate reproduces
it, or fails after ``max_iter`` rounds.

The horizontal step uses the parity identity: with dq = q0 - q1 per
incoming edge, the probability that the other bits of a check have even
parity is (1 + prod dq) / 2, which equals the configuration sum over
satisfying assignments.

There is one kernel and it works on a stream: ``decode_stream`` runs up
to ``WIDTH`` independent syndromes side by side, with the messages of
all rows held edge-major (E Tanner-graph edges by B rows) in two arrays
that every iteration overwrites in place.  Each row carries its own
flip prior.  A row leaves as soon as it converges or reaches
``max_iter``, and the next queued syndrome takes its slot, from the
same block or from the next one, which the kernel pulls lazily from a
source of ``(syndromes, prior)`` blocks; results come back block by
block, in order.  So the kernel stays wide however long single rows
run, across blocks and priors alike.  The products over the edges of
each check (or bit) run on a padded slot-major [d, groups, B] gather,
one contiguous multiply per slot and always in slot order, so a row's
arithmetic does not depend on the rest of its batch.
``decode_batch`` is the stream of one block and ``decode`` the batch
of one.  The convergence test, ``SpaWorkspace.decide``, stays in the
kernel's layout as well: estimates [n, B], their parities
(``SpaGraph.parities``, the one parity routine) [m, B] against a
check-major copy of the syndromes; only finished rows become [B, n]
rows.  A refilled slot restarts its q only: the next horizontal step
rewrites all of r before any read.

A row whose messages repeat exactly leaves early, with the result it
would have after ``max_iter`` rounds.  The bit-to-check messages q
after a round are the row's whole state: the next round's check
messages r follow from q and the row's fixed syndrome signs, the next
q from r and its fixed prior, and the tentative estimate from r and the
prior.  So if q after round t equals q after round t - k bit for bit,
every later round repeats the one k rounds before it, and the estimate
of round a + k is that of round a for every a > t - k.  None of the
estimates of rounds t - k + 1 .. t satisfied the syndrome (the row is
still running), so the row never converges, and its estimate after
``max_iter`` rounds is that of round t - ((t - max_iter) mod k).  The
kernel keeps every row's last K = ``_RING`` estimates in a ring and
finishes the row there: unconverged, at ``max_iter`` iterations.
Detection costs little: each round in which some row is at least K
rounds old, every row leaves one float fingerprint of q in a [K, B]
ring; only a row at least K rounds old whose fingerprint matches one
of its last K gets its q copied, and only a bit-for-bit compare of q
with the copy, at a later round whose fingerprint matches the copy's,
ends it.

``exact_marginals`` is the brute-force oracle: true per-bit posteriors
by enumerating every error pattern consistent with the syndrome.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .f2 import BitMatrix

__all__ = ["SpaGraph", "SpaWorkspace", "DecodeResult", "decode", "decode_batch",
           "decode_stream", "exact_marginals"]

_FLOOR = 1e-300
#: most syndromes ``decode_stream`` iterates at once; the kernel peaks at
#: about 22 KB per row on a graph of 384 edges
WIDTH = 64
_Q_SENTINEL = ((1.0,), (0.0,))    # q0, q1 of the sentinel edge: dq = 1
#: rounds of fingerprints and estimates a stream keeps: the longest
#: message cycle it ends a row on
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


def _loo_prod(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out product along the first (slot) axis: the exclusive
    prefix product times the exclusive suffix product, each accumulated
    one slot at a time (no division, so exact zeros are harmless).
    Also returns the full product, accumulated in slot order."""
    d = len(padded)
    out = np.empty_like(padded)
    out[0] = 1.0
    for k in range(1, d):
        np.multiply(out[k - 1], padded[k - 1], out=out[k])
    total = out[d - 1] * padded[d - 1]
    if d > 1:
        acc = padded[d - 1].copy()
        for k in range(d - 2, 0, -1):
            out[k] *= acc
            acc *= padded[k]
        out[0] = acc
    return out, total


def _slot_of_edge(slots_t: np.ndarray, n_edges: int) -> np.ndarray:
    """Flat position of every edge in the padded array ``slots_t``."""
    flat = slots_t.ravel()
    pos = np.flatnonzero(flat < n_edges)
    out = np.empty(n_edges, dtype=np.int64)
    out[flat[pos]] = pos
    return out


class SpaGraph:
    """Tanner-graph indexing of a parity check matrix ``arr`` [m, n].

    ``check_slots_t`` [dc, m] and ``bit_slots_t`` [dv, n] list the edges
    of every check and bit, padded with the sentinel edge id E =
    ``n_edges``: they gather edge-major messages [E + 1, B] into the
    slot-major layout [d, groups, B], and ``check_pos`` and ``bit_pos``
    take the flattened result back to edges.
    """

    def __init__(self, h: BitMatrix):
        self.arr = arr = h.to_array()
        self.m, self.n = arr.shape
        edge_check, edge_bit = np.nonzero(arr)
        self.n_edges = len(edge_check)
        check_slots = _padded_slots(edge_check, self.m, self.n_edges)
        bit_slots = _padded_slots(edge_bit, self.n, self.n_edges)
        self.check_slots_t = np.ascontiguousarray(check_slots.T)
        self.bit_slots_t = np.ascontiguousarray(bit_slots.T)
        self.check_pos = _slot_of_edge(self.check_slots_t, self.n_edges)
        self.bit_pos = _slot_of_edge(self.bit_slots_t, self.n_edges)
        # bits of each check, slot-major [dc, m], padded with n
        self.check_bits = np.append(edge_bit, self.n)[self.check_slots_t]

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


def _check_prior(prior: np.ndarray):
    bad = prior[~((prior > 0.0) & (prior < 1.0))]
    if bad.size:
        raise ValueError(f"prior flip probability must be in (0, 1), got {bad.flat[0]}")


def _check_length(syndromes: np.ndarray, graph: SpaGraph):
    if syndromes.shape[1] != graph.m:
        raise ValueError(f"syndrome length {syndromes.shape[1]} != check count {graph.m}")


class SpaWorkspace:
    """Message state of one decoding run over a batch of syndromes.

    A 2-D syndrome array [B, m] is a batch of B independent rows; any
    other shape is raveled into one syndrome, a batch of one.
    ``prior_flip`` is one flip probability for every row or one per row.
    ``pseudoposteriors`` are [B, n]; ``decide`` is the hard decision and
    convergence test of every row.

    The messages are edge-major and batch-last, ``q[t, e, b]`` [2, E +
    1, B] for the 0- (t = 0) and 1-messages (t = 1), so a gather by edge
    moves whole batch rows.  Row E is a sentinel that pads the
    slot-major gathers: r is 1 there, and q is 1 and 0, so that dq = q0
    - q1 is 1.  The steps overwrite ``q`` and ``r`` in place (the
    horizontal step reads q and writes r, the vertical step reads r and
    writes q), so an iteration allocates no message array; ``admit``
    restarts rows in place too.
    The syndromes are kept check-major as well, ``checks[i, b]``, the
    layout of ``decide``'s convergence test.
    """

    def __init__(self, graph: SpaGraph, syndrome, prior_flip):
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.ndim != 2:
            syndrome = syndrome.reshape(1, -1)
        _check_length(syndrome, graph)
        b = len(syndrome)
        self.g = graph
        self.checks = np.ascontiguousarray(syndrome.T & 1)
        self.sign = 1.0 - 2.0 * self.checks   # (-1)^z per check, [m, B]
        flip = np.asarray(prior_flip, dtype=float)
        _check_prior(flip)
        # prior[t, 0, b]: the 0- (t = 0) and 1-probability of row b
        self.prior = np.empty((2, 1, b))
        self._put_prior(np.arange(b), flip)
        shape = (2, graph.n_edges + 1, b)
        self.q = np.empty(shape)
        self.q[:, :-1] = self.prior
        self.q[:, -1] = _Q_SENTINEL
        self.r = np.ones(shape)
        self.r[:, :-1] = 0.0
        self._totals = None   # per-bit products of r, from the last vertical step

    syndrome = property(lambda self: self.checks.T)

    def _put_prior(self, slots: np.ndarray, flip: np.ndarray):
        """Give the batch rows ``slots`` the flip probability ``flip``,
        already checked (one for all or one per slot); ``admit`` starts
        their messages from it."""
        self.prior[1, 0, slots] = flip
        self.prior[0, 0, slots] = 1.0 - flip

    def admit(self, slots: np.ndarray, syndromes: np.ndarray):
        """Restart the batch rows ``slots`` on new syndromes (a [k, m]
        array): their q goes back to their prior.  Their r is left as it
        is, because the next horizontal step rewrites all of r before
        anything reads it; until then, ``pseudoposteriors`` of these
        rows are stale."""
        checks = syndromes.T & 1
        self.checks[:, slots] = checks
        self.sign[:, slots] = 1.0 - 2.0 * checks
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
        self._totals = None

    def keep(self, rows: np.ndarray):
        """Carry on with the batch rows selected by ``rows`` (a boolean
        mask over the batch) only.  ``compress`` keeps every array
        C-ordered with the batch axis last; fancy indexing would put it
        first in memory and make every later step stride over it."""
        self.checks = self.checks.compress(rows, axis=-1)
        self.sign = self.sign.compress(rows, axis=-1)
        self.prior = self.prior.compress(rows, axis=-1)
        self.q = self.q.compress(rows, axis=-1)
        self.r = self.r.compress(rows, axis=-1)
        self._totals = None

    def horizontal_step(self):
        """Check-to-bit messages from the parity convolution, into r."""
        g = self.g
        self._totals = None
        loo, _ = _loo_prod((self.q[0] - self.q[1])[g.check_slots_t])
        loo *= self.sign
        body = self.r[:, :-1]
        dr = body[1]    # dr = prod dq over the other edges, then r1 in place
        np.take(loo.reshape(-1, loo.shape[-1]), g.check_pos, axis=0, out=dr, mode="clip")
        np.add(1.0, dr, out=body[0])
        np.subtract(1.0, dr, out=dr)
        body /= 2.0
        np.maximum(body, _FLOOR, out=body)

    def vertical_step(self):
        """Bit-to-check messages, renormalized so q0 + q1 = 1 per edge,
        into q."""
        g = self.g
        body = self.q[:, :-1]
        totals = []
        for t in (0, 1):
            loo, total = _loo_prod(self.r[t][g.bit_slots_t])
            np.take(loo.reshape(-1, loo.shape[-1]), g.bit_pos, axis=0, out=body[t], mode="clip")
            del loo     # before the next gather: lowers the peak
            totals.append(total)
        self._totals = totals
        body *= self.prior
        norm = body[0] + body[1]
        np.maximum(norm, _FLOOR, out=norm)
        body /= norm
        np.maximum(body, _FLOOR, out=body)

    def _posteriors(self) -> np.ndarray:
        """``pseudoposteriors`` batch-last, [n, B]."""
        totals = self._totals
        if totals is None:
            totals = [_loo_prod(r[self.g.bit_slots_t])[1] for r in self.r]
        tot0, tot1 = self.prior[0, 0] * totals[0], self.prior[1, 0] * totals[1]
        return tot1 / np.maximum(tot0 + tot1, _FLOOR)

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
        post = self._posteriors()
        est = np.zeros((len(post) + 1, post.shape[1]), dtype=np.uint8)
        np.greater(post, 0.5, out=est[:-1].view(bool))
        return est, (self.g.parities(est) == self.checks).all(axis=0)


@dataclass(frozen=True)
class DecodeResult:
    estimate: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "estimate", np.asarray(self.estimate, dtype=np.uint8))


class _Block:
    """One block of a stream: its queued syndromes and priors, and its
    results as its rows finish."""

    def __init__(self, block_id: int, graph: SpaGraph, syndromes, prior_flip, max_iter: int):
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.ndim != 2:
            raise ValueError(f"syndromes must be a [B, m] array, got shape {syndromes.shape}")
        _check_length(syndromes, graph)
        flip = np.asarray(prior_flip, dtype=float)
        _check_prior(flip)
        b = len(syndromes)
        self.id = block_id
        self.syndromes = syndromes & 1
        self.flip = np.broadcast_to(flip, (b,))
        self.estimates = np.zeros((b, graph.n), dtype=np.uint8)
        self.converged = np.zeros(b, dtype=bool)
        self.iterations = np.full(b, max_iter, dtype=np.int64)
        self.cycled = np.zeros(b, dtype=bool)
        # below 1/2 a zero syndrome is decoded without the loop: every
        # check message then favors 0, so the first round would return
        # the zero estimate anyway
        zero = ~self.syndromes.any(axis=1) & (self.flip < 0.5)
        self.converged[zero] = True
        self.iterations[zero] = 1
        self.queue = np.flatnonzero(~zero)
        self.pending = len(self.queue)

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.estimates, self.converged, self.iterations, self.cycled


class _Feed:
    """The kernel's side of a block stream: hands out queued rows,
    pulling the next block only when the queued ones run out, takes
    back finished rows, and releases finished blocks in stream order."""

    def __init__(self, graph: SpaGraph, blocks, max_iter: int):
        self.graph = graph
        self.blocks = iter(blocks)
        self.max_iter = max_iter
        self.open: deque[_Block] = deque()    # not yet released, in order
        self.queued: deque[_Block] = deque()  # with rows still to hand out
        self.pulled = 0                       # blocks pulled so far

    def take(self, k: int):
        """Up to ``k`` queued rows as ``(block ids, rows, syndromes,
        priors)``; fewer only when the stream has run dry."""
        parts = []
        while k:
            if not self.queued:
                item = next(self.blocks, None)
                if item is None:
                    break
                syndromes, prior_flip = item
                block = _Block(self.pulled, self.graph, syndromes, prior_flip, self.max_iter)
                self.pulled += 1
                self.open.append(block)
                if len(block.queue):
                    self.queued.append(block)
                continue
            block = self.queued[0]
            rows, block.queue = block.queue[:k], block.queue[k:]
            if not len(block.queue):
                self.queued.popleft()
            parts.append((block, rows))
            k -= len(rows)
        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros((0, self.graph.m), dtype=np.uint8), np.zeros(0)
        fields = [(np.full(len(r), b.id), r, b.syndromes[r], b.flip[r]) for b, r in parts]
        if len(fields) == 1:   # the usual case
            return fields[0]
        return tuple(np.concatenate(f) for f in zip(*fields))

    def finish(self, ids, rows, estimates, converged, iterations, cycled=None):
        """Record the results of finished rows; ``cycled`` flags those
        ended on a message cycle (None: none was)."""
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
            if cycled is not None:
                block.cycled[r] = cycled[sel]
            block.pending -= len(r)

    def ready(self):
        """Release the leading run of finished blocks."""
        while self.open and not self.open[0].pending:
            yield self.open.popleft().result()


def decode_stream(h: BitMatrix | SpaGraph, blocks, max_iter: int = 100):
    """Flooding-schedule sum-product decoding of a stream of blocks,
    each ``(syndromes [B, m], prior_flip)`` with one flip probability
    for the block or one per row.

    Yields ``(estimates [B, n] uint8, converged [B] bool, iterations [B]
    int64, cycled [B] bool)`` per block, in stream order.  A row stops
    at the first tentative estimate that reproduces its syndrome; a row
    that has not after ``max_iter`` rounds keeps its last estimate,
    unconverged.  A zero syndrome at a prior below 1/2 never enters the
    loop.

    The kernel iterates an active set of at most ``WIDTH`` rows.  Each
    row counts its own rounds, and the slot of a row that stops is
    refilled with the next queued row, whichever block it comes from,
    so the batch stays wide until the stream runs out.  A block is
    pulled only when its predecessors have no row left to queue, and
    held until it and every block before it are done: each round
    retires at most ``WIDTH`` rows, so at most ``WIDTH * max_iter`` rows
    are pulled past the oldest running one.  Every row computes exactly
    what it would alone.

    A row whose messages q after some round equal, bit for bit, its q
    k <= ``_RING`` rounds earlier is periodic from there on, because q
    is the row's whole state; it cannot converge any more, and it
    leaves at once with the estimate that the phase of ``max_iter`` in
    its period picks from its last k rounds.  So every result equals
    that of the exit-free loop, and a fourth array per block, ``cycled
    [B] bool``, flags the rows that left this way (each unconverged, at
    ``max_iter`` iterations).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    graph = h if isinstance(h, SpaGraph) else SpaGraph(h)
    return _stream(_Feed(graph, blocks, max_iter), max_iter)


class _Cycles:
    """Exact-cycle exits for the rows of one kernel.

    Two rings are indexed by the global round s, at entry s % K (K =
    ``_RING``), so every round writes one contiguous row of each:
    ``fps`` [K, B] holds each row's fingerprint (NaN before the first)
    and ``ests`` [K, n, B] its tentative estimate.  A row whose
    fingerprint equals one of its last K gets the bits of its q copied
    into ``snaps``, and the copy is compared bit for bit with q at each
    of the next K rounds whose fingerprint equals the copy's,
    ``snap_fp``.  A fingerprint match alone ends no row.

    Most rows converge within a few rounds, so a round in which every
    row is younger than K rounds is not recorded, and s counts recorded
    rounds only.  A row is copied only at an age of K or more: every
    later round of the row is then recorded, so k rounds back in the
    rings is k rounds back in the row's life.
    """

    def __init__(self, b: int, n: int, max_iter: int):
        self.max_iter = max_iter
        self.round = 0
        self.fps = np.full((_RING, b), np.nan)
        self.ests = np.zeros((_RING, n, b), dtype=np.uint8)
        self.since = np.full(b, _IDLE)     # age of the row's copy
        self.snap_fp = np.full(b, np.nan)
        self.snaps = {}                    # slot -> bits of the row's q at its copy

    def admit(self, slots: np.ndarray):
        self.since[slots] = _IDLE

    def keep(self, rows: np.ndarray):
        """As ``SpaWorkspace.keep``."""
        self.fps = self.fps.compress(rows, axis=-1)
        self.ests = self.ests.compress(rows, axis=-1)
        self.since = self.since[rows]
        self.snap_fp = self.snap_fp[rows]
        slot = np.cumsum(rows) - 1
        self.snaps = {int(slot[j]): c for j, c in self.snaps.items() if rows[j]}

    def step(self, q: np.ndarray, estimate: np.ndarray, ok: np.ndarray,
             age: np.ndarray) -> np.ndarray | None:
        """Record the round just run, of rows at ``age`` with messages
        ``q``, and return the rows, none of them ``ok``, whose q equals
        their copy from k <= K rounds ago, or None if there are none.
        Their rounds repeat with period k, so their rows of ``estimate``
        are replaced by the estimate they would stop at after
        ``max_iter`` rounds."""
        if age.max() < _RING:
            return None
        s, self.round = self.round, self.round + 1
        self.ests[s % _RING] = estimate.T
        fp = _fingerprint(q)
        check = (self.snap_fp == fp).nonzero()[0]
        hits = (self.fps == fp).ravel().nonzero()[0]
        self.fps[s % _RING] = fp
        if not (len(check) or len(hits)):
            return None
        # few rows match in a round, so they are taken one at a time
        ages, done, since = age.tolist(), ok.tolist(), self.since.tolist()
        bits = q.view(np.uint64)
        cycled = []
        for j in check.tolist():
            k = ages[j] - since[j]
            if done[j] or k > _RING or not (bits[..., j] == self.snaps[j]).all():
                continue
            # est(a + k) = est(a) for every age a past the copy, so the
            # estimate at max_iter is (age - max_iter) mod k rounds back
            back = (ages[j] - self.max_iter) % k
            estimate[j] = self.ests[(s - back) % _RING, :, j]
            cycled.append(j)
        for j in set((hits % len(ages)).tolist()):
            if (_RING <= ages[j] < self.max_iter - 1 and ages[j] - since[j] > _RING
                    and not done[j]):
                self.snaps[j] = bits[..., j].copy()
                self.snap_fp[j] = fp[j]
                self.since[j] = ages[j]
        return np.array(cycled) if cycled else None


def _stream(feed: _Feed, max_iter: int):
    ids, active, syn, flip = feed.take(WIDTH)
    if len(active):
        ws = SpaWorkspace(feed.graph, syn, flip)
        age = np.zeros(len(active), dtype=np.int64)
        cycles = _Cycles(len(active), feed.graph.n, max_iter)
    while len(active):
        ws.horizontal_step()
        ws.vertical_step()
        age += 1
        est, ok = ws.decide()
        estimate = est[:-1].T    # a [B, n] view: only finished rows are copied out
        cycled = cycles.step(ws.q, estimate, ok, age)
        if cycled is not None:
            age[cycled] = max_iter
        done = ok | (age == max_iter)
        if done.any():
            slots = np.flatnonzero(done)
            feed.finish(ids[slots], active[slots], estimate[slots], ok[slots], age[slots],
                        None if cycled is None else np.isin(slots, cycled))
            new_ids, refill, syn, flip = feed.take(len(slots))
            k = len(refill)
            if k:
                ws._put_prior(slots[:k], flip)    # checked by its _Block
                ws.admit(slots[:k], syn)
                cycles.admit(slots[:k])
                ids[slots[:k]] = new_ids
                active[slots[:k]] = refill
                age[slots[:k]] = 0
            if k < len(slots):
                keep = np.ones(len(active), dtype=bool)
                keep[slots[k:]] = False
                ws.keep(keep)
                cycles.keep(keep)
                ids, active, age = ids[keep], active[keep], age[keep]
            yield from feed.ready()
    yield from feed.ready()


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
    if not 0.0 < prior_flip < 1.0:
        raise ValueError("prior flip probability must be in (0, 1)")
    arr = h.to_array()
    syndrome = np.asarray(syndrome, dtype=np.uint8).ravel() & 1
    if syndrome.size != h.rows:
        raise ValueError("syndrome length mismatch")
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
