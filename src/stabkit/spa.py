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

There is one kernel and it works on a batch: ``decode_batch`` runs B
independent syndromes side by side, with the messages of all B rows
held edge-major (E Tanner-graph edges by B rows), and drops each row
from the batch as soon as it converges.  The products over the edges
of each check (or bit) run on a padded slot-major [d, groups, B]
gather, one contiguous multiply per slot and always in slot order, so
a row's arithmetic does not depend on the rest of its batch.
``decode`` is the batch of one.

``exact_marginals`` is the brute-force oracle: true per-bit posteriors
by enumerating every error pattern consistent with the syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2 import BitMatrix

__all__ = ["SpaGraph", "SpaWorkspace", "DecodeResult", "decode", "decode_batch",
           "exact_marginals"]

_FLOOR = 1e-300
_Q_SENTINEL = ((1.0,), (0.0,))    # q0, q1 of the sentinel edge: dq = 1


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
    """Reusable Tanner-graph indexing of a parity check matrix.

    ``check_slots`` [m, dc] and ``bit_slots`` [n, dv] list the edges of
    every check and bit, padded with the sentinel edge id E; the
    transposed ``*_slots_t`` gather edge-major messages [E + 1, B] into
    the slot-major layout [d, groups, B], and ``*_pos`` take the
    flattened result back to edges.
    """

    def __init__(self, h: BitMatrix):
        self.h = h
        arr = h.to_array()
        self.arr = arr
        self.m, self.n = arr.shape
        rows, cols = np.nonzero(arr)
        self.edge_check = rows.astype(np.int64)
        self.edge_bit = cols.astype(np.int64)
        self.n_edges = len(rows)
        self.check_slots = _padded_slots(self.edge_check, self.m, self.n_edges)
        self.bit_slots = _padded_slots(self.edge_bit, self.n, self.n_edges)
        self.check_slots_t = np.ascontiguousarray(self.check_slots.T)
        self.bit_slots_t = np.ascontiguousarray(self.bit_slots.T)
        self.check_pos = _slot_of_edge(self.check_slots_t, self.n_edges)
        self.bit_pos = _slot_of_edge(self.bit_slots_t, self.n_edges)
        # bits of each check, slot-major [dc, m], padded with n
        self.check_bits = np.append(self.edge_bit, self.n)[self.check_slots_t]


class SpaWorkspace:
    """Message state of one decoding run over a batch of syndromes
    (single-use).

    A 2-D syndrome array [B, m] is a batch of B independent rows; the
    message arrays ``q0``, ``q1``, ``r0`` and ``r1`` are then [B, E].  Any
    other shape is raveled into one syndrome: a batch of one, for which
    ``pseudoposteriors``, ``tentative`` and ``satisfies`` drop the batch
    axis.

    In memory the messages are edge-major, ``q[t, e, b]`` for the 0- (t
    = 0) and 1-messages (t = 1), so a gather by edge moves whole batch
    rows.  Row E is a sentinel that pads the slot-major gathers: r is 1
    there, and q is 1 and 0, so that dq = q0 - q1 is 1.
    """

    def __init__(self, graph: SpaGraph, syndrome, prior_flip: float):
        if not 0.0 < prior_flip < 1.0:
            raise ValueError(f"prior flip probability must be in (0, 1), got {prior_flip}")
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        self.batched = syndrome.ndim == 2
        if not self.batched:
            syndrome = syndrome.reshape(1, -1)
        syndrome = syndrome & 1
        if syndrome.shape[1] != graph.m:
            raise ValueError(
                f"syndrome length {syndrome.shape[1]} != check count {graph.m}"
            )
        self.g = graph
        self.syndrome = syndrome
        self.sign = 1.0 - 2.0 * syndrome.T   # (-1)^z per check, [m, B]
        self.p1 = prior_flip
        self.p0 = 1.0 - prior_flip
        self.prior = np.array([self.p0, self.p1])[:, None, None]
        shape = (2, graph.n_edges + 1, len(syndrome))
        self.q = self.prior * np.ones(shape)
        self.q[:, -1] = _Q_SENTINEL
        self.r = np.ones(shape)
        self.r[:, :-1] = 0.0
        self._totals = None   # per-bit products of r, from the last vertical step

    q0 = property(lambda self: self.q[0, :-1].T)
    q1 = property(lambda self: self.q[1, :-1].T)
    r0 = property(lambda self: self.r[0, :-1].T)
    r1 = property(lambda self: self.r[1, :-1].T)

    def keep(self, rows: np.ndarray):
        """Carry on with the batch rows selected by ``rows`` only."""
        self.syndrome = self.syndrome[rows]
        self.sign = self.sign[:, rows]
        self.q = self.q[..., rows]
        self.r = self.r[..., rows]
        self._totals = None

    def horizontal_step(self):
        """Check-to-bit messages from the parity convolution."""
        g = self.g
        self.r = None       # replaced below; dropping it early lowers the peak
        self._totals = None
        loo, _ = _loo_prod((self.q[0] - self.q[1])[g.check_slots_t])
        loo *= self.sign
        dr = loo.reshape(-1, loo.shape[-1])[g.check_pos]
        self.r = r = np.empty(self.q.shape)
        r[:, -1] = 1.0
        body = r[:, :-1]
        np.add(1.0, dr, out=body[0])
        np.subtract(1.0, dr, out=body[1])
        body /= 2.0
        np.maximum(body, _FLOOR, out=body)

    def vertical_step(self):
        """Bit-to-check messages, renormalized so q0 + q1 = 1 per edge."""
        g = self.g
        self.q = None
        self.q = q = np.empty(self.r.shape)
        q[:, -1] = _Q_SENTINEL
        body = q[:, :-1]
        totals = []
        for t in (0, 1):
            loo, total = _loo_prod(self.r[t][g.bit_slots_t])
            np.take(loo.reshape(-1, loo.shape[-1]), g.bit_pos, axis=0, out=body[t], mode="clip")
            totals.append(total)
        self._totals = totals
        body *= self.prior
        norm = np.maximum(body[0] + body[1], _FLOOR)
        body /= norm
        np.maximum(body, _FLOOR, out=body)

    def pseudoposteriors(self) -> np.ndarray:
        """Per-bit flip probability from all incident checks."""
        totals = self._totals
        if totals is None:
            totals = [_loo_prod(r[self.g.bit_slots_t])[1] for r in self.r]
        tot0, tot1 = self.p0 * totals[0], self.p1 * totals[1]
        post = (tot1 / np.maximum(tot0 + tot1, _FLOOR)).T
        return post if self.batched else post[0]

    def tentative(self) -> np.ndarray:
        """Hard decision: flip where the posterior strictly exceeds 1/2
        (ties favor the lower-weight error)."""
        return (self.pseudoposteriors() > 0.5).view(np.uint8)

    def satisfies(self, estimate: np.ndarray):
        """Whether each row of ``estimate`` reproduces its syndrome."""
        estimate = np.asarray(estimate, dtype=np.uint8).reshape(len(self.syndrome), -1)
        ext = np.zeros((self.g.n + 1, len(estimate)), dtype=np.uint8)
        ext[:-1] = estimate.T
        parity = np.bitwise_xor.reduce(ext[self.g.check_bits], axis=0) & 1
        ok = np.all(parity == self.syndrome.T, axis=0)
        return ok if self.batched else bool(ok[0])


@dataclass(frozen=True)
class DecodeResult:
    estimate: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "estimate", np.asarray(self.estimate, dtype=np.uint8))


def decode_batch(h: BitMatrix | SpaGraph, syndromes, prior_flip: float,
                 max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flooding-schedule sum-product decoding of a [B, m] batch of
    syndromes, each row independent of the others.

    Returns ``(estimates [B, n] uint8, converged [B] bool, iterations
    [B] int64)``.  A row stops at the first tentative estimate that
    reproduces its syndrome and leaves the batch; the rows still left
    after ``max_iter`` rounds keep their last estimate, unconverged.
    When ``prior_flip < 1/2`` an all-zero syndrome never enters the
    loop: every check message then favors 0, so the first round would
    return the zero estimate anyway.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    graph = h if isinstance(h, SpaGraph) else SpaGraph(h)
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    if syndromes.ndim != 2:
        raise ValueError(f"syndromes must be a [B, m] array, got shape {syndromes.shape}")
    ws = SpaWorkspace(graph, syndromes, prior_flip)
    b = len(syndromes)
    estimates = np.zeros((b, graph.n), dtype=np.uint8)
    converged = np.zeros(b, dtype=bool)
    iterations = np.full(b, max_iter, dtype=np.int64)
    active = np.arange(b)
    if prior_flip < 0.5:
        zero = ~ws.syndrome.any(axis=1)
        converged[zero] = True
        iterations[zero] = 1
        ws.keep(~zero)
        active = active[~zero]
    estimate = estimates[active]
    for it in range(1, max_iter + 1):
        if not len(active):
            break
        ws.horizontal_step()
        ws.vertical_step()
        estimate = ws.tentative()
        ok = ws.satisfies(estimate)
        if ok.any():
            done = active[ok]
            estimates[done] = estimate[ok]
            converged[done] = True
            iterations[done] = it
            ws.keep(~ok)
            active = active[~ok]
            estimate = estimate[~ok]
    estimates[active] = estimate
    return estimates, converged, iterations


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
