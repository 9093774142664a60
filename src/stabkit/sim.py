"""Monte Carlo block-error-rate estimation on the depolarizing channel.

Errors are sampled i.i.d. per qubit (X, Y, Z each with probability
p/3), the syndrome is decoded CSS-split by two independent sum-product
runs with marginal flip prior 2p/3 (an X flip arises from Pauli X or Y,
a Z flip from Z or Y), and the residual is scored either strictly
(must vanish) or degenerately (must lie in the span of the isotropic
and gauge generators, ``QuantumCode.is_harmless``).  Each block error
is also classed as not converged (either half's decoder stopped at
``max_iter``) or converged to a wrong coset.  Each point also counts
the trials that degenerate scoring excused, the decoder iterations
(total and most) of every decoded row, and the decoded rows caught in
an exact message cycle, whose whole periods the decoder skipped on the
way to ``max_iter``.

Trials run in chunks of ``CHUNK`` = 4 kernel widths: the chunk's flips
are stacked into uint8 [B, n] arrays and each CSS half gets its
syndromes from ``SpaGraph.syndromes``, an XOR over the Tanner graph's
check-to-bit gather.  The chunks of a whole span of the grid are
sampled lazily and fed as blocks to one ``decode_stream`` kernel (both
halves' syndromes stacked in one block of one stream when ``hz == hx``,
one stream per half otherwise), each block with its own point's prior,
so the rows of the next chunk, and of the next point, fill the slots
that finishing rows free.  Residuals are packed into ints only for
degenerate scoring.

Trial t of grid index i draws exactly what
``np.random.default_rng((seed, i, t)).random(n)`` would, and rows
decode independently, so results are bit-identical for any chunk
split, worker count or execution order.  No generator is seeded per
trial, though: a chunk hashes the seed sequences of all its trials at
once, as uint32 array arithmetic, derives each trial's PCG64 state
from them and sets it on one generator before drawing its row.

With ``workers`` > 1, w = min(workers, cpu count, trials) processes
each take one contiguous span of every point's trials, and all of a
worker's spans are one task: the calling process runs the first, and
w - 1 processes forked bare (``os.fork`` and a pipe, no pool) per
``sweep`` or ``run_point`` call the others.  The children inherit the
code and its decoder graphs through fork, and send back only their
pickled counts, or the exception they raised, which the caller raises
again; a child that dies without a word raises ``RuntimeError``.  If
the caller fails first, it kills and reaps every child.  Where the
platform cannot fork, every run is serial.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .codes import QuantumCode
from .f2 import pack_rows
from .pauli import PauliVec
# ``decode`` is re-exported: code that wraps or inspects ``sim.decode``
# (the benchmark tracer) keeps working although trials use decode_stream
from .spa import WIDTH, SpaGraph, decode, decode_stream  # noqa: F401

__all__ = [
    "SimConfig",
    "SimPoint",
    "SimResult",
    "sample_depolarizing",
    "run_point",
    "sweep",
    "wilson_interval",
]

#: trials sampled together and fed to the kernel as one block: a few
#: kernel widths, so that peak memory stays flat in the trial count
CHUNK = 4 * WIDTH


def _check_p(p: float):
    if not 0.0 <= p < 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1)")


@dataclass(frozen=True)
class SimConfig:
    code: QuantumCode
    p_grid: tuple[float, ...]
    trials: int
    seed: int = 0
    max_iter: int = 100
    success_mode: str = "degenerate"
    workers: int = 1

    def __post_init__(self):
        for name in ("trials", "seed", "max_iter", "workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.p_grid:
            raise ValueError("p_grid must not be empty")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for p in self.p_grid:
            _check_p(p)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.success_mode not in ("strict", "degenerate"):
            raise ValueError(f"unknown success mode {self.success_mode!r}")
        if self.code.css is None:
            raise ValueError("simulation needs a code with classical CSS structure")


@dataclass(frozen=True)
class SimPoint:
    p: float
    trials: int
    block_errors: int
    wer: float
    ci_lo: float
    ci_hi: float
    #: block errors where either CSS half's decoder did not converge
    not_converged: int = 0
    #: block errors where both halves converged, to a wrong coset
    converged_wrong: int = 0
    #: trials with a non-zero residual that ``QuantumCode.is_harmless``
    #: excused (always 0 in strict mode)
    degenerate_saves: int = 0
    #: decoder iterations summed over every decoded row, both CSS halves
    #: (a row settled in round one counts 1)
    iterations_total: int = 0
    #: most iterations any decoded row took
    iterations_max: int = 0
    #: decoded rows, both CSS halves, caught in an exact message cycle,
    #: whose whole periods the decoder skipped (each counts ``max_iter``
    #: iterations, as without the skip)
    cycled: int = 0


@dataclass(frozen=True)
class SimResult:
    points: tuple[SimPoint, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        lines = ["p,trials,block_errors,wer,ci_lo,ci_hi"]
        for pt in self.points:
            lines.append(
                f"{pt.p:.10g},{pt.trials},{pt.block_errors},"
                f"{pt.wer:.10g},{pt.ci_lo:.10g},{pt.ci_hi:.10g}"
            )
        return "\n".join(lines) + "\n"


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must be in [0, trials], got hits={hits}, trials={trials}")
    phat = hits / trials
    z = 1.959963984540054   # the standard normal quantile at 0.975
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _flips(u: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """X and Z flip indicators (uint8, shaped like ``u``) of depolarizing
    noise from uniforms ``u``: X below 2p/3 (Pauli X or Y), Z in
    [p/3, p) (Pauli Y or Z)."""
    x_flip = (u < 2.0 * p / 3.0).view(np.uint8)
    z_flip = ((u >= p / 3.0) & (u < p)).view(np.uint8)
    return x_flip, z_flip


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and PCG64's LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1


def _words(x: int) -> list[int]:
    """``x`` as ``SeedSequence`` takes an int: little-endian 32-bit
    words, 0 being one word."""
    out = [x & _M32]
    while x := x >> 32:
        out.append(x & _M32)
    return out


def _seed_state(entropy: list[np.ndarray]) -> list[list[int]]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every
    column e of ``entropy``, a list of equal-length uint32 arrays (word
    i of every seed in array i), as four lists of ints.

    SeedSequence hashes a 4-word pool with constants that depend only
    on the number of words, so all seeds hash in step: every word
    operation is one uint32 array operation, wrapping as the 32-bit
    hash does.
    """
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * _MULT_A & _M32
        v *= hc
        v ^= v >> 16
        return v

    def mix(x, y):
        r = x * _MIX_L
        r -= y * _MIX_R
        r ^= r >> 16
        return r

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hc = _INIT_B
    state = []
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * _MULT_B & _M32
        v *= hc
        v ^= v >> 16
        state.append(v.astype(np.uint64))
    return [(state[2 * k] | state[2 * k + 1] << 32).tolist() for k in range(4)]


def _uniforms(gen: np.random.Generator, seed: int, p_idx: int, start: int, stop: int,
              n: int) -> np.ndarray:
    """[stop - start, n] uniforms whose row t - start is
    ``np.random.default_rng((seed, p_idx, t)).random(n)``, drawn by
    ``gen`` (over a ``PCG64``) with its state set row by row.

    The seed sequence of the tuple is its entropy words: those of seed,
    of p_idx and of t.  Trials are taken in runs of equal t >> 32, so
    within a run only t's low word varies.  PCG64 seeds from the state
    words s0..s3 by PCG's srandom: inc = 2 initseq + 1 and state =
    ((inc + initstate) M + inc) mod 2^128, with initstate = s0:s1 and
    initseq = s2:s3.
    """
    u = np.empty((stop - start, n))
    rows = iter(u)
    inner = {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    head = _words(seed) + _words(p_idx)
    while start < stop:
        hi = min(stop, ((start >> 32) + 1) << 32)
        b = hi - start
        low = np.arange(start & _M32, (start & _M32) + b, dtype=np.uint32)
        tail = _words(start >> 32) if start >> 32 else []
        entropy = ([np.full(b, w, np.uint32) for w in head] + [low]
                   + [np.full(b, w, np.uint32) for w in tail])
        for s0, s1, s2, s3 in zip(*_seed_state(entropy)):
            inc = (s2 << 65 | s3 << 1 | 1) & _M128
            inner["state"] = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _M128
            inner["inc"] = inc
            gen.bit_generator.state = state
            gen.random(out=next(rows))
        start = hi
    return u


def sample_depolarizing(n: int, p: float, rng: np.random.Generator) -> PauliVec:
    """i.i.d. depolarizing noise: identity w.p. 1-p, X/Y/Z each w.p. p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    x_flip, z_flip = _flips(rng.random(n), p)
    return PauliVec(n, *pack_rows([z_flip, x_flip]))


@dataclass(frozen=True)
class _Tally:
    """What a span of trials adds to its point."""
    errors: int = 0
    not_converged: int = 0
    degenerate_saves: int = 0
    iterations_total: int = 0
    iterations_max: int = 0
    cycled: int = 0

    def __add__(self, other: _Tally) -> _Tally:
        return _Tally(self.errors + other.errors,
                      self.not_converged + other.not_converged,
                      self.degenerate_saves + other.degenerate_saves,
                      self.iterations_total + other.iterations_total,
                      max(self.iterations_max, other.iterations_max),
                      self.cycled + other.cycled)


def _tee(items, k: int) -> list:
    """``k`` lazy readers of ``items``, each seeing every item in order.
    An item is held only until the last reader has taken it (unlike
    ``itertools.tee``, which frees its buffer in links of dozens of
    items)."""
    items = iter(items)
    queues = [deque() for _ in range(k)]
    end = object()

    def reader(queue):
        while True:
            if not queue:
                item = next(items, end)
                if item is end:
                    return
                for q in queues:
                    q.append(item)
            yield queue.popleft()

    return [reader(q) for q in queues]


@dataclass(frozen=True)
class _Chunk:
    """The sampled flips and syndromes of up to ``CHUNK`` trials of one
    span."""
    span: int
    flip: float     # marginal flip prior 2p/3 of either CSS half
    ex: np.ndarray
    ez: np.ndarray
    sz: np.ndarray
    sx: np.ndarray


class _TrialRunner:
    """Per-code state shared by all trials of a sweep."""

    def __init__(self, config: SimConfig):
        self.config = config
        code = config.code
        self.n = code.n
        self.graph_z = SpaGraph(code.css.hz)   # Z-type checks detect X errors
        # X-type checks detect Z errors; one graph serves both halves
        # when their check matrices are equal
        self.graph_x = self.graph_z if code.css.hx == code.css.hz else SpaGraph(code.css.hx)
        if config.success_mode == "degenerate":
            code.is_harmless(0)   # eliminate the harmless group before any fork

    def tally(self, spans) -> list[_Tally]:
        """One ``_Tally`` per ``(p_idx, p, start, stop)`` span, every
        span's chunks decoded through one kernel stream."""
        tallies = [_Tally()] * len(spans)
        for chunk, halves in self._decoded(self._chunks(spans)):
            tallies[chunk.span] += self._score(chunk, *halves)
        return tallies

    def _chunks(self, spans):
        """Sample the spans' trials ``CHUNK`` at a time, lazily."""
        seed = self.config.seed
        gen = np.random.Generator(np.random.PCG64())   # its state is set per trial
        for i, (p_idx, p, start, stop) in enumerate(spans):
            if p == 0.0:
                continue
            for a in range(start, stop, CHUNK):
                ex, ez = _flips(_uniforms(gen, seed, p_idx, a, min(a + CHUNK, stop), self.n), p)
                yield _Chunk(i, 2.0 * p / 3.0, ex, ez,
                             self.graph_z.syndromes(ex), self.graph_x.syndromes(ez))

    def _decoded(self, chunks):
        """Each chunk with the ``decode_stream`` results of its X half
        (from ``sz``) and Z half (from ``sx``): one stream of stacked
        syndromes when the halves share a graph, one stream per half
        otherwise."""
        max_iter = self.config.max_iter
        if self.graph_x is self.graph_z:
            chunks, feed = _tee(chunks, 2)
            stacked = ((np.concatenate([c.sz, c.sx]), c.flip) for c in feed)
            stream = decode_stream(self.graph_z, stacked, max_iter)
            for c, rows in zip(chunks, stream):
                b = len(c.sz)
                yield c, (tuple(a[:b] for a in rows), tuple(a[b:] for a in rows))
        else:
            chunks, feed_z, feed_x = _tee(chunks, 3)
            xs = decode_stream(self.graph_z, ((c.sz, c.flip) for c in feed_z), max_iter)
            zs = decode_stream(self.graph_x, ((c.sx, c.flip) for c in feed_x), max_iter)
            yield from ((c, halves) for c, *halves in zip(chunks, xs, zs))

    def _score(self, c: _Chunk, x_half, z_half) -> _Tally:
        (dx, cx, ix, yx), (dz, cz, iz, yz) = x_half, z_half
        rx = c.ex ^ dx
        rz = c.ez ^ dz
        failed = rx.any(axis=1) | rz.any(axis=1)
        saves = 0
        if self.config.success_mode == "degenerate":
            packed = pack_rows(np.concatenate([rz, rx], axis=1)[failed])
            harmless = self.config.code.is_harmless
            failed[failed] = [not harmless(v) for v in packed]
            saves = len(packed) - int(failed.sum())
        return _Tally(int(failed.sum()), int((failed & ~(cx & cz)).sum()), saves,
                      int(ix.sum() + iz.sum()), int(max(ix.max(), iz.max())),
                      int(yx.sum() + yz.sum()))


class _Child:
    """A forked process computing one result, which comes back pickled
    through a pipe."""

    def __init__(self, pid: int, fd: int):
        self.pid = pid
        self.pipe = os.fdopen(fd, "rb")
        self.reaped = False

    def join(self):
        """The child's result, or its exception raised again; a child
        that exits without writing one raises ``RuntimeError``."""
        data = self.pipe.read()
        status = self._reap()
        if not data:
            raise RuntimeError(f"worker process {self.pid} exited with status {status} "
                               "before sending a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def kill(self):
        """Stop and reap the child unless ``join`` already has."""
        if not self.reaped:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.reaped = True
        return os.waitstatus_to_exitcode(status)


def _fork(fn, *args) -> _Child:
    """Run ``fn(*args)`` in a forked process.  The child inherits all
    state through fork, pickles ``(True, result)`` or ``(False,
    exception)`` to a pipe and always leaves by ``os._exit``."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                data = pickle.dumps((True, fn(*args)))
            except Exception as exc:
                data = pickle.dumps((False, exc))
            with os.fdopen(w, "wb") as f:
                f.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return _Child(pid, r)


def _simulate(config: SimConfig, grid) -> tuple[SimPoint, ...]:
    """One ``SimPoint`` per ``(p_idx, p)`` of ``grid``.  With w =
    min(workers, cpu count, trials) > 1 the trials of each point are cut
    into w contiguous spans, and worker i takes span i of every point
    as one task: the calling process the first, and w - 1 forked
    processes the others.  Where the platform cannot fork, w is 1."""
    runner = _TrialRunner(config)
    grid = list(grid)
    trials = config.trials
    w = min(config.workers, os.cpu_count() or 1, trials) if hasattr(os, "fork") else 1
    cuts = [trials * i // w for i in range(w + 1)]
    spans = [[(p_idx, p, a, b) for p_idx, p in grid] for a, b in zip(cuts, cuts[1:])]
    children = []
    try:
        for s in spans[1:]:
            children.append(_fork(runner.tally, s))
        tallies = runner.tally(spans[0])
        for child in children:
            tallies = [a + b for a, b in zip(tallies, child.join())]
    finally:
        for child in children:
            child.kill()
    points = []
    for (_, p), t in zip(grid, tallies):
        lo, hi = wilson_interval(t.errors, trials)
        points.append(SimPoint(p, trials, t.errors, t.errors / trials, lo, hi,
                               t.not_converged, t.errors - t.not_converged,
                               t.degenerate_saves, t.iterations_total, t.iterations_max,
                               t.cycled))
    return tuple(points)


def run_point(config: SimConfig, p: float, p_idx: int = 0) -> SimPoint:
    """Monte Carlo at a single depolarizing probability, seeded as grid
    index ``p_idx``."""
    _check_p(p)
    if p_idx < 0:
        raise ValueError(f"p_idx must be non-negative, got {p_idx}")
    return _simulate(config, [(p_idx, p)])[0]


def sweep(config: SimConfig) -> SimResult:
    """run_point over the whole probability grid, in grid order."""
    return SimResult(_simulate(config, enumerate(config.p_grid)))
