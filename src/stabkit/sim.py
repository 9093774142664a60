"""Monte Carlo block-error-rate estimation on the depolarizing channel.

Errors are sampled i.i.d. per qubit (X, Y, Z each with probability
p/3), the syndrome is decoded CSS-split by two independent sum-product
runs with marginal flip prior 2p/3 (an X flip arises from Pauli X or Y,
a Z flip from Z or Y), and the residual is scored either strictly
(must vanish) or degenerately (must lie in the span of the isotropic
and gauge generators, ``QuantumCode.is_harmless``).  Each block error
is also classed as not converged (either half's decoder stopped at
``max_iter``) or converged to a wrong coset.  Each point also counts
the trials that degenerate scoring excused, and the decoder iterations
(total and most) of every decoded row.

Trials run in chunks of ``CHUNK`` = 4 kernel widths: the chunk's flips
are stacked into uint8 [B, n] arrays and each CSS half gets its
syndromes from one matrix product.  The chunks of a whole span of the
grid are sampled lazily and fed as blocks to one ``decode_stream``
kernel (both halves' syndromes stacked in one block when they share a
check matrix, one stream per half otherwise), each block with its own
point's prior, so the rows of the next chunk, and of the next point,
fill the slots that finishing rows free.  Residuals are packed into
ints only for degenerate scoring.  Every trial still draws from its
own generator seeded by the tuple (seed, p_index, trial), and rows
decode independently, so results are bit-identical for any chunk
split, worker count or execution order.

With ``workers`` > 1, w = min(workers, cpu count, trials) processes
each take one contiguous span of every point's trials, and all of a
worker's spans are one task: the calling process runs the first, and a
pool of w - 1 processes forked once per ``sweep`` or ``run_point`` call
the others.  The children inherit the code and its decoder graphs
through fork, so only the span bounds and the counts cross process
boundaries.  Where the platform cannot fork, every run is serial.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .codes import QuantumCode
from .pauli import PauliVec, symplectic_product
# ``decode`` is re-exported: code that wraps or inspects ``sim.decode``
# (the benchmark tracer) keeps working although trials use decode_stream
from .spa import WIDTH, SpaGraph, decode, decode_stream  # noqa: F401

__all__ = [
    "SimConfig",
    "SimPoint",
    "SimResult",
    "sample_depolarizing",
    "syndrome",
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
    #: (a zero syndrome counts 1)
    iterations_total: int = 0
    #: most iterations any decoded row took
    iterations_max: int = 0


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


def wilson_interval(hits: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% default)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must be in [0, trials], got hits={hits}, trials={trials}")
    phat = hits / trials
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


def _pack(bits: np.ndarray) -> int:
    """Python int whose bit i is ``bits[i]`` (a 1-D 0/1 uint8 array)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def sample_depolarizing(n: int, p: float, rng: np.random.Generator) -> PauliVec:
    """i.i.d. depolarizing noise: identity w.p. 1-p, X/Y/Z each w.p. p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    x_flip, z_flip = _flips(rng.random(n), p)
    return PauliVec(n, _pack(z_flip), _pack(x_flip))


def syndrome(code: QuantumCode, error: PauliVec) -> np.ndarray:
    """Symplectic product of the error against every measured generator.

    Receiver-side halves of the entanglement pairs never see the
    channel, so the syndrome is exactly these sender-side products; for
    a CSS code this is (H e_x, H e_z) up to row bookkeeping.
    """
    if error.n != code.n:
        raise ValueError("error length differs from code length")
    gens = code.measured_gens()
    return np.array([symplectic_product(g, error) for g in gens], dtype=np.uint8)


@dataclass(frozen=True)
class _Tally:
    """What a span of trials adds to its point."""
    errors: int = 0
    not_converged: int = 0
    degenerate_saves: int = 0
    iterations_total: int = 0
    iterations_max: int = 0

    def __add__(self, other: _Tally) -> _Tally:
        return _Tally(self.errors + other.errors,
                      self.not_converged + other.not_converged,
                      self.degenerate_saves + other.degenerate_saves,
                      self.iterations_total + other.iterations_total,
                      max(self.iterations_max, other.iterations_max))


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
        # when they share a check matrix, as every build_eaqecc_binary
        # code does
        self.graph_x = self.graph_z if code.css.hx is code.css.hz else SpaGraph(code.css.hx)
        self.hz_arr = self.graph_z.arr
        self.hx_arr = self.graph_x.arr
        if config.success_mode == "degenerate":
            code.is_harmless(0)   # eliminate the harmless group before any fork

    def count_errors(self, p: float, p_idx: int, start: int, stop: int) -> tuple[int, int]:
        """``(block errors, of which not converged)`` among trials
        ``start .. stop-1``."""
        tally = self.tally([(p_idx, p, start, stop)])[0]
        return tally.errors, tally.not_converged

    def tally(self, spans) -> list[_Tally]:
        """One ``_Tally`` per ``(p_idx, p, start, stop)`` span, every
        span's chunks decoded through one kernel stream."""
        tallies = [_Tally()] * len(spans)
        for chunk, halves in self._decoded(self._chunks(spans)):
            tallies[chunk.span] += self._score(chunk, *halves)
        return tallies

    def _chunks(self, spans):
        """Sample the spans' trials ``CHUNK`` at a time, lazily."""
        cfg = self.config
        for i, (p_idx, p, start, stop) in enumerate(spans):
            if p == 0.0:
                continue
            for a in range(start, stop, CHUNK):
                u = np.empty((min(a + CHUNK, stop) - a, self.n))
                for row, t in zip(u, range(a, stop)):
                    np.random.default_rng((cfg.seed, p_idx, t)).random(out=row)
                ex, ez = _flips(u, p)
                yield _Chunk(i, 2.0 * p / 3.0, ex, ez,
                             (ex @ self.hz_arr.T) & 1, (ez @ self.hx_arr.T) & 1)

    def _decoded(self, chunks):
        """Each chunk with the ``decode_stream`` results of its X half
        (from ``sz``) and Z half (from ``sx``): one stream of stacked
        syndromes when the halves share a graph, one stream per half
        otherwise."""
        max_iter = self.config.max_iter
        if self.graph_x is self.graph_z:
            chunks, feed = itertools.tee(chunks)
            stacked = ((np.concatenate([c.sz, c.sx]), c.flip) for c in feed)
            stream = decode_stream(self.graph_z, stacked, max_iter)
            for c, (est, conv, its) in zip(chunks, stream):
                b = len(c.sz)
                yield c, ((est[:b], conv[:b], its[:b]), (est[b:], conv[b:], its[b:]))
        else:
            chunks, feed_z, feed_x = itertools.tee(chunks, 3)
            xs = decode_stream(self.graph_z, ((c.sz, c.flip) for c in feed_z), max_iter)
            zs = decode_stream(self.graph_x, ((c.sx, c.flip) for c in feed_x), max_iter)
            yield from ((c, halves) for c, *halves in zip(chunks, xs, zs))

    def _score(self, c: _Chunk, x_half, z_half) -> _Tally:
        (dx, cx, ix), (dz, cz, iz) = x_half, z_half
        rx = c.ex ^ dx
        rz = c.ez ^ dz
        failed = rx.any(axis=1) | rz.any(axis=1)
        saves = 0
        if self.config.success_mode == "degenerate":
            packed = np.packbits(np.concatenate([rz, rx], axis=1)[failed], axis=1,
                                 bitorder="little")
            harmless = self.config.code.is_harmless
            failed[failed] = [not harmless(int.from_bytes(row.tobytes(), "little"))
                              for row in packed]
            saves = len(packed) - int(failed.sum())
        return _Tally(int(failed.sum()), int((failed & ~(cx & cz)).sum()), saves,
                      int(ix.sum() + iz.sum()), int(max(ix.max(), iz.max())))


#: the runner of the sweep a forked worker process serves
_worker_runner: _TrialRunner | None = None


def _adopt(runner: _TrialRunner):
    global _worker_runner
    _worker_runner = runner


def _worker_tally(spans) -> list[_Tally]:
    return _worker_runner.tally(spans)


def _simulate(config: SimConfig, grid) -> tuple[SimPoint, ...]:
    """One ``SimPoint`` per ``(p_idx, p)`` of ``grid``.  With w =
    min(workers, cpu count, trials) > 1 the trials of each point are cut
    into w contiguous spans, and worker i takes span i of every point
    as one task: the calling process the first, and a pool of w - 1
    forked processes, made once for the whole grid, the others.  Where
    the platform cannot fork, w is 1."""
    runner = _TrialRunner(config)
    grid = list(grid)
    trials = config.trials
    w = min(config.workers, os.cpu_count() or 1, trials)
    if w > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            w = 1
    cuts = [trials * i // w for i in range(w + 1)]
    spans = [[(p_idx, p, a, b) for p_idx, p in grid] for a, b in zip(cuts, cuts[1:])]
    with ExitStack() as stack:
        rest = []
        if w > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                w - 1, mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt, initargs=(runner,)))
            rest = [pool.submit(_worker_tally, s) for s in spans[1:]]
        tallies = runner.tally(spans[0])
        for f in rest:
            tallies = [a + b for a, b in zip(tallies, f.result())]
    points = []
    for (_, p), t in zip(grid, tallies):
        lo, hi = wilson_interval(t.errors, trials)
        points.append(SimPoint(p, trials, t.errors, t.errors / trials, lo, hi,
                               t.not_converged, t.errors - t.not_converged,
                               t.degenerate_saves, t.iterations_total, t.iterations_max))
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
