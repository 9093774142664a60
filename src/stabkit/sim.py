"""Monte Carlo block-error-rate estimation on the depolarizing channel.

Errors are sampled i.i.d. per qubit (X, Y, Z each with probability
p/3), the syndrome is decoded CSS-split by two independent sum-product
runs with marginal flip prior 2p/3 (an X flip arises from Pauli X or Y,
a Z flip from Z or Y), and the residual is scored either strictly
(must vanish) or degenerately (must lie in the span of the isotropic
and gauge generators, ``QuantumCode.is_harmless``).  Each block error is also classed as not
converged (either half's decoder stopped at ``max_iter``) or converged
to a wrong coset.

Trials run in chunks of ``CHUNK`` = 4 kernel widths: the chunk's flips
are stacked into uint8 [B, n] arrays, each CSS half gets its syndromes
from one matrix product, and all syndromes of the chunk go to one
``decode_batch`` call (2B rows when both halves share one check matrix,
one call per half otherwise).  Residuals are packed into ints only for
degenerate scoring.  Every trial still draws from its own generator
seeded by the tuple (seed, p_index, trial), and batch rows decode
independently, so results are bit-identical for any chunk split,
worker count or execution order.

With ``workers`` > 1, w = min(workers, cpu count, trials) processes
each take one contiguous span of every point's trials: the calling
process the first, and a pool of w - 1 processes forked once per
``sweep`` or ``run_point`` call the others.  The children inherit the
code and its decoder graphs through fork, so only the span bounds and
the counts cross process boundaries.  Where the platform cannot fork,
every run is serial.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .codes import QuantumCode
from .pauli import PauliVec, symplectic_product
# ``decode`` is re-exported: code that wraps or inspects ``sim.decode``
# (the benchmark tracer) keeps working although trials use decode_batch
from .spa import WIDTH, SpaGraph, decode, decode_batch  # noqa: F401

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

#: trials sampled and decoded together: a few kernel widths, so that
#: peak memory stays flat in the trial count
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
        ``start .. stop-1``, decoded in chunks of ``CHUNK``."""
        errors = not_converged = 0
        if p == 0.0:
            return errors, not_converged
        for a in range(start, stop, CHUNK):
            e, nc = self._chunk_errors(p, p_idx, a, min(a + CHUNK, stop))
            errors += e
            not_converged += nc
        return errors, not_converged

    def _decode(self, sz: np.ndarray, sx: np.ndarray, f: float):
        """Estimates and convergence flags of both CSS halves: one
        ``decode_batch`` call on the stacked syndromes when the halves
        share a graph, one call per half otherwise."""
        max_iter = self.config.max_iter
        if self.graph_x is self.graph_z:
            est, conv, _ = decode_batch(self.graph_z, np.concatenate([sz, sx]), f, max_iter)
            b = len(sz)
            return est[:b], conv[:b], est[b:], conv[b:]
        dx, cx, _ = decode_batch(self.graph_z, sz, f, max_iter)
        dz, cz, _ = decode_batch(self.graph_x, sx, f, max_iter)
        return dx, cx, dz, cz

    def _chunk_errors(self, p: float, p_idx: int, start: int, stop: int) -> tuple[int, int]:
        cfg = self.config
        u = np.empty((stop - start, self.n))
        for row, t in zip(u, range(start, stop)):
            np.random.default_rng((cfg.seed, p_idx, t)).random(out=row)
        ex, ez = _flips(u, p)
        sz = (ex @ self.hz_arr.T) & 1
        sx = (ez @ self.hx_arr.T) & 1
        dx, cx, dz, cz = self._decode(sz, sx, 2.0 * p / 3.0)
        rx = ex ^ dx
        rz = ez ^ dz
        failed = rx.any(axis=1) | rz.any(axis=1)
        if cfg.success_mode == "degenerate":
            packed = np.packbits(np.concatenate([rz, rx], axis=1)[failed], axis=1,
                                 bitorder="little")
            harmless = cfg.code.is_harmless
            failed[failed] = [not harmless(int.from_bytes(row.tobytes(), "little"))
                              for row in packed]
        return int(failed.sum()), int((failed & ~(cx & cz)).sum())


#: the runner of the sweep a forked worker process serves
_worker_runner: _TrialRunner | None = None


def _adopt(runner: _TrialRunner):
    global _worker_runner
    _worker_runner = runner


def _worker_span(p: float, p_idx: int, start: int, stop: int) -> tuple[int, int]:
    return _worker_runner.count_errors(p, p_idx, start, stop)


def _simulate(config: SimConfig, grid) -> tuple[SimPoint, ...]:
    """One ``SimPoint`` per ``(p_idx, p)`` of ``grid``.  With w =
    min(workers, cpu count, trials) > 1 the trials of each point are cut
    into w contiguous spans: the calling process runs the first, and a
    pool of w - 1 forked processes, made once for the whole grid, the
    others.  Where the platform cannot fork, w is 1."""
    runner = _TrialRunner(config)
    trials = config.trials
    w = min(config.workers, os.cpu_count() or 1, trials)
    if w > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            w = 1
    cuts = [trials * i // w for i in range(w + 1)]
    with ExitStack() as stack:
        pool = None
        if w > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                w - 1, mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt, initargs=(runner,)))
        points = []
        for p_idx, p in grid:
            rest = [pool.submit(_worker_span, p, p_idx, a, b)
                    for a, b in zip(cuts[1:-1], cuts[2:])]
            counts = [runner.count_errors(p, p_idx, 0, cuts[1])] + [f.result() for f in rest]
            errors, not_converged = map(sum, zip(*counts))
            lo, hi = wilson_interval(errors, trials)
            points.append(SimPoint(p, trials, errors, errors / trials, lo, hi,
                                   not_converged, errors - not_converged))
    return tuple(points)


def run_point(config: SimConfig, p: float, p_idx: int = 0) -> SimPoint:
    """Monte Carlo at a single depolarizing probability."""
    _check_p(p)
    return _simulate(config, [(p_idx, p)])[0]


def sweep(config: SimConfig) -> SimResult:
    """run_point over the whole probability grid, in grid order."""
    return SimResult(_simulate(config, enumerate(config.p_grid)))
