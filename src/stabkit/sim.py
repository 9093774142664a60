"""Monte Carlo block-error-rate estimation on the depolarizing channel.

Errors are sampled i.i.d. per qubit (X, Y, Z each with probability
p/3), the syndrome is decoded CSS-split by two independent sum-product
runs with marginal flip prior 2p/3 (an X flip arises from Pauli X or Y,
a Z flip from Z or Y), and the residual is scored either strictly
(must vanish) or degenerately (must lie in the span of the isotropic
and gauge generators).

Trials run in blocks of ``BLOCK`` = 32: the block's flips are stacked
into uint8 [B, n] arrays, each CSS half gets its syndromes from one
matrix product and its estimates from one ``decode_batch`` call, and
residuals are packed into ints only for degenerate scoring.  Every
trial still draws from its own generator seeded by the tuple
(seed, p_index, trial), and batch rows decode independently, so results
are bit-identical for any block split, worker count or execution order.
With ``workers`` > 1 each of min(workers, cpu count, trials) threads,
the calling one included, takes one contiguous span of the trials.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .codes import QuantumCode
from .f2 import _echelon
from .pauli import PauliVec, symplectic_product
# ``decode`` is re-exported: code that wraps or inspects ``sim.decode``
# (the benchmark tracer) keeps working although trials use decode_batch
from .spa import SpaGraph, decode, decode_batch  # noqa: F401

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

#: trials decoded together; a fixed block keeps peak memory flat in the
#: trial count
BLOCK = 32


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
        for p in self.p_grid:
            if not 0.0 <= p < 1.0:
                raise ValueError(f"depolarizing probability {p} outside [0, 1)")
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
        self.graph_x = SpaGraph(code.css.hx)   # X-type checks detect Z errors
        self.hz_arr = self.graph_z.arr
        self.hx_arr = self.graph_x.arr
        passive = code.passive_gens()
        if passive:
            rows, _ = _echelon([g.packed() for g in passive], 2 * code.n)
            self.passive_echelon = rows
        else:
            self.passive_echelon = []

    def _residual_harmless(self, v: int) -> bool:
        """Whether the packed (z|x) residual lies in the passive span."""
        for row in self.passive_echelon:
            low = (row & -row).bit_length() - 1
            if (v >> low) & 1:
                v ^= row
        return v == 0

    def count_errors(self, p: float, p_idx: int, start: int, stop: int) -> int:
        """Block errors among trials ``start .. stop-1``, decoded in
        blocks of ``BLOCK``."""
        if p == 0.0:
            return 0
        return sum(self._block_errors(p, p_idx, a, min(a + BLOCK, stop))
                   for a in range(start, stop, BLOCK))

    def _block_errors(self, p: float, p_idx: int, start: int, stop: int) -> int:
        cfg = self.config
        u = np.stack([np.random.default_rng((cfg.seed, p_idx, t)).random(self.n)
                      for t in range(start, stop)])
        ex, ez = _flips(u, p)
        f = 2.0 * p / 3.0
        sz = (ex @ self.hz_arr.T) & 1
        sx = (ez @ self.hx_arr.T) & 1
        rx = ex ^ decode_batch(self.graph_z, sz, f, cfg.max_iter)[0]
        rz = ez ^ decode_batch(self.graph_x, sx, f, cfg.max_iter)[0]
        failed = rx.any(axis=1) | rz.any(axis=1)
        if cfg.success_mode == "strict":
            return int(failed.sum())
        packed = np.packbits(np.concatenate([rz, rx], axis=1)[failed], axis=1,
                             bitorder="little")
        return sum(not self._residual_harmless(int.from_bytes(row.tobytes(), "little"))
                   for row in packed)


def run_point(config: SimConfig, p: float, p_idx: int = 0) -> SimPoint:
    """Monte Carlo at a single depolarizing probability."""
    runner = _TrialRunner(config)
    errors = _count_errors(runner, p, p_idx)
    lo, hi = wilson_interval(errors, config.trials)
    return SimPoint(p, config.trials, errors, errors / config.trials, lo, hi)


def _count_errors(runner: _TrialRunner, p: float, p_idx: int) -> int:
    """Block errors over all trials.  With w = min(workers, cpu count,
    trials) > 1 the trials are cut into w contiguous spans: the calling
    thread runs the first and a pool of w - 1 threads the others."""
    trials = runner.config.trials
    w = min(runner.config.workers, os.cpu_count() or 1, trials)
    if w == 1:
        return runner.count_errors(p, p_idx, 0, trials)
    cuts = [trials * i // w for i in range(w + 1)]
    with ThreadPoolExecutor(max_workers=w - 1) as pool:
        rest = [pool.submit(runner.count_errors, p, p_idx, a, b)
                for a, b in zip(cuts[1:-1], cuts[2:])]
        return runner.count_errors(p, p_idx, 0, cuts[1]) + sum(f.result() for f in rest)


def sweep(config: SimConfig) -> SimResult:
    """run_point over the whole probability grid, in grid order."""
    runner = _TrialRunner(config)
    points = []
    for p_idx, p in enumerate(config.p_grid):
        errors = _count_errors(runner, p, p_idx)
        lo, hi = wilson_interval(errors, config.trials)
        points.append(SimPoint(p, config.trials, errors, errors / config.trials, lo, hi))
    return SimResult(tuple(points))
