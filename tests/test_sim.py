import dataclasses
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabkit import codes, f2, pauli, qc_ldpc, sim
from stabkit.codes import builtin
from stabkit.pauli import PauliVec, symplectic_product, weight
from stabkit.sim import (
    SimConfig,
    sample_depolarizing,
    run_point,
    sweep,
    syndrome,
    wilson_interval,
)


def test_sample_identity_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = sample_depolarizing(12, 0.0, rng)
        assert e.is_identity()


def test_sample_full_depolarizing_balance():
    rng = np.random.default_rng(1)
    e = sample_depolarizing(10 ** 4, 1.0, rng)
    n_y = bin(e.z & e.x).count("1")
    n_z = bin(e.z & ~e.x).count("1")
    n_x = bin(e.x & ~e.z).count("1")
    assert n_x + n_y + n_z == 10 ** 4
    sigma = (10 ** 4 * (1 / 3) * (2 / 3)) ** 0.5
    for count in (n_x, n_y, n_z):
        assert abs(count - 10 ** 4 / 3) < 3 * sigma


def test_sample_mean_weight():
    rng = np.random.default_rng(2)
    n, p = 10 ** 5, 0.1
    e = sample_depolarizing(n, p, rng)
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(weight(e) - p * n) < 3 * sigma


def test_syndrome_identity_error():
    code = builtin("steane7")
    s = syndrome(code, PauliVec(7, 0, 0))
    assert not s.any()


def test_syndrome_shor_single_x():
    code = builtin("shor9")
    # X on qubit 2 anticommutes with exactly the ZZ checks on qubits
    # 1-2 and 2-3
    x2 = PauliVec(9, 0, 0b10)
    s = syndrome(code, x2)
    assert list(np.flatnonzero(s)) == [0, 1]
    # X on qubit 1 touches only the first check
    x1 = PauliVec(9, 0, 0b1)
    assert list(np.flatnonzero(syndrome(code, x1))) == [0]


def test_syndrome_matches_generator_products():
    h = qc_ldpc.expand(qc_ldpc.make_ex1())
    code = codes.build_eaqecc_binary(h)
    rng = np.random.default_rng(3)
    for _ in range(10):
        err = sample_depolarizing(code.n, 0.05, rng)
        expect = [symplectic_product(g, err) for g in code.measured_gens()]
        assert list(syndrome(code, err)) == expect


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


@pytest.mark.parametrize("hits", [5, -1])
def test_wilson_interval_rejects_hits_outside_trials(hits):
    with pytest.raises(ValueError, match=f"hits={hits}, trials=3"):
        wilson_interval(hits, 3)


def test_run_point_zero_probability():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.0,), trials=200, seed=0)
    pt = run_point(cfg, 0.0, 0)
    assert pt.block_errors == 0
    assert pt.wer == 0.0


def test_steane_low_p_low_wer():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(1e-3,), trials=10 ** 4, seed=0)
    pt = run_point(cfg, 1e-3, 0)
    assert pt.wer < 1e-2


def test_config_rejects_empty_grid():
    """An empty grid would give a header-only CSV: rejected instead."""
    with pytest.raises(ValueError, match="p_grid must not be empty"):
        SimConfig(code=builtin("steane7"), p_grid=(), trials=10, seed=0)


def test_sweep_deterministic_for_seed():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.01, 0.03), trials=300, seed=11)
    a = sweep(cfg).to_csv()
    b = sweep(cfg).to_csv()
    assert a == b


def test_sweep_workers_bit_identical():
    base = dict(code=builtin("steane7"), p_grid=(0.01, 0.02), trials=300, seed=5)
    serial = sweep(SimConfig(workers=1, **base)).to_csv()
    threaded = sweep(SimConfig(workers=4, **base)).to_csv()
    assert serial == threaded


def test_wer_nondecreasing_up_to_ci():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.01, 0.05, 0.15), trials=800, seed=2)
    res = sweep(cfg)
    for a, b in zip(res.points, res.points[1:]):
        assert a.ci_lo <= b.ci_hi  # intervals ordered or overlapping


def test_strict_implies_degenerate_per_trial():
    code = codes.build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex1()))
    base = dict(code=code, p_grid=(0.03,), trials=150, seed=9)
    strict = run_point(SimConfig(success_mode="strict", **base), 0.03, 0)
    degen = run_point(SimConfig(success_mode="degenerate", **base), 0.03, 0)
    assert degen.block_errors <= strict.block_errors


def test_config_validation():
    st = builtin("steane7")
    with pytest.raises(ValueError):
        SimConfig(code=st, p_grid=(0.5,), trials=0)
    with pytest.raises(ValueError):
        SimConfig(code=st, p_grid=(1.5,), trials=1)
    with pytest.raises(ValueError):
        SimConfig(code=st, p_grid=(0.1,), trials=1, success_mode="odd")
    with pytest.raises(ValueError):
        SimConfig(code=builtin("fivequbit"), p_grid=(0.1,), trials=1)


def test_config_rejects_nonpositive_max_iter():
    st = builtin("steane7")
    for max_iter in (0, -2):
        with pytest.raises(ValueError, match="max_iter"):
            SimConfig(code=st, p_grid=(0.0,), trials=1, max_iter=max_iter)


def test_run_point_rejects_p_outside_unit_interval(monkeypatch):
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.1,), trials=5)
    # rejected before any trial runs
    monkeypatch.setattr(sim, "_TrialRunner", None)
    for p in (1.5, -0.2, 1.0):
        with pytest.raises(ValueError, match=r"depolarizing probability .* outside \[0, 1\)"):
            run_point(cfg, p)


@pytest.mark.parametrize("p", [0.01, 0.0])
def test_run_point_rejects_negative_p_idx(monkeypatch, p):
    """Rejected before any trial is sampled, also at p = 0 where no
    trial would be."""
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.1,), trials=5)
    monkeypatch.setattr(sim, "_TrialRunner", None)
    with pytest.raises(ValueError, match="p_idx must be non-negative, got -1"):
        run_point(cfg, p, p_idx=-1)


@pytest.mark.parametrize("p_grid", [(0.01,), (0.0,)])
def test_config_rejects_negative_seed(p_grid):
    """Rejected up front, also where a p = 0 grid would sample nothing."""
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SimConfig(code=builtin("steane7"), p_grid=p_grid, trials=10, seed=-1)


def test_config_rejects_nonpositive_workers():
    st = builtin("steane7")
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(code=st, p_grid=(0.1,), trials=1, workers=workers)


def _record_forks(monkeypatch):
    """Workers forked per ``sim`` run from now on: one entry per sweep
    or ``run_point`` that forks any, like the pool sizes recorded
    before the pool was replaced by bare forks."""
    forks = []
    real_fork, real_simulate = sim._fork, sim._simulate

    def fork(fn, *args):
        forks[-1] += 1
        return real_fork(fn, *args)

    def simulate(*args):
        forks.append(0)
        try:
            return real_simulate(*args)
        finally:
            if not forks[-1]:
                forks.pop()

    monkeypatch.setattr(sim, "_fork", fork)
    monkeypatch.setattr(sim, "_simulate", simulate)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_processes_capped(monkeypatch):
    """The calling process takes one span; forked workers take the
    others, and no more workers run than there are cores or trials."""
    forks = _record_forks(monkeypatch)
    base = dict(code=builtin("steane7"), p_grid=(0.02,), seed=4)
    serial = sweep(SimConfig(workers=1, trials=90, **base)).to_csv()
    assert forks == []
    assert sweep(SimConfig(workers=64, trials=90, **base)).to_csv() == serial
    assert forks == ([os.cpu_count() - 1] if os.cpu_count() > 1 else [])
    forks.clear()
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    assert sweep(SimConfig(workers=64, trials=90, **base)).to_csv() == serial
    sweep(SimConfig(workers=64, trials=2, **base))
    sweep(SimConfig(workers=64, trials=1, **base))
    assert forks == [2, 1]
    _assert_no_child_left()


def test_workers_run_serially_without_fork(monkeypatch):
    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(sim.os, "fork")
    base = dict(code=builtin("steane7"), p_grid=(0.01, 0.02), trials=120, seed=8)
    assert sweep(SimConfig(workers=4, **base)).to_csv() == sweep(SimConfig(**base)).to_csv()
    assert forks == []


def test_one_fork_per_worker_serves_the_whole_grid(monkeypatch):
    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    base = dict(code=builtin("steane7"), p_grid=(0.0, 0.01, 0.02, 0.03), trials=80, seed=2)
    assert sweep(SimConfig(workers=2, **base)).to_csv() == sweep(SimConfig(**base)).to_csv()
    assert forks == [1]
    _assert_no_child_left()


def _split_tally(monkeypatch, child, parent=None):
    """Make ``_TrialRunner.tally`` call ``child()`` in forked workers and
    ``parent()`` (if given) in the calling process before tallying, on
    a host of 3 cores."""
    real, home = sim._TrialRunner.tally, os.getpid()

    def tally(self, spans):
        hook = child if os.getpid() != home else parent
        if hook is not None:
            hook()
        return real(self, spans)

    monkeypatch.setattr(sim._TrialRunner, "tally", tally)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)


_W3 = dict(code=builtin("steane7"), p_grid=(0.01, 0.02), trials=60, seed=1, workers=3)


def test_worker_exception_reaches_parent(monkeypatch):
    def fail():
        raise LookupError(f"span of process {os.getpid()}")

    _split_tally(monkeypatch, fail)
    with pytest.raises(LookupError, match="span of process") as info:
        sweep(SimConfig(**_W3))
    assert type(info.value) is LookupError
    assert int(str(info.value).split()[-1]) != os.getpid()
    _assert_no_child_left()


def test_dead_worker_raises_runtime_error(monkeypatch):
    _split_tally(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3 before sending a result"):
        sweep(SimConfig(**_W3))
    _assert_no_child_left()


def test_parent_failure_kills_workers(monkeypatch, tmp_path):
    """A failing calling-process span kills and reaps its workers: they
    would sleep 30 s and then leave a file."""
    pids = []
    real_fork = sim._fork

    def fork(fn, *args):
        child = real_fork(fn, *args)
        pids.append(child.pid)
        return child

    def sleep_then_mark():
        time.sleep(30)
        (tmp_path / str(os.getpid())).touch()

    def fail():
        raise ValueError("calling span failed")

    _split_tally(monkeypatch, sleep_then_mark, fail)
    monkeypatch.setattr(sim, "_fork", fork)
    with pytest.raises(ValueError, match="calling span failed"):
        sweep(SimConfig(**_W3))
    assert len(pids) == 2
    _assert_no_child_left()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["strict", "degenerate"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweeps_leave_no_child(monkeypatch, mode, workers):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.0, 0.05), trials=40, seed=3,
                    success_mode=mode, workers=workers)
    sweep(cfg)
    _assert_no_child_left()
    run_point(cfg, 0.05, 1)
    _assert_no_child_left()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 96 - 1), st.integers(0, 2 ** 40 - 1), st.integers(0, 2 ** 33),
       st.integers(1, 6), st.integers(1, 300))
@example(0, 0, 0, 3, 1)
@example(7, 1, 2 ** 32 - 3, 6, 128)
@example(2 ** 32 - 1, 2 ** 32, 2 ** 33 - 2, 4, 5)
@example(2 ** 96 - 1, 2 ** 40 - 1, 2 ** 33, 1, 300)
def test_batched_seeding_matches_default_rng(seed, p_idx, start, count, n):
    """Each row equals a generator seeded by the tuple, also where
    seed, p_idx or the trial index take several 32-bit words."""
    gen = np.random.Generator(np.random.PCG64())
    u = sim._uniforms(gen, seed, p_idx, start, start + count, n)
    assert u.shape == (count, n)
    for t, row in zip(range(start, start + count), u):
        assert np.array_equal(row, np.random.default_rng((seed, p_idx, t)).random(n))


@pytest.mark.parametrize("mode", ["strict", "degenerate"])
def test_count_errors_across_the_word_boundary(pinned_codes, mode):
    """Trials 2^32 - 3 .. 2^32 + 2: trial indices from 2^32 on seed
    with two 32-bit words."""
    code = pinned_codes["mackay"]
    runner = sim._TrialRunner(SimConfig(code=code, p_grid=(0.05,), trials=1, seed=3,
                                        success_mode=mode))
    got = runner.count_errors(0.05, 1, 2 ** 32 - 3, 2 ** 32 + 3)
    assert got == _trial_failures(code, 0.05, 1, 6, 3, mode, start=2 ** 32 - 3)
    assert got[0] > 0


def test_trial_spans_add_up():
    """Blocks and worker spans may cut the trials anywhere: every trial
    is seeded alone and decoded independently of its block."""
    code = codes.build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex2()))
    runner = sim._TrialRunner(SimConfig(code=code, p_grid=(0.04,), trials=100, seed=6))
    whole = runner.count_errors(0.04, 0, 0, 100)
    assert whole[0] > 0
    for cuts in ((0, 33, 100), (0, 1, 2, 64, 65, 100), (0, 50, 100)):
        parts = [runner.count_errors(0.04, 0, a, b) for a, b in zip(cuts, cuts[1:])]
        assert tuple(map(sum, zip(*parts))) == whole


def test_chunk_memory_flat_in_trial_count():
    code = codes.build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex2()))
    runner = sim._TrialRunner(SimConfig(code=code, p_grid=(0.04,), trials=1, seed=1))
    runner.count_errors(0.04, 0, 0, 64)
    peaks = []
    for trials in (1024, 4096):
        tracemalloc.start()
        try:
            runner.count_errors(0.04, 0, 0, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_syndrome_length_mismatch():
    with pytest.raises(ValueError):
        syndrome(builtin("steane7"), PauliVec(6, 0, 0))


# CSVs of ``sweep`` recorded before the trial loop decoded in blocks;
# batching must not change a byte of them.
_HEAD = "p,trials,block_errors,wer,ci_lo,ci_hi\n"
PINNED_SWEEPS = {
    "ex1": _HEAD + "0.01,100,1,0.01,0.001767432064,0.05448619618\n"
                   "0.03,100,5,0.05,0.02154367915,0.1117504692\n",
    "mackay": _HEAD + "0.01,100,16,0.16,0.1009528849,0.2442026939\n"
                      "0.03,100,38,0.38,0.2909759925,0.477902447\n",
}


@pytest.fixture(scope="module")
def pinned_codes():
    return {
        "ex1": codes.build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex1()), name="ex1"),
        "mackay": codes.build_eaqecc_binary(qc_ldpc.make_ex_mackay(seed=0), name="mackay"),
    }


@pytest.mark.parametrize("mode", ["strict", "degenerate"])
@pytest.mark.parametrize("name", ["ex1", "mackay"])
def test_sweep_csv_pinned(pinned_codes, name, mode):
    cfg = SimConfig(code=pinned_codes[name], p_grid=(0.01, 0.03), trials=100, seed=3,
                    success_mode=mode)
    assert sweep(cfg).to_csv() == PINNED_SWEEPS[name]


def test_sample_depolarizing_pinned_bits():
    rng = np.random.default_rng(2024)
    expect = [(40, 0.3, 0x29b5012a2, 0x80200052e0),
              (70, 0.9, 0x232a50af770e7b9cf8, 0x36f6bf7eebff7ffb5b),
              (5, 0.0, 0, 0)]
    for n, p, z, x in expect:
        e = sample_depolarizing(n, p, rng)
        assert (e.n, e.z, e.x) == (n, z, x)


def _trial_failures(code, p, p_idx, trials, seed, mode, start=0):
    """(block errors, of which not converged) of trials ``start`` ..
    ``start + trials - 1``, one trial at a time through ``decode``: the
    reference for the batched trial loop."""
    css, n, f = code.css, code.n, 2.0 * p / 3.0
    gz, gx = sim.SpaGraph(css.hz), sim.SpaGraph(css.hx)
    passive = code.passive_gens()
    harmless = pauli.paulis_to_matrix(passive) if passive else None
    errors = not_converged = 0
    for t in range(start, start + trials):
        u = np.random.default_rng((seed, p_idx, t)).random(n)
        ex, ez = sim._flips(u, p)
        resx = sim.decode(gz, (gz.arr @ ex) % 2, f)
        resz = sim.decode(gx, (gx.arr @ ez) % 2, f)
        rx, rz = ex ^ resx.estimate, ez ^ resz.estimate
        if not (rx.any() or rz.any()):
            continue
        if mode == "degenerate" and harmless is not None and f2.in_rowspace(
                harmless, PauliVec(n, sim._pack(rz), sim._pack(rx)).packed()):
            continue
        errors += 1
        not_converged += not (resx.converged and resz.converged)
    return errors, not_converged


@pytest.mark.parametrize("mode", ["strict", "degenerate"])
@pytest.mark.parametrize("name", ["ex1", "mackay"])
def test_failure_taxonomy(pinned_codes, name, mode):
    """Block errors split into not converged and converged to a wrong
    coset, per trial as the one-syndrome decoder sees them, and the
    same split from forked workers."""
    code = pinned_codes[name]
    cfg = SimConfig(code=code, p_grid=(0.01, 0.03), trials=100, seed=3, success_mode=mode)
    points = sweep(cfg).points
    for p_idx, pt in enumerate(points):
        assert pt.not_converged + pt.converged_wrong == pt.block_errors
        assert (pt.block_errors, pt.not_converged) == _trial_failures(
            code, pt.p, p_idx, 100, 3, mode)
    if name == "mackay":
        assert points[1].not_converged > 0 and points[1].converged_wrong > 0
    assert sweep(dataclasses.replace(cfg, workers=2)).points == points


@pytest.mark.parametrize("name", ["ex2", "shor9"])
def test_grid_stream_matches_per_point_runs(monkeypatch, name):
    """One task per worker streams its span of every point through one
    kernel: a grid of CHUNK + 7 trials per point gives the same points
    for one and two workers, and each equals its own ``run_point``."""
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    cfg = SimConfig(code=codes.NAMED[name].build(), p_grid=(0.02, 0.0, 0.04),
                    trials=sim.CHUNK + 7, seed=13)
    points = sweep(cfg).points
    assert sweep(dataclasses.replace(cfg, workers=2)).points == points
    for p_idx, pt in enumerate(points):
        assert run_point(cfg, pt.p, p_idx) == pt
    assert points[1].iterations_total == points[1].iterations_max == 0
    assert points[2].iterations_max > 1 and points[2].block_errors > 0


def _trial_effort(code, p, p_idx, trials, seed):
    """(total, max) decoder iterations over both CSS halves of every
    trial, one syndrome at a time through ``decode``."""
    css, n, f = code.css, code.n, 2.0 * p / 3.0
    gz, gx = sim.SpaGraph(css.hz), sim.SpaGraph(css.hx)
    its = []
    for t in range(trials):
        u = np.random.default_rng((seed, p_idx, t)).random(n)
        ex, ez = sim._flips(u, p)
        its.append(sim.decode(gz, (gz.arr @ ex) % 2, f).iterations)
        its.append(sim.decode(gx, (gx.arr @ ez) % 2, f).iterations)
    return sum(its), max(its)


@pytest.mark.parametrize("name, p_grid", [("shor9", (0.05, 0.12)), ("ea8", (0.05, 0.12)),
                                          ("ex1", (0.02, 0.04))])
def test_point_observability(name, p_grid):
    """Degenerate saves are the strict errors that degenerate scoring
    excuses, and the iteration counts are those of every decoded row."""
    code = codes.NAMED[name].build()
    base = dict(code=code, p_grid=p_grid, trials=120, seed=4)
    strict = sweep(SimConfig(success_mode="strict", **base)).points
    degen = sweep(SimConfig(success_mode="degenerate", **base)).points
    for p_idx, (s, d) in enumerate(zip(strict, degen)):
        assert s.degenerate_saves == 0
        assert d.degenerate_saves == s.block_errors - d.block_errors
        effort = _trial_effort(code, s.p, p_idx, 120, 4)
        assert (s.iterations_total, s.iterations_max) == effort
        assert (d.iterations_total, d.iterations_max) == effort
    if name != "ex1":
        assert sum(d.degenerate_saves for d in degen) > 0
    w2 = sweep(SimConfig(success_mode="degenerate", workers=2, **base)).points
    assert w2 == degen
