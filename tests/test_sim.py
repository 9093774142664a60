import os

import numpy as np
import pytest

from stabkit import codes, f2, qc_ldpc, sim
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


def test_run_point_zero_probability():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(0.0,), trials=200, seed=0)
    pt = run_point(cfg, 0.0, 0)
    assert pt.block_errors == 0
    assert pt.wer == 0.0


def test_steane_low_p_low_wer():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(1e-3,), trials=10 ** 4, seed=0)
    pt = run_point(cfg, 1e-3, 0)
    assert pt.wer < 1e-2


def test_sweep_empty_grid():
    cfg = SimConfig(code=builtin("steane7"), p_grid=(), trials=10, seed=0)
    res = sweep(cfg)
    assert res.points == ()
    assert res.to_csv() == "p,trials,block_errors,wer,ci_lo,ci_hi\n"


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


def test_config_rejects_nonpositive_workers():
    st = builtin("steane7")
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(code=st, p_grid=(0.1,), trials=1, workers=workers)


def test_worker_threads_capped(monkeypatch):
    """The calling thread takes one span; the pool holds the others, and
    no more workers run than there are cores or trials."""
    pools = []

    class Pool(sim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", Pool)
    base = dict(code=builtin("steane7"), p_grid=(0.02,), seed=4)
    serial = sweep(SimConfig(workers=1, trials=90, **base)).to_csv()
    assert pools == []
    assert sweep(SimConfig(workers=64, trials=90, **base)).to_csv() == serial
    assert pools == ([os.cpu_count() - 1] if os.cpu_count() > 1 else [])
    pools.clear()
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    assert sweep(SimConfig(workers=64, trials=90, **base)).to_csv() == serial
    sweep(SimConfig(workers=64, trials=2, **base))
    sweep(SimConfig(workers=64, trials=1, **base))
    assert pools == [2, 1]


def test_trial_spans_add_up():
    """Blocks and worker spans may cut the trials anywhere: every trial
    is seeded alone and decoded independently of its block."""
    code = codes.build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex2()))
    runner = sim._TrialRunner(SimConfig(code=code, p_grid=(0.04,), trials=100, seed=6))
    whole = runner.count_errors(0.04, 0, 0, 100)
    assert whole > 0
    for cuts in ((0, 33, 100), (0, 1, 2, 64, 65, 100), (0, 50, 100)):
        assert sum(runner.count_errors(0.04, 0, a, b) for a, b in zip(cuts, cuts[1:])) == whole


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
