import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import qc_ldpc, spa
from stabkit.codes import hamming_matrix
from stabkit.f2 import BitMatrix
from stabkit.spa import (SpaGraph, SpaWorkspace, decode, decode_batch, decode_stream,
                        exact_marginals)

from util import random_bitmatrix, random_tree_check_matrix


def test_zero_syndrome_decodes_to_zero_first_iteration():
    h = hamming_matrix()
    for f in (0.01, 0.2, 0.45):
        res = decode(h, np.zeros(3, dtype=np.uint8), f)
        assert res.converged
        assert res.iterations == 1
        assert not res.estimate.any()


def test_all_hamming_syndromes_converge_and_satisfy():
    h = hamming_matrix()
    arr = h.to_array()
    for f in (0.01, 0.05, 0.1):
        for pattern in range(128):
            e = np.array([(pattern >> i) & 1 for i in range(7)], dtype=np.uint8)
            s = (arr @ e) % 2
            res = decode(h, s, f)
            assert res.converged
            assert ((arr @ res.estimate) % 2 == s).all()


def test_single_bit_recovery_matches_map_oracle():
    """Exact-marginal MAP recovers every single-bit error; the SPA with
    its early-stop rule agrees except on the all-checks column, where
    the first tentative estimate already satisfies the syndrome."""
    h = hamming_matrix()
    arr = h.to_array()
    spa_exact = 0
    for q in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[q] = 1
        s = (arr @ e) % 2
        marg = exact_marginals(h, s, 0.01)
        assert ((marg > 0.5).astype(np.uint8) == e).all()
        res = decode(h, s, 0.01)
        assert res.converged
        assert ((arr @ res.estimate) % 2 == s).all()
        spa_exact += (res.estimate == e).all()
    assert spa_exact == 6
    # the exception is the column that sits in every check
    assert (arr[:, 6] == 1).all()


def test_exact_marginals_zero_syndrome_small_prior():
    h = hamming_matrix()
    marg = exact_marginals(h, np.zeros(3, dtype=np.uint8), 1e-6)
    assert (marg < 1e-5).all()


def test_exact_marginals_symmetry():
    h = BitMatrix.from_rows([[1, 1]])
    marg = exact_marginals(h, [1], 0.1)
    assert marg == pytest.approx([0.5, 0.5])


def test_exact_marginals_unreachable_syndrome():
    h = BitMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        exact_marginals(h, [1, 0], 0.1)


def test_exact_marginals_size_cap():
    h = BitMatrix.zeros(1, 25)
    with pytest.raises(ValueError):
        exact_marginals(h, [0], 0.1)


def test_edge_normalization_invariant():
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    rng = np.random.default_rng(0)
    s = rng.integers(0, 2, size=h.rows).astype(np.uint8)
    g = SpaGraph(h)
    ws = SpaWorkspace(g, s, 0.05)
    for _ in range(5):
        ws.horizontal_step()
        ws.vertical_step()
        assert np.abs(ws.q[0, :-1] + ws.q[1, :-1] - 1.0).max() < 1e-12
        post = ws.pseudoposteriors()
        assert ((post >= 0) & (post <= 1)).all()


def test_converged_satisfies_is_asserted():
    h = hamming_matrix()
    arr = h.to_array()
    rng = np.random.default_rng(1)
    for _ in range(50):
        e = (rng.random(7) < 0.15).astype(np.uint8)
        s = (arr @ e) % 2
        res = decode(h, s, 0.1)
        if res.converged:
            assert ((arr @ res.estimate) % 2 == s).all()


def test_tree_marginals_match_exact():
    worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(100 + t)
        n_bits = int(rng.integers(6, 16))
        n_checks = int(rng.integers(2, 6))
        h = random_tree_check_matrix(rng, n_bits, n_checks)
        assert qc_ldpc.girth_exact(h) == float("inf")
        e = (rng.random(n_bits) < 0.2).astype(np.uint8)
        s = (h.to_array() @ e) % 2
        exact = exact_marginals(h, s, 0.1)
        ws = SpaWorkspace(SpaGraph(h), s, 0.1)
        for _ in range(n_bits + n_checks):
            ws.horizontal_step()
            ws.vertical_step()
        worst = max(worst, float(np.abs(ws.pseudoposteriors() - exact).max()))
    assert worst < 1e-9


def test_single_error_success_rate_on_girth6_code():
    h = qc_ldpc.expand(qc_ldpc.make_ex1())
    arr = h.to_array()
    graph = SpaGraph(h)
    rng = np.random.default_rng(5)
    successes = 0
    trials = 1000
    for _ in range(trials):
        e = np.zeros(128, dtype=np.uint8)
        e[rng.integers(128)] = 1
        s = (arr @ e) % 2
        res = decode(graph, s, 0.01)
        successes += res.converged and (res.estimate == e).all()
    assert successes / trials >= 0.99


def test_decode_validation():
    h = hamming_matrix()
    with pytest.raises(ValueError):
        decode(h, [0, 0, 0], 0.0)
    with pytest.raises(ValueError):
        decode(h, [0, 0, 0], 1.0)
    with pytest.raises(ValueError):
        decode(h, [0, 0], 0.1)
    with pytest.raises(ValueError):
        decode(h, [0, 0, 0], 0.1, max_iter=0)


def test_failure_reported_when_unsatisfiable():
    # an all-ones 2x2 H cannot produce syndrome (1, 0)
    h = BitMatrix.from_rows([[1, 1], [1, 1]])
    res = decode(h, [1, 0], 0.1, max_iter=5)
    assert not res.converged
    assert res.iterations == 5


def _random_syndromes(rng, h, b):
    """Reachable, zero and uniformly random (often unreachable) rows."""
    arr = h.to_array()
    errs = (rng.random((b, h.cols)) < 0.2).astype(np.uint8)
    syn = (errs @ arr.T) % 2
    kind = rng.integers(0, 4, size=b)
    syn[kind == 0] = 0
    syn[kind == 1] = rng.integers(0, 2, size=(int((kind == 1).sum()), h.rows))
    return syn.astype(np.uint8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 31, 32, 33]), st.integers(1, 5),
       st.sampled_from([0.01, 0.05, 0.2, 0.45, 0.5, 0.7]), st.booleans())
def test_decode_batch_rows_match_decode(seed, b, max_iter, prior, tree):
    rng = np.random.default_rng(seed)
    if tree:   # no cycles at all
        h = random_tree_check_matrix(rng, int(rng.integers(4, 12)), int(rng.integers(2, 5)))
    else:      # dense enough for 4-cycles, sometimes with empty rows or columns
        h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, b)
    est, conv, its = decode_batch(h, syn, prior, max_iter)
    assert est.shape == (b, h.cols) and est.dtype == np.uint8
    graph = SpaGraph(h)
    for i in range(b):
        res = decode(graph, syn[i], prior, max_iter)
        assert np.array_equal(res.estimate, est[i])
        assert (res.converged, res.iterations) == (bool(conv[i]), int(its[i]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([spa.WIDTH - 1, spa.WIDTH + 1, 3 * spa.WIDTH + 5]),
       st.integers(1, 5), st.sampled_from([0.01, 0.05, 0.2, 0.45, 0.5, 0.7]))
def test_refilled_rows_match_decode(seed, b, max_iter, prior):
    """Rows retire mid-stream, by converging or at ``max_iter``, and
    queued syndromes take their slots: every row still equals its
    batch of one, and every row past the first ``WIDTH`` of the queue
    is admitted into a freed slot."""
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, b)
    admitted = []
    admit = SpaWorkspace.admit

    def counting_admit(ws, slots, syndromes):
        admitted.append(len(slots))
        admit(ws, slots, syndromes)

    with mock.patch.object(SpaWorkspace, "admit", counting_admit):
        est, conv, its = decode_batch(h, syn, prior, max_iter)
    queued = int(syn.any(axis=1).sum()) if prior < 0.5 else b
    assert sum(admitted) == max(0, queued - spa.WIDTH)
    graph = SpaGraph(h)
    for i in range(b):
        res = decode(graph, syn[i], prior, max_iter)
        assert np.array_equal(res.estimate, est[i])
        assert (res.converged, res.iterations) == (bool(conv[i]), int(its[i]))


def _reference_decode(h, syndrome, prior, max_iter):
    """The one-syndrome decoder that the batch kernel replaced, kept as
    the reference: row-major padded gathers, ``np.cumprod`` leave-one-out
    products, ``np.prod`` posteriors and a fresh scatter per step.  The
    arithmetic per message is the same, so results must be equal."""
    arr = h.to_array()
    rows, cols = np.nonzero(arr)
    e = len(rows)

    def slots(groups, count):
        out = np.full((count, max(int(np.bincount(groups, minlength=count).max(initial=0)), 1)), e)
        fill = np.zeros(count, dtype=int)
        for edge, grp in enumerate(groups):
            out[grp, fill[grp]] = edge
            fill[grp] += 1
        return out

    def loo(x):
        pref = np.ones_like(x)
        pref[:, 1:] = np.cumprod(x, axis=1)[:, :-1]
        suff = np.ones_like(x)
        suff[:, :-1] = np.cumprod(x[:, ::-1], axis=1)[:, ::-1][:, 1:]
        return pref * suff

    def scatter(padded, sl):
        flat = np.empty(e)
        flat[sl[sl < e]] = padded[sl < e]
        return flat

    cs, bs = slots(rows, h.rows), slots(cols, h.cols)
    sign = 1.0 - 2.0 * np.asarray(syndrome, dtype=float)
    p0, p1 = 1.0 - prior, prior
    q0, q1 = np.full(e, p0), np.full(e, p1)
    for it in range(1, max_iter + 1):
        dr = scatter(sign[:, None] * loo(np.append(q0 - q1, 1.0)[cs]), cs)
        r0 = np.maximum((1.0 + dr) / 2.0, 1e-300)
        r1 = np.maximum((1.0 - dr) / 2.0, 1e-300)
        l0 = p0 * loo(np.append(r0, 1.0)[bs])
        l1 = p1 * loo(np.append(r1, 1.0)[bs])
        norm = np.maximum(l0 + l1, 1e-300)
        q0 = np.maximum(scatter(l0 / norm, bs), 1e-300)
        q1 = np.maximum(scatter(l1 / norm, bs), 1e-300)
        t0 = p0 * np.prod(np.append(r0, 1.0)[bs], axis=1)
        t1 = p1 * np.prod(np.append(r1, 1.0)[bs], axis=1)
        est = (t1 / np.maximum(t0 + t1, 1e-300) > 0.5).astype(np.uint8)
        if np.array_equal((arr @ est) % 2, syndrome):
            return est, True, it
    return est, False, max_iter


@pytest.mark.parametrize("name", ["ex1", "ex2", "mackay"])
def test_decode_batch_matches_reference_decoder(name):
    h = (qc_ldpc.make_ex_mackay(seed=0) if name == "mackay"
         else qc_ldpc.expand(getattr(qc_ldpc, f"make_{name}")()))
    graph = SpaGraph(h)
    rng = np.random.default_rng(21)
    for p, max_iter in ((0.01, 20), (0.03, 20), (0.06, 8)):
        errs = (rng.random((24, h.cols)) < p).astype(np.uint8)
        syn = (errs @ h.to_array().T) % 2
        est, conv, its = decode_batch(graph, syn, p, max_iter)
        for i in range(len(syn)):
            ref_est, ref_conv, ref_its = _reference_decode(h, syn[i], p, max_iter)
            assert np.array_equal(ref_est, est[i])
            assert (ref_conv, ref_its) == (bool(conv[i]), int(its[i]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
       st.sampled_from([0.01, 0.05, 0.2, 0.45, 0.5, 0.7]))
def test_decode_batch_matches_reference_on_random_checks(seed, max_iter, prior):
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, 12)
    est, conv, its = decode_batch(h, syn, prior, max_iter)
    for i in range(len(syn)):
        ref_est, ref_conv, ref_its = _reference_decode(h, syn[i], prior, max_iter)
        assert np.array_equal(ref_est, est[i])
        assert (ref_conv, ref_its) == (bool(conv[i]), int(its[i]))


def _mackay_rows(b, p, seed):
    """ex-MacKay (seed 0), whose duplicate columns make 4-cycles, and
    the syndromes of ``b`` flip patterns at rate ``p``."""
    h = qc_ldpc.make_ex_mackay(seed=0)
    errs = (np.random.default_rng(seed).random((b, h.cols)) < p).astype(np.uint8)
    return h, (errs @ h.to_array().T) % 2


def _assert_rows_match_reference(h, syn, prior, max_iter, rows):
    """Every row of ``decode_stream``'s one block equals the exit-free
    reference decoder; returns the rows' cycle flags."""
    est, conv, its, cycled = next(decode_stream(SpaGraph(h), [(syn, prior)], max_iter))
    for i in rows:
        ref_est, ref_conv, ref_its = _reference_decode(h, syn[i], prior, max_iter)
        assert np.array_equal(ref_est, est[i]), (i, max_iter)
        assert (ref_conv, ref_its) == (bool(conv[i]), int(its[i]))
    assert not (cycled & conv).any() and (its[cycled] == max_iter).all()
    return cycled


@pytest.mark.parametrize("max_iter", [99, 100, 101])
def test_cycle_exits_match_reference_on_mackay(max_iter):
    """At p = 0.04 many ex-MacKay rows fall into an exact message cycle
    of even period and are ended early.  Across three consecutive
    ``max_iter`` the estimate each returns is taken at every phase of a
    period-2 cycle, and equals the exit-free decoder's after
    ``max_iter`` rounds."""
    h, syn = _mackay_rows(96, 0.04, 17)
    cycled = next(decode_stream(SpaGraph(h), [(syn, 0.04)], max_iter))[3]
    assert cycled.sum() >= 5
    # the cycled rows, and a few of the others
    rows = np.union1d(np.flatnonzero(cycled), np.arange(8))
    _assert_rows_match_reference(h, syn, 0.04, max_iter, rows)


def test_forced_fingerprint_collisions_never_end_a_row_alone(monkeypatch):
    """With every fingerprint equal, every row old enough to be copied
    is copied and then compared at every round, so only the exact
    compare of q keeps rows that do not repeat from ending.  Outputs,
    over more rows than the kernel's width so that slots are refilled,
    still equal the exit-free decoder's, and exact cycles are still
    found."""
    calls = []

    def constant(q):
        calls.append(q.shape[-1])
        return np.zeros(q.shape[-1])

    monkeypatch.setattr(spa, "_fingerprint", constant)
    h, syn = _mackay_rows(spa.WIDTH + 40, 0.04, 18)
    cycled = _assert_rows_match_reference(h, syn, 0.04, 40, range(len(syn)))
    assert calls and cycled.any() and not cycled.all()


def test_cycle_rings_stay_aligned_over_unrecorded_rounds():
    """A round in which every row is younger than ``_RING`` is not
    recorded.  Here a period-2 row repeats from age 2, but the only row
    old enough to get rounds recorded leaves after the third: the
    periodic row is copied only once it is ``_RING`` rounds old itself,
    and it ends with the estimate of the phase that ``max_iter``
    picks."""
    k = spa._RING
    max_iter = k + 3
    rng = np.random.default_rng(3)
    states = rng.random((2, 2, 3))          # the periodic row's q at even and odd ages
    cycles = spa._Cycles(2, 1, max_iter)
    age = np.array([k, 2])
    for rnd in range(1, 3 * k):
        q = np.empty((2, 3, 2))
        q[..., 0] = rng.random((2, 3))      # slot 0 never repeats
        q[..., 1] = states[age[1] % 2]
        estimate = np.array([[9], [age[1] % 2]], dtype=np.uint8)
        rows = cycles.step(q, estimate, np.zeros(2, dtype=bool), age)
        if rows is not None:
            assert list(rows) == [1] and age[1] == k + 2
            assert estimate[1, 0] == max_iter % 2
            break
        if rnd == 3:                        # the old row leaves, a new one takes its slot
            cycles.admit(np.array([0]))
            age[0] = 0
        age += 1
    else:
        pytest.fail("the periodic row never ended")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40),
       st.sampled_from([0.01, 0.05, 0.2, 0.45, 0.5, 0.7]), st.booleans())
def test_cycle_exits_match_reference_on_random_checks(seed, max_iter, prior, collide):
    """Small dense checks with unreachable syndromes cycle often; with
    real or forced-equal fingerprints, every row equals the exit-free
    decoder's."""
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, 12)
    fingerprint = (lambda q: np.zeros(q.shape[-1])) if collide else spa._fingerprint
    with mock.patch.object(spa, "_fingerprint", fingerprint):
        _assert_rows_match_reference(h, syn, prior, max_iter, range(len(syn)))


def _kernel(graph, syndrome, prior, max_iter):
    """The iteration loop on one syndrome, straight through the
    workspace, with no shortcut for a zero syndrome."""
    ws = SpaWorkspace(graph, syndrome, prior)
    for it in range(1, max_iter + 1):
        ws.horizontal_step()
        ws.vertical_step()
        est, ok = ws.decide()
        if ok[0]:
            return est[:-1, 0], True, it
    return est[:-1, 0], False, max_iter


def test_zero_syndrome_skip_is_what_the_kernel_computes(monkeypatch):
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = random_bitmatrix(rng, int(rng.integers(1, 6)), int(rng.integers(3, 10)), 0.4)
        graph = SpaGraph(h)
        zero = np.zeros(h.rows, dtype=np.uint8)
        for prior in (0.01, 0.2, 0.45, 0.5, 0.6, 0.9):
            est, conv, its = _kernel(graph, zero, prior, 4)
            res = decode(graph, zero, prior, 4)
            assert np.array_equal(res.estimate, est)
            assert (res.converged, res.iterations) == (conv, its)
            if prior < 0.5:
                assert not est.any() and conv and its == 1
    # below 1/2 zero rows never reach the kernel; from 1/2 up they do
    steps = []
    real = SpaWorkspace.horizontal_step
    monkeypatch.setattr(SpaWorkspace, "horizontal_step",
                        lambda ws: (steps.append(len(ws.syndrome)), real(ws)))
    h = hamming_matrix()
    syn = np.zeros((5, 3), dtype=np.uint8)
    syn[2] = (1, 0, 1)
    est, conv, its = decode_batch(h, syn, 0.1, 10)
    assert steps and max(steps) == 1
    assert conv.all() and list(its[[0, 1, 3, 4]]) == [1] * 4
    steps.clear()
    decode_batch(h, syn, 0.5, 10)
    assert steps[0] == 5


def test_decode_batch_validation():
    h = hamming_matrix()
    with pytest.raises(ValueError):
        decode_batch(h, [0, 0, 0], 0.1)            # one syndrome, not a batch
    with pytest.raises(ValueError):
        decode_batch(h, np.zeros((2, 4)), 0.1)     # wrong check count
    with pytest.raises(ValueError):
        decode_batch(h, np.zeros((2, 3)), 0.1, max_iter=0)
    est, conv, its = decode_batch(h, np.zeros((0, 3)), 0.1)
    assert est.shape == (0, 7) and conv.shape == its.shape == (0,)


def test_batched_workspace_shapes():
    h = hamming_matrix()
    g = SpaGraph(h)
    ws = SpaWorkspace(g, np.zeros((4, 3), dtype=np.uint8), 0.1)
    ws.horizontal_step()
    ws.vertical_step()
    assert ws.q.shape == ws.r.shape == (2, g.n_edges + 1, 4)
    assert ws.pseudoposteriors().shape == (4, 7)
    est, ok = ws.decide()
    assert est.shape == (8, 4) and ok.shape == (4,)
    single = SpaWorkspace(g, [0, 0, 0], 0.1)
    single.horizontal_step()
    single.vertical_step()
    assert single.pseudoposteriors().shape == (1, 7)
    assert single.decide()[1].tolist() == [True]


def test_steps_update_messages_in_place():
    """The horizontal step writes r and the vertical step writes q into
    the arrays the workspace already holds."""
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    rng = np.random.default_rng(4)
    errs = (rng.random((spa.WIDTH, h.cols)) < 0.03).astype(np.uint8)
    ws = SpaWorkspace(SpaGraph(h), (errs @ h.to_array().T) % 2, 0.02)
    q, r = ws.q, ws.r
    for _ in range(3):
        ws.horizontal_step()
        ws.vertical_step()
        assert ws.q is q and ws.r is r
    ws.admit(np.arange(4), np.zeros((4, h.rows), dtype=np.uint8))
    assert ws.q is q and ws.r is r


PRIORS = [0.01, 0.05, 0.2, 0.45, 0.5, 0.7]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.lists(st.tuples(st.sampled_from([0, 1, 7, spa.WIDTH - 1, spa.WIDTH + 3]),
                          st.booleans()), min_size=1, max_size=6),
       st.integers(1, 5))
def test_stream_rows_match_decode_at_their_own_prior(seed, shapes, max_iter):
    """Blocks of any size, each with one prior or one per row, share
    the kernel's slots: every row of every block, handed back in
    stream order, is what ``decode`` gives it alone at its own prior."""
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    graph = SpaGraph(h)
    blocks = []
    for b, per_row in shapes:
        prior = (rng.choice(PRIORS, size=b) if per_row else float(rng.choice(PRIORS)))
        blocks.append((_random_syndromes(rng, h, b), prior))
    results = list(decode_stream(graph, iter(blocks), max_iter))
    assert len(results) == len(blocks)
    for (syn, prior), (est, conv, its, cycled) in zip(blocks, results):
        assert est.shape == (len(syn), h.cols)
        assert not (cycled & conv).any() and (its[cycled] == max_iter).all()
        priors = np.broadcast_to(prior, (len(syn),))
        for i in range(len(syn)):
            res = decode(graph, syn[i], float(priors[i]), max_iter)
            assert np.array_equal(res.estimate, est[i])
            assert (res.converged, res.iterations) == (bool(conv[i]), int(its[i]))


def test_stream_pulls_blocks_only_as_slots_free():
    """The first block comes back from an endless stream: blocks are
    pulled only to fill freed slots.  Each slot retires at most one row
    per round, so while a row of the first block runs (at most
    ``max_iter`` rounds after it entered) at most ``WIDTH`` rows per
    round are pulled past it."""
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    rng = np.random.default_rng(5)
    errs = (rng.random((2 * spa.WIDTH, h.cols)) < 0.03).astype(np.uint8)
    block = ((errs @ h.to_array().T) % 2, 0.02)
    pulled = []

    def source():
        for i in itertools.count():
            pulled.append(i)
            yield block

    max_iter = 3
    stream = decode_stream(h, source(), max_iter)
    first = next(stream)
    assert len(pulled) * len(errs) <= len(errs) + spa.WIDTH * (max_iter + 1)
    assert np.array_equal(next(stream)[0], first[0])


def test_stream_validates_each_block():
    h = hamming_matrix()
    good = (np.zeros((2, 3), dtype=np.uint8), 0.1)
    for bad, message in (((np.zeros((2, 3)), np.array([0.1, 1.5])), "got 1.5"),
                         ((np.zeros((2, 4)), 0.1), "syndrome length 4 != check count 3"),
                         ((np.zeros(3), 0.1), "must be a \\[B, m\\] array"),
                         ((np.zeros((2, 3)), 0.0), "got 0.0")):
        with pytest.raises(ValueError, match=message):
            list(decode_stream(h, [good, bad]))
    with pytest.raises(ValueError, match="max_iter"):
        decode_stream(h, [good], max_iter=0)
    assert list(decode_stream(h, [])) == []


def _nan_r_after_admit(admitted):
    """``SpaWorkspace.admit`` patched to fill the admitted rows of r
    with NaN after the real call, counting rows into ``admitted``: a
    read of r before the next horizontal step rewrites it spreads NaN
    into the row's messages and estimate."""
    admit = SpaWorkspace.admit

    def poisoned(ws, slots, syndromes):
        admit(ws, slots, syndromes)
        ws.r[:, :-1, slots] = np.nan
        admitted.append(len(slots))

    return mock.patch.object(SpaWorkspace, "admit", poisoned)


def test_admitted_rows_never_read_r_before_the_horizontal_step():
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    errs = (np.random.default_rng(8).random((spa.WIDTH + 40, h.cols)) < 0.04).astype(np.uint8)
    syn = (errs @ h.to_array().T) % 2
    admitted = []
    with _nan_r_after_admit(admitted):
        _assert_rows_match_reference(h, syn, 0.04, 30, range(len(syn)))
    assert sum(admitted) == int(syn.any(axis=1).sum()) - spa.WIDTH > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.sampled_from(PRIORS))
def test_admitted_rows_never_read_r_on_random_checks(seed, max_iter, prior):
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, 2 * spa.WIDTH + 20)
    admitted = []
    with _nan_r_after_admit(admitted):
        _assert_rows_match_reference(h, syn, prior, max_iter, range(len(syn)))
    queued = int(syn.any(axis=1).sum()) if prior < 0.5 else len(syn)
    assert sum(admitted) == max(0, queued - spa.WIDTH)


@pytest.mark.parametrize("k", [1, 42, 43, spa.WIDTH])
def test_admit_restarts_the_admitted_rows_only(k):
    """Past two thirds of the batch, ``admit`` restarts every row's q
    and copies the others back; below, only the admitted rows.  Either
    way the admitted rows get their prior and new syndrome, and every
    other row keeps its messages and syndrome."""
    h = qc_ldpc.expand(qc_ldpc.make_ex1())
    rng = np.random.default_rng(k)
    ws = SpaWorkspace(SpaGraph(h), _random_syndromes(rng, h, spa.WIDTH),
                      rng.choice(PRIORS, size=spa.WIDTH))
    ws.horizontal_step()
    ws.vertical_step()
    q, sign, syndrome = ws.q.copy(), ws.sign.copy(), ws.syndrome.copy()
    slots = np.sort(rng.choice(spa.WIDTH, k, replace=False))
    new = _random_syndromes(rng, h, k)
    ws.admit(slots, new)
    q[:, :-1, slots] = ws.prior[..., slots]
    sign[:, slots] = 1.0 - 2.0 * new.T
    syndrome[slots] = new
    assert np.array_equal(ws.q, q) and np.array_equal(ws.sign, sign)
    assert np.array_equal(ws.syndrome, syndrome)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 7, spa.WIDTH]), st.integers(1, 4))
def test_batch_last_convergence_test_is_satisfies_of_tentative(seed, b, rounds):
    """``decide``, the stream's convergence test, agrees row by row
    with a reference (posteriors above 1/2, and their ``est @ h.T mod
    2`` against the syndrome), on checks with an empty row and an
    untouched bit and at per-row priors on both sides of 1/2; and
    ``syndromes``, the other caller of the parity core, still computes
    ``bits @ h.T mod 2``."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(3, 12))
    arr = (rng.random((m, n)) < 0.4).astype(np.uint8)
    arr[rng.integers(0, m)] = 0
    arr[:, rng.integers(0, n)] = 0
    h = BitMatrix.from_rows(arr)
    graph = SpaGraph(h)
    ws = SpaWorkspace(graph, _random_syndromes(rng, h, b), rng.choice(PRIORS, size=b))
    for _ in range(rounds):
        ws.horizontal_step()
        ws.vertical_step()
        est, ok = ws.decide()
        tentative = (ws.pseudoposteriors() > 0.5).view(np.uint8)
        assert est.shape == (n + 1, b) and not est[-1].any()
        assert np.array_equal(est[:-1].T, tentative)
        assert np.array_equal(ok, ((tentative @ arr.T) % 2 == ws.syndrome).all(axis=1))
    bits = rng.integers(0, 4, size=(b, n), dtype=np.uint8)
    assert np.array_equal(graph.syndromes(bits), (bits @ arr.T) & 1)


@functools.lru_cache(maxsize=None)
def _named_graph(name):
    h = (qc_ldpc.make_ex_mackay(seed=0) if name == "mackay"
         else qc_ldpc.expand(qc_ldpc.make_ex2()))
    return h, SpaGraph(h)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["ex2", "mackay"]),
       st.sampled_from([2, 9, spa.WIDTH]), st.integers(1, 7))
def test_batch_of_one_equals_its_batch_row(seed, name, b, rounds):
    """A row's arithmetic does not depend on its batch: a workspace
    built on the one syndrome ``syn[j]`` gives, bit for bit, the
    posteriors and decision of row j of a workspace built on the whole
    batch, at per-row priors on both sides of 1/2, after every round."""
    h, graph = _named_graph(name)
    rng = np.random.default_rng(seed)
    syn = _random_syndromes(rng, h, b)
    prior = rng.choice(PRIORS, size=b)
    whole = SpaWorkspace(graph, syn, prior)
    alone = [SpaWorkspace(graph, syn[j], prior[j]) for j in range(b)]
    for _ in range(rounds):
        for ws in (whole, *alone):
            ws.horizontal_step()
            ws.vertical_step()
        post = whole.pseudoposteriors()
        est, ok = whole.decide()
        for j, ws in enumerate(alone):
            assert ws.pseudoposteriors().tobytes() == post[j].tobytes()
            est_j, ok_j = ws.decide()
            assert np.array_equal(est_j[:, 0], est[:, j]) and ok_j[0] == ok[j]


def test_one_take_and_one_finish_span_several_blocks():
    """Blocks of 1, 5 all-zero, 2 ``WIDTH`` + 3 and 2 rows: the first
    ``take`` hands out rows of the first and third blocks together, and
    ``finish`` gets rows of both in one round.  A spy on the block ids
    of every ``take`` and ``finish`` shows that events touching one
    block and events touching several both ran; the blocks come back in
    order, every row equal to the reference decoder's."""
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    rng = np.random.default_rng(9)
    prior, max_iter = 0.02, 20
    blocks = []
    for b in (1, 5, 2 * spa.WIDTH + 3, 2):
        errs = (rng.random((b, h.cols)) < prior).astype(np.uint8)
        blocks.append(((errs @ h.to_array().T) % 2, prior))
    blocks[0][0][0] = h.to_array()[:, 0]     # a nonzero syndrome
    blocks[1][0][:] = 0
    several = {"take": set(), "finish": set()}
    take, finish = spa._Feed.take, spa._Feed.finish

    def spy_take(feed, k):
        out = take(feed, k)
        if len(out[0]):
            several["take"].add(len(np.unique(out[0])) > 1)
        return out

    def spy_finish(feed, ids, *rest):
        several["finish"].add(len(np.unique(ids)) > 1)
        return finish(feed, ids, *rest)

    with mock.patch.object(spa._Feed, "take", spy_take), \
            mock.patch.object(spa._Feed, "finish", spy_finish):
        results = list(decode_stream(h, iter(blocks), max_iter))
    assert several == {"take": {False, True}, "finish": {False, True}}
    assert len(results) == len(blocks)
    for (syn, _), (est, conv, its, _) in zip(blocks, results):
        assert est.shape == (len(syn), h.cols)
        for i in range(len(syn)):
            ref_est, ref_conv, ref_its = _reference_decode(h, syn[i], prior, max_iter)
            assert np.array_equal(ref_est, est[i])
            assert (ref_conv, ref_its) == (bool(conv[i]), int(its[i]))


class _Dense:
    """A check matrix as ``SpaGraph`` reads one, through ``to_array``;
    unlike ``BitMatrix`` it may have no rows."""

    def __init__(self, arr):
        self.arr = arr

    def to_array(self):
        return self.arr


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 7), st.integers(1, 12),
       st.integers(0, 9), st.sampled_from([0.0, 0.2, 0.5, 1.0]))
def test_graph_syndromes_are_parities(seed, m, n, b, density):
    """Empty checks, untouched bits and m = 0 included; entries other
    than 0 and 1 count by their low bit, as in the uint8 product."""
    rng = np.random.default_rng(seed)
    arr = (rng.random((m, n)) < density).astype(np.uint8)
    if m:
        arr[rng.integers(0, m)] = 0             # an empty check
    arr[:, rng.integers(0, n)] = 0              # an untouched bit
    bits = rng.integers(0, 4, size=(b, n), dtype=np.uint8)
    graph = SpaGraph(BitMatrix.from_rows(arr) if m else _Dense(arr))
    syn = graph.syndromes(bits)
    assert syn.dtype == np.uint8 and syn.shape == (b, m)
    assert np.array_equal(syn, (bits @ arr.T) & 1)


def test_graph_syndromes_on_named_css_codes():
    from stabkit import codes

    rng = np.random.default_rng(11)
    seen = set()
    for name, entry in codes.NAMED.items():
        css = entry.build().css
        if css is None:
            continue
        for h in (css.hz, css.hx):
            arr = h.to_array()
            bits = (rng.random((40, h.cols)) < rng.random((40, 1))).astype(np.uint8)
            assert np.array_equal(SpaGraph(h).syndromes(bits), (bits @ arr.T) & 1)
        seen.add(name)
    assert {"steane7", "shor9", "ex1", "ex2", "mackay", "hi"} <= seen
