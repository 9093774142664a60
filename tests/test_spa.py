import functools
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabkit import codes, qc_ldpc, sim, spa
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


def test_exact_marginals_validation():
    h = BitMatrix.from_rows([[1, 1]])
    with pytest.raises(ValueError, match=r"must be in \(0, 1\), got 0.0"):
        exact_marginals(h, [1], 0.0)
    with pytest.raises(ValueError, match="syndrome length 2 != check count 1"):
        exact_marginals(h, [1, 0], 0.1)


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


@pytest.mark.parametrize("max_iter", [2.5, 3.0, np.float64(2.5), "3"])
def test_non_integral_max_iter_is_rejected_at_once(max_iter):
    """At 2.5 ``age == max_iter`` would never hold and the loop would
    not end, so every entry point rejects a ``max_iter`` that is not an
    integer, a float of integral value too, before it decodes; a numpy
    integer stays accepted."""
    h = qc_ldpc.make_ex_mackay(seed=0)
    syn = _mackay_rows(4, 0.05, 0)[1]
    message = re.escape(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    with pytest.raises(ValueError, match=message):
        decode_stream(h, iter(()), max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        decode_batch(h, syn, 0.05, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        decode(h, syn[0], 0.05, max_iter=max_iter)
    assert [a.tobytes() for a in decode_batch(h, syn, 0.05, max_iter=np.int64(3))] == [
        a.tobytes() for a in decode_batch(h, syn, 0.05, max_iter=3)]


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


def _round_one_settles(h, syn, prior):
    """[B] bool: the rows whose first round reproduces their syndrome,
    by the reference decoder."""
    return np.array([_reference_decode(h, s, prior, 1)[1] for s in syn], dtype=bool)


def _admitted_rows(h, syn, prior):
    """What a block of ``syn`` at one prior sends through ``admit``, as
    ``(table, queued)``.  With at least 2^dv rows it builds a round-one
    table on a workspace of 2^dv rows, so ``table`` is ``[2^dv]``, and
    queues the rows that round one does not settle; a smaller block
    builds none, ``[]``, and queues every row.  dv is the largest column
    weight of ``h``, at least 1, and 2^dv <= ``WIDTH`` here, so the
    table looks at every slot."""
    width = 1 << max(int(h.to_array().sum(axis=0).max(initial=0)), 1)
    assert width <= spa.WIDTH
    tabled = len(syn) >= width
    return [width] * tabled, int((~(_round_one_settles(h, syn, prior) & tabled)).sum())


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
    batch of one, and every queued row enters through ``admit``, the
    first ``WIDTH`` when the workspace is built and every later one
    into a freed slot.  A block of at least 2^dv rows (dv <= 6 here)
    first builds its round-one table, one more workspace, and queues
    only the rows that round one does not settle; a smaller block
    queues every row, zero syndromes included."""
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, b)
    admitted = []
    admit = SpaWorkspace.admit

    def counting_admit(ws, slots, syndromes, flip):
        admitted.append(len(slots))
        admit(ws, slots, syndromes, flip)

    with mock.patch.object(SpaWorkspace, "admit", counting_admit):
        est, conv, its = decode_batch(h, syn, prior, max_iter)
    table, queued = _admitted_rows(h, syn, prior)
    kernel = admitted[len(table):]
    assert admitted[:len(table)] == table
    assert kernel[0] == min(queued, spa.WIDTH) and sum(kernel) == queued
    graph = SpaGraph(h)
    for i in range(b):
        res = decode(graph, syn[i], prior, max_iter)
        assert np.array_equal(res.estimate, est[i])
        assert (res.converged, res.iterations) == (bool(conv[i]), int(its[i]))


def _reference_loo(x):
    """Leave-one-out products along axis 1 of ``x``: the ``np.cumprod``
    prefix times the ``np.cumprod`` suffix, 1 at the ends."""
    pref = np.ones_like(x)
    pref[:, 1:] = np.cumprod(x, axis=1)[:, :-1]
    suff = np.ones_like(x)
    suff[:, :-1] = np.cumprod(x[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return pref * suff


def _reference_rounds(h, syndrome, prior):
    """The one-syndrome decoder that the batch kernel replaced, kept as
    the reference: row-major padded gathers, ``np.cumprod`` leave-one-out
    products, ``np.prod`` posteriors and a fresh scatter per step.  The
    arithmetic per message is the same, so messages and results must be
    equal.  Yields ``(q0, q1, r0, r1, estimate)`` after every round,
    the messages edge-major in ``np.nonzero(h)`` order, without end."""
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

    loo = _reference_loo

    def scatter(padded, sl):
        flat = np.empty(e)
        flat[sl[sl < e]] = padded[sl < e]
        return flat

    cs, bs = slots(rows, h.rows), slots(cols, h.cols)
    sign = 1.0 - 2.0 * np.asarray(syndrome, dtype=float)
    p0, p1 = 1.0 - prior, prior
    q0, q1 = np.full(e, p0), np.full(e, p1)
    while True:
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
        yield q0, q1, r0, r1, est


def _reference_decode(h, syndrome, prior, max_iter):
    """``_reference_rounds`` up to the first estimate that reproduces
    the syndrome, or ``max_iter`` rounds."""
    arr = h.to_array()
    for it, (*_, est) in zip(range(1, max_iter + 1), _reference_rounds(h, syndrome, prior)):
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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["random", "mackay", "mackay at 0.04"]),
       st.sampled_from([1, 7]), st.integers(1, 6))
def test_messages_match_reference_after_every_round(seed, name, b, rounds):
    """The kernel's messages, not only its decisions, are the
    reference's to the bit: after each of rounds 1..k, every row's q
    and r, read through the stand-in map ``_true`` (and r out of its
    check-slot-major cells through ``check_pos``), equal the
    reference's q0, q1, r0 and r1 as bytes.  The random checks have
    unequal degrees, so r has pad cells; ex-MacKay's bits have unequal
    degrees.  At 0.04, ``mc_high_p``'s higher prior, seven ex-MacKay
    rows run 30 rounds more, enough for hard check messages, which r
    and q hold as stand-ins."""
    rng = np.random.default_rng(seed)
    if name.startswith("mackay"):
        h, graph = _named_graph("mackay")
    else:
        arr = (rng.random((int(rng.integers(2, 7)), int(rng.integers(3, 12)))) < 0.4)
        arr[0], arr[1, 0] = True, False     # check 0 is heavier than check 1
        h = BitMatrix.from_rows(arr.astype(np.uint8))
        graph = SpaGraph(h)
        assert graph.check_slots_t.size > graph.n_edges
    if name == "mackay at 0.04":
        b, rounds = 7, rounds + 30
        errs = (rng.random((b, h.cols)) < 0.04).astype(np.uint8)
        syn, prior = (errs @ h.to_array().T) % 2, np.full(b, 0.04)
    else:
        syn, prior = _random_syndromes(rng, h, b), rng.choice(PRIORS, size=b)
    ws = SpaWorkspace(graph, syn, prior)
    refs = [_reference_rounds(h, syn[j], prior[j]) for j in range(b)]
    hard = 0
    for _ in range(rounds):
        ws.horizontal_step()
        ws.vertical_step()
        hard += int((ws.r == ws._phi).sum())
        q, r = ws._true(ws.q), ws._true(ws.r)
        for j, ref in enumerate(refs):
            q0, q1, r0, r1, _ = next(ref)
            assert q[0, :-1, j].tobytes() == q0.tobytes()
            assert q[1, :-1, j].tobytes() == q1.tobytes()
            assert r[0, graph.check_pos, j].tobytes() == r0.tobytes()
            assert r[1, graph.check_pos, j].tobytes() == r1.tobytes()
    if name == "mackay at 0.04":
        assert hard > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_loo_prod_is_the_cumprod_reference(d, seed):
    """``_loo_prod`` over d = 1..9 slots of 16 columns, bit for bit:
    without a head factor, its products are the ``np.cumprod`` prefix
    times suffix and its total is the last ``np.cumprod``; with the
    half-sign ±1/2 as the head, 1/2 ± h is (1 ± sign * loo) / 2, the
    horizontal step's r before its floor.  The factors are uniform in
    [-1, 1], the range of dq and of r, and a third of them are exact
    zeros, ±``_FLOOR``, ±1, or tiny enough that products reach the
    subnormal range."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (d, 16))
    special = np.concatenate([[0.0, -0.0, spa._FLOOR, 1.0], 2.0 ** -rng.integers(0, 600, 8),
                              rng.uniform(1e-320, 1e-280, 4)])
    mask = rng.random(x.shape) < 1 / 3
    x[mask] = rng.choice(special, mask.sum()) * rng.choice([1.0, -1.0], mask.sum())
    ref = _reference_loo(x.T).T
    loo, total = spa._loo_prod(x)
    assert loo.tobytes() == ref.tobytes()
    assert total.tobytes() == np.cumprod(x, axis=0)[-1].tobytes()
    sign = rng.choice([1.0, -1.0], 16)
    h, total = spa._loo_prod(x, sign / 2)
    assert total is None
    assert (0.5 + h).tobytes() == ((1.0 + sign * ref) / 2.0).tobytes()
    assert (0.5 - h).tobytes() == ((1.0 - sign * ref) / 2.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_check_messages_are_the_stand_in_or_at_least_2_54(seed, degrees):
    """Every check message the horizontal step writes is the stand-in
    phi or lies in [2^-54, 1], on checks of degree 1..12 with q0 and q1
    drawn in [``_FLOOR``, 1], rows whose every edge has dq = +-1
    exactly and both syndrome signs; and it is phi exactly where the
    unfloored message (1 +- (-1)^z prod dq) / 2 is 0, so no genuine
    message equals phi and mapping phi back to ``_FLOOR`` is exact."""
    rng = np.random.default_rng(seed)
    n, b = max(degrees) + 2, 16
    arr = np.zeros((len(degrees), n), dtype=np.uint8)
    for i, d in enumerate(degrees):
        arr[i, rng.choice(n, d, replace=False)] = 1
    graph = SpaGraph(BitMatrix.from_rows(arr))
    ws = SpaWorkspace(graph, rng.integers(0, 2, (b, len(degrees))), 0.1)
    assert ws._s > 0
    e = graph.n_edges
    q = 10.0 ** -rng.uniform(0.0, 300.0, (2, e, b))
    q[rng.random((2, e, b)) < 0.2] = 1.0
    ends = (rng.random((e, b)) < 0.5) | (rng.random(b) < 0.4)    # dq = +-1 exactly
    q[:, ends] = rng.choice([(1.0, spa._FLOOR), (spa._FLOOR, 1.0)], int(ends.sum())).T
    ws.q[:, :-1] = q
    ws.horizontal_step()
    real = ws.r[:, graph.check_pos]
    assert ((real == ws._phi) | ((real >= 2.0 ** -54) & (real <= 1.0))).all()
    # the unfloored messages from the cumprod reference, cell k * m + i
    x = np.append(q[0] - q[1], np.ones((1, b)), axis=0)[graph.check_slots_t]    # [dc, m, B]
    ref = _reference_loo(x.transpose(1, 2, 0).reshape(-1, len(x))).reshape(x.shape[1], b, -1)
    ref = ref.transpose(2, 0, 1) * (1.0 - 2.0 * ws.checks)
    unfloored = np.stack([(1.0 + ref) / 2.0, (1.0 - ref) / 2.0]).reshape(2, -1, b)
    assert np.array_equal(real == ws._phi, unfloored[:, graph.check_pos] == 0.0)


def _today_vertical(graph, r, prior):
    """The vertical step and the tentative decision as the kernel made
    them before hard messages had a stand-in, kept as the reference:
    from the true r [2, dc * m + 1, B] and the priors [2, 1, B], q [2,
    E, B], the posteriors [n, B] and the least message sum."""
    b = r.shape[-1]
    q = np.empty((2, graph.n_edges, b))
    tot = []
    for t in (0, 1):
        loo, total = spa._loo_prod(r[t][graph.bit_cells_t])
        q[t] = loo.reshape(-1, b)[graph.bit_pos]
        tot.append(prior[t, 0] * total)
    q *= prior
    norm = q[0] + q[1]
    q = np.maximum(q / np.maximum(norm, spa._FLOOR), spa._FLOOR)
    return q, tot[1] / np.maximum(tot[0] + tot[1], spa._FLOOR), norm.min(initial=1.0)


def _graph_of_bit_degrees(rng, degrees):
    """The Tanner graph of a random H whose column j has weight
    ``degrees[j]``."""
    m = max(max(degrees), 4) + 2
    arr = np.zeros((m, len(degrees)), dtype=np.uint8)
    for j, d in enumerate(degrees):
        arr[rng.choice(m, d, replace=False), j] = 1
    return SpaGraph(BitMatrix.from_rows(arr))


@pytest.mark.parametrize("degrees", ["1-8", "17"])
def test_stand_in_steps_match_todays_arithmetic(degrees):
    """The vertical step and ``decide`` on check messages with hard
    ones as stand-ins give, through the stand-in map, the bytes of
    q, the decisions and the ``pseudoposteriors`` that today's
    arithmetic gives on the true r, ``_today_vertical``.  The draws put
    hard messages in one plane of a bit, in both planes (which the fast
    path cannot serve), two or more in one plane, and near-hard ones at
    2^-54 (alone, they give message sums below ``_ABSORB`` that the
    fast path serves), on irregular bits of degree 1..8 and on bits of
    degree 17 (outside the stand-in's range), at flip priors from 1e-30
    to 1 - 1e-12 and below ``_PRIOR_MIN``.  Both the fast path, with
    small sums too, and the fallback run, in the vertical step and in
    ``decide``."""
    paths = {"fast": 0, "small sum": 0, "fallback": 0, "decide": 0}
    vertical, posteriors = SpaWorkspace._vertical, SpaWorkspace._posteriors

    def spy_vertical(ws, r, phi):
        done = vertical(ws, r, phi)
        if ws._s:
            paths["fast" if done and phi != spa._FLOOR else "fallback"] += 1
        return done

    deciding = []

    def spy_posteriors(ws, totals=None, phi=spa._FLOOR):
        paths["decide"] += totals is None and any(deciding)    # decide's exact recompute
        deciding.append(totals is not None)
        try:
            return posteriors(ws, totals, phi)
        finally:
            deciding.pop()

    cases = ["one plane", "both planes", "two in a plane", "near-hard", "small sums",
             "low prior", "hard against near-hard"]
    with mock.patch.object(SpaWorkspace, "_vertical", spy_vertical), \
            mock.patch.object(SpaWorkspace, "_posteriors", spy_posteriors):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            case = cases[seed % len(cases)]
            n = int(rng.integers(6, 14))
            if degrees == "17":
                graph = _graph_of_bit_degrees(rng, [17] + list(rng.integers(1, 5, n - 1)))
            else:
                graph = _graph_of_bit_degrees(rng, rng.integers(1, 9, n))
            b = 12
            depth = (30.0, 12.0) if seed % 2 else (3.0, 3.0)    # how far priors go from 1/2
            flip = 10.0 ** -rng.uniform(np.log10(2), depth[0], b)
            high = rng.random(b) < 0.4
            flip[high] = 1.0 - 10.0 ** -rng.uniform(np.log10(2), depth[1], int(high.sum()))
            if seed % 2 or case == "small sums":
                flip[:2] = 1e-30, 1 - 1e-12
            if case == "low prior":
                flip[2:4] = 1e-35, 1e-290
            ws = SpaWorkspace(graph, np.zeros((b, graph.m), dtype=np.uint8), flip)
            assert ws._s == (0 if degrees == "17" else spa._stand_in(len(graph.bit_slots_t)))
            h = rng.uniform(-0.4, 0.4, (graph.check_slots_t.size, b))
            cells = graph.bit_cells_t    # [dv, n], padded with the sentinel cell
            for v in range(graph.n):
                mine = cells[cells[:, v] < len(h), v]
                if case == "one plane" and rng.random() < 0.5:
                    h[mine[0]] = rng.choice([0.5, -0.5], b)
                elif case == "both planes" and len(mine) >= 3 and rng.random() < 0.5:
                    h[mine[0]], h[mine[1]] = 0.5, -0.5
                elif case == "two in a plane" and len(mine) >= 3 and rng.random() < 0.5:
                    h[mine[:2]] = rng.choice([0.5, -0.5])
                elif case == "near-hard" and rng.random() < 0.5:
                    h[mine[0]] = rng.choice([0.5, -0.5, 0.5 - 2.0 ** -54, 2.0 ** -54 - 0.5], b)
                elif case == "hard against near-hard" and len(mine) == 2:
                    sign = rng.choice([0.5, -0.5])
                    h[mine[0]], h[mine[1]] = sign, 2.0 ** -54 - sign
                elif case == "small sums":
                    h[mine[:2]] = rng.choice([0.5 - 2.0 ** -54, 2.0 ** -54 - 0.5], (min(len(mine), 2), b))
            msgs = np.stack([0.5 + h, 0.5 - h])
            ws.r[:, :-1] = np.maximum(msgs, ws._phi)
            true_r = ws.r.copy()
            true_r[:, :-1] = np.maximum(msgs, spa._FLOOR)
            assert ws._true(ws.r).tobytes() == true_r.tobytes()
            fast = paths["fast"]
            ws.vertical_step()
            q, post, least = _today_vertical(graph, true_r, ws.prior)
            paths["small sum"] += paths["fast"] > fast and least < spa._ABSORB
            assert ws._true(ws.q)[:, :-1].tobytes() == q.tobytes(), (seed, case)
            est, ok = ws.decide()
            assert np.array_equal(est[:-1], (post > 0.5).view(np.uint8)), (seed, case)
            assert ws.pseudoposteriors().tobytes() == post.T.tobytes(), (seed, case)
    if degrees == "17":
        assert not any(paths.values())
    else:
        assert all(paths.values()), paths


def test_true_path_round_computes_the_bit_totals_once():
    """A spy on ``_loo_prod``.  On ex-MacKay with one row at a prior
    below ``_PRIOR_MIN``, every vertical step runs on the true r, and
    ``decide`` takes the per-bit totals from that step as they are:
    each round makes three calls, one in the horizontal step and one
    per plane in the vertical step.  The decisions equal those of
    ``pseudoposteriors``, which recomputes the totals from the true r,
    to the bit."""
    h, syn = _mackay_rows(8, 0.03, 2)
    prior = np.full(8, 0.03)
    prior[3] = 1e-35
    ws = SpaWorkspace(SpaGraph(h), syn, prior)
    assert ws._s and prior.min() < spa._PRIOR_MIN
    for _ in range(30):
        with mock.patch.object(spa, "_loo_prod", wraps=spa._loo_prod) as loo:
            ws.horizontal_step()
            ws.vertical_step()
            est, _ = ws.decide()
        assert loo.call_count == 3
        post = ws.pseudoposteriors()
        assert np.array_equal(est[:-1], (post.T > 0.5).view(np.uint8))
        assert ws._posteriors().tobytes() == ws._posteriors(*ws._totals).tobytes()


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
    of even period and skip whole periods.  Across three consecutive
    ``max_iter`` the rows stop at every phase of a period-2 cycle, and
    each estimate equals the exit-free decoder's after ``max_iter``
    rounds."""
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
    found two rounds later, and moved on by whole periods, to one round
    short of ``max_iter``."""
    k = spa._RING
    max_iter = k + 7
    rng = np.random.default_rng(3)
    states = rng.random((2, 2, 3))          # the periodic row's q at even and odd ages
    graph = SpaGraph(BitMatrix.from_rows([[1], [1]]))    # one bit, two edges
    ws = SpaWorkspace(graph, np.zeros((2, 2), dtype=np.uint8), 0.1)
    ws.age[:] = k, 2
    for rnd in range(1, 3 * k):
        ws.q[..., 0] = rng.random((2, 3))   # slot 0 never repeats
        ws.q[..., 1] = states[ws.age[1] % 2]
        age = ws.age.copy()
        ws.exits(np.zeros(2, dtype=bool), max_iter)
        if ws.cycled.any():
            assert list(np.flatnonzero(ws.cycled)) == [1] and age[1] == k + 2
            assert ws.age[0] == age[0] and ws.age[1] == max_iter - 1
            break
        assert (ws.age == age).all()
        if rnd == 3:                        # the old row leaves, a new one takes its slot
            ws.admit(np.array([0]), np.zeros((1, 2), dtype=np.uint8), np.array([0.1]))
        ws.age += 1
    else:
        pytest.fail("the periodic row never cycled")


#: a row of ``_mackay_rows(96, 0.04, 0)`` whose messages cycle, by period
_CYCLING_ROW = {2: 30, 4: 75}


def _cycle_jumps(monkeypatch, h, syn, prior, max_iter):
    """``decode_stream`` of one block of ``syn``, its results, and per
    row that ``exits`` flags as cycled, its age before and after."""
    jumps = {}
    exits = SpaWorkspace.exits

    def spy(ws, ok, max_iter):
        was, age = ws.cycled.copy(), ws.age.copy()
        exits(ws, ok, max_iter)
        for j in np.flatnonzero(ws.cycled & ~was):
            jumps[int(ws.rows[j])] = int(age[j]), int(ws.age[j])

    monkeypatch.setattr(SpaWorkspace, "exits", spy)
    return next(decode_stream(SpaGraph(h), [(syn, prior)], max_iter)), jumps


@pytest.mark.parametrize("period", [2, 4])
@pytest.mark.parametrize("short", [0, 1])
def test_cycled_row_skips_whole_periods(monkeypatch, period, short):
    """A row found in a message cycle of period k at age t moves on by
    whole periods: to ``max_iter`` itself when k divides max_iter - t,
    else to k - 1 short of it (``short``), from where it runs its last
    rounds.  Either way it leaves through ``age == max_iter``, flagged,
    with the reference decoder's estimate and iteration count."""
    h, syn = _mackay_rows(96, 0.04, 0)
    syn = syn[_CYCLING_ROW[period]][None]
    _, jumps = _cycle_jumps(monkeypatch, h, syn, 0.04, 200)
    t = jumps[0][0]
    qs = [np.concatenate(q) for *q, _, _, _ in itertools.islice(
        _reference_rounds(h, syn[0], 0.04), t)]
    # q after round t repeats q after round t - period, and no sooner
    assert [np.array_equal(qs[-1], qs[-1 - j]) for j in range(1, period + 1)] == (
        [False] * (period - 1) + [True])
    max_iter = t + 3 * period + short * (period - 1)
    (est, conv, its, cycled), jumps = _cycle_jumps(monkeypatch, h, syn, 0.04, max_iter)
    assert jumps == {0: (t, t + 3 * period)}
    assert cycled[0] and not conv[0] and its[0] == max_iter
    ref_est, ref_conv, ref_its = _reference_decode(h, syn[0], 0.04, max_iter)
    assert np.array_equal(ref_est, est[0]) and (ref_conv, ref_its) == (False, max_iter)


def test_refilled_slot_of_a_cycled_row_starts_uncycled():
    """A full batch of one cycling row leaves at ``max_iter``, and the
    next queued row, a zero syndrome, takes the first freed slot:
    ``admit`` clears the slot's flag, so the new row converges in one
    round and reports ``cycled=False``."""
    h, syn = _mackay_rows(96, 0.04, 0)
    rows = np.zeros((spa.WIDTH + 1, h.rows), dtype=np.uint8)
    rows[:-1] = syn[_CYCLING_ROW[2]]
    prior = np.full(len(rows), 0.04)
    prior[-1] = 0.03         # mixed priors: no round-one table, every row is queued
    est, conv, its, cycled = next(decode_stream(SpaGraph(h), [(rows, prior)], 60))
    assert cycled[:-1].all() and not conv[:-1].any() and (its[:-1] == 60).all()
    assert not cycled[-1] and conv[-1] and its[-1] == 1 and not est[-1].any()


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
    """A zero syndrome below 1/2 leaves the kernel after one round with
    the zero estimate, and ``decode`` gives what the kernel computes at
    every prior.  The one skip is the round-one table's: a block of
    fewer than 2^dv rows (Hamming's dv is 3) sends every row to the
    kernel, zero rows included, at any prior; a block of 2^dv rows or
    more settles the zero rows from its table of 2^dv columns, at 1/2
    as well, since round one gives them the zero estimate there too."""
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
    steps = []
    real = SpaWorkspace.horizontal_step
    monkeypatch.setattr(SpaWorkspace, "horizontal_step",
                        lambda ws: (steps.append(len(ws.checks.T)), real(ws)))
    h = hamming_matrix()
    syn = np.zeros((7, 3), dtype=np.uint8)
    syn[2] = (1, 0, 1)
    for prior in (0.1, 0.5):
        steps.clear()
        est, conv, its = decode_batch(h, syn, prior, 10)
        assert steps[0] == 7
        ref = [decode(h, row, prior, 10) for row in syn]
        assert np.array_equal(est, [r.estimate for r in ref])
        assert list(zip(conv, its)) == [(r.converged, r.iterations) for r in ref]
        assert not est[[0, 1, 3, 4, 5, 6]].any() and list(its[[0, 1, 3, 4, 5, 6]]) == [1] * 6
    for b in (8, spa.WIDTH):
        zero_rows = np.zeros((b, 3), dtype=np.uint8)
        for prior in (0.1, 0.5):
            steps.clear()
            est, conv, its = decode_batch(h, zero_rows, prior, 10)
            assert steps == [8] and not est.any() and conv.all() and (its == 1).all()


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9),
       st.sampled_from([1e-35, 0.02, 0.5, 0.7]), st.integers(1, 3))
@example(seed=3, dv=6, prior=0.02, max_iter=2)
@example(seed=3, dv=9, prior=0.02, max_iter=2)
def test_round_one_table_is_the_kernels_first_round(seed, dv, prior, max_iter):
    """A stream of blocks of 2^s, 2^s - 1 and ``WIDTH`` rows at one
    prior, then ``WIDTH`` rows whose per-row priors are all 0.02, s =
    min(dv, log2 ``WIDTH``): every block of at least 2^s rows looks up
    its rows in a round-one table of 2^s columns, one table per prior
    in a row of the stream, so from dv 7 up one ``WIDTH``-column table
    per prior.  Its rows that enter the kernel are exactly those that
    the kernel's first round does not settle or that have an
    unsatisfied check past a bit's first s slots, where the table does
    not look (the table's workspace reads no r before its horizontal
    step either).  The block of 2^s - 1 rows queues every row.  Every
    row equals the no-shortcut ``_kernel`` and ``decode``, and no
    workspace is wider than ``WIDTH``.  The priors run from hard
    messages (1e-35, where the stand-in falls back) past 1/2.  Bit 0
    has degree dv, and its last slot is a check of its own, so that
    check alone decides the bit: a pattern index that drops or
    misplaces that slot no longer settles the rows that are bit 0's
    syndrome.  From dv 7 up that slot is past the table, and a block of
    rows whose only unsatisfied check is that one queues every row."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(dv, dv + 6)), 2 * dv + 2
    arr = np.zeros((m, n), dtype=np.uint8)
    arr[m - 1, 0] = 1
    arr[rng.choice(m - 1, dv - 1, replace=False), 0] = 1
    for j in range(1, n):
        arr[rng.choice(m - 1, int(rng.integers(1, dv + 1)), replace=False), j] = 1
    graph = SpaGraph(BitMatrix.from_rows(arr))
    w = spa.WIDTH
    s = min(dv, w.bit_length() - 1)
    width = 1 << s
    slots = [np.flatnonzero(arr[:, j]) for j in range(n)]    # a bit's checks in slot order

    def past_table(syn):
        return any(syn[c[s:]].any() for c in slots)

    def rows(b):
        """Reachable, zero, uniformly random and bit 0's syndrome."""
        syn = graph.syndromes((rng.random((b, n)) < 0.15).astype(np.uint8))
        kind = rng.integers(0, 5, size=b)
        syn[kind == 0] = 0
        syn[kind == 1] = rng.integers(0, 2, size=(int((kind == 1).sum()), m))
        syn[kind == 2] = arr[:, 0]
        return syn

    only = np.zeros((width, m), dtype=np.uint8)
    only[:, m - 1] = 1      # bit 0's own check alone
    blocks = [(rows(width), prior), (rows(width - 1), prior), (rows(w), prior),
              (rows(w), np.full(w, 0.02))]
    admitted, widths, tables = [], [], []
    with _round_one_tables(tables), _nan_r_after_admit(admitted), _workspace_widths(widths):
        results = list(decode_stream(graph, iter(blocks), max_iter))
    assert [flip for flip, _ in tables] == ([prior, 0.02] if prior != 0.02 else [0.02])
    assert all(t.shape == (n, width) for _, t in tables) and max(widths) <= w
    queued = 0
    for (syn, p), (est, conv, its, _) in zip(blocks, results):
        priors = np.broadcast_to(p, (len(syn),))
        for i in range(len(syn)):
            ref_est, ref_conv, ref_its = _kernel(graph, syn[i], float(priors[i]), max_iter)
            res = decode(graph, syn[i], float(priors[i]), max_iter)
            assert np.array_equal(ref_est, est[i]) and np.array_equal(res.estimate, est[i])
            assert ((ref_conv, ref_its) == (res.converged, res.iterations)
                    == (bool(conv[i]), int(its[i])))
            if len(syn) >= width:
                queued += not (ref_conv and ref_its == 1) or past_table(syn[i])
            else:
                queued += 1
    assert sum(admitted) == len(tables) * width + queued
    admitted.clear()
    with _nan_r_after_admit(admitted):
        est, conv, its, _ = next(decode_stream(graph, [(only, prior)], max_iter))
    ref_est, ref_conv, ref_its = _kernel(graph, only[0], prior, max_iter)
    assert (est == ref_est).all() and (conv == ref_conv).all() and (its == ref_its).all()
    settled = ref_conv and ref_its == 1 and not past_table(only[0])
    assert admitted[0] == width and sum(admitted[1:]) == width * (not settled)
    if dv > s:
        assert past_table(only[0]) and admitted == [width, width]


def _round_one_tables(tables):
    """``spa._round_one`` patched to append every table it builds to
    ``tables`` as ``(flip, table)``."""
    build = spa._round_one

    def recording(graph, flip):
        tables.append((flip, build(graph, flip)))
        return tables[-1][1]

    return mock.patch.object(spa, "_round_one", recording)


def test_round_one_tables_are_built_per_prior_of_a_stream():
    """A spy on ``_round_one``.  A two-point serial sweep of ex1 (one
    stream, its two CSS halves stacked) builds one table per point,
    although each point sends two blocks.  On ex1 (dv 3) a block of
    2^dv = 8 rows or more at one prior builds one table of 8 columns; a
    block of mixed priors, one of 7 rows and ``decode`` of one syndrome
    build none.  bch63 (dv 17) builds one of ``WIDTH`` columns for a
    block of ``WIDTH`` rows and none for ``WIDTH`` - 1; its zero rows
    settle from the table, and every row equals ``decode``."""
    code = codes.build_eaqecc_binary(qc_ldpc.expand(qc_ldpc.make_ex1()), name="ex1")
    cfg = sim.SimConfig(code=code, p_grid=(0.01, 0.02), trials=300, seed=3)
    with mock.patch.object(spa, "_round_one", wraps=spa._round_one) as built:
        sim.sweep(cfg)
    assert [c.args[1] for c in built.call_args_list] == [2.0 * p / 3.0 for p in cfg.p_grid]
    graph = SpaGraph(code.css.hz)
    w = spa.WIDTH
    rng = np.random.default_rng(4)
    syn = graph.syndromes((rng.random((w, graph.n)) < 0.02).astype(np.uint8))
    assert len(graph.bit_slots_t) == 3
    tables = []
    with _round_one_tables(tables):
        decode_batch(graph, syn, np.r_[np.full(w - 1, 0.02), 0.03])
        decode_batch(graph, syn[:7], 0.02)
        decode(graph, syn[0], 0.02)
        assert tables == []
        decode_batch(graph, syn[:8], 0.02)
        decode_batch(graph, syn[:w - 1], 0.02)
    assert [(flip, t.shape) for flip, t in tables] == [(0.02, (graph.n, 8))] * 2
    bch = SpaGraph(codes.bch63_matrix())
    assert len(bch.bit_slots_t) == 17
    syn = bch.syndromes((rng.random((w, bch.n)) < 0.005).astype(np.uint8))
    zero = ~syn.any(axis=1)
    assert 0 < zero.sum() < w
    tables, admitted = [], []
    with _round_one_tables(tables):
        decode_batch(bch, syn[:w - 1], 0.005)
        assert tables == []
        with _nan_r_after_admit(admitted):
            est, conv, its = decode_batch(bch, syn, 0.005)
    assert [(flip, t.shape) for flip, t in tables] == [(0.005, (bch.n, w))]
    assert admitted[0] == w and sum(admitted[1:]) <= w - zero.sum()
    assert conv[zero].all() and (its[zero] == 1).all() and not est[zero].any()
    for i in range(w):
        res = decode(bch, syn[i], 0.005)
        assert np.array_equal(res.estimate, est[i])
        assert (res.converged, res.iterations) == (bool(conv[i]), int(its[i]))


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


@pytest.mark.parametrize("prior", [[0.1, 0.2], np.full((4, 1), 0.1)])
def test_prior_is_one_value_or_one_per_row(prior):
    """A prior of the wrong length or shape is rejected by name, with
    the row count, by every entry to the kernel."""
    h = hamming_matrix()
    syn = np.zeros((4, 3), dtype=np.uint8)
    message = r"prior_flip must be one value or one per row, got shape .* for 4 rows"
    with pytest.raises(ValueError, match=message):
        decode_batch(h, syn, prior)
    with pytest.raises(ValueError, match=message):
        list(decode_stream(h, [(syn[:1], 0.1), (syn, prior)]))
    with pytest.raises(ValueError, match=message):
        SpaWorkspace(SpaGraph(h), syn, prior)


def test_batched_workspace_shapes():
    """q is edge-major, [2, E + 1, B]; r is check-slot-major, [2, dc * m
    + 1, B], the same size on Hamming's checks, which all have weight
    4, and larger by the pad cells on checks of weights 3 and 2."""
    irregular = SpaGraph(BitMatrix.from_rows([[1, 1, 1, 0], [0, 0, 1, 1]]))
    ws = SpaWorkspace(irregular, np.zeros((4, 2), dtype=np.uint8), 0.1)
    ws.horizontal_step()
    ws.vertical_step()
    assert ws.q.shape == (2, 6, 4) and ws.r.shape == (2, 7, 4)
    h = hamming_matrix()
    g = SpaGraph(h)
    ws = SpaWorkspace(g, np.zeros((4, 3), dtype=np.uint8), 0.1)
    ws.horizontal_step()
    ws.vertical_step()
    assert ws.q.shape == ws.r.shape == (2, 13, 4)
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
    ws.admit(np.arange(4), np.zeros((4, h.rows), dtype=np.uint8), np.full(4, 0.02))
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
    round are pulled past it.  It comes back as well from an endless
    stream of blocks that round one settles whole, single-bit errors,
    whose rows never take a slot: a block is pulled only while the held
    blocks have fewer than ``WIDTH * max_iter`` rows."""
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    rng = np.random.default_rng(5)
    errs = (rng.random((2 * spa.WIDTH, h.cols)) < 0.03).astype(np.uint8)
    block = ((errs @ h.to_array().T) % 2, 0.02)
    pulled = []

    def source(block, count=None):
        for i in itertools.islice(itertools.count(), count):
            pulled.append(i)
            yield block

    max_iter = 3
    stream = decode_stream(h, source(block), max_iter)
    first = next(stream)
    assert len(pulled) * len(errs) <= len(errs) + spa.WIDTH * (max_iter + 1)
    assert np.array_equal(next(stream)[0], first[0])
    singles = (h.to_array().T)[rng.integers(0, h.cols, 2 * spa.WIDTH)]
    assert _round_one_settles(h, singles, 0.02).all()
    pulled.clear()
    # 500 blocks stand in for endless ones: an unbounded pull takes all
    est, conv, its, _ = next(decode_stream(h, source((singles, 0.02), 500), max_iter))
    assert conv.all() and (its == 1).all()
    assert len(pulled) * len(singles) < spa.WIDTH * max_iter + len(singles)


def test_held_rows_limit_narrows_and_widens_the_batch():
    """Blocks of 100 rows at 0.02, single-bit errors that round one
    settles and about 40 % uniformly random syndromes that it mostly
    does not: with ``max_iter`` 3 the limit of ``WIDTH * max_iter`` =
    192 held rows stops pulls while rows of the first blocks run, so
    the batch narrows, and a block pulled once the first is released
    widens it back through ``join``.  No take leaves more than the
    limit and one block held, and every row equals the reference
    decoder's."""
    h = qc_ldpc.expand(qc_ldpc.make_ex2())
    rng = np.random.default_rng(3)
    max_iter, blocks = 3, []
    for _ in range(6):
        syn = (h.to_array().T)[rng.integers(0, h.cols, 100)]
        noisy = rng.random(100) < 0.4
        syn[noisy] = rng.integers(0, 2, (int(noisy.sum()), h.rows))
        blocks.append((syn, 0.02))
    held, joined = [], []
    take, join = spa._Feed.take, SpaWorkspace.join

    def spy_take(feed, k):
        out = take(feed, k)
        held.append(feed.held)
        return out

    def spy_join(ws, other):
        joined.append(len(other.rows))
        join(ws, other)

    with mock.patch.object(spa._Feed, "take", spy_take), \
            mock.patch.object(SpaWorkspace, "join", spy_join):
        results = list(decode_stream(h, iter(blocks), max_iter))
    assert joined and max(held) < spa.WIDTH * max_iter + 100
    assert len(results) == len(blocks)
    for (syn, prior), (est, conv, its, _) in zip(blocks, results):
        for i in range(len(syn)):
            ref_est, ref_conv, ref_its = _reference_decode(h, syn[i], prior, max_iter)
            assert np.array_equal(ref_est, est[i])
            assert (ref_conv, ref_its) == (bool(conv[i]), int(its[i]))


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


def _workspace_widths(widths):
    """``SpaWorkspace.__init__`` patched to append every new workspace's
    batch width to ``widths``."""
    init = SpaWorkspace.__init__

    def recording(ws, *args):
        init(ws, *args)
        widths.append(len(ws.rows))

    return mock.patch.object(SpaWorkspace, "__init__", recording)


def _nan_r_after_admit(admitted):
    """``SpaWorkspace.admit`` patched to fill the admitted rows of r
    with NaN after the real call, counting rows into ``admitted``: a
    read of r before the next horizontal step rewrites it spreads NaN
    into the row's messages and estimate."""
    admit = SpaWorkspace.admit

    def poisoned(ws, slots, syndromes, flip):
        admit(ws, slots, syndromes, flip)
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
    # the round-one table's workspace, then the kernel's first fill and refills
    table, queued = _admitted_rows(h, syn, 0.04)
    assert admitted[:1] == table == [8]
    assert admitted[1] == spa.WIDTH < sum(admitted[1:]) == queued


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.sampled_from(PRIORS))
def test_admitted_rows_never_read_r_on_random_checks(seed, max_iter, prior):
    rng = np.random.default_rng(seed)
    h = random_bitmatrix(rng, int(rng.integers(1, 7)), int(rng.integers(3, 12)), 0.4)
    syn = _random_syndromes(rng, h, 2 * spa.WIDTH + 20)
    admitted = []
    with _nan_r_after_admit(admitted):
        _assert_rows_match_reference(h, syn, prior, max_iter, range(len(syn)))
    table, queued = _admitted_rows(h, syn, prior)
    kernel = admitted[len(table):]
    assert admitted[:len(table)] == table
    assert kernel[0] == min(queued, spa.WIDTH) and sum(kernel) == queued


@pytest.mark.parametrize("k", [1, 42, 43, spa.WIDTH])
def test_admit_restarts_the_admitted_rows_only(k):
    """Past two thirds of the batch, ``admit`` restarts every row's q
    and copies the others back; below, only the admitted rows.  Either
    way the admitted rows get their new prior and syndrome, and every
    other row keeps its messages, prior and syndrome."""
    h = qc_ldpc.expand(qc_ldpc.make_ex1())
    rng = np.random.default_rng(k)
    ws = SpaWorkspace(SpaGraph(h), _random_syndromes(rng, h, spa.WIDTH),
                      rng.choice(PRIORS, size=spa.WIDTH))
    ws.horizontal_step()
    ws.vertical_step()
    q, half, checks, prior = ws.q.copy(), ws.half.copy(), ws.checks.copy(), ws.prior.copy()
    slots = np.sort(rng.choice(spa.WIDTH, k, replace=False))
    new, flip = _random_syndromes(rng, h, k), rng.choice(PRIORS, size=k)
    ws.admit(slots, new, flip)
    prior[1, 0, slots], prior[0, 0, slots] = flip, 1.0 - flip
    q[:, :-1, slots] = prior[..., slots]
    half[:, slots] = 0.5 - new.T
    checks[:, slots] = new.T
    assert np.array_equal(ws.prior, prior) and np.array_equal(ws.q, q)
    assert np.array_equal(ws.half, half) and np.array_equal(ws.checks, checks)


def test_kept_rows_keep_their_posteriors():
    """After ``keep``, the posteriors are recomputed from r and the
    prior of the kept rows, and equal, bit for bit, those the vertical
    step's products gave before."""
    h = qc_ldpc.expand(qc_ldpc.make_ex1())
    rng = np.random.default_rng(6)
    ws = SpaWorkspace(SpaGraph(h), _random_syndromes(rng, h, spa.WIDTH),
                      rng.choice(PRIORS, size=spa.WIDTH))
    ws.horizontal_step()
    ws.vertical_step()
    post = ws.pseudoposteriors()
    rows = rng.random(spa.WIDTH) < 0.5
    ws.keep(rows)
    assert ws.pseudoposteriors().tobytes() == post[rows].tobytes()


def test_workspace_owns_every_batch_array():
    """After ``__init__``, ``admit``, ``keep`` and ``join``, every array
    that ``SpaWorkspace.BATCH`` names has the batch axis last, at the
    current width, and is C-contiguous; ``keep`` moves each copy in
    ``snaps`` to its row's new slot, below the width, and ``join``
    leaves them where they are."""
    h, graph = _named_graph("mackay")
    rng = np.random.default_rng(14)
    errs = (rng.random((spa.WIDTH, h.cols)) < 0.04).astype(np.uint8)
    syn = (errs @ h.to_array().T) % 2
    ws = SpaWorkspace(graph, syn, 0.04)

    def assert_owned(width):
        for name in ws.BATCH:
            a = getattr(ws, name)
            assert a.shape[-1] == width and a.flags.c_contiguous, name
        assert all(0 <= j < width for j in ws.snaps)

    assert_owned(spa.WIDTH)
    for _ in range(3 * spa._RING):
        ws.horizontal_step()
        ws.vertical_step()
        ws.age += 1
        _, ok = ws.decide()
        ws.exits(ok, 100)
    snaps = dict(ws.snaps)
    assert snaps and max(snaps) >= spa.WIDTH // 2
    ws.admit(np.arange(0, spa.WIDTH, 3), syn[::3], np.full(len(syn[::3]), 0.03))
    assert_owned(spa.WIDTH)
    kept = rng.random(spa.WIDTH) < 0.5
    kept[max(snaps)] = True
    ws.keep(kept)
    assert_owned(int(kept.sum()))
    slot = np.cumsum(kept) - 1
    assert ws.snaps == {int(slot[j]): c for j, c in snaps.items() if kept[j]}
    assert max(snaps) > max(ws.snaps)
    snaps = dict(ws.snaps)
    ws.join(SpaWorkspace(graph, syn[:5], 0.03))
    assert_owned(int(kept.sum()) + 5)
    assert ws.snaps == snaps and (ws.age[-5:] == 0).all()


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
        assert np.array_equal(ok, ((tentative @ arr.T) % 2 == ws.checks.T).all(axis=1))
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
    """Blocks of 1, 5 all-zero, 2 ``WIDTH`` + 3 and 2 rows, the third
    of rows that round one does not settle, so that its round-one table
    queues them all: the first
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
        errs = (rng.random((8 * b, h.cols)) < prior).astype(np.uint8)
        syn = (errs @ h.to_array().T) % 2
        if b > spa.WIDTH:
            syn = syn[~_round_one_settles(h, syn, prior)]
        blocks.append((syn[:b], prior))
    assert [len(syn) for syn, _ in blocks] == [1, 5, 2 * spa.WIDTH + 3, 2]
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


def test_stand_in_resumes_after_tiny_prior_rows_leave():
    """An ex2 stream of a block at prior 1e-35, below ``_PRIOR_MIN``,
    then a block at 0.02: the vertical step reads the stand-in's
    condition from the rows present, so once the tiny-prior rows have
    left it takes the stand-in path again, and every block still equals
    ``decode_batch`` on that block alone."""
    h, graph = _named_graph("ex2")
    rng = np.random.default_rng(13)
    blocks = []
    for prior in (1e-35, 0.02):
        errs = (rng.random((spa.WIDTH, h.cols)) < 0.03).astype(np.uint8)
        blocks.append(((errs @ h.to_array().T) % 2, prior))
    stand_in = []
    vertical = SpaWorkspace._vertical

    def spy_vertical(ws, r, phi):
        if phi != spa._FLOOR:
            stand_in.append(ws.prior[1].min())
        return vertical(ws, r, phi)

    with mock.patch.object(SpaWorkspace, "_vertical", spy_vertical):
        results = list(decode_stream(graph, iter(blocks), 20))
    assert stand_in and min(stand_in) == 0.02
    for (syn, prior), got in zip(blocks, results):
        alone = decode_batch(graph, syn, prior, 20)
        for a, b in zip(got, alone):
            assert np.array_equal(a, b)
