import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import codes, f2, gf4, qc_ldpc, sgs
from stabkit.codes import bch63_matrix, css_sp_matrix, hamming_matrix, q15_matrix
from stabkit.f2 import BitMatrix
from stabkit.pauli import PauliVec, matrix_to_paulis, paulis_to_matrix, symplectic_product

from util import random_bitmatrix


def _random_subspace(rng, n, dim):
    """dim independent random vectors of (Z_2)^{2n}."""
    vecs = []
    rows = []
    while len(vecs) < dim:
        v = int(rng.integers(1, 1 << (2 * n)))
        trial, _ = f2._echelon(rows + [v], 2 * n)
        if len(trial) > len(rows):
            rows = trial
            vecs.append(PauliVec.from_packed(v, n))
    return vecs


def test_single_isotropic_vector():
    g1 = PauliVec(2, 0b01, 0)
    dec = sgs.decompose([g1])
    assert (dec.c, dec.ell) == (0, 1)


def test_single_hyperbolic_pair():
    g1 = PauliVec(2, 0b01, 0)
    h1 = PauliVec(2, 0, 0b01)
    dec = sgs.decompose([g1, h1])
    assert (dec.c, dec.ell) == (1, 0)


def test_q15_image_has_four_pairs():
    hsp = gf4.f4_to_symplectic(q15_matrix())
    vecs = [PauliVec.from_packed(hsp.row(i), 15) for i in range(hsp.rows)]
    dec = sgs.decompose(vecs)
    assert dec.c == 4
    assert 2 * dec.c + dec.ell == f2.rank(hsp)


def test_symp_dim_steane_zero():
    hsp = css_sp_matrix(hamming_matrix())
    vecs = [PauliVec.from_packed(hsp.row(i), 7) for i in range(hsp.rows)]
    assert sgs.symp_dim(vecs) == 0


def test_symp_dim_full_standard_basis():
    n = 5
    vecs = [PauliVec(n, 1 << i, 0) for i in range(n)]
    vecs += [PauliVec(n, 0, 1 << i) for i in range(n)]
    assert sgs.symp_dim(vecs) == n


def test_symp_dim_bch_css():
    h2 = bch63_matrix()
    hsp = css_sp_matrix(h2)
    vecs = [PauliVec.from_packed(hsp.row(i), 63) for i in range(hsp.rows)]
    assert sgs.symp_dim(vecs) == 6


def test_empty_input():
    dec = sgs.decompose([], n=3)
    assert (dec.c, dec.ell) == (0, 0)
    assert len(dec.completion) == 3


def test_empty_input_needs_n():
    with pytest.raises(ValueError):
        sgs.decompose([])


def _check_block_j_structure(dec):
    """Full output basis must satisfy u_i . v_j = delta_ij and all
    same-kind products vanish."""
    us = [u for u, _ in dec.full_basis()]
    vs = [v for _, v in dec.full_basis()]
    assert len(us) == dec.n
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert symplectic_product(u, v) == (1 if i == j else 0)
        for j, u2 in enumerate(us):
            assert symplectic_product(u, u2) == 0
    for i, v in enumerate(vs):
        for j, v2 in enumerate(vs):
            assert symplectic_product(v, v2) == 0


def test_random_subspaces_span_gram_and_shuffle():
    """200 random subspaces of (Z_2)^16: span preservation, block-J Gram
    structure, and (c, ell) invariance under input shuffles."""
    rng = np.random.default_rng(20)
    n = 8
    for trial in range(200):
        dim = int(rng.integers(1, 13))
        vecs = _random_subspace(rng, n, dim)
        dec = sgs.decompose(vecs)
        assert 2 * dec.c + dec.ell == dim

        # span preservation: output generators span exactly the input rowspace
        inp = paulis_to_matrix(vecs)
        out = dec.span_matrix()
        assert f2.rank(inp) == f2.rank(out) == f2.rank(inp.vstack(out)) == dim

        _check_block_j_structure(dec)

        # shuffling the input basis cannot change the invariants
        perm = rng.permutation(dim)
        dec2 = sgs.decompose([vecs[i] for i in perm])
        assert (dec2.c, dec2.ell) == (dec.c, dec.ell)


def test_classification_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        vecs = _random_subspace(rng, 6, int(rng.integers(1, 10)))
        dec = sgs.decompose(vecs)
        regen = [u for p in dec.pairs for u in p] + list(dec.isotropic)
        dec2 = sgs.decompose(regen)
        assert (dec2.c, dec2.ell) == (dec.c, dec.ell)


def test_isotropic_dimension_unique_across_orders():
    rng = np.random.default_rng(11)
    vecs = _random_subspace(rng, 8, 9)
    reference = sgs.decompose(vecs)
    for _ in range(10):
        perm = rng.permutation(len(vecs))
        dec = sgs.decompose([vecs[i] for i in perm])
        assert (dec.c, dec.ell) == (reference.c, reference.ell)


def test_css_inputs_match_gram_rank():
    """symp_dim of css_sp_matrix(hz, hx) equals rank(hz hx^T): on 100
    random inputs with hz = hx, 100 random distinct pairs, and the hi
    pair, whose symp_dim is 0 while rank(hz hz^T) is 16."""
    rng = np.random.default_rng(31)
    pairs = []
    for distinct in (False, True):
        for _ in range(100):
            cols = int(rng.integers(2, 11))
            hz = random_bitmatrix(rng, int(rng.integers(1, 7)), cols)
            hx = random_bitmatrix(rng, int(rng.integers(1, 7)), cols) if distinct else hz
            pairs.append((hz, hx))
    hi = codes.NAMED["hi"].build().css
    pairs.append((hi.hz, hi.hx))
    for hz, hx in pairs:
        vecs = [PauliVec.from_packed(r, hz.cols) for r in css_sp_matrix(hz, hx).bits]
        assert sgs.symp_dim(vecs) == f2.rank(f2.mat_mul(hz, hx.transpose()))
    assert sgs.symp_dim(matrix_to_paulis(css_sp_matrix(hi.hz, hi.hx))) == 0
    assert f2.rank(f2.mat_mul(hi.hz, hi.hz.transpose())) == 16


def test_dependent_input_rows_are_dropped():
    g1 = PauliVec(3, 0b001, 0)
    g2 = PauliVec(3, 0b010, 0)
    g12 = g1 * g2
    dec = sgs.decompose([g1, g2, g12])
    assert (dec.c, dec.ell) == (0, 2)


# -- equivalence with the re-eliminating completion ------------------------


def _oracle_symp(a, b, n, mask):
    return (bin((a & mask) & (b >> n)).count("1") + bin((b & mask) & (a >> n)).count("1")) & 1


def _oracle_decompose(vecs, n):
    """Reference decomposition that completes the basis by re-running a
    full elimination on span + [e_k] for every unit vector e_k."""
    mask = (1 << n) - 1
    reduced, _ = f2._echelon([v.packed() for v in vecs], 2 * n)
    m = len(reduced)
    work = list(reduced)
    span = list(reduced)
    for k in range(2 * n):
        if len(work) == 2 * n:
            break
        cand = 1 << k
        trial, _ = f2._echelon(span + [cand], 2 * n)
        if len(trial) > len(span):
            work.append(cand)
            span = trial

    pairs, isotropic, iso_partners, completion = [], [], [], []
    m_rem = m
    for _ in range(n):
        u = work[0]
        j = next(i for i in range(1, len(work)) if _oracle_symp(u, work[i], n, mask))
        v = work[j]
        if j + 1 <= m_rem:
            work[j], work[1] = work[1], work[j]
            rest = work[2:]
            m_rem -= 2
            pairs.append((u, v))
        else:
            work[j], work[-1] = work[-1], work[j]
            rest = work[1:-1]
            if m_rem >= 1:
                m_rem -= 1
                isotropic.append(u)
                iso_partners.append(v)
            else:
                completion.append((u, v))
        work = [
            w ^ (u if _oracle_symp(v, w, n, mask) else 0)
            ^ (v if _oracle_symp(u, w, n, mask) else 0)
            for w in rest
        ]

    pv = lambda p: PauliVec.from_packed(p, n)
    return sgs.GroupDecomposition(
        n=n,
        c=len(pairs),
        ell=len(isotropic),
        pairs=tuple((pv(u), pv(v)) for u, v in pairs),
        isotropic=tuple(pv(u) for u in isotropic),
        iso_partners=tuple(pv(v) for v in iso_partners),
        completion=tuple((pv(u), pv(v)) for u, v in completion),
    )


def _assert_same_as_oracle(vecs, n):
    got = sgs.decompose(vecs, n=n)
    want = _oracle_decompose(vecs, n)
    assert (got.n, got.c, got.ell) == (want.n, want.c, want.ell)
    assert got.pairs == want.pairs
    assert got.isotropic == want.isotropic
    assert got.iso_partners == want.iso_partners
    assert got.completion == want.completion


@st.composite
def _spans(draw):
    """(vectors, n) with n <= 12: random, empty, full-rank or padded with
    dependent combinations of the drawn vectors."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "empty", "full", "dependent"]))
    vec = st.integers(0, (1 << (2 * n)) - 1)
    if kind == "empty":
        rows = []
    elif kind == "full":
        # unit vectors, each mixed with arbitrary later ones: invertible
        rows = [(1 << k) | (draw(vec) >> (k + 1) << (k + 1)) for k in range(2 * n)]
        rows = draw(st.permutations(rows))
    else:
        rows = draw(st.lists(vec, max_size=2 * n + 2))
        if kind == "dependent" and rows:
            picks = draw(st.lists(st.lists(st.sampled_from(rows), min_size=1), min_size=1,
                                  max_size=4))
            for combo in picks:
                acc = 0
                for r in combo:
                    acc ^= r
                rows.append(acc)
    return [PauliVec.from_packed(r, n) for r in rows], n


@settings(max_examples=300, deadline=None)
@given(_spans())
def test_decompose_matches_reeliminating_oracle(span):
    vecs, n = span
    _assert_same_as_oracle(vecs, n)


def _sp_vecs(hsp):
    n = hsp.cols // 2
    return [PauliVec.from_packed(hsp.row(i), n) for i in range(hsp.rows)], n


@pytest.mark.parametrize("name", ["ex1", "bch63", "q15"])
def test_decompose_matches_oracle_on_paper_codes(name):
    if name == "ex1":
        hsp = css_sp_matrix(qc_ldpc.expand(qc_ldpc.make_ex1()))
    elif name == "bch63":
        hsp = css_sp_matrix(bch63_matrix())
    else:
        hsp = gf4.f4_to_symplectic(q15_matrix())
    _assert_same_as_oracle(*_sp_vecs(hsp))


@pytest.mark.parametrize("fn", [sgs.decompose, sgs.split_span])
def test_decompose_eliminates_once(monkeypatch, fn):
    calls = []
    real = sgs._echelon

    def counting(rows, cols):
        calls.append(cols)
        return real(rows, cols)

    monkeypatch.setattr(sgs, "_echelon", counting)
    vecs, n = _sp_vecs(css_sp_matrix(bch63_matrix()))
    fn(vecs, n=n)
    assert calls == [2 * n]


# -- builders stop where the input span is used up -------------------------


def _css_build_inputs():
    """(label, hz, hx): the CSS pair of every NAMED code that has one,
    which covers four of the build ladder's five binary inputs (bch63,
    ex1, ex2, mackay), and the fifth, the r = 32 analogue of ex1
    (n = 256)."""
    out = []
    for name, entry in codes.NAMED.items():
        css = entry.build().css
        if css is not None:
            out.append((name, css.hz, css.hx))
    ex256 = qc_ldpc.expand(qc_ldpc.ExponentMatrix.from_lists(
        32, [[1] * 8, list(range(1, 9)), list(range(1, 16, 2))]))
    return out + [("n256", ex256, ex256)]


def test_build_runs_no_completion_round(monkeypatch):
    """``build_from_sp`` never runs ``_rounds``, the engine that completes
    the basis, so it skips the k completion rounds of ``decompose``; its
    pairs and isotropic part are ``decompose``'s."""
    calls = []
    real = sgs._rounds

    def counting(rows, n):
        calls.append(n)
        return real(rows, n)

    monkeypatch.setattr(sgs, "_rounds", counting)
    inputs = _css_build_inputs()
    assert len(inputs) >= 6
    for label, hz, hx in inputs:
        calls.clear()
        hsp = css_sp_matrix(hz, hx)
        code = codes.build_from_sp(hsp, css=codes.CssPair(hz=hz, hx=hx))
        assert calls == [], label
        dec = sgs.decompose(matrix_to_paulis(hsp))
        assert calls == [code.n], label
        assert code.k > 0 and len(dec.completion) == code.k, label
        assert (code.gens_e, code.gens_i) == (dec.pairs, dec.isotropic), label


# -- split_span: the span rounds without explicit extension rows -----------


def _assert_split_same_as_oracle(vecs, n):
    want = _oracle_decompose(vecs, n)
    assert sgs.split_span(vecs, n=n) == (want.pairs, want.isotropic)


@st.composite
def _isotropic_heavy_spans(draw):
    """(vectors, n) with n <= 12 whose span is mostly isotropic: rows
    inside one (z or x) half, which pairwise commute, plus up to two
    arbitrary rows, so that most span rounds pick an extension partner."""
    n = draw(st.integers(2, 12))
    shift = draw(st.sampled_from([0, n]))
    rows = [r << shift for r in draw(st.lists(st.integers(1, (1 << n) - 1), min_size=2,
                                               max_size=n))]
    rows += draw(st.lists(st.integers(0, (1 << (2 * n)) - 1), max_size=2))
    return [PauliVec.from_packed(r, n) for r in draw(st.permutations(rows))], n


@settings(max_examples=300, deadline=None)
@given(st.one_of(_spans(), _isotropic_heavy_spans()))
def test_split_span_matches_reeliminating_oracle(span):
    vecs, n = span
    _assert_split_same_as_oracle(vecs, n)


def test_split_span_matches_oracle_on_build_inputs():
    """Every NAMED code with a CSS pair and the n = 256 ladder input;
    mackay and hi (c = 0) run isotropic rounds only."""
    for _, hz, hx in _css_build_inputs():
        _assert_split_same_as_oracle(*_sp_vecs(css_sp_matrix(hz, hx)))


# -- the extension vectors in closed form ----------------------------------


def _loop_extension_ids(rows, n):
    """Reference for ``sgs._start``'s extension vectors: each unit vector
    e_k joins when it does not reduce to zero against the span so far,
    whose rows are keyed by their lowest set bit."""
    wide = 2 * n
    reduced, pivots = f2._echelon(rows, wide)
    ext = []
    basis = dict(zip(pivots, reduced))
    for k in range(wide):
        if len(reduced) + len(ext) == wide:
            break
        w = 1 << k
        while w:
            low = (w & -w).bit_length() - 1
            row = basis.get(low)
            if row is None:
                basis[low] = w
                ext.append(1 << k)
                break
            w ^= row
    return ext


def _assert_closed_form_ids(vecs, n):
    rows = [v.packed() for v in vecs]
    reduced, ext = sgs._start(rows, n)
    assert reduced == f2._echelon(rows, 2 * n)[0]
    assert ext == _loop_extension_ids(rows, n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_spans(), _isotropic_heavy_spans()))
def test_extension_ids_match_membership_loop(span):
    _assert_closed_form_ids(*span)


def test_extension_ids_match_membership_loop_on_build_inputs():
    for _, hz, hx in _css_build_inputs():
        _assert_closed_form_ids(*_sp_vecs(css_sp_matrix(hz, hx)))


# -- the qubit count --------------------------------------------------------


@pytest.mark.parametrize("fn", [sgs.decompose, sgs.split_span, sgs.symp_dim])
def test_rejects_n_that_conflicts_with_the_generators(fn):
    with pytest.raises(ValueError, match=r"generators act on 2 qubits, but n=5 was given"):
        fn([PauliVec(2, 1, 0)], n=5)
    assert fn([PauliVec(2, 1, 0)], n=2) == fn([PauliVec(2, 1, 0)])


@pytest.mark.parametrize("fn", [sgs.decompose, sgs.split_span, sgs.symp_dim])
@pytest.mark.parametrize("n", [0, -2])
def test_rejects_nonpositive_n(fn, n):
    with pytest.raises(ValueError, match=rf"qubit count n must be at least 1, got {n}"):
        fn([], n=n)
    with pytest.raises(ValueError, match=rf"qubit count n must be at least 1, got {n}"):
        fn([PauliVec(2, 1, 0)], n=n)
