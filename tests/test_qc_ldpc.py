import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabkit import codes, f2, qc_ldpc
from stabkit.f2 import BitMatrix
from stabkit.qc_ldpc import (
    ExponentEntry,
    ExponentMatrix,
    circ_rank,
    circ_transpose,
    dual_containing_qc,
    expand,
    expansion_rank_poly,
    girth_exact,
    girth_ge_6,
    hermitian_corank_poly,
    hermitian_poly_product,
    hermitian_rank_poly,
    is_multiplicity_even,
    is_multiplicity_free,
    make_ex1,
    make_ex2,
    make_ex_hi,
    make_ex_mackay,
    parse_exponent,
    format_exponent,
    poly_deg,
    poly_gcd,
    poly_mod,
    poly_mul,
    qc_f2_rank,
    rank_bound,
    row_difference,
)

from util import (exponent_matrices, mutated_text, random_bitmatrix,
                  random_exponent_matrix, random_tree_check_matrix)


def _type_i_intro():
    # r=16 (3,8)-regular all-monomial example with a multiplicity-even
    # row difference
    return ExponentMatrix.from_lists(16, [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [2, 5, 3, 5, 2, 5, 3, 5],
        [2, 3, 4, 5, 6, 7, 8, 9],
    ])


def _type_ii_intro():
    # r=16 (3,4) example with binomial and zero entries
    return ExponentMatrix.from_lists(16, [
        [(1, 4), None, (7, 10), None],
        [5, 6, 11, 12],
        [None, (2, 9), None, (7, 13)],
    ])


# -- circulant polynomials ---------------------------------------------------

def _poly(*exponents) -> int:
    return sum(1 << e for e in exponents)


def _circ(p: int, r: int) -> BitMatrix:
    return BitMatrix.packed_circulant(p, r)


def test_circ_rank_zero_and_identity():
    assert circ_rank(0, 8) == 0
    assert circ_rank(1, 8) == 8


def test_circ_rank_even_support_matches_elimination():
    p = _poly(*range(0, 16, 2))
    assert circ_rank(p, 16) == f2.rank(_circ(p, 16)) == 2


def test_rank_theorem_spaced_support():
    # support at multiples of p gives rank p
    for p_, q_ in ((2, 3), (2, 8), (4, 4), (3, 5)):
        r = p_ * q_
        poly = _poly(*(p_ * i for i in range(q_)))
        assert circ_rank(poly, r) == p_
        assert f2.rank(_circ(poly, r)) == p_


def test_rank_theorem_initial_run():
    # support on 0..p-1 gives rank r - p + 1
    for p_, q_ in ((2, 3), (4, 4), (2, 8)):
        r = p_ * q_
        poly = _poly(*range(p_))
        assert circ_rank(poly, r) == r - p_ + 1
        assert f2.rank(_circ(poly, r)) == r - p_ + 1


def test_divisor_rank_upper_bound():
    """A weight-w divisor of X^r - 1 has rank at most r - w + 1 (its
    degree is at least w - 1)."""
    cases = [
        (16, _poly(0, 8)),                # X^8 + 1
        (16, _poly(*range(0, 16, 2))),
        (12, _poly(0, 1, 2)),
        (6, _poly(0, 3)),
    ]
    for r, p in cases:
        modulus = (1 << r) | 1
        assert poly_mod(modulus, p) == 0 or \
            poly_gcd(p, modulus) == p  # really a divisor
        w = bin(p).count("1")
        assert circ_rank(p, r) <= r - w + 1


def test_poly_ring_isomorphism_random():
    """Adding/multiplying circulant polynomials agrees with bit-matrix
    arithmetic under expansion."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = int(rng.integers(2, 33))
        a = int(rng.integers(1 << r))
        b = int(rng.integers(1 << r))
        ma, mb = _circ(a, r), _circ(b, r)
        sum_bits = tuple(x ^ y for x, y in zip(ma.bits, mb.bits))
        assert _circ(a ^ b, r).bits == sum_bits
        product = poly_mod(poly_mul(a, b), (1 << r) | 1)
        assert _circ(product, r).bits == f2.mat_mul(ma, mb).bits


def test_transpose_matches_matrix_transpose():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = int(rng.integers(2, 20))
        p = int(rng.integers(1 << r))
        assert _circ(circ_transpose(p, r), r).bits == _circ(p, r).transpose().bits


_REDUCED = st.integers(1, 64).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, (1 << r) - 1)))
_UNREDUCED = st.integers(1, 64).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, (1 << (3 * r)) - 1)))


@settings(max_examples=200, deadline=None)
@given(_REDUCED)
def test_circ_transpose_is_an_involution(rp):
    r, p = rp
    assert circ_transpose(circ_transpose(p, r), r) == p


@settings(max_examples=300, deadline=None)
@given(_UNREDUCED)
@example((1, 0b101))
@example((1, 0b100))
def test_cyclic_fold_matches_poly_mod(rp):
    """At r = 1, X - 1 = X + 1 and the fold is the parity of p."""
    r, p = rp
    assert qc_ldpc._cyclic(p, r) == poly_mod(p, (1 << r) | 1)


# -- expansion -----------------------------------------------------------------

def _expand_oracle(e: ExponentMatrix) -> BitMatrix:
    """Per-bit expansion: X^k puts row i's one at column (i + k) mod r."""
    r = e.r
    out_rows = [0] * (e.J * r)
    for bj, row in enumerate(e.entries):
        for bl, entry in enumerate(row):
            for k in entry.exponents:
                for i in range(r):
                    out_rows[bj * r + i] |= 1 << (bl * r + (i + k) % r)
    return BitMatrix(e.J * r, e.L * r, tuple(out_rows))


def _proper_self_difference(e: ExponentMatrix, i: int) -> list[int]:
    """Residues of row i against itself with the diagonal x - x terms
    dropped."""
    out = []
    for a in e.entries[i]:
        for x in a.exponents:
            for y in a.exponents:
                if x != y:
                    out.append((x - y) % e.r)
    return out


def _girth_ge_6_oracle(e: ExponentMatrix) -> bool:
    for i in range(e.J):
        self_res = _proper_self_difference(e, i)
        if len(self_res) != len(set(self_res)):
            return False
        for j in range(i + 1, e.J):
            if not is_multiplicity_free(row_difference(e, i, j)):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(exponent_matrices())
def test_expand_and_girth_predicate_match_oracles(e):
    h = expand(e)
    assert h == _expand_oracle(e)
    assert girth_ge_6(e) == _girth_ge_6_oracle(e)
    assert expansion_rank_poly(e) == f2.rank(h)
    assert hermitian_rank_poly(e) == f2.rank(f2.mat_mul(h, h.transpose()))


def test_expand_monomial_zero_is_identity():
    e = ExponentMatrix.from_lists(3, [[0]])
    assert expand(e).bits == BitMatrix.identity(3).bits


def test_expand_type_i_regular():
    h = expand(_type_i_intro())
    assert (h.rows, h.cols) == (48, 128)
    arr = h.to_array()
    assert (arr.sum(axis=0) == 3).all()
    assert (arr.sum(axis=1) == 8).all()


def test_expand_type_ii_layer_one_has_4cycles():
    e = _type_ii_intro()
    h = expand(e)
    layer1 = h.submatrix(range(16))
    assert (layer1.to_array().sum(axis=1) == 4).all()
    assert girth_exact(layer1) == 4


# -- row differences and multiplicity -------------------------------------------

def test_row_difference_type_i():
    e = _type_i_intro()
    d21 = row_difference(e, 1, 0)
    assert [c[0] for c in d21] == [1, 4, 2, 4, 1, 4, 2, 4]
    d31 = row_difference(e, 2, 0)
    assert [c[0] for c in d31] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert is_multiplicity_even(d21)
    assert not is_multiplicity_even(d31)
    assert is_multiplicity_free(d31)
    d32 = row_difference(e, 2, 1)
    assert [c[0] for c in d32] == [0, 14, 1, 0, 4, 2, 5, 4]
    assert not is_multiplicity_even(d32)


def test_row_difference_type_ii():
    e = _type_ii_intro()
    d32 = row_difference(e, 2, 1)
    assert [Counter(c) for c in d32] == [
        Counter(), Counter((12, 3)), Counter(), Counter((11, 1))]
    assert is_multiplicity_free(d32)
    d22 = row_difference(e, 1, 1)
    assert d22 == ((0,), (0,), (0,), (0,))
    d11 = row_difference(e, 0, 0)
    assert [Counter(c) for c in d11] == [
        Counter((0, 3, 13, 0)), Counter(), Counter((0, 3, 13, 0)), Counter()]
    assert is_multiplicity_even(d11)
    d31 = row_difference(e, 2, 0)
    assert all(c == () for c in d31)
    assert is_multiplicity_even(d31) and is_multiplicity_free(d31)


def test_empty_difference_vector():
    e = ExponentMatrix.from_lists(4, [[None, None]])
    d = row_difference(e, 0, 0)
    assert is_multiplicity_even(d) and is_multiplicity_free(d)


# -- girth ------------------------------------------------------------------------

def test_girth_predicate_examples():
    assert girth_ge_6(make_ex1())
    assert not girth_ge_6(_type_ii_intro())  # layer 1 is multiplicity even
    assert girth_ge_6(make_ex2())


def _girth_oracle(h: BitMatrix) -> float:
    """Girth by a separate breadth-first search from every vertex: a
    non-tree edge (u, w) closes a cycle of length d(u) + d(w) + 1."""
    arr = h.to_array()
    m, n = arr.shape
    total = m + n
    adj: list[list[int]] = [[] for _ in range(total)]
    for i, j in zip(*np.nonzero(arr)):
        adj[int(i)].append(m + int(j))
        adj[m + int(j)].append(int(i))
    best = math.inf
    for s in range(total):
        dist_s = {s: 0}
        parent_s = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if 2 * dist_s[u] + 2 > best:
                break
            for w in adj[u]:
                if w not in dist_s:
                    dist_s[w] = dist_s[u] + 1
                    parent_s[w] = u
                    queue.append(w)
                elif parent_s[u] != w and parent_s[w] != u:
                    best = min(best, dist_s[u] + dist_s[w] + 1)
        if best == 4:
            return 4
    return best


@st.composite
def _girth_cases(draw):
    """(kind, check matrix) with m, n <= 16: random at density 0.05-0.6
    or a forest, with some rows and columns cleared.  Kind "duplicate"
    then copies a column of weight >= 2 onto another: a 4-cycle."""
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.floats(0.05, 0.6))
    kind = draw(st.sampled_from(("random", "duplicate", "forest")))
    if kind == "forest":
        # a tree with edges dropped at random stays acyclic
        arr = random_tree_check_matrix(rng, n, m).to_array()
        arr &= (rng.random((m, n)) >= density / 2).astype(np.uint8)
    else:
        arr = (rng.random((m, n)) < density).astype(np.uint8)
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    arr[sorted(zero_rows), :] = 0
    arr[:, sorted(zero_cols)] = 0
    if kind == "duplicate" and min(m, n) < 2:
        kind = "random"
    elif kind == "duplicate":
        i1, i2 = rng.choice(m, size=2, replace=False)
        j1, j2 = rng.choice(n, size=2, replace=False)
        arr[[i1, i2], j1] = 1
        arr[:, j2] = arr[:, j1]
    return kind, BitMatrix.from_rows(arr)


@settings(max_examples=400, deadline=None)
@given(_girth_cases())
def test_girth_exact_matches_oracle(case):
    kind, h = case
    g, want = girth_exact(h), _girth_oracle(h)
    assert g == want and str(g) == str(want)
    if kind == "duplicate":
        assert g == 4
    elif kind == "forest":
        assert g == math.inf


def _named_qc_expansions():
    return [(label, expand(e)) for entry in codes.NAMED.values() if entry.exponents
            for label, e in entry.exponents()]


@pytest.mark.parametrize("label,h", _named_qc_expansions() + [
    (f"mackay{seed}", make_ex_mackay(seed=seed)) for seed in range(3)])
def test_girth_exact_matches_oracle_on_named_checks(label, h):
    assert girth_exact(h) == _girth_oracle(h)


def test_girth_exact_n2048_ex1_analogue():
    e = ExponentMatrix.from_lists(256, [
        [1] * 8,
        list(range(1, 9)),
        list(range(1, 16, 2)),
    ])
    h = expand(e)
    assert (h.rows, h.cols) == (768, 2048)
    assert girth_exact(h) == 6


def test_girth_exact_small_cases():
    assert girth_exact(BitMatrix.from_rows([[1, 1], [1, 1]])) == 4
    assert girth_exact(BitMatrix.from_rows([[1, 1]])) == float("inf")


def test_girth_exact_ex1():
    assert girth_exact(expand(make_ex1())) == 6


def test_girth_exact_ex2_is_six():
    """The printed Type-II example expands with an explicit 6-cycle
    (rows 0, 1 of layer one and row 12 of layer two), so its true girth
    is 6 even though girth >= 6 holds."""
    h = expand(make_ex2())
    arr = h.to_array()
    for i, j in [(0, 2), (1, 2), (1, 34), (28, 34), (28, 1), (0, 1)]:
        assert arr[i, j] == 1
    assert girth_exact(h) == 6


def test_girth_predicate_agrees_with_exact_on_random_corpus():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        e = random_exponent_matrix(rng)
        h = expand(e)
        if h.is_zero():
            continue
        assert girth_ge_6(e) == (girth_exact(h) >= 6), format_exponent(e)
        checked += 1


def test_no_dual_containing_with_girth_6_on_corpus():
    rng = np.random.default_rng(10)
    for _ in range(100):
        e = random_exponent_matrix(rng)
        assert not (dual_containing_qc(e) and girth_ge_6(e))


def test_dual_containing_matches_bit_level():
    rng = np.random.default_rng(11)
    for _ in range(60):
        e = random_exponent_matrix(rng)
        h = expand(e)
        hhT = f2.mat_mul(h, h.transpose())
        assert dual_containing_qc(e) == hhT.is_zero()


# -- Hermitian products and ranks ----------------------------------------------

def test_hermitian_product_ex1():
    e = make_ex1()
    hat = hermitian_poly_product(e)
    expect_a = _poly(*range(8))
    expect_b = _poly(*range(0, 16, 2))
    for i in range(3):
        assert hat[i][i] == 0
    assert hat[1][0] == expect_a
    assert hat[2][1] == expect_a
    assert hat[2][0] == expect_b


def test_hermitian_product_ex2():
    hat = hermitian_poly_product(make_ex2())
    assert hat[1][1] == 0
    assert hat[0][0] == _poly(*range(1, 16, 2))


def test_hermitian_grid_matches_bit_product():
    rng = np.random.default_rng(12)
    mats = [make_ex1(), make_ex2()] + [random_exponent_matrix(rng, r_max=12)
                                       for _ in range(20)]
    for e in mats:
        h = expand(e)
        hhT = f2.mat_mul(h, h.transpose())
        hat = hermitian_poly_product(e)
        grid_rows = []
        for i in range(e.J):
            blocks = [_circ(p, e.r) for p in hat[i]]
            row = blocks[0]
            for b in blocks[1:]:
                row = row.hstack(b)
            grid_rows.append(row)
        stacked = grid_rows[0]
        for rowm in grid_rows[1:]:
            stacked = stacked.vstack(rowm)
        assert stacked.bits == hhT.bits


def test_rank_bound_examples():
    """The values ``rank_bound``'s docstring quotes, next to the ranks
    they miss on either side."""
    hi_c, hi_d = make_ex_hi()
    small = ExponentMatrix.from_lists(5, [[2, 0, 0, 0], [0, 3, 2, 3]])
    for e, bound, rank in ((make_ex1(), 27, 18), (make_ex2(), 27, 18),
                           (hi_c, 12, 16), (hi_d, 12, 16), (small, 4, 8)):
        assert rank_bound(e) == bound
        assert hermitian_rank_poly(e) == rank
    zero = ExponentMatrix.from_lists(4, [[None, None], [None, None]])
    assert rank_bound(zero) == 0


def test_rank_bound_dominates_actual():
    for e in (make_ex1(), make_ex2()):
        h = expand(e)
        actual = f2.rank(f2.mat_mul(h, h.transpose()))
        assert actual <= rank_bound(e)


def test_ebit_pipelines_agree_on_examples():
    for e in (make_ex1(), make_ex2()):
        h = expand(e)
        bits = f2.rank(f2.mat_mul(h, h.transpose()))
        assert bits == hermitian_rank_poly(e) == 18
        assert hermitian_corank_poly(e) == 3 * 16 - 18 == 30
        assert expansion_rank_poly(e) == f2.rank(h)


def test_qc_f2_rank_random_grids():
    rng = np.random.default_rng(13)
    for _ in range(40):
        e = random_exponent_matrix(rng, r_max=10)
        assert expansion_rank_poly(e) == f2.rank(expand(e))


def test_qc_shift_preserves_nullspace():
    rng = np.random.default_rng(14)
    found = 0
    while found < 10:
        e = random_exponent_matrix(rng, r_max=8)
        h = expand(e)
        ns = f2.nullspace(h)
        if ns is None:
            continue
        found += 1
        mask = (1 << e.r) - 1
        for i in range(min(ns.rows, 6)):
            # cyclic right-shift by one inside each length-r block: the
            # quasi-cyclic code symmetry
            v = ns.row(i)
            shifted = 0
            for l in range(e.L):
                blk = (v >> (l * e.r)) & mask
                shifted |= (((blk << 1) | (blk >> (e.r - 1))) & mask) << (l * e.r)
            assert f2.mat_mul(
                h, BitMatrix(1, h.cols, (shifted,)).transpose()
            ).is_zero()


# -- named constructions ----------------------------------------------------------

def test_make_ex1_literal():
    e = make_ex1()
    assert (e.r, e.J, e.L) == (16, 3, 8)
    assert e.is_type_i
    assert [x.exponents[0] for x in e.entries[0]] == [1] * 8
    assert [x.exponents[0] for x in e.entries[1]] == list(range(1, 9))
    assert [x.exponents[0] for x in e.entries[2]] == list(range(1, 17, 2))


def test_make_ex2_literal():
    e = make_ex2()
    assert not e.is_type_i
    assert e.entries[0][0].exponents == (1, 2)
    assert e.entries[1][0].exponents == (5,)
    assert e.entries[2][1].exponents == (1, 2)
    assert e.entries[0][1].is_zero


def test_make_ex_hi_rows():
    hc, hd = make_ex_hi(3, 8, 15, 2, 3)
    def row(e, i):
        return [x.exponents[0] for x in e.entries[i]]
    assert row(hc, 0) == [1, 2, 4, 8, 6, 12, 9, 3]
    assert row(hc, 1) == [8, 1, 2, 4, 12, 9, 3, 6]
    assert row(hc, 2) == [4, 8, 1, 2, 9, 3, 6, 12]
    assert row(hd, 0) == [9, 3, 6, 12, 14, 13, 11, 7]
    assert row(hd, 1) == [12, 9, 3, 6, 13, 11, 7, 14]
    assert row(hd, 2) == [6, 12, 9, 3, 11, 7, 14, 13]


def test_make_ex_hi_css_compatible():
    hc, hd = make_ex_hi()
    a, b = expand(hc), expand(hd)
    assert a.cols == b.cols == 120
    assert f2.mat_mul(a, b.transpose()).is_zero()


def test_make_ex_hi_validation():
    with pytest.raises(ValueError):
        make_ex_hi(3, 8, 15, 3, 3)   # gcd(3, 15) != 1
    with pytest.raises(ValueError):
        make_ex_hi(3, 6, 15, 2, 3)   # ord(2) = 4 != L/2 = 3
    with pytest.raises(ValueError):
        make_ex_hi(5, 8, 15, 2, 3)   # J > L/2


def test_make_ex_mackay():
    h = make_ex_mackay(128, 48, 8, seed=0)
    assert (h.rows, h.cols) == (48, 128)
    arr = h.to_array()
    assert (arr.sum(axis=1) == 8).all()
    assert f2.mat_mul(h, h.transpose()).is_zero()
    assert girth_exact(h) == 4
    # deterministic for a fixed seed
    assert make_ex_mackay(128, 48, 8, seed=0).bits == h.bits
    assert make_ex_mackay(128, 48, 8, seed=1).bits != h.bits


@pytest.mark.parametrize("L", [0, -2, 1, 3, 130])
def test_make_ex_mackay_rejects_bad_row_weight(L):
    """L = 0 used to give an all-zero H, L = -2 numpy's "negative
    dimensions" error and L = 130 > n its "larger sample" error."""
    with pytest.raises(ValueError, match=rf"row weight L must be even and in 2\.\.n .* got {L}$"):
        make_ex_mackay(L=L)


def test_make_ex_mackay_reject_4cycles_small():
    h = make_ex_mackay(12, 3, 4, seed=0, reject_4cycles=True)
    assert girth_exact(h) >= 6


def test_make_ex_mackay_reject_4cycles_defaults_raise():
    """Rows i and i + delta of [C, C^T], for delta != 0 a difference of
    C's support, share a column in each half and so close a 4-cycle.
    One of +-delta is at most 32 mod 64, so rows 0 and |delta| are both
    among the 48 kept, and every sample is rejected."""
    with pytest.raises(ValueError, match="no 4-cycle-free sample"):
        make_ex_mackay(reject_4cycles=True)


@pytest.mark.parametrize("n, L", [(16, 4), (30, 4), (128, 8), (128, 6)])
def test_make_ex_mackay_reject_4cycles_fails_fast(monkeypatch, n, L):
    """m = n/4 + 1 kept rows always hold a 4-cycle: the call raises
    before sampling, without a girth computation."""
    def no_girth(h):
        raise AssertionError("girth_exact called")

    monkeypatch.setattr(qc_ldpc, "girth_exact", no_girth)
    with pytest.raises(ValueError, match="no 4-cycle-free sample"):
        make_ex_mackay(n=n, m=n // 4 + 1, L=L, reject_4cycles=True)


def test_make_ex_mackay_reject_4cycles_single_row():
    h = make_ex_mackay(n=16, m=1, L=4, reject_4cycles=True)
    assert (h.rows, h.cols) == (1, 16)
    assert girth_exact(h) == math.inf


def test_exponent_text_round_trip():
    for e in (make_ex1(), make_ex2(), _type_ii_intro()):
        assert parse_exponent(format_exponent(e)) == e


def test_exponent_parse_errors():
    with pytest.raises(ValueError):
        parse_exponent("")
    with pytest.raises(ValueError):
        parse_exponent("4 1 2\n0")
    with pytest.raises(ValueError):
        parse_exponent("4 1 2\n0 5")  # exponent out of range


@pytest.mark.parametrize("text,what", [
    ("3 0 3\n", "J"), ("3 -1 3\n0 1 2\n", "J"), ("3 -3 3\n0 1 2\n0 1 2\n0 1 2\n", "J"),
    ("3 1 0\n0\n", "L"), ("3 1 -2\n0\n", "L"),
])
def test_exponent_parse_rejects_nonpositive_shape(text, what):
    with pytest.raises(ValueError, match=rf"{what} must be positive"):
        parse_exponent(text)


def test_exponent_parse_rejects_rows_past_the_header():
    with pytest.raises(ValueError, match="expected 1 exponent rows, found 2"):
        parse_exponent("4 1 2\n0 1\n2 3\n")


def test_from_lists_rejects_empty_grid():
    with pytest.raises(ValueError, match="no rows"):
        ExponentMatrix.from_lists(3, [])


@settings(max_examples=300, deadline=None)
@given(mutated_text(format_exponent(ExponentMatrix.from_lists(
    5, [[0, (1, 2), None], [3, 4, (0, 4)]]))))
def test_parse_exponent_fuzz_raises_only_value_error(text):
    try:
        parse_exponent(text)
    except ValueError:
        pass


def test_entry_validation():
    with pytest.raises(ValueError):
        ExponentEntry.binomial(3, 3)
    with pytest.raises(ValueError):
        ExponentEntry((1, 2, 3))


@pytest.mark.parametrize("exponents, bad", [((5, 1), 5), ((4,), 4), ((0, -1), -1)])
def test_entry_poly_rejects_out_of_range(exponents, bad):
    """An exponent outside 0..r-1 raises rather than being reduced mod
    r: 5 at r = 4 would cancel against 1 and give the zero polynomial."""
    message = rf"^exponent {bad} out of range for r=4$"
    with pytest.raises(ValueError, match=message):
        ExponentEntry(exponents).poly(4)


@pytest.mark.parametrize("m", [0, -1])
def test_make_ex_mackay_rejects_nonpositive_m(m):
    with pytest.raises(ValueError, match=rf"^row count m must be at least 1, got {m}$"):
        make_ex_mackay(m=m)
