import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import f2, gf4, sgs
from stabkit.codes import css_sp_matrix, hamming_matrix, q15_matrix
from stabkit.gf4 import (
    F4_0,
    F4_1,
    F4_ELEMENTS,
    F4_W,
    F4_WBAR,
    F4Matrix,
    f4_add,
    f4_mul,
    gamma,
    trace_inner,
)
from stabkit.pauli import PauliVec, symplectic_product, weight

from util import mutated_text


def test_gamma_table():
    assert gamma(F4_0) == (0, 0)
    assert gamma(F4_WBAR) == (0, 1)
    assert gamma(F4_1) == (1, 1)
    assert gamma(F4_W) == (1, 0)


def test_gamma_additive_all_pairs():
    for a, b in itertools.product(F4_ELEMENTS, repeat=2):
        za, xa = gamma(a)
        zb, xb = gamma(b)
        assert gamma(f4_add(a, b)) == (za ^ zb, xa ^ xb)


def test_field_axioms_exhaustive():
    for a, b in itertools.product(F4_ELEMENTS, repeat=2):
        assert f4_add(a, b) == f4_add(b, a)
        assert f4_mul(a, b) == f4_mul(b, a)
    for a, b, c in itertools.product(F4_ELEMENTS, repeat=3):
        assert f4_mul(a, f4_mul(b, c)) == f4_mul(f4_mul(a, b), c)
        assert f4_add(a, f4_add(b, c)) == f4_add(f4_add(a, b), c)
        assert f4_mul(a, f4_add(b, c)) == f4_add(f4_mul(a, b), f4_mul(a, c))
    # W = w^2 and 1 + w + w^2 = 0
    assert f4_mul(F4_W, F4_W) == F4_WBAR
    assert f4_add(F4_1, f4_add(F4_W, F4_WBAR)) == F4_0
    assert f4_mul(F4_W, F4_WBAR) == F4_1


def test_trace_inner_values():
    assert trace_inner(F4_WBAR, F4_1) == 1
    for a in F4_ELEMENTS:
        assert trace_inner(a, a) == 0
        assert trace_inner(F4_0, a) == 0


def test_trace_inner_matches_symplectic_product():
    for a, b in itertools.product(F4_ELEMENTS, repeat=2):
        za, xa = gamma(a)
        zb, xb = gamma(b)
        u = PauliVec(1, za, xa)
        v = PauliVec(1, zb, xb)
        assert trace_inner(a, b) == symplectic_product(u, v)


def test_weight_preserved_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        vec = [int(rng.integers(4)) for _ in range(n)]
        wt4 = sum(1 for e in vec if e != F4_0)
        z = sum(gamma(e)[0] << i for i, e in enumerate(vec))
        x = sum(gamma(e)[1] << i for i, e in enumerate(vec))
        assert weight(PauliVec(n, z, x)) == wt4


def test_f4_to_symplectic_single_entry():
    m = gf4.f4_to_symplectic(F4Matrix.from_rows([[F4_1]]))
    assert m.rows == 2 and m.cols == 2
    assert m.row_list(0) == [1, 0]   # gamma(w * 1) = gamma(w) = (1|0)
    assert m.row_list(1) == [0, 1]   # gamma(W * 1) = (0|1)


def test_f4_to_symplectic_hamming_self_orthogonal():
    h = hamming_matrix()
    h4 = F4Matrix.from_rows([[F4_1 if b else F4_0 for b in h.row_list(i)]
                             for i in range(h.rows)])
    hsp = gf4.f4_to_symplectic(h4)
    assert (hsp.rows, hsp.cols) == (6, 14)
    vecs = [PauliVec.from_packed(hsp.row(i), 7) for i in range(6)]
    for a, b in itertools.combinations_with_replacement(vecs, 2):
        assert symplectic_product(a, b) == 0
    # a binary code seen over GF(4) reproduces the CSS block layout
    css = css_sp_matrix(h)
    assert sorted(hsp.bits) == sorted(css.bits)


def test_f4_to_symplectic_q15_shape_and_ebits():
    hsp = gf4.f4_to_symplectic(q15_matrix())
    assert (hsp.rows, hsp.cols) == (10, 30)
    vecs = [PauliVec.from_packed(hsp.row(i), 15) for i in range(10)]
    assert sgs.symp_dim(vecs) == 4


def _symplectic_oracle(h4: F4Matrix) -> np.ndarray:
    """``f4_to_symplectic`` entry by entry: row k m + i is gamma of the
    s-multiple of row i, s = w for k = 0 and W for k = 1, with column
    j's (z, x) bits at columns j and n + j."""
    m, n = h4.rows, h4.cols
    out = np.zeros((2 * m, 2 * n), dtype=np.uint8)
    for k, s in enumerate((F4_W, F4_WBAR)):
        for i, row in enumerate(h4.entries):
            for j, e in enumerate(row):
                out[k * m + i, j], out[k * m + i, n + j] = gamma(f4_mul(s, e))
    return out


_F4_GRIDS = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(F4_ELEMENTS), min_size=n, max_size=n), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_F4_GRIDS)
def test_f4_to_symplectic_matches_gamma_oracle(rows):
    h4 = F4Matrix.from_rows(rows)
    got = gf4.f4_to_symplectic(h4)
    assert (got.rows, got.cols) == (2 * h4.rows, 2 * h4.cols)
    assert np.array_equal(got.to_array(), _symplectic_oracle(h4))


def test_f4_to_symplectic_scales_once_per_multiplier(monkeypatch):
    calls = []
    scale = F4Matrix.scale
    monkeypatch.setattr(F4Matrix, "scale", lambda self, s: calls.append(s) or scale(self, s))
    gf4.f4_to_symplectic(q15_matrix())
    assert calls == [F4_W, F4_WBAR]


def test_parse_format_round_trip():
    m = q15_matrix()
    assert gf4.parse_f4(gf4.format_f4(m)) == m


def test_parse_rejects_bad_symbols():
    with pytest.raises(ValueError):
        gf4.parse_f4("1 2\n0 q")
    with pytest.raises(ValueError):
        gf4.parse_f4("")
    with pytest.raises(ValueError):
        gf4.parse_f4("2 2\n0 1")


def test_parse_rejects_nonpositive_header():
    for text in ("0 2\n", "-2 2\n1w\n01\n0W\n", "1 0\n\n"):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            gf4.parse_f4(text)


def test_parse_rejects_rows_past_the_header():
    with pytest.raises(ValueError, match="expected 2 rows, found 3"):
        gf4.parse_f4("2 2\n1 w\n0 1\nW 1\n")


@settings(max_examples=300, deadline=None)
@given(mutated_text(gf4.format_f4(F4Matrix.from_rows([[1, 0, F4_W, F4_WBAR], [0, F4_W, 1, 1]]))))
def test_parse_f4_fuzz_raises_only_value_error(text):
    try:
        gf4.parse_f4(text)
    except ValueError:
        pass
