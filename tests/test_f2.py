import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import f2
from stabkit.codes import hamming_matrix
from stabkit.f2 import BitMatrix

from util import random_bitmatrix


def test_rank_identity():
    assert f2.rank(BitMatrix.identity(3)) == 3


def test_rank_zero():
    assert f2.rank(BitMatrix.zeros(4, 7)) == 0


def test_rank_circulant_even_support():
    # first row (1,0,1,0,1,0): gcd((1+X+X^2)^2, (X^3-1)^2) has degree 4
    m = BitMatrix.circulant([1, 0, 1, 0, 1, 0])
    assert f2.rank(m) == 2


def test_mat_mul_identity_and_zero():
    rng = np.random.default_rng(0)
    m = random_bitmatrix(rng, 5, 5)
    assert f2.mat_mul(BitMatrix.identity(5), m).bits == m.bits
    z = BitMatrix.zeros(5, 3)
    assert f2.mat_mul(m, z).is_zero()


def test_hamming_self_orthogonal():
    h = hamming_matrix()
    prod = f2.mat_mul(h, h.transpose())
    assert prod.rows == prod.cols == 3
    assert prod.is_zero()


def test_in_rowspace_rows_and_zero():
    rng = np.random.default_rng(1)
    m = random_bitmatrix(rng, 4, 9)
    for i in range(m.rows):
        assert f2.in_rowspace(m, m.row(i))
    assert f2.in_rowspace(m, 0)


def test_in_rowspace_against_span_enumeration():
    h = hamming_matrix()
    span = set()
    for coeffs in itertools.product((0, 1), repeat=3):
        v = 0
        for c, row in zip(coeffs, h.bits):
            if c:
                v ^= row
        span.add(v)
    v_query = 0b0000011  # (1,1,0,0,0,0,0) with qubit 1 at the low bit
    assert f2.in_rowspace(h, v_query) == (v_query in span)
    for v in span:
        assert f2.in_rowspace(h, v)
    outside = [v for v in range(1 << 7) if v not in span]
    for v in outside[:16]:
        assert not f2.in_rowspace(h, v)


def test_nullspace_identity_and_zero():
    assert f2.nullspace(BitMatrix.identity(4)) is None
    ns = f2.nullspace(BitMatrix.zeros(3, 3))
    assert ns.rows == 3
    assert f2.rank(ns) == 3


def test_nullspace_hamming_dimension():
    ns = f2.nullspace(hamming_matrix())
    assert ns.rows == 4
    h = hamming_matrix()
    assert f2.mat_mul(h, ns.transpose()).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 9), st.integers(2, 9))
def test_rank_nullity(seed, rows, cols):
    m = random_bitmatrix(np.random.default_rng(seed), rows, cols)
    ns = f2.nullspace(m)
    nullity = 0 if ns is None else ns.rows
    assert f2.rank(m) + nullity == cols


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_mat_mul_associative(seed):
    rng = np.random.default_rng(seed)
    a = random_bitmatrix(rng, 4, 5)
    b = random_bitmatrix(rng, 5, 3)
    c = random_bitmatrix(rng, 3, 6)
    left = f2.mat_mul(f2.mat_mul(a, b), c)
    right = f2.mat_mul(a, f2.mat_mul(b, c))
    assert left.bits == right.bits


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_in_rowspace_rank_extension(seed):
    rng = np.random.default_rng(seed)
    m = random_bitmatrix(rng, 4, 8)
    v = int(rng.integers(0, 1 << 8))
    extended = BitMatrix(m.rows + 1, m.cols, m.bits + (v,))
    assert f2.in_rowspace(m, v) == (f2.rank(extended) == f2.rank(m))


def test_dense_round_trip():
    rng = np.random.default_rng(3)
    m = random_bitmatrix(rng, 6, 11)
    assert f2.parse_dense(f2.format_dense(m)).bits == m.bits


def test_dense_parse_errors():
    with pytest.raises(ValueError):
        f2.parse_dense("")
    with pytest.raises(ValueError):
        f2.parse_dense("2 3\n010\n01")  # short row
    with pytest.raises(ValueError):
        f2.parse_dense("1 3\n0a1")


def test_alist_round_trip():
    rng = np.random.default_rng(4)
    m = random_bitmatrix(rng, 5, 9, density=0.3)
    parsed = f2.parse_alist(f2.format_alist(m))
    assert parsed.bits == m.bits


def test_alist_matches_dense_on_hamming():
    h = hamming_matrix()
    assert f2.parse_alist(f2.format_alist(h)).bits == h.bits


def test_alist_truncated_column_lists():
    with pytest.raises(ValueError, match="alist file truncated"):
        f2.parse_alist("5 3\n1 1\n1 1 1 1 1\n1 1 1\n1\n")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_alist_round_trip_any_matrix(rows, cols, data):
    bits = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    m = BitMatrix(rows, cols, tuple(bits))
    assert f2.parse_alist(f2.format_alist(m)).bits == m.bits


def test_alist_round_trip_empty_rows_and_columns():
    for m in (BitMatrix.zeros(2, 3), BitMatrix.zeros(1, 1),
              BitMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 1, 1]])):
        text = f2.format_alist(m)
        assert all(ln.strip() for ln in text.splitlines())
        assert f2.parse_alist(text).bits == m.bits


def _alist_lines(rows):
    return f2.format_alist(BitMatrix.from_rows(rows)).splitlines()


def test_alist_row_lists_required():
    lines = _alist_lines([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="alist file truncated: 2 row lists"):
        f2.parse_alist("\n".join(lines[:-1]) + "\n")


def test_alist_row_lists_must_agree():
    lines = _alist_lines([[1, 0, 1], [0, 1, 1]])
    lines[-1] = "1 2"
    with pytest.raises(ValueError, match="row list 2 disagrees"):
        f2.parse_alist("\n".join(lines) + "\n")
    lines = _alist_lines([[1, 0, 1], [0, 1, 1]])
    lines[3] = "2"        # row-degree line one entry short
    with pytest.raises(ValueError, match="row-degree"):
        f2.parse_alist("\n".join(lines) + "\n")
    lines = _alist_lines([[1, 0, 1], [0, 1, 1]])
    lines[-1] = "2 4"     # column 4 does not exist
    with pytest.raises(ValueError, match="column index 4 out of range"):
        f2.parse_alist("\n".join(lines) + "\n")


def test_transpose_involution():
    rng = np.random.default_rng(5)
    m = random_bitmatrix(rng, 4, 7)
    assert m.transpose().transpose().bits == m.bits


def test_matrix_validation():
    with pytest.raises(ValueError):
        BitMatrix(0, 3, ())
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b111,))  # bit outside declared width
    with pytest.raises(ValueError):
        f2.mat_mul(BitMatrix.identity(3), BitMatrix.identity(4))
