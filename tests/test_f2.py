import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import f2, gf4, qc_ldpc
from stabkit.codes import hamming_matrix
from stabkit.f2 import BitMatrix

from util import mutated_text, random_bitmatrix


def test_rank_identity():
    assert f2.rank(BitMatrix.identity(3)) == 3


def test_rank_zero():
    assert f2.rank(BitMatrix.zeros(4, 7)) == 0


def test_rank_circulant_even_support():
    # first row (1,0,1,0,1,0): gcd((1+X+X^2)^2, (X^3-1)^2) has degree 4
    m = BitMatrix.circulant([1, 0, 1, 0, 1, 0])
    assert f2.rank(m) == 2


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 4)).flatmap(
    lambda nb: st.lists(st.integers(0, 1), min_size=nb[0] * nb[1], max_size=nb[0] * nb[1])
    .map(lambda bits: (nb[0], bits))))
def test_packed_circulant_rolls_each_block(case):
    """Row i rolls every length-n block of the first row right i places;
    one block is ``BitMatrix.circulant``."""
    n, first = case
    blocks = np.reshape(first, (-1, n))
    m = BitMatrix.packed_circulant(f2.pack_rows([first])[0], n, len(blocks))
    assert m == BitMatrix.from_rows([np.roll(blocks, i, axis=1).ravel() for i in range(n)])
    if len(blocks) == 1:
        assert m == BitMatrix.circulant(first)


@pytest.mark.parametrize("first, n, blocks", [
    (0, 0, 1), (1, 0, 1), (0b100, 2, 1), (-1, 3, 1), (0, 3, 0), (0b10000, 2, 2)])
def test_packed_circulant_rejects_bad_shape(first, n, blocks):
    with pytest.raises(ValueError):
        BitMatrix.packed_circulant(first, n, blocks)


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


def test_dense_parse_rejects_nonpositive_header():
    for text in ("0 3\n", "-2 3\n010\n011\n110\n", "2 0\n\n\n"):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            f2.parse_dense(text)


def test_dense_parse_rejects_rows_past_the_header():
    with pytest.raises(ValueError, match="expected 2 matrix rows, found 3"):
        f2.parse_dense("2 2\n10\n01\n11\n")


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


def test_alist_rejects_lists_past_the_header():
    lines = _alist_lines([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="3 column and 2 row lists expected, found 6 lists"):
        f2.parse_alist("\n".join(lines + ["1 3"]) + "\n")


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 20), st.integers(1, 20))
def test_transpose_matches_array_transpose(seed, rows, cols):
    m = random_bitmatrix(np.random.default_rng(seed), rows, cols)
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert np.array_equal(t.to_array(), m.to_array().T)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 70),
       st.floats(0.0, 1.0))
def test_to_array_matches_row_list(seed, rows, cols, density):
    m = random_bitmatrix(np.random.default_rng(seed), rows, cols, density)
    arr = m.to_array()
    assert arr.dtype == np.uint8 and arr.shape == (rows, cols)
    assert arr.tolist() == [m.row_list(i) for i in range(rows)]


_PACKED_ROWS = st.integers(1, 70).flatmap(lambda cols: st.tuples(
    st.just(cols), st.lists(st.integers(0, 2 ** cols - 1), min_size=1, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(_PACKED_ROWS)
def test_pack_rows_inverts_to_array(cols_bits):
    cols, bits = cols_bits
    m = BitMatrix(len(bits), cols, tuple(bits))
    assert f2.pack_rows(m.to_array()) == m.bits
    assert f2.pack_rows(m.to_array().T) == m.transpose().bits


def test_pack_rows_of_no_rows():
    assert f2.pack_rows(np.zeros((0, 9), dtype=np.uint8)) == ()


def test_matrix_validation():
    with pytest.raises(ValueError):
        BitMatrix(0, 3, ())
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b111,))  # bit outside declared width
    with pytest.raises(ValueError):
        f2.mat_mul(BitMatrix.identity(3), BitMatrix.identity(4))


@settings(max_examples=300, deadline=None)
@given(mutated_text(f2.format_dense(hamming_matrix())))
def test_parse_dense_fuzz_raises_only_value_error(text):
    try:
        f2.parse_dense(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(mutated_text(f2.format_alist(hamming_matrix())))
def test_parse_alist_fuzz_raises_only_value_error(text):
    try:
        f2.parse_alist(text)
    except ValueError:
        pass


def _parsers():
    """Every text parser, with a valid text to mutate and the words of
    which its messages must name one."""
    h = hamming_matrix()
    exponent = qc_ldpc.ExponentMatrix.from_lists(5, [[0, (1, 2), None], [3, 4, (0, 4)]])
    return {
        "dense": (f2.parse_dense, f2.format_dense(h), ("dense",)),
        "alist": (f2.parse_alist, f2.format_alist(h), ("alist",)),
        "matrix-dense": (f2.parse_matrix, f2.format_dense(h), ("dense", "alist")),
        "matrix-alist": (f2.parse_matrix, f2.format_alist(h), ("dense", "alist")),
        "gf4": (gf4.parse_f4, gf4.format_f4(gf4.F4Matrix.from_rows([[1, 0, 2, 3], [0, 2, 1, 1]])),
                ("GF(4)",)),
        "exponent": (qc_ldpc.parse_exponent, qc_ldpc.format_exponent(exponent), ("exponent",)),
    }


@pytest.mark.parametrize("name", sorted(_parsers()))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_errors_name_their_format(name, data):
    """Whatever a mutated text breaks, a parser's ``ValueError`` names
    the format it was reading."""
    parse, text, words = _parsers()[name]
    try:
        parse(data.draw(mutated_text(text)))
    except ValueError as exc:
        assert any(word in str(exc) for word in words), str(exc)


def test_non_integer_tokens_name_the_format_and_the_line():
    for parse, text, message in (
            (f2.parse_matrix, "2 x\n01\n10\n", "bad dense matrix line '2 x': 'x'"),
            (f2.parse_matrix, "2 x\n0 1\n10\n", "bad dense or alist matrix line '2 x': 'x'"),
            (f2.parse_alist, "x 3\n1 1\n1\n1 1 1\n", "bad alist line 'x 3': 'x'"),
            (qc_ldpc.parse_exponent, "4 1 2\n0 x\n", "bad exponent matrix line '0 x': 'x'"),
            (qc_ldpc.parse_exponent, "4 1 2\n0 1+\n", "bad exponent matrix line '0 1+': ''")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
            parse(text)
    with pytest.raises(ValueError, match="^bad alist header: '5'$"):
        f2.parse_alist("5\n1 1\n1\n1 1 1\n")


# -- lowest-bit elimination against the column-scan oracle -----------------


def _oracle_echelon(rows, cols):
    """Reference RREF: pivots searched column by column in ascending
    order, each pivot row cleared from every other row."""
    rows = list(rows)
    pivots = []
    level = 0
    for col in range(cols):
        pivot = None
        for i in range(level, len(rows)):
            if (rows[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[level], rows[pivot] = rows[pivot], rows[level]
        for i in range(len(rows)):
            if i != level and (rows[i] >> col) & 1:
                rows[i] ^= rows[level]
        pivots.append(col)
        level += 1
        if level == len(rows):
            break
    return rows[:level], pivots


@st.composite
def _row_lists(draw):
    """(rows, cols): tall (more rows than columns) or wide, with widths
    on both sides of 64-bit word edges; random, sparse, zero, duplicated
    or dependent rows, or none."""
    if draw(st.booleans()):
        cols = draw(st.integers(1, 24))
        count = draw(st.integers(cols, 3 * cols + 2))
    else:
        cols = draw(st.sampled_from([25, 63, 64, 65, 100, 127, 128, 129, 190]))
        count = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(["random", "sparse", "zero", "duplicate", "dependent"]))
    if kind == "sparse":
        row = st.lists(st.integers(0, cols - 1), max_size=3).map(
            lambda bits: sum({1 << b for b in bits}))
    else:
        row = st.integers(0, (1 << cols) - 1)
    rows = draw(st.lists(row, min_size=count, max_size=count))
    if kind == "zero":
        rows = [0] * count
    elif kind in ("duplicate", "dependent") and rows:
        picks = draw(st.lists(st.lists(st.sampled_from(rows), min_size=1,
                                       max_size=1 if kind == "duplicate" else 4),
                              min_size=1, max_size=count + 1))
        for combo in picks:
            acc = 0
            for r in combo:
                acc ^= r
            rows.insert(draw(st.integers(0, len(rows))), acc)
    return rows, cols


@settings(max_examples=400, deadline=None)
@given(_row_lists(), st.data())
def test_echelon_matches_column_scan_oracle(case, data):
    rows, cols = case
    want_rows, want_pivots = _oracle_echelon(rows, cols)
    assert f2._echelon(rows, cols) == (want_rows, want_pivots)
    if not rows:
        return
    m = BitMatrix(len(rows), cols, tuple(rows))
    assert f2.rank(m) == len(want_pivots)

    w = data.draw(st.integers(0, (1 << cols) - 1))
    span_member = 0
    for r in data.draw(st.lists(st.sampled_from(rows), max_size=4)):
        span_member ^= r
    for v in (w, span_member):
        assert f2.in_rowspace(m, v) == (f2._reduce(v, want_rows, want_pivots) == 0)
    assert f2.in_rowspace(m, span_member)

    free = [c for c in range(cols) if c not in want_pivots]
    want_null = [(1 << f) | sum(1 << p for row, p in zip(want_rows, want_pivots) if (row >> f) & 1)
                 for f in free]
    null = f2.nullspace(m)
    assert (null.bits if null is not None else ()) == tuple(want_null)
