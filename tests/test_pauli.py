import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import codes, pauli
from stabkit.pauli import (
    PauliVec,
    format_pauli,
    load_stabilizer_table,
    format_stabilizer_table,
    parse_pauli,
    symplectic_product,
    weight,
)

from util import mutated_text

_pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=24)


def _vec(s):
    return parse_pauli(s)


def test_x_y_anticommute():
    assert symplectic_product(PauliVec(1, 0, 1), PauliVec(1, 1, 1)) == 1


def test_standard_basis_products():
    n = 4
    for i in range(n):
        g = PauliVec(n, 1 << i, 0)
        for j in range(n):
            h = PauliVec(n, 0, 1 << j)
            assert symplectic_product(g, h) == (1 if i == j else 0)
            assert symplectic_product(g, PauliVec(n, 1 << j, 0)) == 0
            assert symplectic_product(h, PauliVec(n, 0, 1 << j)) == 0


@settings(max_examples=80, deadline=None)
@given(_pauli_strings)
def test_self_product_zero(s):
    u = _vec(s)
    assert symplectic_product(u, u) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 16))
def test_bilinearity(seed, n):
    rng = np.random.default_rng(seed)
    u, v, w = (PauliVec(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
               for _ in range(3))
    assert symplectic_product(u * v, w) == (
        symplectic_product(u, w) ^ symplectic_product(v, w)
    )


def test_weight_cases():
    assert weight(PauliVec(5, 0, 0)) == 0
    assert weight(parse_pauli("IIYIIIIII")) == 1
    assert weight(parse_pauli("XXXIIIXXX")) == 6


def test_parse_ixyz():
    u = parse_pauli("IXYZ")
    assert u.n == 4
    assert [(u.z >> i) & 1 for i in range(4)] == [0, 0, 1, 1]
    assert [(u.x >> i) & 1 for i in range(4)] == [0, 1, 1, 0]


def test_parse_rejects_empty_and_bad():
    with pytest.raises(ValueError):
        parse_pauli("")
    with pytest.raises(ValueError):
        parse_pauli("|")
    with pytest.raises(ValueError):
        parse_pauli("IXQ")


def test_parse_receiver_separator():
    u = parse_pauli("XXXIIIXX|X")
    assert u.n == 9
    assert weight(u) == 6
    assert format_pauli(u) == "XXXIIIXXX"


@settings(max_examples=80, deadline=None)
@given(_pauli_strings)
def test_round_trip(s):
    assert format_pauli(parse_pauli(s)) == s


def test_product_is_xor():
    a = parse_pauli("XYZI")
    b = parse_pauli("YYII")
    prod = a * b
    # X*Y = Z, Y*Y = I, Z*I = Z, I*I = I up to phase
    assert format_pauli(prod) == "ZIZI"


_SHOR_ROWS = [
    "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
    "IIIIIIZZI", "IIIIIIIZZ", "XXXIIIXXX", "XXXXXXIII",
]
_STEANE_ROWS = [
    "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "IIIXXXX", "IXXIIXX", "XIXIXIX",
]


@pytest.mark.parametrize("rows", [_SHOR_ROWS, _STEANE_ROWS])
def test_code_tables_commute(rows):
    gens = [parse_pauli(r) for r in rows]
    for a, b in itertools.combinations(gens, 2):
        assert symplectic_product(a, b) == 0


def test_stabilizer_table_round_trip():
    gens = [parse_pauli(r) for r in _SHOR_ROWS]
    text = format_stabilizer_table(gens)
    assert load_stabilizer_table(text) == gens


def test_stabilizer_table_skips_comments():
    gens = load_stabilizer_table("# header\nXX\n\nZZ\n")
    assert [format_pauli(g) for g in gens] == ["XX", "ZZ"]


def test_packed_round_trip():
    u = parse_pauli("IXYZVW".replace("V", "X").replace("W", "Z"))
    assert PauliVec.from_packed(u.packed(), u.n) == u


@settings(max_examples=300, deadline=None)
@given(mutated_text("# ea8\n" + codes.to_stabilizer_table(codes.builtin("ea8"))))
def test_stabilizer_table_fuzz_raises_only_value_error(text):
    try:
        load_stabilizer_table(text)
        codes.from_stabilizer_table(text)
    except ValueError:
        pass


_pauli_rows = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, 2 ** n - 1), st.integers(0, 2 ** n - 1)),
             min_size=1, max_size=12),
))


@settings(max_examples=150, deadline=None)
@given(_pauli_rows)
def test_swap_halves_gives_the_symplectic_product(rows):
    n, zx = rows
    vecs = [PauliVec(n, z, x) for z, x in zx]
    for u in vecs:
        assert pauli.swap_halves(pauli.swap_halves(u.packed(), n), n) == u.packed()
        for v in vecs:
            assert (pauli.swap_halves(u.packed(), n) & v.packed()).bit_count() % 2 \
                == symplectic_product(u, v)


@settings(max_examples=150, deadline=None)
@given(_pauli_rows)
def test_symplectic_gram_matches_pairwise_products(rows):
    n, zx = rows
    vecs = [PauliVec(n, z, x) for z, x in zx]
    tri = pauli.symplectic_gram(pauli.paulis_to_matrix(vecs))
    assert len(tri) == len(vecs)
    for a in range(len(vecs)):
        for b in range(len(vecs)):
            expect = symplectic_product(vecs[a], vecs[b]) if b > a else 0
            assert (tri[a] >> b) & 1 == expect
        assert tri[a] >> len(vecs) == 0


def test_odd_column_matrices_are_rejected_once():
    odd = pauli.BitMatrix(1, 3, (0b101,))
    for fn in (pauli.symplectic_gram, pauli.matrix_to_paulis):
        with pytest.raises(ValueError, match="even column count"):
            fn(odd)
