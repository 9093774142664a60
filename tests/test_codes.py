import itertools

import numpy as np
import pytest

from stabkit import codes, f2, gf4, qc_ldpc, sgs
from stabkit.codes import (
    BUILTIN_NAMES,
    QuantumCode,
    VerificationBudgetError,
    bch63_matrix,
    build_eaqecc_binary,
    build_eaqecc_gf4,
    builtin,
    css_sp_matrix,
    extend_code,
    find_distance_violator,
    format_report,
    gauge_move,
    hamming_check,
    hamming_matrix,
    is_dual_containing,
    make_report,
    puncture_code,
    q15_matrix,
    q15_traded,
    singleton_check,
    ungauge,
    verify_distance,
)
from stabkit.f2 import BitMatrix
from stabkit.gf4 import F4_0, F4_W, F4Matrix
from stabkit.pauli import PauliVec, parse_pauli, paulis_to_matrix, symplectic_product, weight

from util import random_bitmatrix


# -- construction ----------------------------------------------------------

def test_css_sp_matrix_single_entry():
    m = css_sp_matrix(BitMatrix.from_rows([[1]]))
    assert m.row_list(0) == [1, 0]
    assert m.row_list(1) == [0, 1]


def test_css_sp_matrix_steane_self_orthogonal():
    m = css_sp_matrix(hamming_matrix())
    assert (m.rows, m.cols) == (6, 14)
    assert is_dual_containing(m)


def test_css_sp_matrix_bch_symp_dim():
    m = css_sp_matrix(bch63_matrix())
    assert (m.rows, m.cols) == (48, 126)
    vecs = [PauliVec.from_packed(m.row(i), 63) for i in range(m.rows)]
    assert sgs.symp_dim(vecs) == 6


def test_build_binary_hamming_gives_steane_params():
    code = build_eaqecc_binary(hamming_matrix())
    assert (code.n, code.k, code.c, code.r) == (7, 1, 0, 0)
    assert code.params == "[[7,1;0]]"


def test_build_binary_bch():
    code = build_eaqecc_binary(bch63_matrix())
    assert (code.n, code.k, code.c) == (63, 21, 6)


def test_build_binary_bch_first18_dual_containing():
    h18 = bch63_matrix().submatrix(range(18))
    code = build_eaqecc_binary(h18)
    assert code.c == 0
    assert f2.rank(h18) == 18  # a [63,45] code


def test_build_gf4_q15():
    code = build_eaqecc_gf4(q15_matrix())
    assert (code.n, code.k, code.c) == (15, 9, 4)


def test_build_gf4_self_orthogonal_input_is_standard():
    h = hamming_matrix()
    h4 = F4Matrix.from_rows([[1 if b else 0 for b in h.row_list(i)]
                             for i in range(h.rows)])
    code = build_eaqecc_gf4(h4)
    assert code.c == 0
    assert (code.n, code.k) == (7, 1)


@pytest.mark.parametrize("n", [4, 5])
def test_build_gf4_all_omega_row(n):
    h4 = F4Matrix.from_rows([[F4_W] * n])
    code = build_eaqecc_gf4(h4)
    # oracle: c is half the rank of the symplectic Gram matrix of the rows
    hsp = gf4.f4_to_symplectic(h4)
    vecs = [PauliVec.from_packed(hsp.row(i), n) for i in range(hsp.rows)]
    gram = BitMatrix.from_rows(
        [[symplectic_product(a, b) for b in vecs] for a in vecs]
    )
    c_oracle = f2.rank(gram) // 2
    assert code.c == c_oracle
    k4 = n - 1  # one independent quaternary row
    assert code.k == 2 * k4 - n + code.c


def test_is_dual_containing_cases():
    assert is_dual_containing(css_sp_matrix(hamming_matrix()))
    pair = BitMatrix.from_rows([[1, 0], [0, 1]])  # g1, h1 on one qubit
    assert not is_dual_containing(pair)
    ex1 = qc_ldpc.expand(qc_ldpc.make_ex1())
    assert not is_dual_containing(css_sp_matrix(ex1))


def test_gram_rank_matches_ebits_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        h = random_bitmatrix(rng, int(rng.integers(1, 6)), int(rng.integers(2, 10)))
        code = build_eaqecc_binary(h)
        assert code.c == f2.rank(f2.mat_mul(h, h.transpose()))
        assert code.k == code.n - code.s - code.c


# -- commutation validation -------------------------------------------------

def test_constructor_rejects_noncommuting_isotropic():
    with pytest.raises(ValueError):
        QuantumCode(n=1, gens_i=(parse_pauli("X"), parse_pauli("Z")))


def test_constructor_rejects_commuting_pair():
    with pytest.raises(ValueError):
        QuantumCode(n=2, gens_e=((parse_pauli("XI"), parse_pauli("IX")),))


def test_constructor_rejects_dependent_generators():
    with pytest.raises(ValueError):
        QuantumCode(n=3, gens_i=(parse_pauli("ZZI"), parse_pauli("IZZ"),
                                 parse_pauli("ZIZ")))


def test_constructor_names_first_noncommuting_pair():
    # ZZI anticommutes with both XIX (#2) and XII (#3); the lower one is named
    with pytest.raises(ValueError, match=r"between #1 and #2: ZZI vs XIX"):
        QuantumCode(n=3, gens_i=tuple(parse_pauli(s) for s in ("IZI", "ZZI", "XIX", "XII")))


def test_constructor_names_first_offender_in_broken_bch63():
    """Demote bch63's first entanglement pair to isotropic generators; the
    error names the first anticommuting (a, b) with a < b."""
    code = builtin("bch63")
    gens_i = code.gens_i + code.gens_e[0]
    gens_e = code.gens_e[1:]
    flat = list(gens_i) + [g for pair in gens_e for g in pair]
    expected = {len(gens_i) + 2 * j: len(gens_i) + 2 * j + 1 for j in range(len(gens_e))}
    first = next(
        (a, b)
        for a in range(len(flat))
        for b in range(a + 1, len(flat))
        if symplectic_product(flat[a], flat[b]) != (expected.get(a) == b)
    )
    with pytest.raises(ValueError, match=rf"between #{first[0]} and #{first[1]}:"):
        QuantumCode(n=code.n, gens_i=gens_i, gens_e=gens_e)


def test_constructor_rejects_logical_anticommuting_with_generator():
    with pytest.raises(ValueError, match="logical X does not commute"):
        QuantumCode(n=2, gens_i=(parse_pauli("ZI"),),
                    logicals=((parse_pauli("IZ"), parse_pauli("XX")),))


# -- distance ----------------------------------------------------------------

def test_steane_strict_distance_three():
    st = builtin("steane7")
    assert verify_distance(st, 3, "strict")
    assert not verify_distance(st, 4, "strict")


def test_shor_degenerate_three_strict_fails():
    shor = builtin("shor9")
    assert verify_distance(shor, 3, "degenerate")
    violator = find_distance_violator(shor, 3, "strict")
    assert violator is not None and weight(violator) == 2
    # the strict violator is an element of the stabilizer itself
    assert f2.in_rowspace(paulis_to_matrix(shor.gens_i), violator.packed())


def test_ea8_degenerate_three():
    ea = builtin("ea8")
    assert verify_distance(ea, 3, "degenerate")
    assert not verify_distance(ea, 4, "degenerate")


def test_eaoq8_degenerate_three():
    eo = builtin("eaoq8")
    assert verify_distance(eo, 3, "degenerate")
    assert not verify_distance(eo, 4, "degenerate")


def test_q15_strict_four():
    q = builtin("q15")
    assert verify_distance(q, 4, "strict")
    assert not verify_distance(q, 5, "strict")


def test_q15_traded_gauge_structure():
    t = q15_traded()
    assert (t.n, t.k, t.c, t.r) == (15, 9, 3, 1)
    assert verify_distance(t, 3, "degenerate")
    assert not verify_distance(t, 4, "degenerate")
    # same group as q15: the trade only repartitions the generators
    a = t.generator_matrix()
    b = builtin("q15").generator_matrix()
    assert f2.rank(a) == f2.rank(b) == f2.rank(a.vstack(b))


def test_strict_implies_degenerate():
    for name in ("steane7", "fivequbit", "q15"):
        code = builtin(name)
        d = code.d_claimed
        if verify_distance(code, d, "strict"):
            assert verify_distance(code, d, "degenerate")


def test_budget_guard():
    code = builtin("bch63")
    with pytest.raises(VerificationBudgetError):
        verify_distance(code, 9, "strict", budget=10 ** 6)
    # a weight-capped lower-bound check still fits
    assert verify_distance(code, 3, "strict", budget=10 ** 6)


def test_distance_rejects_bad_mode():
    with pytest.raises(ValueError):
        verify_distance(builtin("steane7"), 3, "weird")


# -- bounds -------------------------------------------------------------------

def test_singleton_examples():
    assert singleton_check(builtin("steane7"))          # 6 >= 4
    assert singleton_check(builtin("bch63"))            # 48 >= 16
    five = builtin("fivequbit")
    assert singleton_check(five)
    assert five.n - (five.k - five.c) == 2 * (five.d_claimed - 1)  # saturated


def test_singleton_every_builtin():
    for name in BUILTIN_NAMES:
        assert singleton_check(builtin(name)), name


def test_hamming_bound():
    assert hamming_check(builtin("steane7"))
    assert hamming_check(builtin("fivequbit"))
    with pytest.raises(ValueError):
        hamming_check(build_eaqecc_binary(hamming_matrix()))  # no d known


# -- extend / puncture --------------------------------------------------------

def test_extend_steane():
    ext = extend_code(builtin("steane7"))
    assert ext.n == 8
    assert ext.k - ext.c == 0          # net yield drops by one
    assert verify_distance(ext, 4, "strict")


def test_extend_trivial_code():
    tiny = QuantumCode(n=1, gens_i=(parse_pauli("Z"),))
    ext = extend_code(tiny)
    assert ext.n == 2
    # two added rows on top of the old generator
    assert ext.s + 2 * ext.c == f2.rank(ext.generator_matrix())


def test_extend_distance_never_drops():
    rng = np.random.default_rng(40)
    for _ in range(10):
        h = random_bitmatrix(rng, 2, 5)
        if f2.rank(h) == 0:
            continue
        code = build_eaqecc_binary(h)
        d = 1
        while verify_distance(code, d + 1, "strict"):
            d += 1
        ext = extend_code(code)
        assert verify_distance(ext, d, "strict")


def test_puncture_inverts_extend_dimensions():
    st = builtin("steane7")
    ext = extend_code(st)
    back = puncture_code(ext)
    assert back.n == st.n
    assert back.k - back.c == st.k - st.c


def test_puncture_distance_drops_at_most_one():
    rng = np.random.default_rng(41)
    done = 0
    for _ in range(30):
        h = random_bitmatrix(rng, 2, 5)
        if f2.rank(h) < 2:
            continue
        code = build_eaqecc_binary(h)
        d = 1
        while verify_distance(code, d + 1, "strict"):
            d += 1
        if d < 2 or code.n < 2:
            continue
        punct = puncture_code(code)
        assert punct.n == code.n - 1
        assert punct.k - punct.c == (code.k - code.c) + 1
        assert verify_distance(punct, d - 1, "strict")
        done += 1
    assert done >= 3


def test_puncture_rejects_single_qubit():
    with pytest.raises(ValueError):
        puncture_code(QuantumCode(n=1, gens_i=(parse_pauli("Z"),)))


# -- gauge moves ---------------------------------------------------------------

def test_gauge_move_bch_ladder():
    bch = builtin("bch63")
    code = bch
    for step in range(1, 7):
        code = gauge_move(code, 0)
        assert (code.n, code.k) == (63, 21)
        assert (code.r, code.c) == (step, 6 - step)
        assert code.c + code.r == 6
    back = ungauge(code)
    assert back.r == 0
    assert back.k == 21


def test_gauge_move_preserves_n_k_and_total():
    q = builtin("q15")
    for idx in range(q.c):
        moved = gauge_move(q, idx)
        assert (moved.n, moved.k) == (q.n, q.k)
        assert moved.c + moved.r == q.c + q.r


def test_gauge_move_index_error():
    with pytest.raises(IndexError):
        gauge_move(builtin("q15"), 4)


def test_ungauge_requires_gauge():
    with pytest.raises(ValueError):
        ungauge(builtin("q15"))


def test_eaoq8_is_regrouped_ea8():
    """The gauge code's isotropic + entanglement + gauge-z-halves span
    the original code's full generator group."""
    ea = builtin("ea8")
    eo = builtin("eaoq8")
    regen = list(eo.gens_i) + [g for p in eo.gens_e for g in p]
    regen += [u for u, _ in eo.gens_g]
    a = paulis_to_matrix(regen)
    b = ea.generator_matrix()
    assert f2.rank(a) == f2.rank(b) == f2.rank(a.vstack(b)) == 8


# -- builtins -------------------------------------------------------------------

def test_builtin_shor_table():
    shor = builtin("shor9")
    got = [str(g) for g in shor.gens_i]
    assert got == [
        "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
        "IIIIIIZZI", "IIIIIIIZZ", "XXXIIIXXX", "XXXXXXIII",
    ]
    assert (shor.n, shor.k) == (9, 1)


def test_builtin_ea8_structure():
    ea = builtin("ea8")
    assert len(ea.gens_i) == 6
    assert len(ea.gens_e) == 1
    assert (ea.n, ea.k, ea.c) == (8, 1, 1)


def test_builtin_bch63_matrix_shape():
    h2 = bch63_matrix()
    assert (h2.rows, h2.cols) == (24, 63)
    h18 = h2.submatrix(range(18))
    assert f2.mat_mul(h18, h18.transpose()).is_zero()


def test_builtin_unknown():
    with pytest.raises(KeyError):
        builtin("nope")


def test_every_builtin_validates_and_reports():
    for name in BUILTIN_NAMES:
        code = builtin(name)
        report = make_report(code)
        assert report.singleton_ok
        text = format_report(code, report)
        assert code.params in text


def test_stabilizer_table_round_trip_rebuilds_group():
    for name in ("steane7", "ea8", "q15"):
        code = builtin(name)
        rebuilt = codes.from_stabilizer_table(codes.to_stabilizer_table(code))
        assert (rebuilt.n, rebuilt.k, rebuilt.c) == (code.n, code.k, code.c)
        a, b = rebuilt.generator_matrix(), code.generator_matrix()
        assert f2.rank(a) == f2.rank(b) == f2.rank(a.vstack(b))
    with pytest.raises(ValueError):
        codes.from_stabilizer_table("# nothing here\n")


def test_report_verifies_small_distances():
    rep = make_report(builtin("steane7"))
    assert rep.verified_d == 3
    assert rep.hamming_ok is True
    rep = make_report(builtin("shor9"))
    assert rep.verified_d == 3
    assert rep.hamming_ok is None  # degenerate: bound not applicable
