import hashlib
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabkit import codes, f2, gf4, qc_ldpc, sgs
from stabkit.codes import (
    BUILTIN_NAMES,
    QuantumCode,
    VerificationBudgetError,
    bch63_matrix,
    build_from_sp,
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

from util import random_bitmatrix, random_pauli_list


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


def _bch63_oracle() -> BitMatrix:
    """bch63_matrix's rows from a shift-and-add GF(64) multiply and a
    square-and-multiply power modulo a^6 + a + 1."""
    modulus = 0b1000011

    def gf64_mul(a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & 0b1000000:
                a ^= modulus
        return acc

    def gf64_pow(a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = gf64_mul(out, base)
            base = gf64_mul(base, base)
            e >>= 1
        return out

    rows = []
    for j in (1, 3, 5, 7):
        symbols = [gf64_pow(0b10, (j * i) % 63) for i in range(63)]
        for bit in range(6):
            rows.append([(s >> bit) & 1 for s in symbols])
    return BitMatrix.from_rows(rows)


def test_bch63_matrix_matches_gf64_oracle():
    assert bch63_matrix() == _bch63_oracle()


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


def _first_commutation_fault(code_gens_i, code_gens_e):
    """The (a, b) the constructor must name: the first pair, a < b, whose
    symplectic product differs from the partition's pairing."""
    flat = list(code_gens_i) + [g for pair in code_gens_e for g in pair]
    partner = {len(code_gens_i) + 2 * j: len(code_gens_i) + 2 * j + 1
               for j in range(len(code_gens_e))}
    return next(((a, b) for a in range(len(flat)) for b in range(a + 1, len(flat))
                 if symplectic_product(flat[a], flat[b]) != (partner.get(a) == b)), None)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 7), st.integers(1, 6), st.integers(0, 3))
def test_constructor_names_the_pairwise_first_fault(seed, n, m, pairs):
    rng = np.random.default_rng(seed)
    vecs = random_pauli_list(rng, m, n)
    if f2.rank(paulis_to_matrix(vecs)) < m:
        return
    pairs = min(pairs, m // 2)
    split = m - 2 * pairs
    gens_i = tuple(vecs[:split])
    gens_e = tuple(zip(vecs[split::2], vecs[split + 1::2]))
    fault = _first_commutation_fault(gens_i, gens_e)
    if fault is None:
        assert QuantumCode(n=n, gens_i=gens_i, gens_e=gens_e).s == split
    else:
        with pytest.raises(ValueError, match=rf"between #{fault[0]} and #{fault[1]}:"):
            QuantumCode(n=n, gens_i=gens_i, gens_e=gens_e)


@pytest.mark.parametrize("logical, message", [
    (("ZZI", "XXI"), "logical pair must anticommute"),
    (("XII", "ZII"), "logical Z does not commute"),
    (("IZI", "IXI"), "logical X does not commute"),
    (("ZII", "XXI"), None),
])
def test_constructor_checks_logicals_against_the_generators(logical, message):
    gens_i = (parse_pauli("ZZZ"),)
    logicals = ((parse_pauli(logical[0]), parse_pauli(logical[1])),)
    if message is None:
        assert QuantumCode(n=3, gens_i=gens_i, logicals=logicals).logicals == logicals
    else:
        with pytest.raises(ValueError, match=message):
            QuantumCode(n=3, gens_i=gens_i, logicals=logicals)


def test_constructor_checks_logicals_without_generators():
    with pytest.raises(ValueError, match="logical pair must anticommute"):
        QuantumCode(n=1, logicals=((parse_pauli("Z"), parse_pauli("Z")),))
    assert QuantumCode(n=1, logicals=((parse_pauli("Z"), parse_pauli("X")),)).k == 1


@pytest.mark.parametrize("logicals, message", [
    ((("ZI", "XI"), ("XI", "ZI")), "logical pairs #0 and #1 do not commute"),
    ((("ZI", "XI"), ("ZZ", "IX")), "logical pairs #0 and #1 do not commute"),
    ((("ZII", "XII"), ("IZI", "IXI"), ("IIZ", "XIX")), "logical pairs #0 and #2 do not commute"),
    ((("ZII", "XII"), ("IZI", "IXI"), ("IZZ", "IIX")), "logical pairs #1 and #2 do not commute"),
    ((("ZII", "XII"), ("IZI", "IXI"), ("IIZ", "IIX")), None),
])
def test_constructor_checks_logical_pairs_against_each_other(logicals, message):
    """Every logical row commutes with every row of the other pairs."""
    logicals = tuple((parse_pauli(z), parse_pauli(x)) for z, x in logicals)
    n = logicals[0][0].n
    if message is None:
        assert QuantumCode(n=n, logicals=logicals).k == n
    else:
        with pytest.raises(ValueError, match=message):
            QuantumCode(n=n, logicals=logicals)


def test_constructor_rejects_logicals_of_another_length():
    with pytest.raises(ValueError, match="different qubit counts"):
        QuantumCode(n=2, gens_i=(parse_pauli("ZZ"),),
                    logicals=((parse_pauli("Z"), parse_pauli("X")),))


def _pairwise_dual_containing(hsp):
    """The former definition: every pair of rows, as PauliVecs, has
    symplectic product 0."""
    n = hsp.cols // 2
    vecs = [PauliVec.from_packed(hsp.row(i), n) for i in range(hsp.rows)]
    return all(symplectic_product(vecs[a], vecs[b]) == 0
               for a in range(len(vecs)) for b in range(a, len(vecs)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.integers(1, 8), st.booleans())
def test_is_dual_containing_matches_pairwise_definition(seed, rows, n, css):
    rng = np.random.default_rng(seed)
    hsp = (css_sp_matrix(random_bitmatrix(rng, rows, n, 0.3)) if css
           else paulis_to_matrix(random_pauli_list(rng, rows, n)))
    assert is_dual_containing(hsp) == _pairwise_dual_containing(hsp)


def test_is_dual_containing_rejects_odd_columns():
    with pytest.raises(ValueError, match="even column count"):
        is_dual_containing(BitMatrix(1, 3, (0b11,)))


@pytest.mark.parametrize("name", list(codes.NAMED))
def test_is_harmless_matches_rowspace_membership(name):
    code = builtin(name)
    passive = code.passive_gens()
    rng = np.random.default_rng(len(name))
    probes = [0] + [int.from_bytes(rng.bytes(code.n // 4 + 1), "little") % (1 << 2 * code.n)
                    for _ in range(20)]
    # members of the span, and members with one bit flipped
    for _ in range(20):
        v = 0
        for g in passive:
            v ^= g.packed() if rng.random() < 0.5 else 0
        probes += [v, v ^ (1 << int(rng.integers(2 * code.n)))]
    span = paulis_to_matrix(passive) if passive else None
    for v in probes:
        expect = f2.in_rowspace(span, v) if span is not None else v == 0
        assert code.is_harmless(v) == expect


def test_is_harmless_without_passive_generators():
    code = QuantumCode(n=2, gens_e=((parse_pauli("ZI"), parse_pauli("XI")),))
    assert code.passive_gens() == []
    assert code.is_harmless(0)
    assert not code.is_harmless(parse_pauli("ZI").packed())


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


def test_extend_code_without_generators():
    """Only the two all-ones rows remain: ZZZZ and XXXX commute."""
    ext = extend_code(QuantumCode(n=3))
    assert ext.params == "[[4,2;0]]"
    assert codes.to_stabilizer_table(ext).split() == ["ZZZZ", "XXXX"]


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


# -- distance search against the enumerating oracle ---------------------------

_ORACLE_LETTERS = ((0, 1), (1, 0), (1, 1))  # X, Z, Y as (z, x) bits


def _enumerating_violator(code, d, mode):
    """The candidate-by-candidate enumerator the syndrome-lookup search
    replaced: every error of weight < d by ascending weight, ascending
    support, X < Z < Y per position; the first harmful one is returned."""
    n = code.n
    test_gens = code._all_gens() if mode == "strict" else code.measured_gens()
    masks = [[0] * 3 for _ in range(n)]
    packed = [[0] * 3 for _ in range(n)]
    for q in range(n):
        for li, (zb, xb) in enumerate(_ORACLE_LETTERS):
            m = 0
            for t, g in enumerate(test_gens):
                bit = (zb & (g.x >> q)) ^ (xb & (g.z >> q))
                m |= (bit & 1) << t
            masks[q][li] = m
            packed[q][li] = (zb << q) | (xb << (q + n))
    harmless = None
    if mode == "degenerate":
        passive = code.passive_gens()
        if passive:
            harmless = f2._echelon([g.packed() for g in passive], 2 * n)
    for w in range(1, d):
        for support in itertools.combinations(range(n), w):
            for letters in itertools.product(range(3), repeat=w):
                syndrome = 0
                vec = 0
                for q, li in zip(support, letters):
                    syndrome ^= masks[q][li]
                    vec ^= packed[q][li]
                if syndrome:
                    continue
                if harmless is not None and f2._reduce(vec, *harmless) == 0:
                    continue
                return PauliVec.from_packed(vec, n)
    return None


def _random_code(rng, kind, n, rows, degenerate_columns):
    """A small random code: CSS from a binary check, from a quaternary
    check, or straight from random (z|x) rows.  ``degenerate_columns``
    copies one column onto another and clears a third, so that two
    qubits share their syndrome masks and one has none."""
    if kind == "symplectic":
        return build_from_sp(random_bitmatrix(rng, rows, 2 * n))
    grid = rng.integers(0, 2 if kind == "binary" else 4, size=(rows, n))
    if degenerate_columns:
        a, b, c = rng.choice(n, size=3, replace=False)
        grid[:, b] = grid[:, a]
        grid[:, c] = 0
    if kind == "binary":
        return build_eaqecc_binary(BitMatrix.from_rows(grid))
    return build_eaqecc_gf4(F4Matrix.from_rows(grid))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31 - 1),
    kind=st.sampled_from(("binary", "gf4", "symplectic")),
    n=st.integers(3, 9),
    rows=st.integers(1, 4),
    degenerate_columns=st.booleans(),
    variant=st.sampled_from(("plain", "gauge", "ungauge")),
    d=st.integers(1, 5),
    mode=st.sampled_from(("strict", "degenerate")),
)
def test_violator_matches_enumeration(seed, kind, n, rows, degenerate_columns,
                                      variant, d, mode):
    rng = np.random.default_rng(seed)
    code = _random_code(rng, kind, n, rows, degenerate_columns)
    if variant != "plain" and code.c:
        code = gauge_move(code, int(rng.integers(code.c)))
        if variant == "ungauge":
            code = ungauge(code)
    assert find_distance_violator(code, d, mode) == _enumerating_violator(code, d, mode)


def _head_loop_violator(code, d, mode):
    """The head-by-head search that the batched screen filters: for each
    weight w, every weight-(w-1) head in ascending order has the
    syndromes of its 3^(w-1) letterings looked up among the single
    letters on higher qubits, and the hits are tried in enumeration
    order."""
    n = code.n
    test_gens = code._all_gens() if mode == "strict" else code.measured_gens()
    cols = paulis_to_matrix(test_gens).transpose().bits if test_gens else (0,) * (2 * n)
    masks = [(cols[q], cols[q + n], cols[q] ^ cols[q + n]) for q in range(n)]
    lookup = {}
    for q in range(n):
        for li, m in enumerate(masks[q]):
            lookup.setdefault(m, []).append((q, li))
    for w in range(1, d):
        for head in itertools.combinations(range(n), w - 1):
            last = head[-1] if head else -1
            syndromes = [0]
            for q in head:
                syndromes = [s ^ m for s in syndromes for m in masks[q]]
            hits = sorted((q, hi, li) for hi, s in enumerate(syndromes)
                          for q, li in lookup.get(s, ()) if q > last)
            for q, hi, li in hits:
                vec = 0
                for p, pl in zip((*head, q), (*np.unravel_index(hi, (3,) * len(head)), li)):
                    zb, xb = _ORACLE_LETTERS[pl]
                    vec |= (zb << p) | (xb << (p + n))
                if mode == "strict" or not code.is_harmless(vec):
                    return PauliVec.from_packed(vec, n)
    return None


def _random_wide_code(rng, kind, n, rows, columns):
    """A random code on n qubits, as ``_random_code`` draws them, with
    rows capped at the column count.  ``columns`` "copy" makes one qubit
    a copy of another (errors on the two share a syndrome); "sum" makes
    one qubit's columns the sum of two others', so the same letter on
    all three has zero syndrome and some two-qubit head has a real
    completion."""
    if kind == "symplectic":
        grid = rng.integers(0, 2, size=(min(rows, 2 * n), 2 * n))
    else:
        grid = rng.integers(0, 2 if kind == "binary" else 4, size=(min(rows, n), n))
    if columns != "plain":
        a, b, c = rng.choice(n, size=3, replace=False)
        for off in ((0, n) if kind == "symplectic" else (0,)):
            if columns == "copy":
                grid[:, b + off] = grid[:, a + off]
            elif kind == "gf4":
                grid[:, c] = [gf4.f4_add(int(x), int(y)) for x, y in zip(grid[:, a], grid[:, b])]
            else:
                grid[:, c + off] = grid[:, a + off] ^ grid[:, b + off]
    if kind == "symplectic":
        return build_from_sp(BitMatrix.from_rows(grid))
    if kind == "binary":
        return build_eaqecc_binary(BitMatrix.from_rows(grid))
    return build_eaqecc_gf4(F4Matrix.from_rows(grid))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31 - 1),
    kind=st.sampled_from(("binary", "gf4", "symplectic")),
    n=st.integers(10, 40),
    rows=st.integers(4, 80),
    columns=st.sampled_from(("plain", "copy", "sum")),
    variant=st.sampled_from(("plain", "gauge", "ungauge")),
    d=st.integers(4, 5),
    mode=st.sampled_from(("strict", "degenerate")),
)
# 70 tested generators, and d = 5 verified through batches of two- and
# three-qubit heads
@example(seed=43496, kind="gf4", n=36, rows=79, columns="plain", variant="plain", d=5,
         mode="degenerate")
# a weight-3 violator that the screen passes to the exact step
@example(seed=60582, kind="gf4", n=26, rows=49, columns="sum", variant="plain", d=5,
         mode="degenerate")
def test_screened_violator_matches_head_loop(seed, kind, n, rows, columns, variant, d, mode):
    """The screened search against the head-by-head one at the sizes
    where heads of two and three qubits are screened in batches."""
    rng = np.random.default_rng(seed)
    code = _random_wide_code(rng, kind, n, rows, columns)
    if variant != "plain" and code.c:
        code = gauge_move(code, int(rng.integers(code.c)))
        if variant == "ungauge":
            code = ungauge(code)
    assert find_distance_violator(code, d, mode) == _head_loop_violator(code, d, mode)


@pytest.mark.parametrize("batch", [1, 30, 200, 2000])
def test_screened_violator_with_small_batches(monkeypatch, batch):
    """Batch bounds that split the heads anywhere, down to one prefix per
    batch, some of whose prefixes have no heads at all."""
    monkeypatch.setattr(codes, "_SCREEN_BATCH", batch)
    rng = np.random.default_rng(batch)
    for kind, columns, mode in [("binary", "sum", "strict"), ("gf4", "plain", "degenerate"),
                                ("symplectic", "sum", "degenerate"), ("gf4", "sum", "strict")]:
        code = _random_wide_code(rng, kind, 14, 12, columns)
        assert find_distance_violator(code, 5, mode) == _head_loop_violator(code, 5, mode)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_violator_of_code_detecting_every_error(n):
    """Every qubit carries an entanglement pair (Z, X), so no error is
    undetected, and every weight's heads, however few, are searched."""
    pairs = tuple((PauliVec(n, 1 << q, 0), PauliVec(n, 0, 1 << q)) for q in range(n))
    code = QuantumCode(n=n, gens_e=pairs)
    for mode in ("strict", "degenerate"):
        assert [find_distance_violator(code, d, mode) for d in range(1, n + 3)] == [None] * (n + 2)


@pytest.mark.parametrize("mode", ["strict", "degenerate"])
def test_screen_sends_few_heads_to_the_exact_step(monkeypatch, mode):
    """bch63 at d = 4: no letter on a higher qubit completes any of its
    C(63, 2) = 1953 two-qubit heads, so every head that reaches the exact
    step is a slot collision.  At most 2 % may; a weaker key or a smaller
    table sends more.  The empty and one-qubit heads all go through."""
    sizes = []
    exact_step = codes._head_violator

    def spy(code, mode, head, *rest):
        sizes.append(len(head))
        return exact_step(code, mode, head, *rest)

    monkeypatch.setattr(codes, "_head_violator", spy)
    assert find_distance_violator(builtin("bch63"), 4, mode) is None
    assert (sizes.count(0), sizes.count(1)) == (1, 63)
    assert sizes.count(2) <= 0.02 * math.comb(63, 2)


def test_violator_of_code_without_generators():
    bare = QuantumCode(n=3)
    for mode in ("strict", "degenerate"):
        assert find_distance_violator(bare, 1, mode) is None
        assert str(find_distance_violator(bare, 2, mode)) == "XII"


_MACKAY_D3 = "I" * 23 + "X" + "I" * 59 + "X" + "I" * 44

#: first violators (None: the distance holds) of the criterion-3 checks
#: and their one-higher neighbours, recorded from the enumerating search
_PINNED_VIOLATORS = [
    ("steane7", 3, "strict", None),
    ("steane7", 4, "strict", "XXXIIII"),
    ("shor9", 3, "degenerate", None),
    ("shor9", 3, "strict", "ZZIIIIIII"),
    ("ea8", 3, "degenerate", None),
    ("ea8", 4, "degenerate", "XXXIIIII"),
    ("eaoq8", 3, "degenerate", None),
    ("eaoq8", 4, "degenerate", "XXXIIIII"),
    ("q15", 4, "strict", None),
    ("q15", 5, "strict", "XYZIIIZIIIIIIII"),
    ("q15_traded", 3, "degenerate", None),
    ("q15_traded", 4, "degenerate", "XYIIIYIIIIIIIII"),
    ("fivequbit", 3, "strict", None),
    ("fivequbit", 4, "strict", "XYXII"),
    ("mackay", 3, "strict", _MACKAY_D3),
    ("mackay", 3, "degenerate", _MACKAY_D3),
]


def _named_code(name):
    if name == "q15_traded":
        return q15_traded()
    if name == "mackay":
        return build_eaqecc_binary(qc_ldpc.make_ex_mackay(), name=name)
    if name in ("ex1", "ex2"):
        exponents = qc_ldpc.make_ex1() if name == "ex1" else qc_ldpc.make_ex2()
        return build_eaqecc_binary(qc_ldpc.expand(exponents), name=name)
    return builtin(name)


@pytest.mark.parametrize("name,d,mode,expected", _PINNED_VIOLATORS)
def test_pinned_violators(name, d, mode, expected):
    got = find_distance_violator(_named_code(name), d, mode)
    assert (None if got is None else str(got)) == expected


#: first violators of the searches whose heads of two or more qubits are
#: screened in batches, recorded from the head-by-head search before the
#: screen existed
_PINNED_LARGE_VIOLATORS = [
    ("bch63", 4, "degenerate", None),
    ("bch63", 5, "degenerate", None),
    ("ex1", 4, "strict", None),
    ("ex1", 4, "degenerate", None),
    ("ex2", 4, "strict", None),
    ("ex2", 4, "degenerate", None),
    ("mackay", 4, "strict", _MACKAY_D3),
    ("mackay", 4, "degenerate", _MACKAY_D3),
]


@pytest.mark.parametrize("name,d,mode,expected", _PINNED_LARGE_VIOLATORS)
def test_pinned_violators_of_larger_codes(name, d, mode, expected):
    got = find_distance_violator(_named_code(name), d, mode)
    assert (None if got is None else str(got)) == expected


@pytest.mark.parametrize("name,d,mode", [("bch63", 4, "degenerate"), ("q15", 5, "strict"),
                                         ("ea8", 4, "strict")])
def test_violator_matches_enumeration_on_builtins(name, d, mode):
    code = _named_code(name)
    assert find_distance_violator(code, d, mode) == _enumerating_violator(code, d, mode)


@pytest.mark.parametrize("name,d", [("steane7", 4), ("q15", 4), ("bch63", 3), ("bch63", 4)])
def test_budget_boundary(name, d):
    code = builtin(name)
    total = sum(math.comb(code.n, w) * 3 ** w for w in range(1, d))
    for mode in ("strict", "degenerate"):
        with pytest.raises(VerificationBudgetError, match=rf"needs {total} candidates "
                                                          rf"\(> budget {total - 1}\)"):
            find_distance_violator(code, d, mode, budget=total - 1)
        find_distance_violator(code, d, mode, budget=total)


_BUILTIN_REPORTS = {
    "shor9": ("[[9,1,3;0]]", True, True, None, 3),
    "steane7": ("[[7,1,3;0]]", True, True, True, 3),
    "ea8": ("[[8,1,3;1]]", False, True, None, 3),
    "eaoq8": ("[[8,1,3;2,1]]", False, True, None, 3),
    "bch63": ("[[63,21,9;6]]", False, True, None, None),
    "q15": ("[[15,9,4;4]]", False, True, True, 4),
    "fivequbit": ("[[5,1,3;0]]", True, True, True, 3),
    "q15_traded": ("[[15,9,3;1,3]]", False, True, True, 3),
}


@pytest.mark.parametrize("name", sorted(_BUILTIN_REPORTS))
def test_builtin_reports_unchanged(name):
    assert astuple(make_report(_named_code(name))) == _BUILTIN_REPORTS[name]


#: ``css`` of the Pauli-string codes as (hz rows over Z, hx rows over X):
#: the pure-Z and pure-X measured generators, entanglement pairs included
_PAULI_CSS = {
    "shor9": (("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ"),
              ("XXXIIIXXX", "XXXXXXIII")),
    "steane7": (("IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"), ("IIIXXXX", "IXXIIXX", "XIXIXIX")),
    "ea8": (("ZZIIIIII", "ZIZIIIII", "IIIZZIII", "IIIZIZII", "IIIIIIZZ", "IIIIIIIZ"),
            ("XXXXXXII", "XXXIIIXX")),
    "eaoq8": (("ZZIZZIII", "ZIZZIZII", "IIIIIIZZ", "IIIIIIIZ"), ("XXXXXXII", "XXXIIIXX")),
    "fivequbit": None,
    "q15_traded": None,
}


@pytest.mark.parametrize("name", sorted(_PAULI_CSS))
def test_pauli_code_css(name):
    css = _named_code(name).css
    expect = _PAULI_CSS[name]
    if expect is None:
        assert css is None
        return
    assert (css.hz, css.hx) == tuple(
        BitMatrix.from_rows([[ch != "I" for ch in r] for r in rows]) for rows in expect)
    # steane7's halves are equal by value, so sim decodes them on one graph
    assert (css.hz == css.hx) is (name == "steane7")


# -- derived-code pins ----------------------------------------------------------

#: sha256 of ``to_stabilizer_table`` of each derived code, recorded before
#: the derived codes re-indexed qubits through ``PauliVec`` fields;
#: ``gauge_move`` moves pair 0 of every code with an entanglement pair
PINNED_DERIVED = {
    ("shor9", "extend"): "396f5e927b208c8c0bdc638d33861095f0250d1fab93c461f1572d8d398ff116",
    ("shor9", "puncture"): "fcea5b4932dfff6195a32d0175bf9232bf1ab1171bad6d6e39fc76ead854ce9d",
    ("steane7", "extend"): "4a7363736898db448be8769b5e448d837a38e22ff6a9d74f4edb2080c2ede0ab",
    ("steane7", "puncture"): "6ba1aa948d969299db79a9a4fb0bf68fbd0f22434b71fe9fccefb7e50645d2a4",
    ("ea8", "extend"): "d8d318063f3f56c90734c8a0a8a8f48624ad4771e695614f9a5104c6fe18d3a9",
    ("ea8", "puncture"): "3599752dc3aa2c5c3cfa57395e6bcc1c06499b3697974a898f9ed89a6069da10",
    ("ea8", "gauge"): "fa38a6bfb865a654ebba1243f273f36d1dbde91912d4664f0c556f3834ecc4df",
    ("eaoq8", "extend"): "ed985f18de7a77dd3455ada3fc5f574df48dd75a195f785255b598c79d48a198",
    ("eaoq8", "puncture"): "ac68aa78e996a6655af12d018576093cccd7955c76bfc6e1e9e21a7a13dd51b3",
    ("eaoq8", "gauge"): "4424d2d897608e5a5bb94020fd3a8a84d1299931853981a4b759d26fd075338e",
    ("bch63", "extend"): "68f8b02cfdf52dd814979d72f487da03b88b87bace6885abc063b4f5d4ae6914",
    ("bch63", "puncture"): "dd35e973b54e59eb6a3cb8fab66936e2051fbf40c6d64e24ad754ad88d49b93a",
    ("bch63", "gauge"): "78b599b36a503d13c3bd813211db728d3fa8eb4ac0aa43654cace0dd2a8a7c74",
    ("q15", "extend"): "ba032d0e42b1a14d42c1adeb17f1be8092a9469f73ea2bd17ba84be6cafa9a3a",
    ("q15", "puncture"): "111615b1b7ebf74717dd53d27ede542f6ab5d42b3558fd037bdc25b9f2492753",
    ("q15", "gauge"): "08819e89ce1378c0422022278b32afcc1ab44d896ccc9078c0290737f3baa731",
    ("fivequbit", "extend"): "3ff021349aa16476d0d500655e037723193bb3e74133f097a4b770b1a69bda0e",
    ("fivequbit", "puncture"): "27a873a05dce331c1372db490f0cbfab2ab644e3732ccd328f291ef96b4a2701",
    ("q15_traded", "extend"): "ba032d0e42b1a14d42c1adeb17f1be8092a9469f73ea2bd17ba84be6cafa9a3a",
    ("q15_traded", "puncture"): "111615b1b7ebf74717dd53d27ede542f6ab5d42b3558fd037bdc25b9f2492753",
    ("q15_traded", "gauge"): "5f3326c578e7f4774586bd50f9e7f11888e6caa579bf0f3b9fd9ee446fe32a02",
    ("ex1", "extend"): "4bb092c2dcfd16fb5a02d327a84dd067be9f85cf17da898713126d93bf98d684",
    ("ex1", "puncture"): "7264923965249340ef3c67d66fdc759b784046fff7c2ba87712cc9d275f8a3cd",
    ("ex1", "gauge"): "174a79915ae5b36a93cae979fe42805de37988e35ba4874b71c3052a8847ff31",
    ("ex2", "extend"): "977060d6a74a11faf72bb54949f263555640da6e52515c6de11d71bba415ddc7",
    ("ex2", "puncture"): "f54e55dba65e96644bb136c0029b5fbac156ee07c5f3c38f732b5b4f390c3303",
    ("ex2", "gauge"): "35541fd5a6ea977813f1ac74ab40ff91fae08c2f85a2fd4db3b3b7bbbd2ecdee",
    ("mackay", "extend"): "046517255320f7c8826316eb57ba7dc16ca6f7958e207b5c879a30907c6d3f1f",
    ("mackay", "puncture"): "7819a946da9ac25a6f07f6c7dd722e63409db057fddb91e79d2432b84b6c3e16",
    ("hi", "extend"): "22e45d54f6dea224323e0335e57c10e1ca6fb6ce88a0524650aea86b419d15a0",
    ("hi", "puncture"): "2303b505a6c720edb56466e9aea570b92546384a15bd9f3b5d038488d063eedd",
}

_DERIVE = {
    "extend": extend_code,
    "puncture": puncture_code,
    "gauge": lambda code: gauge_move(code, 0),
}


def test_derived_pins_cover_every_applicable_named_code():
    for name, entry in codes.NAMED.items():
        code = entry.build()
        expect = {"extend", "puncture"} | ({"gauge"} if code.gens_e else set())
        assert {op for n, op in PINNED_DERIVED if n == name} == expect, name


@pytest.mark.parametrize("name, op", PINNED_DERIVED)
def test_derived_code_tables_pinned(name, op):
    table = codes.to_stabilizer_table(_DERIVE[op](builtin(name)))
    assert hashlib.sha256(table.encode()).hexdigest() == PINNED_DERIVED[name, op]
