import hashlib
import io
from contextlib import redirect_stdout

import pytest

from stabkit import codes, f2, gf4
from stabkit.cli import main
from stabkit.codes import bch63_matrix, hamming_matrix, q15_matrix
from stabkit.pauli import load_stabilizer_table, paulis_to_matrix


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "hamming.txt"
    path.write_text(f2.format_dense(hamming_matrix()))
    return str(path)


@pytest.fixture
def q15_file(tmp_path):
    path = tmp_path / "q15.txt"
    path.write_text(gf4.format_f4(q15_matrix()))
    return str(path)


@pytest.fixture
def bch_file(tmp_path):
    path = tmp_path / "bch.txt"
    path.write_text(f2.format_dense(bch63_matrix()))
    return str(path)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def test_construct_hamming(hamming_file):
    rc, out = run_cli("construct", "--input", hamming_file)
    assert rc == 0
    assert "[[7,1;0]]" in out
    assert "dual-containing: yes" in out


def test_construct_q15(q15_file):
    rc, out = run_cli("construct", "--input", q15_file, "--field", "gf4")
    assert rc == 0
    assert "[[15,9;4]]" in out
    assert "dual-containing: no" in out


def test_construct_bch(bch_file):
    rc, out = run_cli("construct", "--input", bch_file)
    assert rc == 0
    assert "[[63,21;6]]" in out


def test_construct_reads_alist(tmp_path):
    path = tmp_path / "hamming.alist"
    path.write_text(f2.format_alist(hamming_matrix()))
    rc, out = run_cli("construct", "--input", str(path))
    assert rc == 0
    assert "[[7,1;0]]" in out


def test_construct_round_trips_generators(hamming_file):
    rc, out = run_cli("construct", "--input", hamming_file, "--claimed-d", "3")
    assert rc == 0
    table_lines = [ln.strip() for ln in out.splitlines()
                   if ln.startswith("  ") and set(ln.strip()) <= set("IXYZ|")]
    gens = load_stabilizer_table("\n".join(table_lines))
    reparsed = paulis_to_matrix(gens)
    original = codes.build_eaqecc_binary(hamming_matrix()).generator_matrix()
    stack = reparsed.vstack(original)
    assert f2.rank(reparsed) == f2.rank(original) == f2.rank(stack)


def test_analyze_reports_rank_and_girth(hamming_file):
    rc, out = run_cli("analyze", "--input", hamming_file,
                      "--distance", "3", "--mode", "strict")
    assert rc == 0
    assert "rank 3" in out
    assert "rank(H H^T): 0" in out
    assert "distance 3 (strict): verified" in out


def test_analyze_gf4(q15_file):
    rc, out = run_cli("analyze", "--input", q15_file, "--field", "gf4",
                      "--distance", "4", "--mode", "strict")
    assert rc == 0
    assert "dual-containing: no" in out
    assert "ebits: 4" in out
    assert "distance 4 (strict): verified" in out


def test_qcldpc_ex1_report():
    rc, out = run_cli("qcldpc", "--example", "ex1")
    assert rc == 0
    assert "girth (exact): 6" in out
    assert "rank(H H^T): 18" in out
    assert "computed: [[128,58;18]]" in out
    assert "claimed:  [[128,48,6;18]]" in out


def test_qcldpc_ex2_report_matches_computed_girth():
    from stabkit import qc_ldpc
    rc, out = run_cli("qcldpc", "--example", "ex2")
    assert rc == 0
    true_girth = qc_ldpc.girth_exact(qc_ldpc.expand(qc_ldpc.make_ex2()))
    assert f"girth (exact): {true_girth}" in out
    assert "rank(H H^T): 18" in out


def test_qcldpc_hi_report():
    rc, out = run_cli("qcldpc", "--example", "hi")
    assert rc == 0
    assert "computed: [[120,38;0]]" in out
    assert "claimed:  [[120,38,4]]" in out


def test_qcldpc_mackay_matrix_alist():
    rc, out = run_cli("qcldpc", "--example", "mackay", "--emit", "matrix",
                      "--format", "alist", "--seed", "3")
    assert rc == 0
    parsed = f2.parse_alist(out)
    assert (parsed.rows, parsed.cols) == (48, 128)


def test_qcldpc_exponent_file(tmp_path):
    from stabkit import qc_ldpc
    path = tmp_path / "exp.txt"
    path.write_text(qc_ldpc.format_exponent(qc_ldpc.make_ex1()))
    rc, out = run_cli("qcldpc", "--exponent", str(path), "--emit", "matrix")
    assert rc == 0
    assert f2.parse_dense(out).bits == qc_ldpc.expand(qc_ldpc.make_ex1()).bits


def test_qcldpc_needs_source():
    rc, _ = run_cli("qcldpc")
    assert rc == 2


def test_simulate_zero_p():
    rc, out = run_cli("simulate", "--code", "steane7", "--p", "0",
                      "--trials", "100", "--seed", "0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,trials,block_errors,wer,ci_lo,ci_hi"
    assert lines[1].startswith("0,100,0,0,")


def test_simulate_deterministic():
    args = ("simulate", "--code", "steane7", "--p", "0.01,0.02",
            "--trials", "200", "--seed", "7")
    rc1, out1 = run_cli(*args)
    rc2, out2 = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_simulate_bad_p():
    rc, _ = run_cli("simulate", "--code", "steane7", "--p", "zzz",
                    "--trials", "10")
    assert rc == 2


def test_simulate_rejects_empty_grid(capsys):
    rc, out = run_cli("simulate", "--code", "steane7", "--p", ",", "--trials", "5")
    assert rc == 2 and out == ""
    assert "p_grid must not be empty" in capsys.readouterr().err


def test_simulate_rejects_nonpositive_max_iter(capsys):
    rc, _ = run_cli("simulate", "--code", "steane7", "--p", "0", "--max-iter", "0")
    assert rc == 2
    assert "max_iter must be at least 1" in capsys.readouterr().err


def test_simulate_unknown_code():
    rc, _ = run_cli("simulate", "--code", "/does/not/exist", "--p", "0.01",
                    "--trials", "10")
    assert rc == 2


def test_builtin_reports():
    for name in codes.BUILTIN_NAMES:
        rc, out = run_cli("builtin", name)
        assert rc == 0
        assert "computed:" in out and "claimed:" in out


def test_sgs_command(tmp_path):
    hsp = codes.css_sp_matrix(hamming_matrix())
    path = tmp_path / "hsp.txt"
    path.write_text(f2.format_dense(hsp))
    rc, out = run_cli("sgs", "--input", str(path))
    assert rc == 0
    assert "n=7 c=0 ell=6" in out


def test_usage_error_exit_code():
    rc, _ = run_cli("frobnicate")
    assert rc == 1
    rc, _ = run_cli("construct")  # missing required --input
    assert rc == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    rc, _ = run_cli("construct", "--input", str(bad))
    assert rc == 2
    rc, _ = run_cli("construct", "--input", str(tmp_path / "missing.txt"))
    assert rc == 2


def test_truncated_alist_exit_code(tmp_path, capsys):
    bad = tmp_path / "short.alist"
    bad.write_text("5 3\n1 1\n1 1 1 1 1\n1 1 1\n1\n")
    rc, out = run_cli("construct", "--input", str(bad))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in out + err
    assert "alist file truncated" in err


def test_contradicting_alist_exit_code(tmp_path, capsys):
    lines = f2.format_alist(f2.BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])).splitlines()
    lines[-1] = "1 2"     # row 2 claims columns 1 and 2; the columns say 2 and 3
    bad = tmp_path / "contradicting.alist"
    bad.write_text("\n".join(lines) + "\n")
    rc, out = run_cli("construct", "--input", str(bad))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in out + err
    assert "disagrees with the column lists" in err


@pytest.mark.parametrize("text, message", [
    ("2 3\n010\n", "expected 2 matrix rows, found 1"),
    ("2 3\n010\n01\n", "bad dense row: '01'"),
])
def test_malformed_dense_reports_dense_error(tmp_path, capsys, text, message):
    bad = tmp_path / "short.txt"
    bad.write_text(text)
    rc, out = run_cli("construct", "--input", str(bad))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in out + err
    assert message in err
    assert "alist" not in err


def test_two_matrices_back_to_back_exit_code(tmp_path, capsys):
    """``qcldpc --example hi --emit matrix`` prints two dense matrices;
    read back as one, the second one's rows are past the header."""
    rc, text = run_cli("qcldpc", "--example", "hi", "--emit", "matrix")
    assert rc == 0
    rows = int(text.split()[0])
    path = tmp_path / "hi.txt"
    path.write_text(text)
    rc, out = run_cli("construct", "--input", str(path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in out + err
    assert f"expected {rows} matrix rows, found {2 * rows + 1}" in err


@pytest.mark.parametrize("command, spaced, compact", [
    ("construct", "2 2\n1 0\n0 1\n", "2 2\n10\n01\n"),
    ("sgs", "1 2\n1 0\n", "1 2\n10\n"),
])
def test_dense_rows_may_be_spaced(tmp_path, command, spaced, compact):
    outs = []
    for text in (spaced, compact):
        path = tmp_path / "h.txt"
        path.write_text(text)
        rc, out = run_cli(command, "--input", str(path))
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_nonpositive_workers(workers, capsys):
    rc, out = run_cli("simulate", "--code", "steane7", "--p", "0.01", "--trials", "10",
                      "--workers", workers)
    assert rc == 2
    assert out == ""
    assert "workers must be at least 1" in capsys.readouterr().err


def test_budget_exit_code(bch_file):
    rc, _ = run_cli("analyze", "--input", bch_file, "--distance", "9")
    assert rc == 3


@pytest.mark.parametrize("distance", ["0", "-2"])
def test_analyze_rejects_nonpositive_distance(hamming_file, distance, capsys):
    rc, out = run_cli("analyze", "--input", hamming_file, "--distance", distance)
    assert rc == 2
    assert not any(ln.startswith("distance ") for ln in out.splitlines())
    assert "distance must be positive" in capsys.readouterr().err


def test_analyze_names_violator(hamming_file):
    rc, out = run_cli("analyze", "--input", hamming_file,
                      "--distance", "4", "--mode", "strict")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-2:] == ["distance 4 (strict): REFUTED", "violator: XXXIIII (weight 3)"]


def test_analyze_verified_prints_no_violator(hamming_file):
    rc, out = run_cli("analyze", "--input", hamming_file,
                      "--distance", "3", "--mode", "degenerate")
    assert rc == 0
    assert out.splitlines()[-1] == "distance 3 (degenerate): verified"
    assert "violator" not in out


@pytest.mark.parametrize("header", ["3 0 3", "3 -1 3", "3 1 0", "0 1 3"])
def test_qcldpc_nonpositive_exponent_header_exit_code(tmp_path, header, capsys):
    path = tmp_path / "exp.txt"
    path.write_text(f"{header}\n0 1 2\n")
    rc, out = run_cli("qcldpc", "--exponent", str(path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in out + err
    assert "must be positive" in err


@pytest.mark.parametrize("argv, message", [
    ("--example mackay --L 0", "row weight L must be even and in 2..n"),
    ("--example mackay --L -2", "row weight L must be even and in 2..n"),
    ("--example ex1 --r 32", "--r 32 conflicts with circulant size 16"),
    ("--example hi --r 16", "--r 16 conflicts with circulant size 15"),
    ("--example ex1 --r 0", "--r 0 conflicts with circulant size 16"),
    ("--example mackay --r 8", "--r does not apply to --example mackay"),
    ("--example ex1 --n 64 --L 4", "--n applies only to --example mackay"),
    ("--example ex2 --m 8", "--m applies only to --example mackay"),
    ("--example hi --L 4", "--L applies only to --example mackay"),
    ("--example ex1 --seed 0", "--seed applies only to --example mackay"),
    ("--seed 3", "--seed applies only to --example mackay"),
])
def test_qcldpc_rejects_flags_its_source_does_not_read(argv, message, capsys):
    rc, out = run_cli("qcldpc", *argv.split())
    assert (rc, out) == (2, "")
    assert message in capsys.readouterr().err


def test_qcldpc_exponent_file_checks_r_and_mackay_flags(tmp_path, capsys):
    path = tmp_path / "exp.txt"
    path.write_text("5 1 2\n0 1+3\n")
    for argv, message in [(["--r", "4"], "--r 4 conflicts with circulant size 5"),
                          (["--n", "10"], "--n applies only to --example mackay"),
                          (["--example", "ex1"], "--example or --exponent, not both")]:
        rc, out = run_cli("qcldpc", "--exponent", str(path), *argv)
        assert (rc, out) == (2, "")
        assert message in capsys.readouterr().err
    assert run_cli("qcldpc", "--exponent", str(path), "--r", "5", "--emit", "matrix")[0] == 0


def test_qcldpc_mackay_flags_default_to_make_ex_mackay():
    """Each unset flag takes make_ex_mackay's default."""
    h = codes.qc_ldpc.make_ex_mackay(m=20, seed=2)
    rc, out = run_cli("qcldpc", "--example", "mackay", "--m", "20", "--seed", "2",
                      "--emit", "matrix")
    assert (rc, out) == (0, f2.format_dense(h))


#: sha256 of the full stdout of report commands, recorded before the named
#: codes moved into one registry in ``codes``
PINNED_REPORTS = {
    "builtin shor9": "a89e21dc2e409c05a437b490e58aeec2a3626322543d558e7ac9470b32c84378",
    "builtin steane7": "13b9430ca63abe19c045d83fb4c433fddc967ecc0dce36c45d8b21f45701cf08",
    "builtin ea8": "8b6f844700871fed6c4d0db596ab81d7e4e5ce4518b4fcfc1b016e8dd47efaa2",
    "builtin eaoq8": "8b026057017b3facc3b3f1905e401b5baae5ebc4cba0005fad39b4ac65fe30d0",
    "builtin bch63": "ba8f75d73b219489095f42520f7aaced979fe19265b71ffb34d7d4c78664d975",
    "builtin q15": "18e8f5e45820b098f3616d2825dc57a819d6032ace0bafe67b7a7511f3e1424f",
    "builtin fivequbit": "1dcb810c8a9536cdcf171f603f9063732983f9ba846d996df826aff448effb2d",
    "qcldpc --example ex1": "563a4526d16705da5eadc1983e77861a47fe3d60333d334416e25f7c092a290c",
    "qcldpc --example ex2": "7319cad1bcca0f8255c66890c8e396e085655aff9e8d0946ba1a8789d0ba8acd",
    "qcldpc --example hi": "307f267a517509944799a31868a4d1d67de9e5d76f8b8251c5732cbcd97e47c9",
    "qcldpc --example mackay": "3389e84a6e674c829e2a049cc2c094a8bad2ab2c40252d017a5bf1b87f749b18",
    "qcldpc --example mackay --emit matrix --format alist --seed 3":
        "423e6165f9c89090d22fb0c091a7f752932c81dee51da48ee743a126bc343582",
}


@pytest.mark.parametrize("command", PINNED_REPORTS)
def test_report_output_pinned(command):
    rc, out = run_cli(*command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[command]


#: ``simulate --p 0.01,0.03 --trials 64 --seed 5`` CSVs, the same in both modes
PINNED_SIMULATE = {
    "ex1": "p,trials,block_errors,wer,ci_lo,ci_hi\n"
           "0.01,64,0,0,0,0.05662405979\n"
           "0.03,64,8,0.125,0.06472242663,0.2277456182\n",
    "hi": "p,trials,block_errors,wer,ci_lo,ci_hi\n"
          "0.01,64,0,0,0,0.05662405979\n"
          "0.03,64,11,0.171875,0.09877742301,0.2821321162\n",
    "steane7": "p,trials,block_errors,wer,ci_lo,ci_hi\n"
               "0.01,64,1,0.015625,0.002763541923,0.083341016\n"
               "0.03,64,4,0.0625,0.0245712014,0.1499748509\n",
}


@pytest.mark.parametrize("mode", ["strict", "degenerate"])
@pytest.mark.parametrize("name", PINNED_SIMULATE)
def test_simulate_output_pinned(name, mode):
    rc, out = run_cli("simulate", "--code", name, "--p", "0.01,0.03", "--trials", "64",
                      "--seed", "5", "--mode", mode)
    assert rc == 0
    assert out == PINNED_SIMULATE[name]


#: ``construct --claimed-d 2|3`` stdout, recorded before the redundant
#: dual-containing recomputation left ``construct``: one dual-containing
#: and one non-dual-containing input per field
PINNED_CONSTRUCT = {
    ("gf2", "3 7\n0001111\n0110011\n1010101\n", "3"):
        "computed: [[7,1,3;0]]\ndual-containing: yes\nsingleton: ok\nhamming: ok\n"
        "verified distance: 3\nS_I:\n  ZIZIZIZ\n  IZZIIZZ\n  IIIZZZZ\n  XIXIXIX\n"
        "  IXXIIXX\n  IIIXXXX\n",
    ("gf2", "2 5\n11010\n01101\n", "2"):
        "computed: [[5,2,2;1]]\ndual-containing: no\nsingleton: ok\nhamming: ok\n"
        "verified distance: 2\nS_I:\n  ZIZZZ|I\n  XIXXX|I\nS_E:\n  IZZIZ|Z\n  IXXIX|X\n",
    ("gf4", "2 6\n1 0 0 1 w w\n0 1 0 w 1 w\n", "2"):
        "computed: [[6,2,2;0]]\ndual-containing: yes\nsingleton: ok\nS_I:\n"
        "  ZXIXIZ\n  XZIIXZ\n  ZIIZXX\n  IZIXZX\n",
    ("gf4", "2 5\n1 w 1 0 0\n0 1 w 1 0\n", "2"):
        "computed: [[5,2,2;1]]\ndual-containing: no\nsingleton: ok\nS_I:\n"
        "  XZZXI|I\n  ZYYZI|I\nS_E:\n  ZIXXI|Z\n  XYXII|X\n",
}


@pytest.mark.parametrize("field, text, d", PINNED_CONSTRUCT)
def test_construct_output_pinned(tmp_path, field, text, d):
    path = tmp_path / "h.txt"
    path.write_text(text)
    rc, out = run_cli("construct", "--input", str(path), "--field", field, "--claimed-d", d)
    assert rc == 0
    assert out == PINNED_CONSTRUCT[field, text, d]


@pytest.mark.parametrize("p", ["0.01", "0"])
def test_simulate_rejects_negative_seed(p, capsys):
    rc, out = run_cli("simulate", "--code", "steane7", "--p", p, "--trials", "10",
                      "--seed", "-1")
    assert rc == 2
    assert out == ""
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("--example ex1 --format alist", "--format applies only to --emit matrix"),
    ("--example mackay --format dense", "--format applies only to --emit matrix"),
    ("--example hi --emit report --format dense", "--format applies only to --emit matrix"),
    ("--example mackay --m 0", "row count m must be at least 1, got 0"),
    ("--example mackay --m -1", "row count m must be at least 1, got -1"),
])
def test_qcldpc_rejects_format_for_reports_and_nonpositive_m(argv, message, capsys):
    rc, out = run_cli("qcldpc", *argv.split())
    assert (rc, out) == (2, "")
    assert message in capsys.readouterr().err


def test_qcldpc_matrix_defaults_to_dense():
    rc, out = run_cli("qcldpc", "--example", "ex1", "--emit", "matrix")
    assert (rc, out) == run_cli("qcldpc", "--example", "ex1", "--emit", "matrix",
                                "--format", "dense")
    assert out == f2.format_dense(codes.qc_ldpc.expand(codes.qc_ldpc.make_ex1()))
