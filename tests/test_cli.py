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
