"""Smoke tests of the experiment scripts, and of the named-code registry
they and the command line read."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stabkit import codes
from stabkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def test_code_zoo_reports_every_named_code():
    proc = run_script("code_zoo.py")
    assert proc.returncode == 0, proc.stderr
    headings = re.findall(r"^==== (\S+) ====$", proc.stdout, flags=re.M)
    assert headings == list(codes.NAMED)
    blocks = proc.stdout.split("==== ")[1:]
    for block, (name, entry) in zip(blocks, codes.NAMED.items()):
        assert "computed: " in block, name
        assert (f"claimed:  {entry.claimed}\n" in block) == (entry.claimed is not None), name


def test_ordering_sweep_prints_one_csv_block_per_code():
    proc = run_script("ordering_sweep.py", "--trials", "20", "--p", "0.01",
                      "--codes", "ex1,mackay")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split(":")[0] for ln in lines if ln.startswith("# ")] == ["# ex1", "# mackay"]
    assert lines.count("p,trials,block_errors,wer,ci_lo,ci_hi") == 2
    assert sum(ln.startswith("0.01,20,") for ln in lines) == 2


def test_ordering_sweep_reports_each_point_on_stderr():
    proc = run_script("ordering_sweep.py", "--trials", "30", "--p", "0.02,0.04",
                      "--codes", "ex1,mackay", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    pattern = (r"# (\S+) p=(\S+): not_converged=\d+ converged_wrong=\d+ "
               r"degenerate_saves=\d+ iterations mean=\d+\.\d\d max=\d+ cycled=(\d+)")
    heads = [re.fullmatch(pattern, ln).groups() for ln in lines]
    assert [h[:2] for h in heads] == [("ex1", "0.02"), ("ex1", "0.04"),
                                      ("mackay", "0.02"), ("mackay", "0.04")]
    assert int(heads[3][2]) > 0
    assert "mean=" not in proc.stdout


def test_ordering_sweep_runs_the_simulate_codes():
    argv = ("--p", "0.01,0.03", "--trials", "40", "--seed", "3")
    proc = run_script("ordering_sweep.py", *argv, "--codes", "mackay")
    assert proc.returncode == 0, proc.stderr
    rc, out = run_cli("simulate", "--code", "mackay", *argv)
    assert rc == 0
    assert proc.stdout.split("\n", 1)[1] == out


@pytest.mark.parametrize("argv, message", [
    (("--codes", "ex1,nope"), "unknown code 'nope'; choose from " + ", ".join(codes.NAMED)),
    (("--codes", "ex1,fivequbit"),
     "fivequbit: simulation needs a code with classical CSS structure"),
    (("--p", "0.01,zzz"), "bad probability list '0.01,zzz'"),
    (("--p", ","), "ex1: p_grid must not be empty"),
])
def test_ordering_sweep_rejects_bad_input_before_sweeping(argv, message):
    proc = run_script("ordering_sweep.py", "--trials", "20", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ordering_sweep_rejects_negative_seed():
    proc = run_script("ordering_sweep.py", "--trials", "20", "--seed", "-1", "--codes", "ex1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "ex1: seed must be non-negative, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_builtin_names_are_the_table_codes():
    assert codes.BUILTIN_NAMES == ("shor9", "steane7", "ea8", "eaoq8", "bch63", "q15",
                                   "fivequbit")
    assert set(codes.BUILTIN_NAMES) <= set(codes.NAMED)


@pytest.mark.parametrize("name", codes.NAMED)
def test_every_named_code_builds_and_reports(name):
    code = codes.NAMED[name].build()
    assert code.name == name
    rc, out = run_cli("builtin", name)
    assert rc == 0
    assert out.startswith(f"computed: {code.params}\n")
    claimed = codes.NAMED[name].claimed
    assert (f"claimed:  {claimed}\n" in out) == (claimed is not None)


@pytest.mark.parametrize("name", codes.NAMED)
def test_report_dual_containing_is_symplectic_self_orthogonality(name):
    code = codes.NAMED[name].build()
    expected = codes.is_dual_containing(code.generator_matrix())
    assert codes.make_report(code, budget=1).dual_containing == expected


def test_builtin_hi_reports_commuting_css_pair():
    # H_C H_D^T = 0, so every Z check commutes with every X check, although
    # neither H_C nor H_D contains its own dual
    rc, out = run_cli("builtin", "hi")
    assert rc == 0
    assert "dual-containing: yes\n" in out


def test_builtin_unknown_lists_named_codes():
    with pytest.raises(KeyError, match="q15_traded"):
        codes.builtin("nope")
