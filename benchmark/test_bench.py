"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmark/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stabkit import codes, sim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sweep_result(errors):
    pts = []
    for p, e in zip((0.005, 0.01), errors):
        lo, hi = sim.wilson_interval(e, 250)
        pts.append(sim.SimPoint(p, 250, e, e / 250, lo, hi))
    return sim.SimResult(tuple(pts))


def _checker(work, op, result, seed=7):
    inv, seeded, _ = work.describe(op.id, result, None)
    reference = {"invariant": {"w": inv}, "seeded": {"w": {str(seed): seeded}}}
    return gate.Checker("w", seed, reference)


def test_gate_catches_perturbed_csv():
    work = workloads.make("mc_low_p", 7)
    op = workloads.Op("sweep.ex1.w1", "a", None)
    checker = _checker(work, op, _sweep_result((0, 1)))
    checker.check_round(work, None, [(op, _sweep_result((0, 1)), None)])
    assert checker.correct and checker.attempted == 1
    checker.check_round(work, None, [(op, _sweep_result((0, 2)), None)])
    assert not checker.correct and checker.failed == 1


def test_gate_catches_worker_count_dependence():
    work = workloads.make("mc_low_p", 1234)   # no stored reference
    checker = gate.Checker("mc_low_p", 1234, {"invariant": {}, "seeded": {}})
    w1 = workloads.Op("sweep.ex1.w1", "a", None)
    w2 = workloads.Op("sweep.ex1.w2", "b", None)
    checker.check_round(work, None, [(w1, _sweep_result((3, 4)), None),
                                     (w2, _sweep_result((3, 5)), None)])
    assert checker.failed == 1 and "disagrees" in checker.problems[0]


def test_gate_catches_perturbed_report():
    work = workloads.make("construct", 7)
    op = workloads.Op("build.q15", "", None)
    q15 = codes.builtin("q15")
    checker = _checker(work, op, q15)
    checker.check_round(work, None, [(op, q15, None)])
    assert checker.correct
    checker.check_round(work, None, [(op, codes.gauge_move(q15, 0), None)])
    assert checker.failed == 1
    assert any("params" in p for p in checker.problems)


def test_gate_counts_a_raising_operation():
    work = workloads.make("construct", 7)
    op = workloads.Op("build.q15", "", None)
    checker = gate.Checker("construct", 7, {"invariant": {}, "seeded": {}})
    checker.check_round(work, None, [(op, None, "ValueError: boom")])
    assert (checker.attempted, checker.failed) == (1, 1)


def _span(sid, t0, t1, parent=None, name="x"):
    return (sid, name, t0, t1, parent, "op", None)


def test_self_time_on_synthetic_tree():
    # root [0, 10]; children a [1, 4] and b [3, 6] overlap (two threads);
    # a has a child [2, 3]
    spans = [_span(0, 0, 10), _span(1, 1, 4, 0), _span(2, 3, 6, 0), _span(3, 2, 3, 1)]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})
    assert tracer.containment_errors(spans) == []
    bad = spans + [_span(4, 9, 11, 0)]
    assert any("leaves parent" in e for e in tracer.containment_errors(bad))


def test_tracer_restores_the_library():
    t = tracer.Tracer()
    before = sim.decode
    t.install()
    try:
        assert sim.decode is not before and sim.decode.__wrapped__ is before
    finally:
        t.uninstall()
    assert sim.decode is before


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "analyze", "--seconds", "0.1",
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_perturbed_reference_fails_the_command(capsys):
    reference = gate.load_reference()
    key = "distance.mackay.d3.strict.weight"
    reference["invariant"]["analyze"][key] += 1
    rc = run.main(["--workload", "analyze", "--seconds", "0.1"], reference=reference)
    result = _last_json(capsys.readouterr().out)
    assert rc == 1
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_library_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "mc_low_p", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
