#!/usr/bin/env python3
"""Run one stabkit benchmark workload and print its metrics.

    python3 benchmark/run.py --workload mc_low_p --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  The run sets up the workload ``SETUP_REPEATS`` times, then
repeats rounds of the workload's operations until ``--seconds`` have
passed, checking every output against ``reference.json``.  It prints a
table of every metric with its unit and sample count, a run-record line,
and as the last line one JSON object with the metrics that
``BENCHMARK.json`` names: the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The exit code is 0 when every output
was correct, 1 when one was not and 2 when the library cannot be loaded.

With ``--trace 1`` rounds alternate between untraced and traced (at
least three rounds); spans are kept in memory and written to
``.bench_out/`` at the end.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 7
SETUP_REPEATS = 3
# fastest host_probe() on a 2-core Intel Xeon host (Python 3.11.7, numpy
# 2.4.6); scaled times are reported at this host speed
PROBE_REF_S = 0.012
SEGMENT_S = 0.2


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outputs", metavar="FILE",
                    help="also write the output fields and run record to FILE")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def import_library():
    """Import stabkit from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import stabkit
    import stabkit.cli  # noqa: F401  (its import cost belongs to set-up)

    if Path(stabkit.__file__).resolve().parent.parent != src:
        raise ImportError(f"stabkit resolved to {stabkit.__file__}, not under {src}")


def run_record(args) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "git_sha": sha, "src_sha256": tree.hexdigest(),
    }


def host_probe() -> float:
    """Seconds for a fixed kernel that does not touch stabkit.  Half of it
    is Python integer bit operations (like SGS and distance enumeration),
    half small numpy gathers and products over a few hundred edges (like
    one sum-product iteration)."""
    import numpy as np

    t0 = time.perf_counter()
    x, acc, mask = 0x9E3779B97F4A7C15, 0, (1 << 64) - 1
    for _ in range(15000):
        x ^= (x << 13) & mask
        x ^= x >> 7
        x ^= (x << 17) & mask
        acc += bin(x & 0xFFFF).count("1")
    slots = (np.arange(48 * 8) * 37 % 385).reshape(48, 8)
    msg = np.linspace(0.1, 0.9, 385)
    for _ in range(300):
        prod = np.cumprod(np.append(msg, 1.0)[slots], axis=1)
        msg = np.maximum((1.0 + prod.ravel()[:385]) / 2.0, 1e-300)
    return time.perf_counter() - t0


class Clock:
    """Host probes taken between timed operations.

    Other tenants of the host slow the whole machine by up to 2x, for
    seconds at a time.  A probe runs after every ``SEGMENT_S`` of timed
    work, and each round (or set-up) is also reported scaled by
    ``PROBE_REF_S`` over the median probe taken during it: its time at
    the reference host speed.
    """

    def __init__(self):
        self.probes = [host_probe()]
        self._since = 0.0

    def tick(self, seconds: float, close: bool = False):
        """Account ``seconds`` of timed work; probe when due."""
        self._since += seconds
        if close or self._since >= SEGMENT_S:
            self.probes.append(host_probe())
            self._since = 0.0

    def scale(self, first: int) -> float:
        """Scale factor for the work since probe ``first``."""
        return PROBE_REF_S / median(self.probes[first:])


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.ops = []              # in order
        self.times: dict = {}      # op id -> raw seconds
        self.scale = 1.0

    def total(self, scaled: bool = True, leg=None) -> float:
        """Sum of the times of one leg, or of all operations."""
        raw = sum(self.times[op.id] for op in self.ops if leg is None or op.leg == leg)
        return raw * self.scale if scaled else raw


def run_round(work, state, checker, clock, tracer=None) -> Round:
    """One pass over the workload's operations; outputs are checked after
    the timed part, with the tracer removed."""
    rnd = Round(tracer is not None)
    results = []
    rnd.ops = work.ops(state)
    first = len(clock.probes) - 1
    if tracer is not None:
        tracer.install()
    try:
        for k, op in enumerate(rnd.ops):
            error = result = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.fn()
                else:
                    tracer.op = op.id
                    with tracer.span("op." + op.id):
                        result = op.fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            rnd.times[op.id] = time.perf_counter() - t0
            clock.tick(rnd.times[op.id], close=k == len(rnd.ops) - 1)
            results.append((op, result, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    rnd.scale = clock.scale(first)
    checker.check_round(work, state, results)
    return rnd


def measure(args, work, checker, tracer, clock):
    """Set-up repeats, then rounds until the time is up.  Returns
    (set-up times as (raw, scaled), traced set-up spans, rounds)."""
    setups = []
    setup_spans = []
    for i in range(2 if tracer else SETUP_REPEATS):
        traced = tracer is not None and i == 1
        if traced:
            tracer.install()
            tracer.op = "setup"
        first = len(clock.probes) - 1
        t0 = time.perf_counter()
        try:
            state = work.setup()
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None
                setup_spans = list(tracer.spans)
        seconds = time.perf_counter() - t0
        clock.tick(seconds, close=True)
        setups.append((seconds, seconds * clock.scale(first)))

    rounds = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(work, state, checker, clock, tracer if traced else None))
        enough = len(rounds) >= (3 if tracer else 1)
        if enough and time.perf_counter() - t0 + min(r.total(False) for r in rounds) > args.seconds:
            return setups, setup_spans, rounds


def main(argv=None, reference=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot load stabkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    import gate
    import tracer as tr
    import workloads as wl

    if reference is None:
        reference = gate.load_reference()
    work = wl.make(args.workload, args.seed)
    checker = gate.Checker(args.workload, args.seed, reference)
    tracer = tr.Tracer() if args.trace else None
    clock = Clock()
    setups, setup_spans, rounds = measure(args, work, checker, tracer, clock)

    plain = [r for r in rounds if not r.traced]
    n = len(plain)
    table = {}
    for scaled, suffix in ((True, ""), (False, ".raw")):
        imports = import_s * PROBE_REF_S / clock.probes[0] if scaled else import_s
        table[f"setup_s{suffix}"] = (
            imports + median(t[scaled] for t in setups), "s", len(setups))
        table[f"round_s{suffix}"] = (median(r.total(scaled) for r in plain), "s", n)
        for leg in ("a", "b"):
            table[f"leg_{leg}_s{suffix}"] = (median(r.total(scaled, leg) for r in plain), "s", n)
    table["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    table["host_speed"] = (median(PROBE_REF_S / p for p in clock.probes), "x", len(clock.probes))
    op_raw = {op.id: median(r.times[op.id] for r in plain) for op in plain[0].ops}
    table.update(work.headline(op_raw, {leg: table[f"leg_{leg}_s.raw"][0] for leg in "ab"}, n))
    table["failed_frac"] = (checker.failed / max(checker.attempted, 1), "frac", checker.attempted)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if tracer is not None:
        traced = [r for r in rounds if r.traced]
        round_spans = tracer.spans[len(setup_spans):]
        table.update(tr.layer_metrics(setup_spans, round_spans, len(traced)))
        # raw times of neighbouring rounds: a round of one long operation
        # gets too few probes for its scale to beat the raw ratio.  The
        # first round of a process pays warm-up, so it is left out.
        warm = [r for r in rounds[1:] if not r.traced]
        table["trace_overhead_frac"] = (
            median(r.total(False) for r in traced) / median(r.total(False) for r in warm) - 1,
            "frac", len(rounds) - 1)
        for err in tr.containment_errors(tracer.spans):
            checker.problems.append(f"trace: {err}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz")

    record = run_record(args)
    print(f"{'metric':32} {'value':>14} {'unit':6} {'n':>7}")
    for name, (value, unit, count) in table.items():
        print(f"{name:32} {value:14.6g} {unit:6} {count:7d}")
    for line in checker.problems[:20]:
        print(f"FAILED {line}")
    if checker.seeded is None:
        print(f"seed {args.seed} has no stored reference: seeded outputs were checked "
              "between rounds only; compare commits with --outputs and gate.py compare")
    print("record " + json.dumps(record, sort_keys=True))
    if args.outputs:
        Path(args.outputs).write_text(json.dumps(
            {"record": record, "fields": checker.fields or {}, "problems": checker.problems},
            indent=1, sort_keys=True) + "\n")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]} for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
