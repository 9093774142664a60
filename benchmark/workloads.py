"""The four benchmark workloads.

Each workload has a ``setup()`` that builds its inputs from the seed and
returns a state, and an ``ops(state)`` that lists the operations of one
round.  A round is the same every time, so rounds can be repeated and
their outputs compared with each other and with the stored references.

Every library call goes through a module attribute (``qc_ldpc.expand``,
``codes.build_eaqecc_binary``, ...) so the tracer's wrappers see it.

``describe(op_id, result, state)`` turns an operation's result into two
dicts of output fields: ``invariant`` fields do not depend on the seed
(code parameters, girths, ranks, distance verdicts), ``seeded`` fields do
(CSV hashes, stabilizer tables, violator strings).  It also returns the
problems it can see without a reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stabkit import codes, f2, gf4, pauli, qc_ldpc, sim
from stabkit.f2 import BitMatrix


@dataclass(frozen=True)
class Op:
    id: str
    leg: str          # "a", "b" or "" (counted in round_s only)
    fn: Callable[[], object]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- the code family ------------------------------------------------------


def ex256() -> qc_ldpc.ExponentMatrix:
    """The r = 32 analogue of ex1 (n = 256)."""
    return qc_ldpc.ExponentMatrix.from_lists(32, [
        [1] * 8,
        list(range(1, 9)),
        list(range(1, 16, 2)),
    ])


def _rng(seed: int, label: str) -> np.random.Generator:
    """Generator for one input, independent of the order inputs are made."""
    return np.random.default_rng([seed, int(sha256(label)[:8], 16)])


def relabel_exponents(e, rng, cols=None):
    """Equivalent quasi-cyclic descriptor: block rows and block columns
    permuted, each block row and column multiplied by a monomial.  Girth,
    rank(H), rank(H H^T) and so the code parameters are unchanged.

    ``cols`` = (permutation, shifts) of the block columns, so the two
    halves of a CSS pair can share one qubit relabelling."""
    r = e.r
    if cols is None:
        cols = (rng.permutation(e.L), rng.integers(0, r, e.L))
    col_perm, col_shift = cols
    row_perm = rng.permutation(e.J)
    row_shift = rng.integers(0, r, e.J)
    rows = []
    for j in range(e.J):
        row = []
        for l in range(e.L):
            ent = e.entries[row_perm[j]][col_perm[l]]
            shifted = tuple(int((x + row_shift[j] + col_shift[l]) % r) for x in ent.exponents)
            row.append(None if not shifted else shifted[0] if len(shifted) == 1 else shifted)
        rows.append(row)
    return qc_ldpc.ExponentMatrix.from_lists(r, rows)


def permute_bits(h: BitMatrix, rng) -> BitMatrix:
    """Rows and columns of a binary parity check in random order."""
    arr = h.to_array()
    return BitMatrix.from_rows(arr[rng.permutation(h.rows)][:, rng.permutation(h.cols)])


def permute_f4(h4, rng):
    """Rows and columns of a quaternary parity check in random order."""
    rows = [h4.entries[i] for i in rng.permutation(h4.rows)]
    cols = rng.permutation(h4.cols)
    return gf4.F4Matrix.from_rows([[row[j] for j in cols] for row in rows])


def css_sp(hz: BitMatrix, hx: BitMatrix) -> BitMatrix:
    """Symplectic (z|x) check of a CSS pair: Z rows from hz, X rows from hx."""
    n = hz.cols
    rows = [hz.row(i) for i in range(hz.rows)] + [hx.row(i) << n for i in range(hx.rows)]
    return BitMatrix(len(rows), 2 * n, tuple(rows))


def seeded_checks(seed: int) -> dict:
    """Parity checks of the construct and analyze workloads, relabelled
    by the seed.  Exponent descriptors stay quasi-cyclic."""
    hc, hd = qc_ldpc.make_ex_hi()
    rng = _rng(seed, "hi")
    cols = (rng.permutation(hc.L), rng.integers(0, hc.r, hc.L))
    exps = {
        "ex1": relabel_exponents(qc_ldpc.make_ex1(), _rng(seed, "ex1")),
        "ex2": relabel_exponents(qc_ldpc.make_ex2(), _rng(seed, "ex2")),
        "n256": relabel_exponents(ex256(), _rng(seed, "n256")),
        "hi_C": relabel_exponents(hc, rng, cols),
        "hi_D": relabel_exponents(hd, rng, cols),
    }
    bits = {name: qc_ldpc.expand(e) for name, e in exps.items()}
    bits["bch63"] = permute_bits(codes.bch63_matrix(), _rng(seed, "bch63"))
    bits["mackay"] = permute_bits(qc_ldpc.make_ex_mackay(seed=0), _rng(seed, "mackay"))
    q15 = permute_f4(codes.q15_matrix(), _rng(seed, "q15"))
    return {"exps": exps, "bits": bits, "q15": q15}


# -- Monte Carlo ----------------------------------------------------------


class MonteCarlo:
    """Serial and two-worker ``sim.sweep`` legs over the same trials."""

    max_iter = 100

    def __init__(self, seed: int, trials: dict[str, int], grid: tuple[float, ...]):
        self.seed = seed
        self.trials = trials
        self.grid = grid

    def setup(self):
        made = {
            "ex1": lambda: qc_ldpc.expand(qc_ldpc.make_ex1()),
            "ex2": lambda: qc_ldpc.expand(qc_ldpc.make_ex2()),
            "mackay": lambda: qc_ldpc.make_ex_mackay(seed=0),
        }
        return {name: codes.build_eaqecc_binary(made[name](), name=name) for name in self.trials}

    def ops(self, state):
        out = []
        for workers, leg in ((1, "a"), (2, "b")):
            for name in self.trials:
                cfg = sim.SimConfig(
                    code=state[name], p_grid=self.grid, trials=self.trials[name],
                    seed=self.seed, max_iter=self.max_iter, success_mode="degenerate",
                    workers=workers,
                )
                out.append(Op(f"sweep.{name}.w{workers}", leg, lambda cfg=cfg: sim.sweep(cfg)))
        return out

    def headline(self, op_s, legs, n):
        """Per-workload figures from raw median times per operation and leg."""
        trials = sum(self.trials.values()) * len(self.grid)
        return {
            "trials_per_s": (trials / legs["a"], "1/s", n),
            "trials_per_s.w2": (trials / legs["b"], "1/s", n),
        }

    def describe(self, op_id, result, state):
        name = op_id.split(".")[1]
        csv = result.to_csv()
        problems = []
        lines = csv.splitlines()
        if lines[0] != "p,trials,block_errors,wer,ci_lo,ci_hi" or len(lines) != len(self.grid) + 1:
            problems.append("CSV layout differs from p,trials,block_errors,wer,ci_lo,ci_hi")
        else:
            for p, line in zip(self.grid, lines[1:]):
                f = line.split(",")
                errors = int(f[2])
                if float(f[0]) != p or int(f[1]) != self.trials[name] or not 0 <= errors <= int(f[1]):
                    problems.append(f"CSV row {line!r} inconsistent with p={p}")
        # both legs of a code share one reference: the CSV may not depend
        # on the worker count
        return {}, {f"sweep.{name}.csv_sha256": sha256(csv)}, problems


class Construct:
    """The build ladder: n = 15, 63, 120, 128 (three codes) and 256."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        return seeded_checks(self.seed)

    def ops(self, state):
        bits = state["bits"]
        hi_sp = css_sp(bits["hi_C"], bits["hi_D"])
        hi_css = codes.CssPair(hz=bits["hi_C"], hx=bits["hi_D"])
        binary = lambda name: (lambda: codes.build_eaqecc_binary(bits[name], name=name))
        return [
            Op("build.bch63", "a", binary("bch63")),
            Op("build.ex1", "b", binary("ex1")),
            Op("build.ex2", "b", binary("ex2")),
            Op("build.mackay", "b", binary("mackay")),
            Op("build.n256", "", binary("n256")),
            Op("build.q15", "", lambda: codes.build_eaqecc_gf4(state["q15"], name="q15")),
            Op("build.hi", "", lambda: codes.build_from_sp(hi_sp, css=hi_css, name="hi")),
        ]

    def headline(self, op_s, legs, n):
        return {
            "build_s.n63": (op_s["build.bch63"], "s", n),
            "build_s.n128": (legs["b"] / 3, "s", 3 * n),
            "build_s.n256": (op_s["build.n256"], "s", n),
        }

    def describe(self, op_id, result, state):
        invariant = {f"{op_id}.params": result.params, f"{op_id}.s": result.s}
        seeded = {f"{op_id}.table_sha256": sha256(codes.to_stabilizer_table(result))}
        return invariant, seeded, []


#: criterion-3 distance checks of the test suite: (code, d, mode)
CRITERION_3 = (
    ("steane7", 3, "strict"),
    ("steane7", 4, "strict"),
    ("shor9", 3, "degenerate"),
    ("shor9", 3, "strict"),
    ("ea8", 3, "degenerate"),
    ("eaoq8", 3, "degenerate"),
    ("q15", 4, "strict"),
    ("q15_traded", 3, "degenerate"),
    ("q15_traded", 4, "degenerate"),
)

#: the larger distance checks: (code, d, mode)
DISTANCE = (
    ("bch63", 4, "degenerate"),
    ("ex1", 3, "strict"),
    ("ex1", 3, "degenerate"),
    ("mackay", 3, "strict"),
    ("mackay", 3, "degenerate"),
)

STRUCTURE_FULL = ("ex1", "ex2", "hi_C", "hi_D", "n256")


class Analyze:
    """Distance pass (leg a) and structural pass (leg b) over codes and
    checks built in set-up; no SGS and no decoding in the timed part."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        state = seeded_checks(self.seed)
        bits = state["bits"]
        built = {name: codes.build_eaqecc_binary(bits[name], name=name)
                 for name in ("bch63", "ex1", "mackay")}
        for name in ("steane7", "shor9", "ea8", "eaoq8", "q15"):
            built[name] = codes.builtin(name)
        built["q15_traded"] = codes.q15_traded()
        state["codes"] = built
        return state

    def ops(self, state):
        built, bits, exps = state["codes"], state["bits"], state["exps"]

        def distance(name, d, mode):
            return lambda: codes.find_distance_violator(built[name], d, mode)

        def structure(name):
            h = bits[name]

            def run():
                out = {
                    "girth": qc_ldpc.girth_exact(h),
                    "rank_hht": f2.rank(f2.mat_mul(h, h.transpose())),
                }
                if name in exps:
                    e = exps[name]
                    out["hermitian_rank_poly"] = qc_ldpc.hermitian_rank_poly(e)
                    out["expansion_rank_poly"] = qc_ldpc.expansion_rank_poly(e)
                    out["rank_bound"] = qc_ldpc.rank_bound(e)
                return out
            return run

        ops = [Op(f"distance.{c}.d{d}.{m}", "a", distance(c, d, m)) for c, d, m in CRITERION_3 + DISTANCE]
        ops += [Op(f"structure.{name}", "b", structure(name)) for name in STRUCTURE_FULL + ("mackay",)]
        return ops

    def headline(self, op_s, legs, n):
        return {"distance_s": (legs["a"], "s", n), "structure_s": (legs["b"], "s", n)}

    def describe(self, op_id, result, state):
        if op_id.startswith("structure."):
            return {f"{op_id}.{k}": str(v) for k, v in result.items()}, {}, []
        _, name, d, mode = op_id.split(".")
        invariant = {f"{op_id}.verdict": "ok" if result is None else "violated"}
        seeded = {}
        problems = []
        if result is not None:
            code = state["codes"][name]
            invariant[f"{op_id}.weight"] = pauli.weight(result)
            seeded[f"{op_id}.violator"] = pauli.format_pauli(result)
            tested = code.measured_gens()
            if mode == "strict":
                tested += [g for pair in code.gens_g for g in pair]
            if any(pauli.symplectic_product(g, result) for g in tested):
                problems.append(f"{op_id}: violator is detected by a generator")
            passive = code.passive_gens()
            if mode == "degenerate" and passive and f2.in_rowspace(
                    pauli.paulis_to_matrix(passive), result.packed()):
                problems.append(f"{op_id}: violator lies in the harmless group")
        return invariant, seeded, problems


def make(name: str, seed: int):
    if name == "mc_low_p":
        return MonteCarlo(seed, {"ex1": 250, "ex2": 250}, (0.005, 0.01))
    if name == "mc_high_p":
        return MonteCarlo(seed, {"ex2": 300, "mackay": 150}, (0.03, 0.04))
    if name == "construct":
        return Construct(seed)
    if name == "analyze":
        return Analyze(seed)
    raise KeyError(name)


WORKLOADS = ("mc_low_p", "mc_high_p", "construct", "analyze")
