"""Command-line front end.

Subcommands: construct, analyze, qcldpc, simulate, builtin, sgs.
All randomness flows from --seed; exit codes are 0 (success),
1 (usage error), 2 (parse error), 3 (verification budget exceeded).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import codes, f2, gf4, qc_ldpc, sgs, sim
from .codes import (
    NAMED,
    VerificationBudgetError,
    build_eaqecc_binary,
    build_eaqecc_gf4,
    builtin,
    format_report,
    is_dual_containing,
)
from .pauli import format_pauli, matrix_to_paulis, weight

__all__ = ["main"]

#: ``qcldpc --example`` choices: the quasi-cyclic named codes, plus
#: ``mackay``, which ``--n/--m/--L/--seed`` parameterise
_QCLDPC_EXAMPLES = tuple(name for name, entry in NAMED.items()
                         if entry.exponents or name == "mackay")


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ValueError(f"no such file: {path}")
    return p.read_text()


def _cmd_construct(args) -> int:
    if args.field == "gf4":
        code = build_eaqecc_gf4(gf4.parse_f4(_read_text(args.input)), d_claimed=args.claimed_d)
    else:
        code = build_eaqecc_binary(f2.parse_matrix(_read_text(args.input)),
                                   d_claimed=args.claimed_d)
    sys.stdout.write(format_report(code))
    return 0


def _cmd_analyze(args) -> int:
    if args.field == "gf4":
        h4 = gf4.parse_f4(_read_text(args.input))
        code = build_eaqecc_gf4(h4)
        hsp = gf4.f4_to_symplectic(h4)
        print(f"gf4 matrix: {h4.rows} x {h4.cols}")
        print(f"symplectic expansion: {hsp.rows} x {hsp.cols}, rank {f2.rank(hsp)}")
        print(f"dual-containing: {'yes' if is_dual_containing(hsp) else 'no'}")
        print(f"ebits: {code.c}")
    else:
        h = f2.parse_matrix(_read_text(args.input))
        code = build_eaqecc_binary(h)
        print(f"gf2 matrix: {h.rows} x {h.cols}, rank {f2.rank(h)}")
        hhT = f2.mat_mul(h, h.transpose())
        print(f"rank(H H^T): {f2.rank(hhT)}")
        print(f"girth: {qc_ldpc.girth_exact(h)}")
        print(f"dual-containing: {'yes' if hhT.is_zero() else 'no'}")
    print(f"computed: {code.params}")
    if args.distance is not None:
        violator = codes.find_distance_violator(code, args.distance, args.mode)
        verdict = "verified" if violator is None else "REFUTED"
        print(f"distance {args.distance} ({args.mode}): {verdict}")
        if violator is not None:
            print(f"violator: {format_pauli(violator)} (weight {weight(violator)})")
    return 0


def _qcldpc_source(args):
    """(name, exponent matrix) pairs and check matrices of the one source
    given; a flag that this source does not read is a ``ValueError``."""
    if args.example and args.exponent:
        raise ValueError("qcldpc takes --example or --exponent, not both")
    mackay = {flag: getattr(args, flag) for flag in ("n", "m", "L", "seed")
              if getattr(args, flag) is not None}
    if args.example == "mackay":
        if args.r is not None:
            raise ValueError("--r does not apply to --example mackay")
        # flags left unset take make_ex_mackay's defaults
        return [], [qc_ldpc.make_ex_mackay(**mackay)]
    if mackay:
        raise ValueError(f"--{next(iter(mackay))} applies only to --example mackay")
    if args.example:
        named = NAMED[args.example].exponents()
    elif args.exponent:
        named = [(args.exponent, qc_ldpc.parse_exponent(_read_text(args.exponent)))]
    else:
        raise ValueError("qcldpc needs --example or --exponent")
    for _, e in named:
        if args.r is not None and args.r != e.r:
            raise ValueError(f"--r {args.r} conflicts with circulant size {e.r}")
    return named, [qc_ldpc.expand(e) for _, e in named]


def _cmd_qcldpc(args) -> int:
    if args.format is not None and args.emit != "matrix":
        raise ValueError("--format applies only to --emit matrix")
    named, matrices = _qcldpc_source(args)
    if args.emit == "matrix":
        fmt = f2.format_alist if args.format == "alist" else f2.format_dense
        sys.stdout.write("".join(fmt(h) for h in matrices))
        return 0

    if args.example == "mackay":
        h = matrices[0]
        code = build_eaqecc_binary(h, name="mackay")
        print(f"girth: {qc_ldpc.girth_exact(h)}")
        print(f"rank(H H^T): {f2.rank(f2.mat_mul(h, h.transpose()))}")
        print(f"computed: {code.params}")
        return 0

    for (name, e), h in zip(named, matrices):
        print(f"== {name}: r={e.r} J={e.J} L={e.L} "
              f"type-{'I' if e.is_type_i else 'II'} n={h.cols}")
        print(f"girth (exact): {qc_ldpc.girth_exact(h)}")
        print(f"girth >= 6 (multiplicity-free): {qc_ldpc.girth_ge_6(e)}")
        print(f"dual-containing: {qc_ldpc.dual_containing_qc(e)}")
        print("row differences:")
        for i in range(e.J):
            for j in range(i, e.J):
                d = qc_ldpc.row_difference(e, i, j)
                print(f"  d[{i + 1}][{j + 1}] = {list(d)} "
                      f"even={qc_ldpc.is_multiplicity_even(d)} "
                      f"free={qc_ldpc.is_multiplicity_free(d)}")
        hhT = f2.mat_mul(h, h.transpose())
        c_bits = f2.rank(hhT)
        c_poly = qc_ldpc.hermitian_rank_poly(e)
        print(f"rank(H H^T): {c_bits} (polynomial pipeline: {c_poly}, "
              f"bound: {qc_ldpc.rank_bound(e)})")

    entry = NAMED.get(args.example)
    code = entry.build() if entry else build_eaqecc_binary(matrices[0])
    print(f"computed: {code.params}")
    if entry and entry.claimed:
        print(f"claimed:  {entry.claimed}")
    return 0


def _cmd_simulate(args) -> int:
    if args.code in NAMED:
        if args.field is not None:
            raise ValueError(f"--field applies only to a code file, not to named code "
                             f"{args.code!r}")
        code = builtin(args.code)
    elif args.field == "gf4":
        code = build_eaqecc_gf4(gf4.parse_f4(_read_text(args.code)))
    else:
        code = build_eaqecc_binary(f2.parse_matrix(_read_text(args.code)))
    try:
        p_grid = tuple(float(t) for t in args.p.split(",") if t != "")
    except ValueError as exc:
        raise ValueError(f"bad probability list {args.p!r}") from exc
    config = sim.SimConfig(
        code=code,
        p_grid=p_grid,
        trials=args.trials,
        seed=args.seed,
        max_iter=args.max_iter,
        success_mode=args.mode,
        workers=args.workers,
    )
    sys.stdout.write(sim.sweep(config).to_csv())
    return 0


def _cmd_builtin(args) -> int:
    sys.stdout.write(format_report(builtin(args.name)))
    return 0


def _cmd_sgs(args) -> int:
    vecs = matrix_to_paulis(f2.parse_matrix(_read_text(args.input)))
    pairs, isotropic = sgs.split_span(vecs)
    print(f"n={vecs[0].n} c={len(pairs)} ell={len(isotropic)}")
    for i, (u, v) in enumerate(pairs):
        print(f"pair {i + 1}: {format_pauli(u)}  {format_pauli(v)}")
    for u in isotropic:
        print(f"isotropic: {format_pauli(u)}")
    return 0


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="stabkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="quantum code from a classical parity check")
    p.add_argument("--input", required=True)
    p.add_argument("--field", choices=("gf2", "gf4"), default="gf2")
    p.add_argument("--claimed-d", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="ranks, girth, dual-containment, distance")
    p.add_argument("--input", required=True)
    p.add_argument("--field", choices=("gf2", "gf4"), default="gf2")
    p.add_argument("--distance", type=int, default=None)
    p.add_argument("--mode", choices=("strict", "degenerate"), default="strict")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("qcldpc", help="quasi-cyclic LDPC families")
    p.add_argument("--example", choices=_QCLDPC_EXAMPLES, default=None)
    p.add_argument("--exponent", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--emit", choices=("matrix", "report"), default="report")
    p.add_argument("--format", choices=("dense", "alist"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_qcldpc)

    p = sub.add_parser("simulate", help="depolarizing-channel Monte Carlo, CSV output")
    p.add_argument("--code", required=True)
    p.add_argument("--field", choices=("gf2", "gf4"), default=None,
                   help="how to read a code file (default gf2)")
    p.add_argument("--p", required=True, help="comma-separated probabilities")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--mode", choices=("strict", "degenerate"), default="degenerate")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most min(workers, cores, trials); "
                        "serial where fork is unavailable")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("builtin", help="report on a named example code")
    p.add_argument("name", choices=tuple(NAMED))
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("sgs", help="symplectic Gram-Schmidt on a (z|x) matrix file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_sgs)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationBudgetError as exc:
        print(f"stabkit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"stabkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
