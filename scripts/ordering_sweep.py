#!/usr/bin/env python3
"""Sweep named codes (by default the three quasi-cyclic LDPC examples)
over a depolarizing probability grid and print one CSV block per code.

The two entanglement-assisted examples (ex1, ex2) have 4-cycle-free
Tanner graphs; the dual-containing ex-MacKay construction does not, and
its sum-product decoding suffers accordingly.  This script reproduces
that ordering.

Every code is the one ``codes.NAMED`` builds (ex-MacKay from seed 0, as
in ``simulate --code mackay``); ``--seed`` seeds only the trials.

Each point's failure split and decoder effort go to stderr, one line
per point: block errors that did not converge and that converged to a
wrong coset, trials excused as degenerate, the mean (per decoded row,
two rows per trial) and maximum iteration counts, and the decoded rows
caught in an exact message cycle, whose whole periods the decoder
skips.  Such a row could never converge: it is trapped in a periodic
orbit.  Comparing ``cycled`` across codes tests the explanation that
ex-MacKay's 4-cycles stall its decoder (MacKay, Mitchison and
McFadden, IEEE TIT 50(10), 2004).
"""

import argparse
import sys
import time

from stabkit import codes, sim


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", default="0.005,0.01,0.02,0.03,0.04",
                    help="comma-separated depolarizing probabilities")
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-iter", type=int, default=100)
    ap.add_argument("--mode", choices=("strict", "degenerate"), default="degenerate")
    ap.add_argument("--workers", type=int, default=1,
                    help="worker processes, at most min(workers, cores, trials); "
                         "serial where fork is unavailable")
    ap.add_argument("--codes", default="ex1,ex2,mackay")
    args = ap.parse_args()

    try:
        grid = tuple(float(t) for t in args.p.split(",") if t)
    except ValueError:
        ap.error(f"bad probability list {args.p!r}")
    configs = []
    for name in (t.strip() for t in args.codes.split(",")):
        if name not in codes.NAMED:
            ap.error(f"unknown code {name!r}; choose from {', '.join(codes.NAMED)}")
        try:
            configs.append((name, sim.SimConfig(
                code=codes.NAMED[name].build(), p_grid=grid, trials=args.trials,
                seed=args.seed, max_iter=args.max_iter, success_mode=args.mode,
                workers=args.workers,
            )))
        except ValueError as exc:
            ap.error(f"{name}: {exc}")
    for name, cfg in configs:
        t0 = time.time()
        result = sim.sweep(cfg)
        print(f"# {name}: {cfg.code.params}  ({time.time() - t0:.1f}s, "
              f"mode={args.mode}, seed={args.seed})")
        sys.stdout.write(result.to_csv())
        sys.stdout.flush()
        for pt in result.points:
            print(f"# {name} p={pt.p:g}: not_converged={pt.not_converged} "
                  f"converged_wrong={pt.converged_wrong} "
                  f"degenerate_saves={pt.degenerate_saves} "
                  f"iterations mean={pt.iterations_total / (2 * pt.trials):.2f} "
                  f"max={pt.iterations_max} cycled={pt.cycled}", file=sys.stderr)


if __name__ == "__main__":
    main()
