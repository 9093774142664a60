#!/usr/bin/env python3
"""Output gate: every operation's output against the stored references.

``reference.json`` holds, per workload, the ``invariant`` output fields
(the same for every seed: code parameters, girths, ranks, distance
verdicts and violator weights) and, for each seed in ``STORED_SEEDS``,
the ``seeded`` ones (sweep CSV hashes, stabilizer-table hashes, violator
strings).  For any other seed only the invariant fields, the agreement
between rounds and between the serial and two-worker legs are checked;
``run.py --outputs FILE`` then saves the fields so that two commits can
be compared with ``gate.py compare``.

    python3 benchmark/gate.py record [WORKLOAD ...]   # rewrite reference.json
    python3 benchmark/gate.py compare A.json B.json

Record only at a commit whose outputs are trusted: the references are
the values that commit computes, not the paper's claims.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
STORED_SEEDS = range(16)


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


class Checker:
    """Checks each round's outputs; counts operations attempted and failed."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.invariant = reference["invariant"].get(workload, {})
        self.seeded = reference["seeded"].get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fields: dict | None = None   # outputs of the first round

    def _compare(self, fields: dict, ref: dict, problems: list[str]):
        for key, val in fields.items():
            if key not in ref:
                problems.append(f"{key}: no reference value")
            elif ref[key] != val:
                problems.append(f"{key}: {val!r} != reference {ref[key]!r}")

    def check_round(self, work, state, results) -> None:
        """``results`` is a list of (op, result, error-or-None)."""
        seen: dict = {}
        for op, result, error in results:
            self.attempted += 1
            problems: list[str] = []
            if error is not None:
                problems.append(f"{op.id}: raised {error}")
            else:
                invariant, seeded, found = work.describe(op.id, result, state)
                problems += found
                self._compare(invariant, self.invariant, problems)
                if self.seeded is not None:
                    self._compare(seeded, self.seeded, problems)
                for key, val in {**invariant, **seeded}.items():
                    if key in seen and seen[key] != val:
                        problems.append(f"{key}: {op.id} disagrees with an earlier operation")
                    seen[key] = val
                    if self.fields is not None and self.fields.get(key, val) != val:
                        problems.append(f"{key}: differs from the first round")
            if problems:
                self.failed += 1
                self.problems += problems
        if self.fields is None:
            self.fields = seen

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def record(names, reference: dict, seeds=STORED_SEEDS) -> dict:
    """Compute the reference outputs of the current commit for the named
    workloads, keeping the other workloads' entries."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    import workloads as wl

    reference = {"invariant": {}, "seeded": {}, **reference, "stored_seeds": list(seeds)}
    for name in names or wl.WORKLOADS:
        invariant: dict = {}
        by_seed: dict = {}
        for seed in seeds:
            work = wl.make(name, seed)
            state = work.setup()
            seeded: dict = {}
            for op in work.ops(state):
                inv, sd, problems = work.describe(op.id, op.fn(), state)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                for key, val in inv.items():
                    if invariant.setdefault(key, val) != val:
                        raise SystemExit(f"{name}: {key} depends on the seed")
                for key, val in sd.items():
                    if seeded.setdefault(key, val) != val:
                        raise SystemExit(f"{name} seed {seed}: {key} differs between operations")
            by_seed[str(seed)] = seeded
            print(f"recorded {name} seed {seed}", file=sys.stderr, flush=True)
        reference["invariant"][name] = invariant
        reference["seeded"][name] = by_seed
    return reference


def compare(a: dict, b: dict) -> list[str]:
    """Differences between two ``run.py --outputs`` files."""
    diffs = []
    for key in ("workload", "seed"):
        if a["record"][key] != b["record"][key]:
            diffs.append(f"{key}: {a['record'][key]!r} vs {b['record'][key]!r}")
    fa, fb = a["fields"], b["fields"]
    for key in sorted(set(fa) | set(fb)):
        if fa.get(key) != fb.get(key):
            diffs.append(f"{key}: {fa.get(key)!r} vs {fb.get(key)!r}")
    return diffs


def main(argv: list[str]) -> int:
    if argv[:1] == ["record"]:
        reference = load_reference() if REFERENCE.exists() else {}
        reference = record(argv[1:], reference)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        diffs = compare(a, b)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} differing output fields")
        return 1 if diffs else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
