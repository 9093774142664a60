"""In-memory span tracing around stabkit's public functions.

The tracer replaces module attributes that the library looks up at call
time (``stabkit.sim.decode``, ``stabkit.f2.rank``, ...) with wrappers
that record one span per call, and puts the originals back on
``uninstall``.  Nothing under ``src/`` knows about it.

A span is ``(sid, name, start, end, parent, op, attrs)``: ``parent`` is
the sid of the enclosing span (``None`` at the top), ``op`` the id of the
benchmark operation that caused it, ``attrs`` a small dict or ``None``.
Calls made from pool threads have no enclosing span in their own thread;
they are parented to the innermost span open in the thread that
installed the tracer, which is the ``sim.sweep`` call waiting on them.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, attrs function or None).  An attrs
# function receives (args, kwargs, result) and returns a dict; it runs
# after the span's end time is taken.


def _decode_attrs(args, kwargs, res):
    # decode copies the syndrome, so reading it after the call is safe
    return {"iterations": res.iterations, "converged": res.converged,
            "zero_syndrome": not np.any(args[1])}


def _decompose_attrs(args, kwargs, res):
    return {"n": res.n}


def _violator_attrs(args, kwargs, res):
    code, d = args[0], args[1]
    return {"n": code.n, "d": d, "found": res is not None}


def _sweep_attrs(args, kwargs, res):
    cfg = args[0]
    return {"trials": cfg.trials * len(cfg.p_grid), "workers": cfg.workers}


WRAPPED = (
    ("stabkit.sim", "sweep", "sim.sweep", _sweep_attrs),
    ("stabkit.sim", "sample_depolarizing", "sim.sample", None),
    ("stabkit.sim", "decode", "spa.decode", _decode_attrs),
    ("stabkit.sim", "SpaGraph", "spa.graph", None),
    ("stabkit.sgs", "decompose", "sgs.decompose", _decompose_attrs),
    ("stabkit.codes", "build_from_sp", "codes.build", None),
    ("stabkit.codes", "find_distance_violator", "codes.verify_distance", _violator_attrs),
    ("stabkit.f2", "rank", "f2.rank", None),
    ("stabkit.f2", "in_rowspace", "f2.in_rowspace", None),
    ("stabkit.f2", "mat_mul", "f2.mat_mul", None),
    ("stabkit.qc_ldpc", "girth_exact", "qc_ldpc.girth_exact", None),
    ("stabkit.qc_ldpc", "hermitian_rank_poly", "qc_ldpc.hermitian_rank_poly", None),
    ("stabkit.qc_ldpc", "expansion_rank_poly", "qc_ldpc.expansion_rank_poly", None),
    ("stabkit.qc_ldpc", "rank_bound", "qc_ldpc.rank_bound", None),
    ("stabkit.qc_ldpc", "expand", "qc_ldpc.expand", None),
)


class Tracer:
    """Collects spans; ``install`` patches the library, ``uninstall``
    restores it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the block (used for benchmark operations)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op, attrs or None))

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = attrs_fn(args, kwargs, res) if attrs_fn else None
            tracer.spans.append((sid, name, t0, t1, parent, tracer.op, attrs))
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        for modname, attr, name, attrs_fn in WRAPPED:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, attrs_fn))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path):
        """Write every span as gzipped JSON (one list per span)."""
        with gzip.open(path, "wt") as fh:
            json.dump([list(s) for s in self.spans], fh)


def self_times(spans) -> dict[int, float]:
    """Self time per span: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


def containment_errors(spans, slack: float = 1e-6) -> list[str]:
    """Spans whose interval leaves their parent's, or whose self time is
    outside [0, duration]; empty for a well-formed trace."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    errors = []
    for sid, name, t0, t1, parent, _, _ in spans:
        if parent is not None and parent in by_id:
            p = by_id[parent]
            if t0 < p[2] - slack or t1 > p[3] + slack:
                errors.append(f"{name}#{sid} leaves parent {p[1]}#{parent}")
        if not -slack <= selfs[sid] <= (t1 - t0) + slack:
            errors.append(f"{name}#{sid} self time {selfs[sid]:.6g} outside its duration")
    return errors


def _candidates(n: int, d: int) -> int:
    """Errors of weight 1..d-1 on n qubits (computed, not counted)."""
    from math import comb

    return sum(comb(n, w) * 3 ** w for w in range(1, d))


def _tally(spans, selfs) -> dict[str, float]:
    """Exact sums over spans: per-name busy time, self time and count,
    plus the decode, SGS and enumeration counters."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for sid, name, t0, t1, _, _, attrs in spans:
        add(f"{name}:s", t1 - t0)
        add(f"{name}:self", selfs[sid])
        add(f"{name}:n", 1)
        if name == "spa.decode":
            add("iterations", attrs["iterations"])
            add("zero", int(attrs["zero_syndrome"]))
            add("converged", int(attrs["converged"]))
        elif name == "sgs.decompose":
            add(f"sgs.n{attrs['n']}", t1 - t0)
        elif name == "codes.verify_distance" and not attrs["found"]:
            add("candidates", _candidates(attrs["n"], attrs["d"]))
            add("candidates:s", t1 - t0)
    return out


def layer_metrics(setup_spans, round_spans, rounds: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics for one traced set-up plus one average traced
    round.  Returns name -> (value, unit, base), where base is the count
    of spans (or calls) the value was computed from."""
    selfs = self_times(list(setup_spans) + list(round_spans))
    once, per = _tally(setup_spans, selfs), _tally(round_spans, selfs)
    keys = set(once) | set(per)
    v = {k: once.get(k, 0) + per.get(k, 0) / rounds for k in keys}
    tot = {k[:-2]: x for k, x in v.items() if k.endswith(":s")}
    self_tot = {k[:-5]: x for k, x in v.items() if k.endswith(":self")}
    cnt = {k[:-2]: x for k, x in v.items() if k.endswith(":n")}
    dec = {"iterations": v.get("iterations", 0), "converged": v.get("converged", 0),
           "zero": v.get("zero", 0),
           "ms": [(t1 - t0) * 1e3 for s in (setup_spans, round_spans)
                  for _, name, t0, t1, _, _, _ in s if name == "spa.decode"]}
    sgs_n = {n: v.get(f"sgs.n{n}", 0.0) for n in (63, 128, 256)}
    cand, cand_s = v.get("candidates", 0), v.get("candidates:s", 0.0)

    calls = cnt.get("spa.decode", 0.0)
    ms = dec["ms"]
    m: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, base):
        m[name] = (float(value), unit, int(round(base)))

    n_dec = len(ms)
    put("spa.decode.calls", calls, "count", n_dec)
    put("spa.decode.s", tot.get("spa.decode", 0.0), "s", n_dec)
    put("spa.decode_ms.p50", np.percentile(ms, 50) if ms else 0.0, "ms", n_dec)
    put("spa.decode_ms.p99", np.percentile(ms, 99) if ms else 0.0, "ms", n_dec)
    put("spa.iterations", dec["iterations"], "count", n_dec)
    put("spa.us_per_iter",
        1e6 * tot.get("spa.decode", 0.0) / dec["iterations"] if dec["iterations"] else 0.0,
        "us", dec["iterations"])
    put("spa.zero_syndrome_frac", dec["zero"] / calls if calls else 0.0, "frac", calls)
    put("spa.converged_frac", dec["converged"] / calls if calls else 0.0, "frac", calls)
    put("spa.maxiter_calls", calls - dec["converged"], "count", calls)
    put("spa.graph.s", tot.get("spa.graph", 0.0), "s", cnt.get("spa.graph", 0.0))
    put("sim.sample.s", tot.get("sim.sample", 0.0), "s", cnt.get("sim.sample", 0.0))
    put("sim.sweep.self_s", self_tot.get("sim.sweep", 0.0), "s", cnt.get("sim.sweep", 0.0))
    put("sim.trials", cnt.get("sim.sample", 0.0), "count", cnt.get("sim.sample", 0.0))
    for n in (63, 128, 256):
        put(f"sgs.decompose.s.n{n}", sgs_n.get(n, 0.0), "s", cnt.get("sgs.decompose", 0.0))
    put("sgs.decompose.calls", cnt.get("sgs.decompose", 0.0), "count", cnt.get("sgs.decompose", 0.0))
    put("codes.build.self_s", self_tot.get("codes.build", 0.0), "s", cnt.get("codes.build", 0.0))
    put("codes.verify_distance.s", tot.get("codes.verify_distance", 0.0), "s",
        cnt.get("codes.verify_distance", 0.0))
    put("codes.verify_distance.calls", cnt.get("codes.verify_distance", 0.0), "count",
        cnt.get("codes.verify_distance", 0.0))
    put("codes.candidates_per_s", cand / cand_s if cand_s else 0.0, "1/s", cand)
    for name in ("f2.rank", "f2.in_rowspace"):
        put(f"{name}.calls", cnt.get(name, 0.0), "count", cnt.get(name, 0.0))
        put(f"{name}.s", tot.get(name, 0.0), "s", cnt.get(name, 0.0))
    put("f2.mat_mul.s", tot.get("f2.mat_mul", 0.0), "s", cnt.get("f2.mat_mul", 0.0))
    for fn in ("girth_exact", "hermitian_rank_poly", "expansion_rank_poly", "rank_bound", "expand"):
        name = f"qc_ldpc.{fn}"
        put(f"{name}.s", tot.get(name, 0.0), "s", cnt.get(name, 0.0))
    return m
