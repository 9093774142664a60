"""One pinned SHA-256 over the decoder's and the sweep's outputs.

The hash covers ``decode_stream``'s estimates, convergence flags and
iteration counts on five check matrices, each fed four blocks of 100
rows (block priors and per-row priors, some of them below the
stand-in's ``_PRIOR_MIN``), and every ``SimPoint`` field of serial and
two-worker sweeps on five named codes.  A change to the kernel that
keeps every result exact keeps the hash.  ``cycled`` is left out: when
a row leaves on a message cycle is decided by a fingerprint match, a
BLAS dot product that may round differently on another host, while the
row's results are exact either way.
"""

import dataclasses
import hashlib

import numpy as np

from stabkit import codes, qc_ldpc, spa
from stabkit.sim import SimConfig, sweep

#: recorded before ``SpaWorkspace`` became the one owner of the batch
PINNED = "b8a1861239f283f8ad2430d3e5af8419bb581a8c5050b9dbc7d8195e78eb19ef"


def _matrices():
    return {"ex1": qc_ldpc.expand(qc_ldpc.make_ex1()),
            "ex2": qc_ldpc.expand(qc_ldpc.make_ex2()),
            "mackay": qc_ldpc.make_ex_mackay(seed=0),
            "bch63": codes.bch63_matrix(),
            "hi_C": qc_ldpc.expand(qc_ldpc.make_ex_hi()[0])}


def _stream_outputs(digest):
    for seed, h in enumerate(_matrices().values()):
        rng = np.random.default_rng(seed)
        arr = h.to_array()
        blocks = []
        for i, p in enumerate((0.01, 0.03, 0.05, 0.04)):
            errs = (rng.random((100, h.cols)) < p).astype(np.uint8)
            if i % 2:
                prior = rng.uniform(0.005, 0.06, 100)
                prior[rng.choice(100, 3, replace=False)] = 1e-35
            else:
                prior = p
            blocks.append(((errs @ arr.T) % 2, prior))
        for est, conv, its, _ in spa.decode_stream(h, blocks, 40):
            for a in (est, conv, its):
                digest.update(a.tobytes())


def _sweep_outputs(digest):
    for name in ("steane7", "ex1", "ex2", "mackay", "hi"):
        code = codes.builtin(name)
        for workers in (1, 2):
            config = SimConfig(code=code, p_grid=(0.01, 0.03, 0.05), trials=128, seed=5,
                               workers=workers)
            for point in sweep(config).points:
                fields = dataclasses.asdict(point)
                del fields["cycled"]
                digest.update(repr(sorted(fields.items())).encode())


def test_stream_and_sweep_outputs_are_pinned():
    digest = hashlib.sha256()
    _stream_outputs(digest)
    _sweep_outputs(digest)
    assert digest.hexdigest() == PINNED
