"""Machine-speed probe: a fixed kernel that shares no code with hemiflow.

The sandboxes this benchmark runs in share cores with other tenants, and
their speed drifts by up to a factor of two over seconds to minutes.  The
workers run this kernel between ops and scale each op's time by
``REFERENCE_MS / probe``, the probe being the mean of the kernel times just
before and just after the op (the ops between two probes take about
``worker.PROBE_EVERY_S``).  A program change cannot move the kernel, so
the scaled times move only with the program; the raw times are kept in the
result file.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on an uncontended 2.1 GHz Xeon core; only fixes the scale
REFERENCE_MS = 3.2
PROBES = 3

_A = np.random.default_rng(0).standard_normal((8, 8))
_B = np.random.default_rng(1).standard_normal((400, 6, 6))


def kernel() -> float:
    """Python arithmetic, small dense solves and a batched contraction, in
    roughly the mix of the hemiflow hot paths."""
    acc = 0.0
    m = _A @ _A.T + 8.0 * np.eye(8)
    for k in range(150):
        acc += float(np.linalg.norm(np.linalg.solve(m, _A[k % 8])))
        for j in range(30):
            acc += (j + k) ** 0.5
    acc += float(np.einsum("kab,bc,kcd->", _B, _B[0], _B))
    return acc


def probe_ms() -> float:
    """Median kernel time of a few back-to-back runs, in ms."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[PROBES // 2]
