"""Reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the CPU speed can drift by up to +-25% over
seconds to minutes (other tenants share the host), for the program and for
any other code alike. The end-to-end times are therefore reported at a fixed
reference speed: each raw time is multiplied by ``NOMINAL_S / kernel time``,
with the kernel timed in the same process around the measured work. The
kernel uses numpy only and no ptdimer code, so a change to ptdimer cannot
move it; do not change it either, or results stop being comparable.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on a 2-vCPU x86-64 VM (OpenBLAS 0.3.31, one thread).
NOMINAL_S = 0.025

_DIM = 49


def _operators():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
    h = 0.01 * (h + h.conj().T)
    a = np.diag(np.sqrt(np.arange(1, _DIM)), 1).astype(complex)
    return h, a, a.conj().T, a.conj().T @ a


_OPS = _operators()


def kernel() -> float:
    """A Lindblad-like update loop on 49x49 matrices, plus scalar Python work."""
    h, a, ad, ada = _OPS
    rho = np.eye(_DIM, dtype=complex) / _DIM
    total = 0.0
    for _ in range(120):
        k = 1j * (rho @ h - h @ rho) + (a @ rho) @ ad - 0.5 * (ada @ rho + rho @ ada)
        rho = rho + 1e-3 * k
        total += float(np.sqrt(np.mean(np.abs(k.view(np.float64)) ** 2)))
    return total


def sample(repeats: int = 2) -> float:
    """Median kernel time over ``repeats`` runs, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
