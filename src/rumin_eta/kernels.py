"""An oscillatory power sum and a real symmetric eigenvalue routine.

The library calls neither: ``specfun.im_polylog_even`` sums a short zeta
series and the oracle diagonalizes in ``rep_oracle.hermitian_eigenvalues``.
Both stay while the benchmark harness (``perfbench/tracing.py``) lists them
as traced targets.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "backend_name",
    "sin_power_sum",
    "sym_eigenvalues",
]


def backend_name():
    """Name of the kernel backend."""
    return "numpy"


def sin_power_sum(a_frac, p, n_terms):
    """sum_{n=1}^{N} sin(2 pi n a)/n^p, vectorized in bounded chunks."""
    partials = []
    chunk = 1_000_000
    for start in range(1, n_terms + 1, chunk):
        stop = min(start + chunk, n_terms + 1)
        n = np.arange(start, stop, dtype=np.float64)
        partials.append(float(np.sum(np.sin(2.0 * np.pi * np.mod(n * a_frac, 1.0)) / n**p)))
    return math.fsum(partials)


def sym_eigenvalues(mat):
    """Eigenvalues of a real symmetric matrix, ascending (LAPACK)."""
    return np.linalg.eigvalsh(np.asarray(mat, dtype=np.float64))
