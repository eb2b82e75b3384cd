"""Independent numpy recomputation of what the program reports.

Nothing here imports the package under test.  The stacked system is rebuilt
from leave-one-out weights read back from the program's own output, solved
densely, and its spectral radius is taken from ``np.linalg.eigvals``.
"""

from __future__ import annotations

import math

import numpy as np

# The program's existence gate, restated: an equilibrium exists iff rho < GATE.
GATE = 1.0 - 1e-9


def coupling(xi: np.ndarray) -> np.ndarray:
    """Stacked coupling matrix: ``A[(q,k),(l,j)] = xi[j,l,q]`` for l != q, j != k.

    ``xi`` has shape (M, N, N); the stacked index of (source q, buyer k) is
    ``q * M + k``.
    """
    mm, n, _ = xi.shape
    t = np.broadcast_to(xi.transpose(2, 1, 0)[:, None, :, :], (n, mm, n, mm)).copy()
    t[np.arange(n), :, np.arange(n), :] = 0.0
    t[:, np.arange(mm), :, np.arange(mm)] = 0.0
    return t.reshape(n * mm, n * mm)


def stack(per_buyer: np.ndarray) -> np.ndarray:
    """(M, N) buyer-major array -> stacked vector in ``q * M + k`` order."""
    return np.asarray(per_buyer, dtype=float).T.reshape(-1)


def rho(a: np.ndarray) -> float:
    """Perron root of a nonnegative matrix from the full spectrum."""
    if a.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(a)).max())


def slopes(a: np.ndarray, gamma_vec: np.ndarray) -> np.ndarray:
    """Dense solve of ``d = A d + gamma`` in stacked order."""
    return np.linalg.solve(np.eye(a.shape[0]) - a, gamma_vec)


def efforts(d_total: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Source effort under total slope d_total: ``log(2 alpha d) / (2 alpha)``."""
    return np.log(2.0 * alphas * d_total) / (2.0 * alphas)


def rel_err(got, want) -> float:
    """Largest absolute difference over the largest reference magnitude."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if want.size == 0:
        return 0.0
    diff = float(np.abs(got - want).max())
    scale = float(np.abs(want).max())
    if not math.isfinite(diff):
        return math.inf
    return diff / scale if scale > 0.0 else diff
