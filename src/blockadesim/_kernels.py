"""Pair-distance kernels of the Monte-Carlo splitting statistics.

Each kernel takes one chunk of configurations, an (m, n_atoms, 3) array in
um, and visits the upper-triangle pairs i < j only, in row-major order.
``geometry`` feeds them one bounded chunk at a time.
"""

from __future__ import annotations

import numpy as np


def pair_r2(positions: np.ndarray) -> np.ndarray:
    """Squared pair distances, (m, n_pairs), pairs in row-major (i < j) order."""
    m, n, _ = positions.shape
    pos = np.ascontiguousarray(positions.transpose(2, 0, 1))    # (3, m, n)
    r2 = np.empty((m, n * (n - 1) // 2))
    col = 0
    for i in range(n - 1):
        d = pos[:, :, i + 1:] - pos[:, :, i : i + 1]
        d *= d
        r2[:, col : col + n - 1 - i] = d.sum(axis=0)
        col += n - 1 - i
    return r2


def min_pair_kappa(positions: np.ndarray, c3: float) -> np.ndarray:
    """Smallest pair coupling c3/r^3 per configuration (the most distant pair)."""
    return c3 / pair_r2(positions).max(axis=1) ** 1.5


def all_pair_kappa(positions: np.ndarray, c3: float) -> np.ndarray:
    """All pair couplings c3/r^3, flattened configuration-major."""
    return (c3 / pair_r2(positions) ** 1.5).ravel()
