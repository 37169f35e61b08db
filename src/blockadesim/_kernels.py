"""Pair-distance kernels of the Monte-Carlo splitting statistics.

Each kernel takes one chunk of configurations, an (m, n_atoms, 3) array in
um, and visits the upper-triangle pairs i < j only, in row-major order.
``geometry`` feeds them one bounded chunk at a time.

The work runs on a (3, n_atoms, m) layout, the configuration axis innermost
and contiguous: for each atom i, one (n_atoms - 1 - i, m) block holds the
squared distances to atoms j > i of every configuration.  Positions that
are the transposed view of (3, n_atoms, m) storage, as
``geometry._config_positions`` returns them, reach that layout without a
copy.  The block is summed as (dx^2 + dy^2) + dz^2, the order of a sum over
the coordinate axis, so every kernel is bit-identical to the direct pair
loop.  ``min_pair_kappa`` reduces each block as it comes and never holds
all pairs; ``pair_r2`` copies each block into its columns of one
C-contiguous (m, n_pairs) array, on which ``all_pair_kappa`` works in place.
"""

from __future__ import annotations

import numpy as np


def _r2_blocks(positions: np.ndarray):
    """For atoms i = 0 .. n-2, the (n-1-i, m) squared distances to atoms j > i.

    Every block is a view of one reused buffer: use it before the next.
    """
    x, y, z = np.ascontiguousarray(positions.transpose(2, 1, 0))  # (n, m) each
    n, m = x.shape
    buf, tmp = np.empty((n - 1, m)), np.empty((n - 1, m))
    for i in range(n - 1):
        d, t = buf[: n - 1 - i], tmp[: n - 1 - i]
        np.subtract(x[i + 1:], x[i], out=d)
        d *= d
        np.subtract(y[i + 1:], y[i], out=t)
        t *= t
        d += t
        np.subtract(z[i + 1:], z[i], out=t)
        t *= t
        d += t
        yield d


def pair_r2(positions: np.ndarray) -> np.ndarray:
    """Squared pair distances, (m, n_pairs), pairs in row-major (i < j) order."""
    m, n, _ = positions.shape
    r2 = np.empty((m, n * (n - 1) // 2))
    col = 0
    for d in _r2_blocks(positions):
        np.copyto(r2[:, col : col + len(d)].T, d)
        col += len(d)
    return r2


def min_pair_kappa(positions: np.ndarray, c3: float) -> np.ndarray:
    """Smallest pair coupling c3/r^3 per configuration (the most distant pair)."""
    r2_max = np.zeros(len(positions))
    for d in _r2_blocks(positions):
        np.maximum(r2_max, d.max(axis=0), out=r2_max)
    return c3 / r2_max ** 1.5


def all_pair_kappa(positions: np.ndarray, c3: float) -> np.ndarray:
    """All pair couplings c3/r^3, flattened configuration-major."""
    r2 = pair_r2(positions)
    r2 **= 1.5
    np.divide(c3, r2, out=r2)
    return r2.ravel()
