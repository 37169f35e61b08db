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
loop.

``min_pair_kappa`` reduces each block as it comes, in one reused
(n_atoms - 1, m) buffer, and never holds all pairs.  The all-pairs kernels
write the blocks straight into consecutive rows of one pair-major
(n_pairs, m) array: ``all_pair_kappa`` raises it to c3/r^3 in place and
makes its one transposed copy into the configuration-major result, or into
the caller's slice of a larger sample array; ``pair_r2`` is the
C-contiguous transpose of the squared distances.
"""

from __future__ import annotations

import numpy as np


def _r2_blocks(positions: np.ndarray, rows: np.ndarray | None = None):
    """For atoms i = 0 .. n-2, the (n-1-i, m) squared distances to atoms j > i.

    With ``rows``, a pair-major (n_pairs, m) array, block i is written into
    its next rows, pairs in row-major order; without, every block is a view
    of one reused buffer: use it before the next.
    """
    x, y, z = np.ascontiguousarray(positions.transpose(2, 1, 0))  # (n, m) each
    n, m = x.shape
    buf = np.empty((n - 1, m)) if rows is None else rows
    tmp = np.empty((n - 1, m))
    row = 0
    for i in range(n - 1):
        d, t = buf[row : row + n - 1 - i], tmp[: n - 1 - i]
        np.subtract(x[i + 1:], x[i], out=d)
        d *= d
        np.subtract(y[i + 1:], y[i], out=t)
        t *= t
        d += t
        np.subtract(z[i + 1:], z[i], out=t)
        t *= t
        d += t
        if rows is not None:
            row += n - 1 - i
        yield d


def _pair_rows(positions: np.ndarray) -> np.ndarray:
    """Squared pair distances, pair-major (n_pairs, m)."""
    m, n, _ = positions.shape
    rows = np.empty((n * (n - 1) // 2, m))
    for _ in _r2_blocks(positions, rows):
        pass
    return rows


def pair_r2(positions: np.ndarray) -> np.ndarray:
    """Squared pair distances, (m, n_pairs), pairs in row-major (i < j) order."""
    return np.ascontiguousarray(_pair_rows(positions).T)


def min_pair_kappa(
    positions: np.ndarray, c3: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Smallest pair coupling c3/r^3 per configuration (the most distant
    pair), written into ``out`` when given."""
    r2_max = np.zeros(len(positions))
    for d in _r2_blocks(positions):
        np.maximum(r2_max, d.max(axis=0), out=r2_max)
    return np.divide(c3, r2_max ** 1.5, out=out)


def all_pair_kappa(
    positions: np.ndarray, c3: float, out: np.ndarray | None = None
) -> np.ndarray:
    """All pair couplings c3/r^3, flattened configuration-major, written
    into ``out`` (m * n_pairs contiguous doubles) when given."""
    kappa = _pair_rows(positions)
    kappa **= 1.5
    np.divide(c3, kappa, out=kappa)
    if out is None:
        return np.ascontiguousarray(kappa.T).ravel()
    np.copyto(out.reshape(kappa.shape[::-1]), kappa.T)
    return out
