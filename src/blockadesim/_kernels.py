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

``_min_pair`` reduces each block as it comes, in one reused (n_atoms - 1, m)
buffer, and never holds all pairs.  The all-pairs kernels write the blocks
straight into consecutive rows of one pair-major (n_pairs, m) array:
``_all_pairs`` raises it to c3/r^3 in place and makes its one transposed
copy into the configuration-major result, or into the caller's slice of a
larger sample array; ``_pair_rows`` returns the squared distances as they
are, for ``geometry.coupling_matrix`` and ``geometry.geometry_factor``.

``_min_pair``, ``_all_pairs`` and ``_pair_rows`` take their buffers from the
caller as flat arrays, of which they use the head a chunk needs, so that one
allocation serves every chunk of a run.  ``geometry._sample`` calls them from
its sampling threads; ``min_pair_kappa`` and ``all_pair_kappa`` are the same
kernels with buffers of their own.
"""

from __future__ import annotations

import numpy as np


def _head(flat: np.ndarray | None, rows: int, m: int) -> np.ndarray:
    """The first rows x m doubles of a flat buffer as a (rows, m) array; a new
    array without a buffer."""
    return np.empty((rows, m)) if flat is None else flat[: rows * m].reshape(rows, m)


def _r2_blocks(positions: np.ndarray, buf: np.ndarray, tmp: np.ndarray,
               pair_major: bool = False):
    """For atoms i = 0 .. n-2, the (n-1-i, m) squared distances to atoms j > i.

    ``tmp`` is (n-1, m) scratch.  With ``pair_major``, block i is written into
    the next rows of ``buf``, an (n_pairs, m) array, pairs in row-major order;
    without, every block is a view of ``buf``, (n-1, m): use it before the
    next.
    """
    x, y, z = np.ascontiguousarray(positions.transpose(2, 1, 0))  # (n, m) each
    n = len(x)
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
        if pair_major:
            row += n - 1 - i
        yield d


def _pair_rows(positions: np.ndarray, rows: np.ndarray | None = None,
               tmp: np.ndarray | None = None) -> np.ndarray:
    """Squared pair distances, pair-major (n_pairs, m), in the heads of the
    flat buffers ``rows`` (n_pairs x m doubles) and ``tmp`` ((n-1) x m) when
    given."""
    m, n, _ = positions.shape
    rows = _head(rows, n * (n - 1) // 2, m)
    for _ in _r2_blocks(positions, rows, _head(tmp, n - 1, m), pair_major=True):
        pass
    return rows


def _min_pair(positions: np.ndarray, c3: float, out: np.ndarray | None = None,
              buf: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """``min_pair_kappa``, its blocks in the heads of the flat buffers
    ``buf`` and ``tmp`` ((n-1) x m doubles each) when given."""
    m, n, _ = positions.shape
    r2_max = np.zeros(m)
    for d in _r2_blocks(positions, _head(buf, n - 1, m), _head(tmp, n - 1, m)):
        np.maximum(r2_max, d.max(axis=0), out=r2_max)
    return np.divide(c3, r2_max ** 1.5, out=out)


def _all_pairs(positions: np.ndarray, c3: float, out: np.ndarray | None = None,
               rows: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """``all_pair_kappa``, its pair-major rows in the heads of the flat
    buffers ``rows`` and ``tmp`` when given (see ``_pair_rows``)."""
    kappa = _pair_rows(positions, rows, tmp)
    kappa **= 1.5
    np.divide(c3, kappa, out=kappa)
    if out is None:
        return np.ascontiguousarray(kappa.T).ravel()
    np.copyto(out.reshape(kappa.shape[::-1]), kappa.T)
    return out


def min_pair_kappa(
    positions: np.ndarray, c3: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Smallest pair coupling c3/r^3 per configuration (the most distant
    pair), written into ``out`` when given."""
    return _min_pair(positions, c3, out)


def all_pair_kappa(
    positions: np.ndarray, c3: float, out: np.ndarray | None = None
) -> np.ndarray:
    """All pair couplings c3/r^3, flattened configuration-major, written
    into ``out`` (m * n_pairs contiguous doubles) when given."""
    return _all_pairs(positions, c3, out)
