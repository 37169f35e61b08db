"""Atom positions, pairwise dipole-dipole couplings and splitting statistics.

Units: lengths in um, volumes in um^3, couplings in rad/us.  A pair at
distance r couples with kappa = c3 / r^3; the volume-scale coupling
kappa_bar = c3 / V sets the minimum splitting scale of the doubly-excited
manifold for an ensemble confined to volume V.

Monte-Carlo statistics draw configuration k from counter block k of one
``Philox(key=seed)`` stream (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), so any chunk of configurations is reached
directly and reproduces the serial run.  Pair distances are reduced one
chunk of configurations at a time over the upper-triangle pairs only, and
``splitting_distribution`` allocates its samples once: each chunk's kernel
writes its couplings straight into its own slice of them, the min-pair
statistic from one reused block buffer, all pairs through one pair-major
array per chunk.  A run sorts its samples once: the histogram counts are
searches in the sorted copy, and the first ``splitting_ks`` of the returned
(read-only) samples takes that copy instead of sorting again.
``splitting_ks`` bounds the KS terms of each block of 64 sorted samples by
its end terms and evaluates only the blocks that can reach the supremum.
A single ensemble is two plain arrays: ``sample_positions`` returns its
(n, 3) positions, configuration 0 of that stream, and ``coupling_matrix``
their (n, n) couplings by the same pair kernel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import _kernels

# Coincident-atom guard (um); couplings diverge as r -> 0.
_R_MIN = 1e-9


class GeometryError(ValueError):
    """Degenerate geometry (coincident atoms, no mass on a KS window)."""


@dataclass(frozen=True)
class SplittingHistogram:
    """Histogram of x = kappa/kappa_bar over sampled configurations."""

    bin_edges: np.ndarray
    counts: np.ndarray
    samples: np.ndarray            # raw x values, one per config or pair; read-only

    def density(self) -> np.ndarray:
        """Per-bin probability density of the in-range samples."""
        total = self.counts.sum()
        widths = np.diff(self.bin_edges)
        if total == 0:
            return np.zeros_like(widths)
        return self.counts / (total * widths)


def sample_positions(n: int, box: tuple[float, float, float], seed: int) -> np.ndarray:
    """(n, 3) uniform positions (um) in the box: Monte-Carlo configuration 0
    of ``Philox(key=seed)`` (``_config_positions``)."""
    if n < 2:
        raise ValueError(f"need at least 2 atoms, got {n}")
    box = tuple(float(b) for b in box)
    if min(box) <= 0:
        raise ValueError(f"box dimensions must be positive, got {box}")
    return _config_positions(1, n, box, seed)[0]


def coupling_matrix(positions: np.ndarray, c3: float) -> np.ndarray:
    """(n, n) couplings kappa_ij = c3 / r_ij^3 (rad/us), zero on the diagonal,
    of (n, 3) positions by the Monte-Carlo pair kernel."""
    n = len(positions)
    r2 = _kernels.pair_r2(positions[None])[0]
    if (r2 < _R_MIN**2).any():
        raise GeometryError("coincident atoms: pair distance below 1e-9 um")
    iu, ju = np.triu_indices(n, 1)
    kappa = np.zeros((n, n))
    kappa[iu, ju] = kappa[ju, iu] = c3 / r2**1.5
    return kappa


def kappa_bar(volume: float, c3: float) -> float:
    """Volume-scale coupling c3 / V, the minimum-splitting scale."""
    if volume <= 0:
        raise ValueError(f"volume must be positive, got {volume}")
    return c3 / volume


def min_pair_splitting(kappa: np.ndarray) -> float:
    """Smallest pair coupling of an (n, n) array (the most distant pair)."""
    n = len(kappa)
    iu, ju = np.triu_indices(n, 1)
    return float(kappa[iu, ju].min())


# Doubles one chunk of configurations may hold: its draws, its positions and
# its squared pair distances.  Bounds the memory of a Monte-Carlo run.
_CHUNK_DOUBLES = 1 << 20


def _counter_block(n_atoms: int) -> int:
    """Philox counters owned by one configuration: ceil(3 n_atoms / 4)."""
    return -(-3 * n_atoms // 4)


def _config_positions(
    n_configs: int, n_atoms: int, box, seed: int, first: int = 0
) -> np.ndarray:
    """Uniform configurations first .. first + n_configs - 1 of one stream.

    All configurations come from a single ``Philox(key=seed)`` stream.
    Configuration k owns counter block k: ``_counter_block(n_atoms)``
    counters, i.e. 4x that many doubles, of which the first 3 n_atoms are
    its coordinates (atom-major).  Reaching ``first`` is one ``advance``, so
    configuration k is a pure function of (seed, k, n_atoms) and a chunked
    run reproduces the serial batch bit for bit.  The (n_configs, n_atoms, 3)
    result is a view of (3, n_atoms, n_configs) storage, the layout of the
    pair kernels.
    """
    block = _counter_block(n_atoms)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(first * block)
    u = np.random.Generator(bitgen).random((n_configs, 4 * block))
    pts = np.empty((3, n_atoms, n_configs))
    np.multiply(u[:, : 3 * n_atoms].reshape(n_configs, n_atoms, 3).transpose(2, 1, 0),
                np.asarray(box, dtype=float)[:, None, None], out=pts)
    return pts.transpose(2, 1, 0)


def _position_chunks(n_configs: int, n_atoms: int, box, seed: int):
    """Configurations 0 .. n_configs - 1 in consecutive chunks.

    A chunk, together with the pair arrays a kernel builds from it, holds
    about ``_CHUNK_DOUBLES`` doubles, so memory does not grow with
    configs x atoms^2.
    """
    n_pairs = n_atoms * (n_atoms - 1) // 2
    per_config = 4 * _counter_block(n_atoms) + 6 * n_atoms + n_pairs
    step = max(1, _CHUNK_DOUBLES // per_config)
    for k0 in range(0, n_configs, step):
        yield _config_positions(min(step, n_configs - k0), n_atoms, box, seed, k0)


# [weak reference to the samples, their sorted copy] of the last
# ``splitting_distribution``, for the first ``splitting_ks`` of those samples;
# emptied when taken or when they die (a replaced reference is freed uncalled)
_SORTED: list = []


def splitting_distribution(
    n_configs: int,
    n_atoms: int,
    box: tuple[float, float, float],
    c3: float,
    seed: int,
    statistic: str = "min-pair",
    bins: int = 60,
) -> SplittingHistogram:
    """Monte-Carlo histogram of x = kappa/kappa_bar over configurations.

    statistic "min-pair" records the smallest pair coupling of each
    configuration (the blockade-limiting splitting); "all-pairs" records
    every pair.  Bins are geometric and span the full sample range, so the
    counts sum to the sample count.  Configuration k is a pure function of
    (seed, k, n_atoms); see ``_config_positions``.
    """
    if n_configs < 1:
        raise ValueError(f"n_configs must be >= 1, got {n_configs}")
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    if statistic not in ("min-pair", "all-pairs"):
        raise ValueError(f"unknown statistic {statistic!r}")
    kb = kappa_bar(float(np.prod(box)), c3)
    if statistic == "min-pair":
        kernel, per_config = _kernels.min_pair_kappa, 1
    else:
        kernel, per_config = _kernels.all_pair_kappa, n_atoms * (n_atoms - 1) // 2
    x = np.empty(n_configs * per_config)
    k = 0
    for pos in _position_chunks(n_configs, n_atoms, box, seed):
        end = k + len(pos) * per_config
        kernel(pos, c3, out=x[k:end])
        k = end
    x /= kb
    x.flags.writeable = False
    xs = np.sort(x)
    lo = xs[0] * (1.0 - 1e-12)
    hi = xs[-1] * (1.0 + 1e-12)
    hi = hi if hi > lo else lo * (1.0 + 1e-9)
    edges = np.geomspace(lo, hi, bins + 1)
    # np.histogram's rules for explicit edges: the last bin is closed
    counts = np.diff(np.append(np.searchsorted(xs, edges[:-1], "left"),
                               np.searchsorted(xs, edges[-1], "right")))
    _SORTED[:] = [weakref.ref(x, lambda _: _SORTED.clear()), xs]
    return SplittingHistogram(
        bin_edges=edges,
        counts=counts,
        samples=x,
    )


# x below which the closed-form splitting density is exactly 0.0 in doubles
_PDF_ZERO_BELOW = 0.04


def analytic_splitting_pdf(x):
    """Closed-form splitting density sqrt(2) pi exp(-pi^3/(18 x^2)) / (6 x^2).

    Random-gas approximation for the normalized splitting x = kappa/kappa_bar.
    Defined for x > 0; its mass on (0, inf) is not unity, so comparisons
    renormalize on a finite window (see ``splitting_ks``).  Where the density
    underflows, below x ~ 0.048 and above x ~ 1e154, it is 0.0.
    """
    arr = np.asarray(x, dtype=float)
    if (arr <= 0).any():
        raise ValueError("analytic_splitting_pdf requires x > 0")
    # below the floor x * x could underflow to 0 and give 0/0
    arr = np.maximum(arr, _PDF_ZERO_BELOW)
    with np.errstate(over="ignore"):     # x * x = inf: the density is 0.0
        out = np.sqrt(2.0) * np.pi * np.exp(-np.pi**3 / (18.0 * arr * arr)) \
            / (6.0 * arr * arr)
    return out if out.ndim else float(out)


def _window_cdf(window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(grid, cdf) of ``analytic_window_cdf``: 8001 geometric nodes."""
    lo, hi = window
    grid = np.geomspace(lo, hi, 8001)
    pdf = analytic_splitting_pdf(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    if not 0.0 < cdf[-1] < np.inf:
        raise GeometryError(f"analytic density has mass {cdf[-1]:g} on the "
                            f"comparison window {lo:g}..{hi:g}")
    cdf /= cdf[-1]
    return grid, cdf


def analytic_window_cdf(xgrid: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """CDF of the analytic pdf renormalized to unit mass on the window.

    Raises GeometryError when the analytic mass on the window is zero or not
    finite, i.e. there is nothing to renormalize.
    """
    return np.interp(xgrid, *_window_cdf(window))


# sorted samples per block of the bounded KS scan
_KS_BLOCK = 64


def splitting_ks(
    samples: np.ndarray, window: tuple[float, float] = (0.2, 20.0)
) -> float:
    """Two-sided KS distance between sampled x values and the analytic pdf.

    Both distributions are renormalized to unit mass on the window: samples
    outside are dropped, the analytic cdf is rescaled.  Returns the sup
    distance between the empirical cdf and the renormalized analytic cdf.
    Raises GeometryError when either has no mass on the window.
    """
    lo, hi = window
    if _SORTED and _SORTED[0]() is samples:
        xs = _SORTED.pop()
        _SORTED.clear()
    else:
        # one sort of a float copy of all samples (NaN sorts last)
        xs = np.sort(np.asarray(samples, dtype=float))
    xs = xs[np.searchsorted(xs, lo, "left"):np.searchsorted(xs, hi, "right")]
    if len(xs) == 0:
        raise GeometryError("no samples inside the comparison window")
    grid, cdf = _window_cdf(window)
    n = len(xs)
    # The terms at sample i are (i+1)/n - F(x_i) and F(x_i) - i/n.  On a block
    # a .. b-1, i/n ascends and F is monotone (up to a few ulp where np.interp
    # crosses a grid node), so b/n - F(x_a) and F(x_{b-1}) - a/n bound every
    # term of the block.  The exact terms at the block ends give a lower
    # bound d of the supremum; a block whose bound is below d - 1e-12 cannot
    # hold it, and only the others are evaluated, in one gather.
    a = np.arange(0, n, _KS_BLOCK)
    z = np.minimum(a + _KS_BLOCK, n) - 1
    fa, fz = np.interp(xs[a], grid, cdf), np.interp(xs[z], grid, cdf)
    d = max(((a + 1) / n - fa).max(), (fa - a / n).max(),
            ((z + 1) / n - fz).max(), (fz - z / n).max())
    blocks = a[np.maximum((z + 1) / n - fa, fz - a / n) >= d - 1e-12]
    i = (blocks[:, None] + np.arange(_KS_BLOCK)).ravel()
    i = i[i < n]
    f = np.interp(xs[i], grid, cdf)
    return float(max(d, ((i + 1) / n - f).max(), (f - i / n).max()))
