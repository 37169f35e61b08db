"""Atom positions, pairwise dipole-dipole couplings and splitting statistics.

Units: lengths in um, volumes in um^3, couplings in rad/us.  A pair at
distance r couples with kappa = c3 / r^3; the volume-scale coupling
kappa_bar = c3 / V sets the minimum splitting scale of the doubly-excited
manifold for an ensemble confined to volume V.

Monte-Carlo statistics draw configuration k from counter block k of one
``Philox(key=seed)`` stream (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), so any chunk of configurations is reached
directly and reproduces the serial run.  Every sampled quantity comes from
one sampler, ``_sample``: one chunk of configurations at a time, over the
upper-triangle pairs only, a kernel writes each chunk's values straight into
its own slice of one result array.  ``splitting_distribution`` passes the
min-pair kernel (one reused block buffer) or all pairs (one pair-major array
per chunk) over kappa_bar, ``errors.geometry_factor`` the pair sums of r^6.

A run large enough to pay for it (``_PARALLEL_MIN_DOUBLES``) samples on a
thread pool of one thread per CPU the process may run on
(``os.sched_getaffinity``, else ``os.cpu_count``): its configurations are
split into one contiguous share per thread, each walked in equal chunks.
numpy's Philox fill and ufuncs release the GIL, so the shares run side by
side, and since every chunk is its own counter blocks and its own slice of
the samples, any thread count and chunk plan gives the serial run's samples
bit for bit.  The calling thread allocates every thread's scratch (draws,
positions, block buffers) once per run, all of it within one
``_CHUNK_DOUBLES`` budget on any number of CPUs, and releases it before the
sort.  The pool is made at the first parallel run and dropped in a forked
child, whose copy of it has no threads; a failed share stops the others at
their next chunk and its exception reaches the caller.

A run sorts its samples once: the histogram counts are searches in the
sorted copy, and the first ``splitting_ks`` of the returned (read-only)
samples takes that copy instead of sorting again.
``splitting_ks`` bounds the KS terms of each block of 64 sorted samples by
its end terms and evaluates only the blocks that can reach the supremum.
A single ensemble is two plain arrays: ``sample_positions`` returns its
(n, 3) positions, configuration 0 of that stream, and ``coupling_matrix``
their (n, n) couplings by the same pair kernel.
"""

from __future__ import annotations

import os
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


def _checked_box(n_configs: int, n_atoms: int, box) -> tuple[float, float, float]:
    """The box as three floats; a ValueError naming the parameter unless
    n_configs >= 1, n_atoms >= 2 and the box is three positive finite lengths."""
    if n_configs < 1:
        raise ValueError(f"n_configs must be >= 1, got {n_configs}")
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be >= 2, got {n_atoms}")
    box = tuple(float(b) for b in box)
    if len(box) != 3 or not all(0.0 < b < np.inf for b in box):
        raise ValueError(f"box must be three positive finite lengths, got {box}")
    return box


def sample_positions(n: int, box: tuple[float, float, float], seed: int) -> np.ndarray:
    """(n, 3) uniform positions (um) in the box: Monte-Carlo configuration 0
    of ``Philox(key=seed)`` (``_config_positions``)."""
    return _config_positions(1, n, _checked_box(1, n, box), seed)[0]


def coupling_matrix(positions: np.ndarray, c3: float) -> np.ndarray:
    """(n, n) couplings kappa_ij = c3 / r_ij^3 (rad/us), zero on the diagonal,
    of (n, 3) positions by the Monte-Carlo pair kernel."""
    n = len(positions)
    r2 = _kernels._pair_rows(positions[None])[:, 0]
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


# Doubles one chunk of configurations may hold: its draws, its positions and
# its squared pair distances.  Bounds the memory of a Monte-Carlo run; the
# sampling threads of a run share one such budget.
_CHUNK_DOUBLES = 1 << 20

# Scratch doubles of a run (configurations x doubles each) below which it
# samples on the calling thread.  On two CPUs (x86_64) the pool lost below
# ~350k (5000 x 6 all pairs, 1000 x 40 min-pair, 2000 x 16 min-pair), where
# numpy calls on short rows trade the GIL more than they compute, and won
# from ~460k up (2000 x 16 all pairs, 4000 x 16 min-pair, 30000 x 2).
_PARALLEL_MIN_DOUBLES = 1 << 19

try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:                 # a platform without CPU affinity
    _WORKERS = os.cpu_count() or 1

# [ThreadPoolExecutor of _WORKERS threads], made at the first parallel run.
# Two threads racing to make it make two, and both use the first: an
# executor starts no thread before its first task.
_POOL: list = []
if hasattr(os, "register_at_fork"):
    # a forked child holds the parent's pool but none of its threads
    os.register_at_fork(after_in_child=_POOL.clear)


def _pool():
    """The sampling thread pool, made at its first use."""
    if not _POOL:
        from concurrent.futures import ThreadPoolExecutor
        _POOL.append(ThreadPoolExecutor(_WORKERS, "blockadesim-sample"))
    return _POOL[0]


def _counter_block(n_atoms: int) -> int:
    """Philox counters owned by one configuration: ceil(3 n_atoms / 4)."""
    return -(-3 * n_atoms // 4)


def _config_positions(
    n_configs: int, n_atoms: int, box, seed: int, first: int = 0,
    u: np.ndarray | None = None, pts: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform configurations first .. first + n_configs - 1 of one stream.

    All configurations come from a single ``Philox(key=seed)`` stream.
    Configuration k owns counter block k: ``_counter_block(n_atoms)``
    counters, i.e. 4x that many doubles, of which the first 3 n_atoms are
    its coordinates (atom-major).  Reaching ``first`` is one ``advance``, so
    configuration k is a pure function of (seed, k, n_atoms) and a chunked
    run reproduces the serial batch bit for bit.  The (n_configs, n_atoms, 3)
    result is a view of (3, n_atoms, n_configs) storage, the layout of the
    pair kernels.  The draws and that storage go into the heads of the flat
    buffers ``u`` and ``pts`` when given.
    """
    block = _counter_block(n_atoms)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(first * block)
    u = _kernels._head(u, n_configs, 4 * block)
    np.random.Generator(bitgen).random(out=u)
    pts = _kernels._head(pts, 3 * n_atoms, n_configs).reshape(3, n_atoms, n_configs)
    np.multiply(u[:, : 3 * n_atoms].reshape(n_configs, n_atoms, 3).transpose(2, 1, 0),
                np.asarray(box, dtype=float)[:, None, None], out=pts)
    return pts.transpose(2, 1, 0)


def _fill_share(x, kernel, per_config, n_atoms, box, seed, bounds, scratch, j, stop):
    """Chunks bounds[0]..bounds[1], bounds[1]..bounds[2], ... of a run, each
    chunk's values written by ``kernel`` into its slice of x, in
    ``scratch[j]``.  Starts no chunk once ``stop`` is set."""
    u, pts, buf, tmp = scratch[j]
    for k0, k1 in zip(bounds, bounds[1:]):
        if stop:
            return
        pos = _config_positions(k1 - k0, n_atoms, box, seed, k0, u, pts)
        kernel(pos, x[k0 * per_config : k1 * per_config], buf, tmp)


def _sample(n_configs, n_atoms, box, seed, kernel, per_config, rows):
    """A run's ``per_config`` values a configuration, configuration-major:
    ``kernel(positions, out, buf, tmp)`` writes a chunk's into its slice
    ``out``, with flat scratch of ``rows`` and n_atoms - 1 doubles a config.

    A run whose scratch reaches ``_PARALLEL_MIN_DOUBLES`` gives one
    contiguous share of its configurations to each of ``_WORKERS`` pool
    threads; a smaller one, or one on a single CPU, runs on the calling
    thread.  Chunks are equal to within one configuration, a whole number of
    them per share, and all shares' scratch together is at most
    ``_CHUNK_DOUBLES`` doubles (one configuration's at least).  A failed
    share's exception is raised here once every share has stopped."""
    # per configuration: draws, positions, block rows and the kernel's tmp
    sizes = (4 * _counter_block(n_atoms), 3 * n_atoms, rows, n_atoms - 1)
    doubles = sum(sizes)
    workers = _WORKERS if n_configs * doubles >= _PARALLEL_MIN_DOUBLES else 1
    workers = min(workers, n_configs)
    step = max(1, _CHUNK_DOUBLES // workers // doubles)
    n_chunks = -(-n_configs // (step * workers)) * workers
    bounds = [i * n_configs // n_chunks for i in range(n_chunks + 1)]
    m = -(-n_configs // n_chunks)
    # the samples before the scratch: glibc then keeps the freed scratch
    # above them, where the sort's copy reuses it; scratch first raised the
    # peak RSS of the benchmark's splitting workload by 4.6 MB
    x = np.empty(n_configs * per_config)
    scratch = [[np.empty(m * d) for d in sizes] for _ in range(workers)]
    run = (x, kernel, per_config, n_atoms, box, seed)
    stop: list = []
    if workers == 1:
        _fill_share(*run, bounds, scratch, 0, stop)
        return x
    from concurrent.futures import FIRST_EXCEPTION, wait

    share = n_chunks // workers
    futures = [_pool().submit(_fill_share, *run, bounds[j * share : (j + 1) * share + 1],
                              scratch, j, stop)
               for j in range(workers)]
    try:
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # after a failure or an interrupt, no share starts another chunk
        stop.append(True)
        for f in futures:
            f.cancel()
        wait(futures)
        # a pool thread drops a task's arguments only after its future is
        # done, so the shares hold the list, not the buffers: freed here
        scratch.clear()
    for f in futures:
        if not f.cancelled():
            f.result()
    return x


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
    box = _checked_box(n_configs, n_atoms, box)
    if statistic not in ("min-pair", "all-pairs"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if not 0.0 < c3 < np.inf:
        raise ValueError(f"c3 must be positive and finite, got {c3}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    kb = kappa_bar(float(np.prod(box)), c3)
    n_pairs = n_atoms * (n_atoms - 1) // 2
    kernel, per_config, rows = ((_kernels._min_pair, 1, n_atoms - 1) if statistic == "min-pair"
                                else (_kernels._all_pairs, n_pairs, n_pairs))

    def scaled(pos, out, buf, tmp):
        kernel(pos, c3, out, buf, tmp)
        out /= kb

    x = _sample(n_configs, n_atoms, box, seed, scaled, per_config, rows)
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
    entry = _SORTED[:]        # one read: a run started meanwhile cannot swap it
    if entry and entry[0]() is samples:
        xs = entry[1]
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
