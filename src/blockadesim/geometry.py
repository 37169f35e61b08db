"""Atom positions, pairwise dipole-dipole couplings and splitting statistics.

Units: lengths in um, volumes in um^3, couplings in rad/us.  A pair at
distance r couples with kappa = c3 / r^3; the volume-scale coupling
kappa_bar = c3 / V sets the minimum splitting scale of the doubly-excited
manifold for an ensemble confined to volume V.

This module owns the rule of a splitting run: ``_checked_box`` (sizes, box
and c3: kappa_bar and the smallest sample x, of two atoms at opposite
corners, positive and finite) and ``_checked_window`` (0 < lo < hi < inf)
raise a ValueError "<param> must be ..." before anything is sampled, and
``splitting_violations`` gives the CLI their verdict.

Monte-Carlo statistics draw configuration k from counter block k of one
``Philox(key=seed)`` stream (Salmon et al., SC'11), so any chunk of
configurations is reached directly and reproduces the serial run.  One
sampler, ``_sample``, has a kernel write each chunk's values into its slice
of one result array, within ``hilbert.MEMORY_BUDGET``: the min-pair or
all-pairs x of ``splitting_distribution`` or the pair sums of r^6 of
``geometry_factor`` (which ``errors`` re-exports).  A run large enough to
pay for it (``_PARALLEL_MIN_DOUBLES``) gives one contiguous share of its
configurations to each thread of a pool of one thread per CPU the process
may run on; numpy's Philox fill and ufuncs release the GIL, and any thread
count and chunk plan gives the serial run's samples bit for bit.  Each
thread gets one flat buffer a run, its scratch within one
``_CHUNK_DOUBLES`` budget on any number of CPUs, or its share's samples if
more, which it sorts there.  The pool is dropped in a forked child; a
failed share stops the others at their next chunk and its exception
reaches the caller.

The histogram counts are sums of searches in the sorted runs, and the first
``splitting_ks`` of the returned (read-only) samples takes the runs instead
of sorting again; it bounds the KS terms between cuts at every 64th sample
of the longest run and merges only the intervals that can reach the
supremum.  ``sample_positions`` returns one ensemble's (n, 3) positions,
configuration 0 of the stream, and ``coupling_matrix`` their (n, n)
couplings by the same pair kernel.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hilbert import MEMORY_BUDGET

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


def _checked_box(n_configs: int, n_atoms: int, box, c3=None) -> tuple[float, float, float]:
    """The box as three floats; a ValueError naming the parameter unless
    n_configs >= 1, n_atoms >= 2, the box is three positive finite lengths
    with a positive finite volume and diagonal^6 and, given c3, c3, c3 / V
    and x = (c3 / diagonal^3) / (c3 / V) are positive and finite."""
    if n_configs < 1:
        raise ValueError(f"n_configs must be >= 1, got {n_configs}")
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be >= 2, got {n_atoms}")
    if c3 is not None and not 0.0 < c3 < np.inf:
        raise ValueError(f"c3 must be positive and finite, got {c3}")
    box = tuple(float(b) for b in box)
    volume, r2 = math.prod(box), sum(b * b for b in box)   # r2: the largest pair's
    ok = (len(box) == 3 and all(0.0 < b < np.inf for b in box)
          and 0.0 < volume < np.inf and r2 * r2 * r2 < np.inf)
    if ok and c3 is not None:
        kb = float(c3) / volume
        ok = 0.0 < kb < np.inf and 0.0 < float(c3) / r2**1.5 / kb < np.inf
    if not ok:
        at = "" if c3 is None else (f", and at c3 = {c3} a positive finite c3 / volume "
                                    "and x = (c3 / diagonal^3) / (c3 / volume)")
        raise ValueError(f"box must be three positive finite lengths with a positive "
                         f"finite volume and diagonal^6{at}, got {box}")
    return box


def _checked_window(window) -> tuple[float, float]:
    """The KS window as two floats; a ValueError unless 0 < lo < hi < inf."""
    window = tuple(float(w) for w in window)
    if not (len(window) == 2 and 0.0 < window[0] < window[1] < np.inf):
        raise ValueError(f"window must be 0 < lo < hi < inf, got {window}")
    return window


def splitting_violations(box, c3: float, window) -> list[str]:
    """The "<param> must be ..." message of each check of a splitting run,
    ``_checked_box`` with c3 and ``_checked_window``, that refuses it."""
    out = []
    for check in (lambda: _checked_box(1, 2, box, c3), lambda: _checked_window(window)):
        try:
            check()
        except ValueError as exc:
            out.append(str(exc))
    return out


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
    """Volume-scale coupling c3 / V, the minimum-splitting scale; a
    ValueError unless V, c3 and c3 / V are positive and finite."""
    kb = float(c3) / float(volume) if 0.0 < volume < np.inf else np.nan
    if not (0.0 < c3 < np.inf and 0.0 < kb < np.inf):
        raise ValueError(f"volume and c3 must be positive and finite, and so must "
                         f"c3 / volume, got {volume} and {c3}")
    return kb


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


def _sort(a: np.ndarray) -> np.ndarray:
    """``a`` sorted in place (NaN last): every sort of splitting samples."""
    a.sort()
    return a


def _fill_share(x, kernel, per_config, n_atoms, box, seed, bounds, j, flats, stop, cuts, runs):
    """Chunks bounds[0]..bounds[1], bounds[1]..bounds[2], ... of a run, each
    chunk's values written by ``kernel`` into its slice of x, in ``flats[j]``
    cut at ``cuts``, then, given ``runs``, the share's values sorted into
    ``runs[j]``, a head of ``flats[j]``.  Starts no chunk once ``stop`` is set."""
    u, pts, buf, tmp, _ = np.split(flats[j], cuts)
    for k0, k1 in zip(bounds, bounds[1:]):
        if stop:
            return
        pos = _config_positions(k1 - k0, n_atoms, box, seed, k0, u, pts)
        kernel(pos, x[k0 * per_config : k1 * per_config], buf, tmp)
    if runs:
        runs[j][:] = x[bounds[0] * per_config : bounds[-1] * per_config]
        _sort(runs[j])


def _sample(n_configs, n_atoms, box, seed, kernel, per_config, rows, sort=False):
    """A run's ``per_config`` values a configuration, configuration-major:
    ``kernel(positions, out, buf, tmp)`` writes a chunk's into its slice
    ``out``, with flat scratch of ``rows`` and n_atoms - 1 doubles a config.
    With ``sort``, (values, runs): each share's values sorted on its thread.

    A run whose scratch reaches ``_PARALLEL_MIN_DOUBLES`` gives one
    contiguous share of its configurations to each of ``_WORKERS`` pool
    threads; a smaller one, or one on a single CPU, runs on the calling
    thread.  Chunks are equal to within one configuration, a whole number of
    them per share, and all shares' scratch together is at most
    ``_CHUNK_DOUBLES`` doubles (one configuration's at least), in one flat
    buffer a share, made here, that also holds its samples when sorted.  A
    failed share's exception is raised here once every share has stopped.
    Over ``hilbert.MEMORY_BUDGET`` it raises a ValueError before allocating."""
    # per configuration: draws, positions, block rows and the kernel's tmp
    sizes = (4 * _counter_block(n_atoms), 3 * n_atoms, rows, n_atoms - 1)
    doubles = sum(sizes)
    workers = _WORKERS if n_configs * doubles >= _PARALLEL_MIN_DOUBLES else 1
    workers = min(workers, n_configs)
    step = max(1, _CHUNK_DOUBLES // workers // doubles)
    n_chunks = -(-n_configs // (step * workers)) * workers
    m = -(-n_configs // n_chunks)
    # 8 B a sample and 8 B a sorted sample, beside every share's scratch
    need = 16 * n_configs * per_config + 8 * workers * m * doubles
    if need > MEMORY_BUDGET:
        raise ValueError(f"n_configs must be fewer: {n_configs} x {per_config} samples "
                         f"need {need:.3g} B > budget {MEMORY_BUDGET:.3g} B")
    bounds = [i * n_configs // n_chunks for i in range(n_chunks + 1)]
    share = n_chunks // workers
    plans = [bounds[j * share : (j + 1) * share + 1] for j in range(workers)]
    # the samples before the scratch: glibc then keeps the freed scratch
    # above them; scratch first raised the peak RSS of the benchmark's
    # splitting workload by 4.6 MB
    x = np.empty(n_configs * per_config)
    flats = [np.empty(max(m * doubles, (p[-1] - p[0]) * per_config * sort)) for p in plans]
    runs = [f[: (p[-1] - p[0]) * per_config] for f, p in zip(flats, plans) if sort]
    run = (x, kernel, per_config, n_atoms, box, seed)
    stop: list = []
    tail = (flats, stop, m * np.cumsum(sizes), runs)
    if workers == 1:
        _fill_share(*run, plans[0], 0, *tail)
    else:
        from concurrent.futures import FIRST_EXCEPTION, wait

        futures = [_pool().submit(_fill_share, *run, plans[j], j, *tail)
                   for j in range(workers)]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # after a failure or an interrupt, no share starts another chunk
            stop.append(True)
            for f in futures:
                f.cancel()
            wait(futures)
            # a pool thread drops a task's arguments only after its future
            # is done, so the shares hold the lists, not the buffers: freed
            # here, but for the sorted runs' heads
            flats.clear()
        for f in futures:
            if not f.cancelled():
                f.result()
    # in place, as the shares hold the list: a short run keeps its scratch
    runs[:] = [r.copy() if len(r) < m * doubles else r for r in runs]
    return (x, runs) if sort else x


# [weak reference to the samples, their sorted runs] of the last
# ``splitting_distribution``, for the first ``splitting_ks`` of those samples;
# emptied when taken or when they die (a replaced reference is freed uncalled)
_SORTED: list = []


def splitting_distribution(n_configs: int, n_atoms: int, box: tuple[float, float, float],
                           c3: float, seed: int, statistic: str = "min-pair",
                           bins: int = 60) -> SplittingHistogram:
    """Monte-Carlo histogram of x = kappa/kappa_bar over configurations.

    statistic "min-pair" records the smallest pair coupling of each
    configuration (the blockade-limiting splitting); "all-pairs" records
    every pair.  Bins are geometric and span the full sample range, so the
    counts sum to the sample count.  Configuration k is a pure function of
    (seed, k, n_atoms); see ``_config_positions``.
    """
    box = _checked_box(n_configs, n_atoms, box, c3)
    if statistic not in ("min-pair", "all-pairs"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    kb = kappa_bar(float(np.prod(box)), c3)
    n_pairs = n_atoms * (n_atoms - 1) // 2
    kernel, per_config, rows = ((_kernels._min_pair, 1, n_atoms - 1) if statistic == "min-pair"
                                else (_kernels._all_pairs, n_pairs, n_pairs))

    def scaled(pos, out, buf, tmp):
        kernel(pos, c3, out, buf, tmp)
        out /= kb

    x, runs = _sample(n_configs, n_atoms, box, seed, scaled, per_config, rows, sort=True)
    x.flags.writeable = False
    lo = min(r[0] for r in runs) * (1.0 - 1e-12)
    hi = max(r[-1] for r in runs) * (1.0 + 1e-12)
    hi = hi if hi > lo else lo * (1.0 + 1e-9)
    edges = np.geomspace(lo, hi, bins + 1)
    # np.histogram's rules for explicit edges: the last bin is closed
    counts = np.diff(sum(np.append(np.searchsorted(r, edges[:-1], "left"),
                                   np.searchsorted(r, edges[-1], "right")) for r in runs))
    _SORTED[:] = [weakref.ref(x, lambda _: _SORTED.clear()), runs]
    return SplittingHistogram(bin_edges=edges, counts=counts, samples=x)


def _r6_sums(positions, out, rows, tmp):
    """Per configuration of a chunk, the sum of r^6 over its pairs, in ``out``."""
    r6 = np.ascontiguousarray(_kernels._pair_rows(positions, rows, tmp).T)
    np.power(r6, 3, out=r6).sum(axis=1, out=out)


def geometry_factor(n_atoms: int, box, seed: int, n_configs: int = 64) -> float:
    """Dimensionless geometry-resolved leakage factor of a sampled box.

    Mean over configurations of (1/N^2) sum_{i != j} (kappa_bar/kappa_ij)^2
    = (1/N^2) sum (r_ij^3 / V)^2: the pair-sum estimator equals
    factor / (kappa_bar T)^2, to be compared with the closed form's 1/(4 pi).
    The coupling constant cancels.  Besides ``_checked_box``, a ValueError
    names the box unless V^2 is positive and the bounds of the sums and of
    the factor, 2 n_configs n_pairs diagonal^6 and diagonal^6 / V^2, finite.
    """
    box = _checked_box(n_configs, n_atoms, box)
    n_pairs = n_atoms * (n_atoms - 1) // 2
    volume, r2 = float(np.prod(box)), sum(b * b for b in box)
    r6 = r2 * r2 * r2
    if not (0.0 < volume**2 and 2.0 * n_configs * n_pairs * r6 < np.inf
            and r6 / volume**2 < np.inf):
        raise ValueError(f"box must be one with a positive volume^2 and a finite 2 x "
                         f"n_configs x pairs x diagonal^6 and diagonal^6 / volume^2, got {box}")
    u2 = _sample(n_configs, n_atoms, box, seed, _r6_sums, 1, n_pairs)
    return float(2.0 * u2.mean() / (n_atoms**2 * volume**2))


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


def splitting_ks(samples: np.ndarray, window: tuple[float, float] = (0.2, 20.0)) -> float:
    """Two-sided KS distance between sampled x values and the analytic pdf.

    Both distributions are renormalized to unit mass on the window: samples
    outside are dropped, the analytic cdf is rescaled.  Returns the sup
    distance between the empirical cdf and the renormalized analytic cdf.
    Raises ValueError unless 0 < lo < hi < inf, and GeometryError when
    either has no mass on the window.
    """
    window = lo, hi = _checked_window(window)
    entry = _SORTED[:]        # one read: a run started meanwhile cannot swap it
    if entry and entry[0]() is samples:
        runs = entry[1]
        _SORTED.clear()
    else:
        # one sort of a float copy of all samples (NaN sorts last)
        runs = [_sort(np.array(samples, dtype=float))]
    runs = sorted((r[np.searchsorted(r, lo, "left"):np.searchsorted(r, hi, "right")]
                   for r in runs), key=len, reverse=True)
    n = sum(map(len, runs))
    if n == 0:
        raise GeometryError("no samples inside the comparison window")
    grid, cdf = _window_cdf(window)
    # The terms at sorted sample i are (i+1)/n - F(x_i) and F(x_i) - i/n.
    # Cut j is the last sample of block j of 64 of the longest run (the
    # largest sample for the last cut); each other run is cut by value, so
    # between start[:, j] and end[:, j] the runs hold the samples of sorted
    # indices b .. c-1 (the column sums), all in [cut j-1, cut j], and sample
    # c-1 is cut j.  F is monotone (up to a few ulp where np.interp crosses
    # a grid node), so c/n - F(cut j-1) and F(cut j) - b/n bound every term
    # of interval j.  The exact terms at the cuts give a lower bound d of the
    # supremum; only the intervals whose bound reaches d - 1e-12 are
    # gathered, sorted across the runs and evaluated.
    blocks = np.arange(_KS_BLOCK, len(runs[0]) + 1, _KS_BLOCK)
    cut = np.append(runs[0][blocks - 1], max(r[-1] for r in runs if len(r)))
    end = np.array([np.append(blocks, len(runs[0])),
                    *(np.searchsorted(r, cut, "right") for r in runs[1:])])
    start = np.hstack([np.zeros((len(runs), 1), end.dtype), end[:, :-1]])
    b, c = start.sum(axis=0), end.sum(axis=0)
    f = np.interp(cut, grid, cdf)
    d = max((c / n - f).max(), (f - (c - 1) / n).max())
    j = np.flatnonzero(np.maximum(c / n - np.append(0.0, f[:-1]), f - b / n) >= d - 1e-12)
    xs = np.concatenate([r[_ranges(s[j], e[j])] for r, s, e in zip(runs, start, end)])
    if len(runs) > 1:
        _sort(xs)
    i = _ranges(b[j], c[j])
    f = np.interp(xs, grid, cdf)
    return float(max(d, ((i + 1) / n - f).max(), (f - i / n).max()))


def _ranges(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The concatenated ranges start[0] .. end[0]-1, start[1] .. end[1]-1, ..."""
    lengths = end - start
    return np.repeat(start + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
