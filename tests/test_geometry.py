import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future
from functools import partial
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from blockadesim import cli, errors, geometry
from blockadesim.errors import geometry_factor
from blockadesim.geometry import (
    GeometryError,
    analytic_splitting_pdf,
    coupling_matrix,
    kappa_bar,
    sample_positions,
    splitting_distribution,
    splitting_ks,
)

from .reference import box_splitting_cdf, window_ks


def test_positions_inside_box():
    pos = sample_positions(2, (10.0, 10.0, 10.0), seed=1)
    assert pos.shape == (2, 3)
    assert (pos >= 0).all() and (pos <= 10).all()


def test_positions_deterministic():
    a = sample_positions(7, (5.0, 3.0, 2.0), seed=42)
    b = sample_positions(7, (5.0, 3.0, 2.0), seed=42)
    assert np.array_equal(a, b)
    c = sample_positions(7, (5.0, 3.0, 2.0), seed=43)
    assert not np.array_equal(a, c)


def test_positions_validation():
    with pytest.raises(ValueError):
        sample_positions(1, (1, 1, 1), seed=0)
    with pytest.raises(ValueError):
        sample_positions(2, (0, 1, 1), seed=0)


@pytest.mark.parametrize("n", [2, 3, 6, 16])
def test_single_ensemble_is_monte_carlo_configuration_zero(n):
    box = (5.0, 4.0, 3.0)
    for seed in range(5):
        config0 = geometry._config_positions(1, n, box, seed)[0]
        pos = sample_positions(n, box, seed)
        assert np.array_equal(pos, config0)
        c3 = 1000.0
        kappa = coupling_matrix(pos, c3)
        x = kappa[np.triu_indices(n, 1)].min() / kappa_bar(np.prod(box), c3)
        assert x == splitting_distribution(1, n, box, c3, seed).samples[0]


def test_two_atom_coupling():
    kappa = coupling_matrix(np.array([[0.0, 0, 0], [1.0, 0, 0]]), c3=50.0)
    assert kappa[0, 1] == pytest.approx(50.0)
    kappa2 = coupling_matrix(np.array([[0.0, 0, 0], [2.0, 0, 0]]), c3=50.0)
    assert kappa2[0, 1] == pytest.approx(50.0 / 8.0)


def test_coupling_matrix_against_pair_loop():
    pos = sample_positions(10, (8, 6, 4), seed=11)
    kappa = coupling_matrix(pos, c3=1234.5)
    for i in range(10):
        for j in range(10):
            if i == j:
                assert kappa[i, j] == 0.0
            else:
                r = np.linalg.norm(pos[i] - pos[j])
                assert kappa[i, j] == pytest.approx(1234.5 / r**3, rel=1e-12)


def test_coupling_invariant_kappa_r3():
    pos = sample_positions(8, (5, 5, 5), seed=2)
    kappa = coupling_matrix(pos, c3=77.0)
    d = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
    iu, ju = np.triu_indices(8, 1)
    np.testing.assert_allclose(kappa[iu, ju] * d[iu, ju] ** 3, 77.0, rtol=1e-12)


def test_coupling_scaling_with_box_shrink():
    pos = sample_positions(6, (4, 4, 4), seed=5)
    kappa = coupling_matrix(pos, c3=10.0)
    kappa2 = coupling_matrix(pos * 0.5, c3=10.0)
    iu, ju = np.triu_indices(6, 1)
    np.testing.assert_allclose(
        kappa2[iu, ju], kappa[iu, ju] * 8.0, rtol=1e-12
    )


def test_coincident_atoms_rejected():
    with pytest.raises(GeometryError):
        coupling_matrix(np.zeros((2, 3)), c3=1.0)


def test_kappa_bar():
    assert kappa_bar(1000.0, 1000.0) == pytest.approx(1.0)
    assert kappa_bar(500.0, 1000.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        kappa_bar(0.0, 1.0)


def test_min_splitting_lower_bound():
    # worst case is the box diagonal
    kappa = coupling_matrix(sample_positions(20, (6, 5, 4), seed=17), c3=11.0)
    diag = np.sqrt(6.0**2 + 5.0**2 + 4.0**2)
    assert kappa[np.triu_indices(20, 1)].min() >= 11.0 / diag**3


def test_analytic_pdf_values():
    assert analytic_splitting_pdf(10.0) == pytest.approx(7.28e-3, rel=2e-3)
    # ratio at two points equals the formula ratio
    def direct(x):
        return np.sqrt(2) * np.pi * np.exp(-np.pi**3 / (18 * x * x)) / (6 * x * x)
    assert analytic_splitting_pdf(1.0) / analytic_splitting_pdf(2.0) == \
        pytest.approx(direct(1.0) / direct(2.0), rel=1e-12)
    # vanishes toward zero, positive elsewhere
    assert analytic_splitting_pdf(1e-3) < 1e-300
    xs = np.geomspace(0.05, 50, 300)
    vals = analytic_splitting_pdf(xs)
    assert (vals > 0).all()
    # single interior maximum
    d = np.diff(vals)
    sign_changes = np.sum(np.diff(np.sign(d)) != 0)
    assert sign_changes == 1
    # large-x tail reaches the 1/x^2 form
    tail = np.sqrt(2) * np.pi / (6 * 100.0**2)
    assert analytic_splitting_pdf(100.0) == pytest.approx(tail, rel=1e-3)
    with pytest.raises(ValueError):
        analytic_splitting_pdf(-1.0)


def test_analytic_pdf_is_zero_where_it_underflows():
    # below x ~ 0.048 the density is 0.0 in doubles; x * x underflowing to 0
    # must not turn that into 0/0
    tiny = np.array([5e-324, 1e-300, 1e-200, 1e-162, 1e-100, 1e-3, 0.03])
    assert np.array_equal(analytic_splitting_pdf(tiny), np.zeros(len(tiny)))
    assert analytic_splitting_pdf(1e-300) == 0.0
    assert analytic_splitting_pdf(1e300) == 0.0
    # bit-identical to the closed form where it does not underflow
    xs = np.concatenate([np.geomspace(0.04, 1e150, 4001), [0.0480939, 0.05, 1.0]])
    direct = np.sqrt(2.0) * np.pi * np.exp(-np.pi**3 / (18.0 * xs * xs)) \
        / (6.0 * xs * xs)
    assert np.array_equal(analytic_splitting_pdf(xs), direct)
    assert analytic_splitting_pdf(xs).max() > 0


def test_ks_on_windows_reaching_the_underflow():
    samples = splitting_distribution(30000, 2, (10, 10, 10), 1000.0, seed=1).samples
    for window in ((1e-300, 1e300), (1e-200, 0.3)):
        assert 0.0 <= splitting_ks(samples, window) <= 1.0
    # samples inside a window where the analytic density has no mass
    flat = splitting_distribution(200, 2, (100, 1, 1), 1000.0, seed=1).samples
    assert ((flat > 1e-5) & (flat < 0.04)).any()
    with pytest.raises(GeometryError, match="mass"):
        splitting_ks(flat, (1e-5, 0.04))


def test_histogram_reproducible():
    h1 = splitting_distribution(200, 2, (10, 10, 10), c3=1000.0, seed=7)
    h2 = splitting_distribution(200, 2, (10, 10, 10), c3=1000.0, seed=7)
    assert np.array_equal(h1.counts, h2.counts)
    assert np.array_equal(h1.samples, h2.samples)
    assert h1.counts.sum() == len(h1.samples)
    assert (np.diff(h1.bin_edges) > 0).all()


def test_config_samples_are_pure_in_seed_and_index():
    # configuration k is counter block k of one Philox(key=seed) stream:
    # ceil(3n/4) counters, i.e. 4x as many doubles, of which the first 3n
    # are its coordinates; a slice k0..k1 is rows k0..k1 of the serial batch
    box = np.array([4.0, 3.0, 2.0])
    for n in (2, 5):
        block = -(-3 * n // 4)
        batch = geometry._config_positions(10, n, box, seed=77)
        for k in (0, 3, 9):
            bitgen = np.random.Philox(key=77)
            bitgen.advance(k * block)
            u = np.random.Generator(bitgen).random(4 * block)
            np.testing.assert_array_equal(batch[k], u[: 3 * n].reshape(n, 3) * box)
        sliced = geometry._config_positions(4, n, box, seed=77, first=5)
        np.testing.assert_array_equal(sliced, batch[5:9])


def test_chunked_runs_reproduce_the_serial_run(monkeypatch):
    box = (5.0, 4.0, 3.0)
    runs = {
        stat: partial(splitting_distribution, 50, 6, box, c3=10.0, seed=9,
                      statistic=stat)
        for stat in ("min-pair", "all-pairs")
    }
    serial = {stat: run().samples for stat, run in runs.items()}
    factor = geometry_factor(6, box, seed=9, n_configs=50)
    plans, fill = [], geometry._fill_share

    def spy(*args):
        plans.append(args[6])
        fill(*args)

    monkeypatch.setattr(geometry, "_fill_share", spy)
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    # 6 atoms take 4*5 + 18 + 5 doubles each, and 5 (min-pair) or 15 (all
    # pairs, pair sums) block rows: steps of 20 and 17, three chunks either way
    monkeypatch.setattr(geometry, "_CHUNK_DOUBLES", 1000)
    for stat, samples in serial.items():
        np.testing.assert_array_equal(runs[stat]().samples, samples)
    assert geometry_factor(6, box, seed=9, n_configs=50) == factor
    assert plans == [[0, 16, 33, 50]] * 3


def test_sampler_matches_exact_box_distribution():
    # two uniform atoms in a cube against the exact distribution of
    # x = V / r^3 (quadrature, no sampling): KS below the 1% critical value
    box = (10.0, 10.0, 10.0)
    window = (0.2, 20.0)
    samples = splitting_distribution(30000, 2, box, c3=1000.0, seed=2024).samples
    n_in = int(((samples >= window[0]) & (samples <= window[1])).sum())
    ks = window_ks(samples, partial(box_splitting_cdf, box=box), window)
    critical = 1.63 / sqrt(n_in)
    print(f"KS {ks:.4f} on {n_in} in-window samples, 1% critical {critical:.4f}")
    assert ks < critical


def test_min_pair_memory_is_bounded_by_the_chunk():
    # a full (configs, n, n, 3) difference array would take ~480 MB here
    tracemalloc.start()
    try:
        splitting_distribution(2000, 100, (10.0, 10.0, 10.0), c3=1000.0,
                               seed=3, statistic="min-pair")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"peak traced memory {peak / 2**20:.1f} MB")
    assert peak < 64 * 2**20


def test_ks_memory_is_below_2_3_sample_copies():
    # 5000 configs x 16 atoms, all pairs: 600k samples; splitting_ks takes
    # the run's sorted copy (or sorts one itself) and interpolates the cdf at
    # block ends and candidate blocks only, never at every in-window sample
    samples = splitting_distribution(5000, 16, (10.0, 10.0, 10.0), c3=1000.0,
                                     seed=0, statistic="all-pairs").samples
    # the run's sorted copy, then a KS of a copy and a second KS of the same
    # samples, both of which sort
    for ks in (lambda: splitting_ks(samples), lambda: splitting_ks(samples.copy()),
               lambda: splitting_ks(samples)):
        tracemalloc.start()
        try:
            ks()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"peak traced memory {peak / samples.nbytes:.2f} x the samples")
        assert peak < 2.3 * samples.nbytes


class _Inline:
    """A pool that runs each task on the calling thread as it is submitted."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.mark.parametrize("workers", [1, 2, 64])
def test_min_pair_scratch_is_one_chunk_budget_on_any_cpu_count(monkeypatch, workers):
    # every share's scratch is allocated before the first runs: run inline,
    # 64 shares show the memory a 64-CPU machine would hold, without threads
    monkeypatch.setattr(geometry, "_WORKERS", workers)
    monkeypatch.setattr(geometry, "_pool", _Inline)
    tracemalloc.start()
    try:
        h = splitting_distribution(2000, 100, (10.0, 10.0, 10.0), c3=1000.0,
                                   seed=3, statistic="min-pair")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"peak traced memory {peak / 2**20:.2f} MB")
    assert peak < 8 * geometry._CHUNK_DOUBLES + 2 * h.samples.nbytes + 2**20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_configs, bound", [(5000, 2.38), (50000, 2.02)])
def test_all_pairs_sampling_memory_is_bounded(monkeypatch, workers, n_configs, bound):
    # sampling alone, scratch released before the sort: no more than the
    # one-thread sampler of the previous release (2.38x and 2.02x the samples)
    monkeypatch.setattr(geometry, "_WORKERS", workers)
    tracemalloc.start()
    try:
        h = splitting_distribution(n_configs, 16, (10.0, 10.0, 10.0), c3=1000.0,
                                   seed=0, statistic="all-pairs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"peak traced memory {peak / h.samples.nbytes:.3f} x the samples")
    assert peak < bound * h.samples.nbytes


@pytest.mark.parametrize("kwargs, name", [
    ({"c3": 0.0}, "c3"), ({"c3": float("nan")}, "c3"), ({"c3": float("inf")}, "c3"),
    ({"c3": -1000.0}, "c3"), ({"bins": 0}, "bins"), ({"bins": -5}, "bins"),
])
def test_bad_c3_or_bins_is_rejected_before_sampling(monkeypatch, kwargs, name):
    def never(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(geometry, "_sample", never)
    args = {"n_configs": 150, "n_atoms": 2, "box": (10, 10, 10), "c3": 1000.0,
            "seed": 1} | kwargs
    with pytest.raises(ValueError, match=f"^{name} must be"):
        splitting_distribution(**args)


def _run(n_configs, n_atoms, statistic):
    h = splitting_distribution(n_configs, n_atoms, (10.0, 7.0, 5.0), 1000.0, 6,
                               statistic, bins=40)
    return h, splitting_ks(h.samples, window=(1e-3, 1e3))


def _pool_run(n_configs, n_atoms, statistic):
    """A splitting run's samples, counts, edges and KS, or a geometry factor."""
    if statistic == "geometry-factor":
        return (geometry_factor(n_atoms, (10.0, 7.0, 5.0), 6, n_configs),)
    h, ks = _run(n_configs, n_atoms, statistic)
    return h.samples, h.counts, h.bin_edges, ks


_POOL_CASES = [(stat, n_atoms, n_configs)
               for stat in ("min-pair", "all-pairs", "geometry-factor")
               for n_atoms, n_configs in ((2, 101), (3, 77), (16, 50))]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_runs_equal_the_serial_run(monkeypatch, workers):
    serial = {case: _pool_run(case[2], case[1], case[0]) for case in _POOL_CASES}
    shares = []
    fill = geometry._fill_share

    def spy(*args):
        shares.append((threading.current_thread() is threading.main_thread(),
                       args[6][0], args[6][-1], len(args[6]) - 1))
        fill(*args)

    monkeypatch.setattr(geometry, "_fill_share", spy)
    monkeypatch.setattr(geometry, "_PARALLEL_MIN_DOUBLES", 0)
    monkeypatch.setattr(geometry, "_WORKERS", workers)
    for stat, n_atoms, n_configs in _POOL_CASES:
        doubles = 4 * geometry._counter_block(n_atoms) + 3 * n_atoms + n_atoms - 1 + (
            n_atoms * (n_atoms - 1) // 2 if stat == "all-pairs" else n_atoms - 1)
        # chunks of up to 1, 4 and 9 configurations per thread, and one chunk
        for step in (1, 4, 9, n_configs):
            monkeypatch.setattr(geometry, "_CHUNK_DOUBLES", step * workers * doubles)
            shares.clear()
            got = _pool_run(n_configs, n_atoms, stat)
            want = serial[stat, n_atoms, n_configs]
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
            # one contiguous share per thread, a whole number of chunks each
            assert len(shares) == workers
            assert all(on_main == (workers == 1) for on_main, *_ in shares)
            assert sorted((k0, k1) for _, k0, k1, _ in shares)[0][0] == 0
            assert sum(k1 - k0 for _, k0, k1, _ in shares) == n_configs
            assert len({chunks for *_, chunks in shares}) == 1
            assert shares[0][3] * workers >= -(-n_configs // step)


def test_more_threads_than_cpus_under_fast_switching(monkeypatch, deadline):
    # four threads on a fresh pool, many small chunks, a thread switch every
    # microsecond: every share still fills only its own slice
    want = {stat: _run(3000, 16, stat) for stat in ("min-pair", "all-pairs")}
    monkeypatch.setattr(geometry, "_POOL", [])
    monkeypatch.setattr(geometry, "_WORKERS", 4)
    monkeypatch.setattr(geometry, "_PARALLEL_MIN_DOUBLES", 0)
    monkeypatch.setattr(geometry, "_CHUNK_DOUBLES", 1 << 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with deadline(60):
            for _ in range(3):
                for stat, (h0, ks0) in want.items():
                    h, ks = _run(3000, 16, stat)
                    assert np.array_equal(h.samples, h0.samples) and ks == ks0
    finally:
        sys.setswitchinterval(interval)
        for pool in geometry._POOL:
            pool.shutdown()


def test_a_failed_share_reaches_the_caller_and_stops_the_others(monkeypatch):
    positions, started = geometry._config_positions, []

    def fail_first(n_configs, n_atoms, box, seed, first=0, *bufs):
        started.append(first)
        if first == 0:
            raise FloatingPointError("chunk 0")
        time.sleep(0.05)
        return positions(n_configs, n_atoms, box, seed, first, *bufs)

    want = _run(400, 3, "all-pairs")
    monkeypatch.setattr(geometry, "_config_positions", fail_first)
    monkeypatch.setattr(geometry, "_PARALLEL_MIN_DOUBLES", 0)
    # 3 atoms, all pairs: 26 scratch doubles a configuration; 20 chunks on
    # two threads, 10 on one
    monkeypatch.setattr(geometry, "_CHUNK_DOUBLES", 2 * 20 * 26)
    for workers in (1, 2):
        monkeypatch.setattr(geometry, "_WORKERS", workers)
        started.clear()
        with pytest.raises(FloatingPointError, match="chunk 0"):
            _run(400, 3, "all-pairs")
        # the second share's first chunk may have started; no further one
        assert started == [0] or sorted(started) == [0, 200]
    monkeypatch.setattr(geometry, "_config_positions", positions)
    h, ks = _run(400, 3, "all-pairs")
    assert np.array_equal(h.samples, want[0].samples) and ks == want[1]


def test_importing_the_cli_loads_no_thread_pool():
    src = str(Path(geometry.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import blockadesim.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_samples_on_a_pool_of_its_own(monkeypatch):
    monkeypatch.setattr(geometry, "_PARALLEL_MIN_DOUBLES", 0)
    monkeypatch.setattr(geometry, "_WORKERS", 2)
    want = _run(300, 5, "all-pairs")
    assert geometry._POOL
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 2 if geometry._POOL else 3
            h, ks = _run(300, 5, "all-pairs")
            if code == 3 and np.array_equal(h.samples, want[0].samples) and ks == want[1]:
                code = 0
        finally:
            os._exit(code)
    end = time.monotonic() + 30.0
    while time.monotonic() < end:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 30 s")
    assert os.waitstatus_to_exitcode(status) == 0


def test_single_config_histogram():
    h = splitting_distribution(1, 2, (10, 10, 10), c3=1000.0, seed=1)
    assert len(h.samples) == 1
    assert h.counts.sum() == 1


def test_all_pairs_statistic_counts():
    h = splitting_distribution(50, 4, (10, 10, 10), c3=1000.0, seed=3,
                               statistic="all-pairs")
    assert len(h.samples) == 50 * 6


def test_c3_cancels_in_x():
    h1 = splitting_distribution(100, 2, (10, 10, 10), c3=1.0, seed=5)
    h2 = splitting_distribution(100, 2, (10, 10, 10), c3=1e6, seed=5)
    np.testing.assert_allclose(h1.samples, h2.samples, rtol=1e-12)


def test_ks_machinery_against_inverse_cdf_samples():
    # sampling from the analytic pdf itself must give a tiny KS distance
    window = (0.2, 20.0)
    grid = np.geomspace(*window, 20001)
    pdf = analytic_splitting_pdf(grid)
    cdf = np.concatenate([[0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    u = (np.arange(20000) + 0.5) / 20000
    x = np.interp(u, cdf, grid)
    assert splitting_ks(x, window) < 0.01


def test_ks_detects_wrong_distribution():
    rng = np.random.default_rng(0)
    assert splitting_ks(rng.uniform(0.2, 20.0, 5000)) > 0.2


def _masked_ks(samples, window):
    """splitting_ks as it read before the window became a slice of one
    sort: mask, sort the masked copy, one arange per side."""
    lo, hi = window
    xs = np.sort(samples[(samples >= lo) & (samples <= hi)])
    if len(xs) == 0:
        raise GeometryError("no samples inside the comparison window")
    fa = geometry.analytic_window_cdf(xs, window)
    n = len(xs)
    d_hi = np.abs(np.arange(1, n + 1) / n - fa).max()
    d_lo = np.abs(np.arange(0, n) / n - fa).max()
    return float(max(d_hi, d_lo))


def test_ks_window_slice_matches_masked_sort():
    x = splitting_distribution(2000, 6, (10, 10, 10), 1000.0, seed=4,
                               statistic="all-pairs").samples.copy()
    # non-finite entries sort outside the window; the edges are inside it
    x[::7], x[::11], x[::13] = np.nan, np.inf, -np.inf
    x[1], x[2], x[3] = 0.2, 20.0, 0.0
    finite = np.sort(x[np.isfinite(x)])
    for window in ((0.2, 20.0), (0.5, 3.0), (finite[100], finite[2000])):
        assert splitting_ks(x, window) == _masked_ks(x, window)
    # other dtypes compare and interpolate in double precision, as before
    for samples in (x.astype(np.float32), (10 * finite).astype(int)):
        assert splitting_ks(samples, (0.2, 20.0)) == _masked_ks(samples, (0.2, 20.0))
    for samples, window in ((x, (1e6, 1e7)), (np.array([np.nan, 1.0]), (2.0, 3.0)),
                            (np.array([]), (0.2, 20.0))):
        with pytest.raises(GeometryError):
            _masked_ks(samples, window)
        with pytest.raises(GeometryError):
            splitting_ks(samples, window)


@pytest.mark.parametrize("statistic", ["min-pair", "all-pairs"])
def test_a_run_sorts_its_samples_once(monkeypatch, tmp_path, statistic):
    # each share sorts its own samples, once, on its sampling thread; a KS
    # of the run's samples or the CLI run sorts no sample-length array
    sorts, real_sort = [], geometry._sort

    def spy(a):
        sorts.append(len(a))
        return real_sort(a)

    monkeypatch.setattr(geometry, "_sort", spy)
    monkeypatch.setattr(geometry, "_PARALLEL_MIN_DOUBLES", 0)
    for workers in (1, 2):
        monkeypatch.setattr(geometry, "_WORKERS", workers)
        sorts.clear()
        h = splitting_distribution(300, 5, (10, 10, 10), 1000.0, seed=3, statistic=statistic)
        shares = sorts[:]
        assert len(shares) == workers and sum(shares) == len(h.samples)
        sorts.clear()
        ks = splitting_ks(h.samples)
        assert len(h.samples) not in sorts
        sorts.clear()
        out = tmp_path / str(workers)
        argv = ["splitting-stats", "--configs", "300", "--atoms", "5",
                "--statistic", statistic, "--seed", "3", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        assert sorts[:workers] == shares and len(h.samples) not in sorts[workers:]
        summary = json.loads((out / "splitting_stats_summary.json").read_text())
        assert summary["results"]["ks_distance"] == splitting_ks(h.samples.copy())
        assert splitting_ks(h.samples) == ks


def test_a_pooled_min_pair_run_holds_two_sample_copies(monkeypatch):
    # each share's short sorted run is copied out of its scratch-sized
    # buffer, so the returned samples and the sorted runs are all it holds
    monkeypatch.setattr(geometry, "_WORKERS", 2)
    run = partial(splitting_distribution, 5000, 16, (10.0, 10.0, 10.0), 1000.0, 0)
    run()                      # the pool exists before the count
    tracemalloc.start()
    try:
        h = run()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"held traced memory {held / h.samples.nbytes:.3f} x the samples")
    # the rest, ~3.5 kB, is the edges, the counts and a few small objects
    assert held < 2.1 * h.samples.nbytes


def test_sorted_samples_are_handed_to_one_ks_only():
    h1 = splitting_distribution(400, 6, (10, 10, 10), 1000.0, seed=5,
                                statistic="all-pairs")
    with pytest.raises(ValueError):
        h1.samples[0] = 1.0
    ks = splitting_ks(h1.samples)
    assert not geometry._SORTED
    assert splitting_ks(h1.samples) == ks
    assert splitting_ks(h1.samples.copy()) == ks
    h1 = splitting_distribution(400, 6, (10, 10, 10), 1000.0, seed=5,
                                statistic="all-pairs")
    h2 = splitting_distribution(400, 6, (10, 10, 10), 1000.0, seed=6,
                                statistic="all-pairs")
    assert splitting_ks(h1.samples) == ks          # h2 holds the slot
    assert geometry._SORTED[0]() is h2.samples
    del h2
    assert not geometry._SORTED
    h = splitting_distribution(50, 3, (10, 10, 10), 1000.0, seed=1)
    assert geometry._SORTED[0]() is h.samples
    del h
    assert not geometry._SORTED


def test_a_ks_takes_no_sorted_copy_of_a_run_started_during_its_check():
    # the slot's reference starts another run when it is called: the KS of
    # the first run's samples must still use the first run's sorted copy
    other = []

    class StartsARun(weakref.ref):
        def __call__(self):
            if not other:
                other.append(splitting_distribution(400, 6, (10, 10, 10), 1000.0,
                                                    seed=6, statistic="all-pairs"))
            return super().__call__()

    h1 = splitting_distribution(400, 6, (10, 10, 10), 1000.0, seed=5,
                                statistic="all-pairs")
    want = splitting_ks(h1.samples.copy())
    geometry._SORTED[0] = StartsARun(h1.samples)
    assert splitting_ks(h1.samples) == want
    assert other and splitting_ks(other[0].samples) != want


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, name", [
    ({"box": (_NAN, 10, 10)}, "box"), ({"box": (_INF, 10, 10)}, "box"),
    ({"box": (10, 0, 10)}, "box"), ({"box": (10, 10, -_INF)}, "box"),
    ({"box": (-1, -1, 10)}, "box"), ({"box": (10, 10)}, "box"),
    ({"n_configs": 0}, "n_configs"), ({"n_atoms": 0}, "n_atoms"),
    ({"n_atoms": 1}, "n_atoms"),
    # finite lengths whose volume or diagonal r^6 leaves the float range
    ({"box": (1e200,) * 3}, "box"), ({"box": (1e120,) * 3}, "box"),
    ({"box": (1e-200,) * 3}, "box"), ({"box": (1e160, 1, 1)}, "box"),
])
def test_a_bad_box_or_size_is_rejected_before_sampling(monkeypatch, kwargs, name):
    def never(*args):
        raise AssertionError("sampled")

    for module, fn in ((geometry, "_sample"), (errors, "_sample"),
                       (geometry, "_config_positions")):
        monkeypatch.setattr(module, fn, never)
    args = {"n_configs": 150, "n_atoms": 2, "box": (10, 10, 10), "seed": 1} | kwargs
    calls = [partial(splitting_distribution, c3=1000.0, **args),
             partial(geometry_factor, **args)]
    if name != "n_configs":
        calls.append(partial(sample_positions, args["n_atoms"], args["box"], 1))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()


def _sup_index(samples, window):
    """In-window sorted index of the largest KS term, as ``_masked_ks``
    computes the terms."""
    lo, hi = window
    xs = np.sort(samples[(samples >= lo) & (samples <= hi)])
    fa = geometry.analytic_window_cdf(xs, window)
    n = len(xs)
    i = np.arange(n)
    return int(np.argmax(np.maximum((i + 1) / n - fa, fa - i / n))), n


def test_bounded_ks_scan_matches_the_full_scan():
    rng = np.random.default_rng(31)
    window = (0.2, 20.0)
    grid = np.geomspace(*window, 20001)
    pdf = analytic_splitting_pdf(grid)
    cdf = np.concatenate([[0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    cases = [(rng.lognormal(0.5, 1.0, size), window) for size in (1, 63, 64, 65, 10**5)]
    # ties, and window edges that fall on samples
    ties = np.round(rng.lognormal(0.5, 1.0, 5000), 1)
    cases += [(ties, window), (ties, tuple(np.sort(ties)[[500, 4000]]))]
    # inverse-cdf samples: D is tiny and most blocks are candidates
    smooth = np.interp((np.arange(50000) + 0.5) / 50000, cdf, grid)
    cases.append((smooth, window))
    # a tie run ending mid-block lifts the upper term there: the supremum
    # lies strictly inside a block
    bumped = smooth.copy()
    bumped[20000:20040] = bumped[20000]
    cases.append((bumped, window))
    i, n = _sup_index(bumped, window)
    assert 0 < i % geometry._KS_BLOCK < geometry._KS_BLOCK - 1 and i < n - 1
    for samples, w in cases:
        assert splitting_ks(samples, w) == _masked_ks(samples, w)


def _ks_of_runs(runs, window):
    """(splitting_ks over the sorted runs, as a splitting run hands them
    over, and the samples they hold)."""
    samples = np.concatenate(runs)
    geometry._SORTED[:] = [weakref.ref(samples), [np.sort(r) for r in runs]]
    ks = splitting_ks(samples, window)
    assert not geometry._SORTED
    return ks, samples


def test_ks_over_sorted_runs_matches_the_masked_sort():
    rng = np.random.default_rng(17)
    window = (0.2, 20.0)
    grid = np.geomspace(*window, 20001)
    pdf = analytic_splitting_pdf(grid)
    cdf = np.concatenate([[0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    # inverse-cdf samples: D is tiny and most intervals are candidates
    smooth = np.interp((np.arange(50000) + 0.5) / 50000, cdf, grid)
    ties = np.round(rng.lognormal(0.5, 1.0, 5000), 1)
    lognormal = rng.lognormal(0.5, 1.0, 20000)
    cases = []
    for k in (1, 2, 3, 5):
        for x in (smooth, ties, lognormal):
            # k runs of unequal lengths, values interleaved across them
            parts = np.split(rng.permutation(x), np.sort(rng.integers(0, len(x), k - 1)))
            cases.append((parts, window))
        # ties spanning runs, and window edges that fall on samples
        parts = np.array_split(rng.permutation(ties), k)
        cases.append((parts, tuple(np.sort(ties)[[500, 4000]])))
        # a run with no sample in the window
        cases.append(([*np.array_split(lognormal, k), rng.uniform(30.0, 40.0, 100)], window))
    # a run lying wholly inside one gap of another, listed first or last
    inner = np.linspace(smooth[20000], smooth[20001], 7)[1:-1]
    cases += [([inner, smooth], window), ([smooth, inner], window),
              ([inner, lognormal[:50], smooth], window)]
    for runs, w in cases:
        ks, samples = _ks_of_runs(runs, w)
        assert ks == _masked_ks(samples, w), (len(runs), w)
