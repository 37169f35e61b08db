import numpy as np
import pytest

from blockadesim import _kernels, geometry


def _positions(n_configs=64, n_atoms=6, seed=0):
    return np.random.default_rng(seed).uniform(0, 10, (n_configs, n_atoms, 3))


def test_min_pair_matches_direct():
    pos = _positions(n_configs=8, n_atoms=5, seed=3)
    got = _kernels.min_pair_kappa(pos, 2.0)
    for k in range(8):
        best = np.inf
        for i in range(5):
            for j in range(i + 1, 5):
                r = np.linalg.norm(pos[k, i] - pos[k, j])
                best = min(best, 2.0 / r**3)
        assert got[k] == pytest.approx(best, rel=1e-14)


def test_all_pair_kappa_row_major_order():
    pos = _positions(n_configs=4, n_atoms=5, seed=8)
    got = _kernels.all_pair_kappa(pos, 3.0).reshape(4, 10)
    for k in range(4):
        want = [3.0 / np.linalg.norm(pos[k, i] - pos[k, j]) ** 3
                for i in range(5) for j in range(i + 1, 5)]
        np.testing.assert_allclose(got[k], want, rtol=1e-14)


def _loop_r2(positions):
    """The direct pair loop on a (3, m, n) copy: for each atom i, the
    (3, m, n-1-i) differences to atoms j > i, squared and summed over the
    coordinate axis."""
    m, n, _ = positions.shape
    pos = np.ascontiguousarray(positions.transpose(2, 0, 1))
    r2 = np.empty((m, n * (n - 1) // 2))
    col = 0
    for i in range(n - 1):
        d = pos[:, :, i + 1:] - pos[:, :, i : i + 1]
        d *= d
        r2[:, col : col + n - 1 - i] = d.sum(axis=0)
        col += n - 1 - i
    return r2


@pytest.mark.parametrize("n_atoms", [2, 3, 16])
@pytest.mark.parametrize("n_configs", [1, 37])
def test_kernels_are_bit_identical_to_the_pair_loop(n_atoms, n_configs):
    # both layouts: a C-contiguous (m, n, 3) array and the (3, n, m)
    # storage the sampler returns as an (m, n, 3) view
    sampled = geometry._config_positions(n_configs, n_atoms, (7.0, 5.0, 3.0), 11)
    for pos in (np.ascontiguousarray(sampled), sampled):
        want = _loop_r2(pos)
        got = _kernels._pair_rows(pos).T
        assert got.shape == (n_configs, n_atoms * (n_atoms - 1) // 2)
        assert np.array_equal(got, want)
        assert np.array_equal(_kernels.min_pair_kappa(pos, 1000.0),
                              1000.0 / want.max(axis=1) ** 1.5)
        assert np.array_equal(_kernels.all_pair_kappa(pos, 1000.0),
                              (1000.0 / want ** 1.5).ravel())


@pytest.mark.parametrize("n_atoms", [2, 3, 16])
def test_out_slices_are_the_returned_arrays(n_atoms):
    # each kernel's out= result is its returned array, bit for bit, in a
    # slice of a larger array whose neighbours it leaves alone
    pos = geometry._config_positions(29, n_atoms, (7.0, 5.0, 3.0), 5)
    r2 = _loop_r2(pos)
    for kernel, want in ((_kernels.min_pair_kappa, 1000.0 / r2.max(axis=1) ** 1.5),
                         (_kernels.all_pair_kappa, (1000.0 / r2 ** 1.5).ravel())):
        got = kernel(pos, 1000.0)
        x = np.full(len(want) + 2, -1.0)
        inner = x[1:-1]
        assert kernel(pos, 1000.0, out=inner) is inner
        assert np.array_equal(got, want) and np.array_equal(inner, want)
        assert x[0] == x[-1] == -1.0


@pytest.mark.parametrize("statistic", ["min-pair", "all-pairs"])
@pytest.mark.parametrize("n_atoms", [2, 3, 16])
def test_uneven_chunks_fill_the_one_chunk_samples(n_atoms, statistic, monkeypatch):
    # chunk budgets that split 101 configurations unevenly: every chunk's
    # kernel fills its own slice of the sample array
    def run():
        h = geometry.splitting_distribution(101, n_atoms, (10.0, 7.0, 5.0),
                                            1000.0, 6, statistic)
        return h, geometry.splitting_ks(h.samples, window=(1e-3, 1e3))

    whole, ks = run()
    n_pairs = n_atoms * (n_atoms - 1) // 2
    per_config = 4 * geometry._counter_block(n_atoms) + 6 * n_atoms + n_pairs
    for step in (1, 7, 40):
        monkeypatch.setattr(geometry, "_CHUNK_DOUBLES", step * per_config)
        h, ks_h = run()
        assert np.array_equal(h.samples, whole.samples)
        assert np.array_equal(h.counts, whole.counts)
        assert np.array_equal(h.bin_edges, whole.bin_edges)
        assert ks_h == ks
