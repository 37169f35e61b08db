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


def _reference_pair_r2(positions):
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
        want = _reference_pair_r2(pos)
        got = _kernels.pair_r2(pos)
        assert got.shape == (n_configs, n_atoms * (n_atoms - 1) // 2)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(_kernels.min_pair_kappa(pos, 1000.0),
                              1000.0 / want.max(axis=1) ** 1.5)
        assert np.array_equal(_kernels.all_pair_kappa(pos, 1000.0),
                              (1000.0 / want ** 1.5).ravel())
