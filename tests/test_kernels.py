import numpy as np
import pytest

from blockadesim import _kernels


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
