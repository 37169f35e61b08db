import numpy as np
import pytest

from blockadesim.dynamics import Pulse, Schedule, evolve
from blockadesim.errors import (
    atom_number_sensitivity,
    blockade_scaling_experiment,
    dephasing_norm_loss,
    estimate_budget,
    p_deph_estimate,
    p_doub_estimate,
    p_doub_geometry,
    regime_check,
)
from blockadesim.geometry import coupling_matrix, sample_positions
from blockadesim.hilbert import dipole_term, enumerate_basis
from blockadesim.protocols import rabi_pulse, register_basis


def test_p_doub_values():
    assert p_doub_estimate(10.0, 1.0) == pytest.approx(
        1.0 / (4 * np.pi * 100), rel=1e-12
    )
    assert p_doub_estimate(10.0, 1.0) == pytest.approx(7.96e-4, rel=1e-3)
    assert p_doub_estimate(1e9, 1.0) < 1e-16
    assert p_doub_estimate(0.01, 1.0) == 1.0   # clamped
    with pytest.raises(ValueError):
        p_doub_estimate(0.0, 1.0)


def test_p_doub_strictly_decreasing():
    grid = np.geomspace(1, 1e4, 40)
    vals = [p_doub_estimate(kt, 1.0) for kt in grid]
    below_clamp = [v for v in vals if v < 1.0]
    assert all(a > b for a, b in zip(below_clamp, below_clamp[1:]))


def test_p_deph():
    assert p_deph_estimate(0.0, 5.0) == 0.0
    assert p_deph_estimate(0.01, 2.0) == pytest.approx(0.02)
    assert p_deph_estimate(0.01, 4.0) == pytest.approx(0.04)  # linear in T
    assert p_deph_estimate(3.0, 10.0) == 1.0
    with pytest.raises(ValueError):
        p_deph_estimate(-1.0, 1.0)


def test_geometry_factor_matches_cube_moment():
    # for a cube the factor tends to (N-1)/N * E[(r^3/V)^2] with
    # E[r^6]/V^2 = 3/28 + 18/90 + 1/36 for unit box side
    from blockadesim.errors import geometry_factor

    expected = (3 / 28 + 18 / 90 + 1 / 36) * 7 / 8
    got = geometry_factor(8, (10.0, 10.0, 10.0), seed=2, n_configs=600)
    assert got == pytest.approx(expected, rel=0.1)


@pytest.mark.parametrize("n_atoms", [2, 3, 6, 16])
def test_geometry_factor_is_the_pair_sum_of_one_sampled_ensemble(n_atoms):
    # geometry_factor's configuration 0 is sample_positions: its factor is
    # p_doub_geometry of that ensemble times (kappa_bar T)^2, for any T
    from blockadesim.errors import geometry_factor

    box, c3, T = (10.0, 10.0, 10.0), 1000.0, 100.0
    for seed in range(5):
        pos = sample_positions(n_atoms, box, seed)
        p = p_doub_geometry(coupling_matrix(pos, c3), T)
        assert p < 1.0   # not clamped
        factor = geometry_factor(n_atoms, box, seed, n_configs=1)
        assert factor == pytest.approx(p * (c3 / np.prod(box) * T) ** 2, rel=1e-12)


def test_estimate_budget_composes():
    est = estimate_budget(kappa_bar=50.0, gamma_r=0.02, T=1.0)
    assert est.p_doub == pytest.approx(p_doub_estimate(50.0, 1.0))
    assert est.p_deph == pytest.approx(0.02)


def test_p_doub_geometry_matches_loop():
    kappa = coupling_matrix(sample_positions(8, (10, 10, 10), seed=21), c3=5000.0)
    T = 0.3
    direct = sum(
        1.0 / (kappa[i, j] * T) ** 2
        for i in range(8)
        for j in range(8)
        if i != j
    ) / 64
    assert p_doub_geometry(kappa, T) == pytest.approx(min(direct, 1.0), rel=1e-12)


def test_dephasing_norm_loss_exact():
    for gamma, T in ((0.02, 2.0), (0.5, 0.1), (0.0, 1.0)):
        got = dephasing_norm_loss(gamma, T)
        assert got == pytest.approx(1 - np.exp(-gamma * T), abs=1e-10)
    # small gamma T matches the linear estimate within 5 percent
    gamma, T = 0.05, 1.0
    loss = dephasing_norm_loss(gamma, T)
    assert loss == pytest.approx(p_deph_estimate(gamma, T), rel=0.05)


@pytest.mark.parametrize("n_atoms", [3, 4, 5])
def test_geometry_leakage_matches_pair_sum(n_atoms):
    """Leakage of a pi-pulse on sampled positions is pi^2/4 p_doub_geometry.

    Each sampled coupling matrix is rescaled so that kappa_min T = 100 and
    1000; the pair-resolved register (no symmetric projection) then gives
    the population with >= 2 excitations, and its ratio to the pair-sum
    estimator is the same dynamical factor pi^2/4 that criterion 2 finds
    for uniform couplings.
    """
    T = np.pi / np.sqrt(n_atoms)
    basis = enumerate_basis(n_atoms, ("r", "p'", "p''"), 2,
                            mode="pair-resolved", ryd_max=2)
    doubles = basis.excitation_counts >= 2
    psi0 = basis.basis_vector(("g",) * n_atoms)
    pulse = Schedule((Pulse(("g", "r"), 1.0, T),))
    for seed in range(6):
        kappa = coupling_matrix(sample_positions(n_atoms, (10, 10, 10), seed), 1.0)
        kappa_min = kappa[~np.eye(n_atoms, dtype=bool)].min()
        for kmin_T in (100.0, 1000.0):
            scaled = kappa * kmin_T / (kappa_min * T)
            res = evolve(pulse, basis, [dipole_term(basis, scaled)], psi0)
            leak = res.populations[-1][doubles].sum()
            ratio = leak / p_doub_geometry(scaled, T)
            assert ratio == pytest.approx(np.pi**2 / 4, rel=0.01), (seed, kmin_T)


def test_blockade_scaling_slope_and_prefactor():
    grid = np.geomspace(10, 1000, 9)
    res = blockade_scaling_experiment(grid, n_atoms=10, convention="eq1")
    assert -2.1 < res.slope < -1.9
    # measured prefactor sits at the derived (N-1)/N * pi^2/4 level
    derived = (10 - 1) / 10 * np.pi**2 / 4
    assert res.prefactor == pytest.approx(derived, rel=0.25)
    assert (res.p_est > 0).all() and (res.p_sim > 0).all()


def test_blockade_scaling_split_convention():
    grid = np.geomspace(30, 1000, 7)
    res = blockade_scaling_experiment(grid, n_atoms=10, convention="split")
    derived = 2 * (10 - 1) / 10 * np.pi**2
    assert res.prefactor == pytest.approx(derived, rel=0.3)


def test_blockade_scaling_ratio_between_points():
    res = blockade_scaling_experiment([10.0, 20.0, 50.0, 100.0, 1000.0],
                                      n_atoms=6)
    i10 = list(res.kappa_T).index(10.0)
    i100 = list(res.kappa_T).index(100.0)
    assert res.p_sim[i10] / res.p_sim[i100] == pytest.approx(100, rel=0.35)


@pytest.mark.parametrize("convention", ["eq1", "split"])
def test_blockade_scaling_on_one_register_equals_a_register_per_point(convention):
    # the scan enumerates one register; a fresh register per grid point
    # gives the same leakage, slope and prefactor bit for bit
    grid = [1000.0, 10.0, 31.6, 100.0, 316.0]
    res = blockade_scaling_experiment(grid, n_atoms=10, convention=convention)
    pulse = rabi_pulse(10, 1.0, np.pi)
    kts = np.asarray(sorted(grid))
    p_sim = np.empty_like(kts)
    for i, kt in enumerate(kts):
        basis, static = register_basis(10, n_max=2, blockade=kt / pulse.duration,
                                       convention=convention)
        out = evolve(Schedule((pulse,)), basis, static, basis.basis_vector({}))
        pop = out.populations[-1]
        stay = pop[basis.state_index({})] + pop[basis.state_index({"r": 1})]
        p_sim[i] = max(out.norm2[-1] - stay, 0.0)
    slope, intercept = np.polyfit(np.log(kts), np.log(p_sim), 1)
    assert res.p_sim.tobytes() == p_sim.tobytes()
    assert res.slope == slope and res.prefactor == np.exp(intercept)


def test_blockade_scaling_grid_guard():
    with pytest.raises(ValueError):
        blockade_scaling_experiment([2.0, 10.0, 100.0])


def test_atom_number_sensitivity():
    rows = dict(atom_number_sensitivity(100, [0, 1, 2, 5, 10]))
    assert rows[0] < 1e-9
    vals = [rows[d] for d in (1, 2, 5, 10)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # small-mismatch expansion: infidelity ~ (pi dN / 4N)^2
    assert rows[1] == pytest.approx((np.pi * 1 / 400) ** 2, rel=0.05)
    assert rows[1] < 1e-3
    with pytest.raises(ValueError):
        atom_number_sensitivity(2, [-2])


def test_atom_number_sensitivity_negative_delta():
    rows = dict(atom_number_sensitivity(50, [-5, -1, 0, 1, 5]))
    assert rows[-1] == pytest.approx(rows[1], rel=0.1)
    assert rows[-5] > rows[-1]


def test_regime_check_shape():
    rows = regime_check()
    assert len(rows) == 4
    readings = {(r[0], r[1]) for r in rows}
    assert ("10 MHz", "ordinary") in readings
    assert ("100 MHz", "angular") in readings
    for row in rows:
        assert 0 <= row[4] <= 1 and 0 <= row[5] <= 1
    # ordinary readings of the quoted range stay below one percent
    for row in rows:
        if row[1] == "ordinary":
            assert row[4] < 0.01 and row[5] < 0.01
