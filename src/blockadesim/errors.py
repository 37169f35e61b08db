"""Analytic error estimators and simulated error-scaling experiments.

The closed-form budget for a full-transfer pulse of duration T:

    p_doub ~ 1 / (4 pi (kappa_bar T)^2)     double-excitation leakage
    p_deph ~ gamma_r T                      dephasing norm loss

Both are order-of-magnitude estimators; the geometry-resolved variant
replaces the closed form by the exact pair sum (1/N^2) sum 1/(kappa_ij T)^2
over a sampled coupling matrix; its mean over configurations,
``geometry_factor``, is sampled in ``geometry``.  ``blockade_scaling_experiment``
measures the actual leakage of the simulated pulse against these estimates;
the simulation reproduces the (kappa_bar T)^-2 law while its prefactor is
larger than 1/(4 pi) (the closed form drops order-pi^2 dynamical factors;
see the experiment's docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .dynamics import Schedule, StiffnessError, Wait, evolve, fidelity
from .geometry import geometry_factor  # noqa: F401  (errors.geometry_factor)
from .hilbert import dephasing_term, dipole_term, enumerate_basis
from .protocols import rabi_pulse, register_basis


def _clamp01(x: float) -> float:
    return float(min(max(x, 0.0), 1.0))


def p_doub_estimate(kappa_bar: float, T: float) -> float:
    """Closed-form double-excitation probability 1/(4 pi (kappa_bar T)^2)."""
    if kappa_bar * T <= 0:
        raise ValueError("kappa_bar * T must be positive")
    with np.errstate(over="ignore"):     # an overflowing square gives 0.0
        return _clamp01(1.0 / (4.0 * pi * (kappa_bar * T) ** 2))


def adiabatic_prefactor(n_atoms: int, convention: str = "eq1") -> float:
    """Prefactor A of the leakage p_doub = A / (kappa_bar T)^2 of a resonant
    g -> r pi-pulse in the adiabatic-elimination limit kappa_bar T >> 1.

    |r^2> hybridizes into two eigenstates at +-E, with E = sqrt(2) kappa_bar
    ("eq1") or kappa_bar / 2 ("split"), which gives (N-1)/N pi^2/4 and
    2 pi^2 (N-1)/N respectively.
    """
    factor = {"eq1": pi**2 / 4, "split": 2 * pi**2}[convention]
    return (n_atoms - 1) / n_atoms * factor


def p_deph_estimate(gamma_r: float, T: float) -> float:
    """Dephasing probability gamma_r T, clamped to 1."""
    if gamma_r < 0 or T < 0:
        raise ValueError("gamma_r and T must be >= 0")
    return _clamp01(gamma_r * T)


def p_doub_geometry(kappa: np.ndarray, T: float) -> float:
    """Geometry-resolved estimator (1/N^2) sum_{i != j} 1/(kappa_ij T)^2."""
    n = len(kappa)
    iu, ju = np.triu_indices(n, 1)
    s = 2.0 * (1.0 / (kappa[iu, ju] * T) ** 2).sum()
    return _clamp01(s / n**2)


@dataclass(frozen=True)
class ErrorEstimate:
    """Composed analytic budget for one pulse of duration T."""

    p_doub: float
    p_deph: float


def estimate_budget(kappa_bar: float, gamma_r: float, T: float) -> ErrorEstimate:
    """Closed-form leakage and dephasing budget for a transfer of duration T."""
    return ErrorEstimate(
        p_doub=p_doub_estimate(kappa_bar, T),
        p_deph=p_deph_estimate(gamma_r, T),
    )


def dephasing_norm_loss(gamma_r: float, T: float) -> float:
    """Simulated norm loss of a two-atom |r^1> held for T with no drive."""
    basis = enumerate_basis(2, ("r",), n_max=1)
    psi0 = basis.basis_vector({"r": 1})
    res = evolve(
        Schedule((Wait(T),)), basis, [dephasing_term(basis, gamma_r)], psi0
    )
    return float(1.0 - res.norm2[-1])


@dataclass(frozen=True)
class BlockadeScalingResult:
    kappa_T: np.ndarray
    p_sim: np.ndarray
    p_est: np.ndarray
    slope: float
    prefactor: float
    n_atoms: int
    convention: str
    pulse_duration: float


def blockade_scaling_experiment(
    kappa_T_values,
    n_atoms: int = 10,
    convention: str = "eq1",
) -> BlockadeScalingResult:
    """Simulated double-excitation leakage of a pi-pulse vs kappa_bar T.

    One register is driven resonantly at omega = 1 for the full-transfer
    time T = pi / sqrt(N) of ``rabi_pulse`` (returned as
    ``pulse_duration``); each grid point sets only its dipole term, at
    kappa_bar = (kappa_bar T) / T, and records the population left outside
    the <=1-excitation manifold at t = T.  A log-log fit returns
    slope (the -2 law) and prefactor A of p = A (kappa_bar T)^slope.

    The measured prefactor is ``adiabatic_prefactor``, about pi^3 ("eq1")
    or 8 pi^3 ("split") times the 1/(4 pi) closed form, which drops those
    dynamical factors.  A leakage that rounds to 0 raises StiffnessError.
    """
    kts = np.asarray(sorted(kappa_T_values), dtype=float)
    if (kts < 5.0).any():
        raise ValueError("kappa_bar T grid values must be >= 5")
    pulse = rabi_pulse(n_atoms, 1.0, pi)
    T = pulse.duration
    p_sim = np.empty_like(kts)
    p_est = np.empty_like(kts)
    # the register does not depend on kappa_bar: only its dipole term does
    basis, static = register_basis(n_atoms, n_max=2, blockade=kts[0] / T,
                                   convention=convention)
    psi0 = basis.basis_vector({})
    i_g, i_r = basis.state_index({}), basis.state_index({"r": 1})
    for i, kt in enumerate(kts):
        kbar = kt / T
        if i:
            static = [dipole_term(basis, kbar, convention=convention)]
        res = evolve(Schedule((pulse,)), basis, static, psi0)
        pop = res.populations[-1]
        p_sim[i] = max(res.norm2[-1] - (pop[i_g] + pop[i_r]), 0.0)
        p_est[i] = p_doub_estimate(kbar, T)
    if not p_sim.all():
        raise StiffnessError(f"leakage at kappa_bar T = {kts[p_sim == 0][0]:.3g} "
                             "is 0 to double precision: no log-log fit")
    coef = np.polyfit(np.log(kts), np.log(p_sim), 1)
    return BlockadeScalingResult(
        kappa_T=kts,
        p_sim=p_sim,
        p_est=p_est,
        slope=float(coef[0]),
        prefactor=float(np.exp(coef[1])),
        n_atoms=n_atoms,
        convention=convention,
        pulse_duration=T,
    )


def atom_number_sensitivity(n_atoms: int, deltas) -> list[tuple[int, float]]:
    """Infidelity of the N-compiled pi-pulse executed on N + dN atoms.

    The schedule is compiled once for n_atoms; each run rebuilds only the
    register, so the pulse area errs by the factor sqrt(1 + dN/N).
    """
    pulse = rabi_pulse(n_atoms, 1.0, pi)
    out = []
    for dn in deltas:
        n_eff = n_atoms + int(dn)
        if n_eff < 1:
            raise ValueError(f"n_atoms + dN = {n_eff} must be >= 1")
        basis = enumerate_basis(n_eff, ("r",), n_max=1, ryd_max=1)
        res = evolve(Schedule((pulse,)), basis, [], basis.basis_vector({}))
        target = basis.basis_vector({"r": 1})
        out.append((int(dn), 1.0 - fidelity(res.final_state, target)))
    return out


def regime_check(
    kappa_mhz_values=(10.0, 100.0),
    T_us: float = 0.1,
    gamma_khz: float = 10.0,
):
    """Error budget for quoted lab numbers under both unit readings.

    Each quoted frequency nu is evaluated as ordinary (2 pi nu) and as
    angular (nu) rad/us.  Returns rows of
    (kappa_label, reading, kappa_rad_per_us, gamma_rad_per_us, p_doub, p_deph).
    """
    rows = []
    for nu in kappa_mhz_values:
        for reading, factor in (("ordinary", 2.0 * pi), ("angular", 1.0)):
            kbar = nu * factor                      # MHz -> rad/us
            gamma = gamma_khz * 1e-3 * factor       # kHz -> rad/us
            rows.append(
                (
                    f"{nu:g} MHz",
                    reading,
                    kbar,
                    gamma,
                    p_doub_estimate(kbar, T_us),
                    p_deph_estimate(gamma, T_us),
                )
            )
    return rows
