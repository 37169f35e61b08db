"""Brute-force equivalence check between basis modes.

With uniform pair couplings the pair-resolved register (literal per-atom
operators) and the symmetric register under the "eq1" convention are the
same physics; evolving both and projecting the brute-force trajectory onto
the symmetric subspace must agree at every sample time.  This is the
package's internal correctness oracle, exposed as the ``oracle-check``
experiment.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np

from .dynamics import Pulse, Register, Schedule, Wait, evolve
from .hilbert import dipole_term, enumerate_basis, symmetric_embedding
from .protocols import rabi_pulse, register_basis

_LEVELS = ("q", "r", "p'", "p''")


def oracle_schedules(n_atoms: int, omega: float = 1.0, omega_q: float = 1.0):
    """Three structurally distinct test schedules."""
    pi_pulse = rabi_pulse(n_atoms, omega, pi)
    t_pi = pi_pulse.duration
    return {
        "pi-pulse": Schedule((pi_pulse,)),
        "ladder-step": Schedule(
            (
                pi_pulse,
                Pulse(("r", "q"), omega_q, pi / omega_q),
                Wait(0.3 * t_pi),
            )
        ),
        "detuned-phased": Schedule(
            (
                Pulse(
                    ("g", "r"),
                    omega,
                    1.7 * t_pi,
                    phase=0.6,
                    detuning=0.4 * sqrt(n_atoms) * omega,
                ),
                Pulse(("q", "r"), omega_q, 0.8 / omega_q, phase=-1.1),
            )
        ),
    }


def oracle_equivalence(
    n_atoms: int,
    kappa: float,
    omega: float = 1.0,
    omega_q: float = 1.0,
    n_max: int | None = None,
    samples_per_schedule: int = 24,
):
    """Trajectory overlap of symmetric vs pair-resolved evolution.

    Both registers use the same uniform coupling kappa; the symmetric side
    runs under the "eq1" convention (the exact projection of the literal
    hopping).  Returns rows (schedule, time, overlap_fidelity).
    """
    n_max = min(3, n_atoms) if n_max is None else n_max
    sym, static_sym = register_basis(n_atoms, n_max, blockade=kappa,
                                     convention="eq1")
    prb = enumerate_basis(
        n_atoms, _LEVELS, n_max, mode="pair-resolved", ryd_max=2
    )
    emb = symmetric_embedding(sym, prb)
    km = np.full((n_atoms, n_atoms), kappa) - kappa * np.eye(n_atoms)
    reg_s = Register(sym, static_sym)
    reg_p = Register(prb, [dipole_term(prb, km)])
    psi_s, psi_p = sym.basis_vector({}), prb.basis_vector(("g",) * n_atoms)

    rows = []
    for name, sched in oracle_schedules(n_atoms, omega, omega_q).items():
        dt = sched.total_duration / samples_per_schedule
        res_s = evolve(sched, sym, reg_s, psi_s, sample_dt=dt)
        res_p = evolve(sched, prb, reg_p, psi_p, sample_dt=dt)
        if len(res_s.times) != len(res_p.times):
            raise RuntimeError("sample grids diverged between modes")
        overlaps = np.abs(np.vecdot(res_s.states @ emb.T, res_p.states)) ** 2
        rows += [(name, t, o) for t, o in zip(res_s.times.tolist(), overlaps.tolist())]
    return rows
