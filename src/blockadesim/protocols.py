"""Pulse-sequence compilers: collective Rabi pulses, Fock-state ladders,
arbitrary superposition synthesis, and the three-step conditional phase gate.

Conventions fixed here (and recorded in schedule dumps):

* Pulse area theta is the full two-level rotation angle: a resonant pulse
  of single-atom Rabi frequency omega on the collective g <-> r transition
  rotates by theta = sqrt(N) * omega * t, and theta = pi transfers
  |g> -> |r^1> completely.
* All pi / 2pi protocol pulses carry phase 0.  Superposition synthesis
  solves one rotation angle and phase per step analytically and records
  them explicitly.
* Transfer pulses on a singly-occupied storage rung have no collective
  enhancement (the bosonized element sqrt(n_from (n_to + 1)) is 1), so the
  gate pulses use plain single-field areas pi and 2pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, pi, sqrt

import numpy as np

from .dynamics import (
    Pulse,
    Register,
    Schedule,
    accumulated_phase,
    evolve,
    fidelity,
    wrap_phase,
)
from .hilbert import (
    Basis,
    Operator,
    dephasing_term,
    dipole_term,
    enumerate_basis,
)


class CompilationError(RuntimeError):
    """Schedule synthesis failed to reach its residual target."""


@dataclass(frozen=True)
class TargetSuperposition:
    """Target sum_m alpha_m |q^m> over storage rungs m = 0..n."""

    amplitudes: tuple
    n_atoms: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        norm = float((np.abs(amps) ** 2).sum())
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"amplitudes norm {norm} is not 1 within 1e-9")
        if len(amps) - 1 > self.n_atoms:
            raise ValueError(
                f"highest rung {len(amps) - 1} exceeds n_atoms {self.n_atoms}"
            )

    @property
    def n_highest(self) -> int:
        """Highest rung with non-negligible amplitude."""
        amps = np.abs(np.asarray(self.amplitudes))
        nz = np.nonzero(amps > 1e-12)[0]
        return int(nz[-1]) if len(nz) else 0


@dataclass(frozen=True)
class GateTruthTable:
    phases: dict
    fidelities: dict

    def conditional_phase(self) -> float:
        return wrap_phase(
            self.phases["q+q-"] - self.phases["q+"] - self.phases["q-"]
            + self.phases["g"]
        )


def register_basis(
    n_atoms: int,
    n_max: int,
    blockade="ideal",
    convention: str = "split",
    gamma_r: float = 0.0,
    gate: bool = False,
):
    """Basis and static terms for a storage register.

    blockade: "ideal" keeps at most one interacting-manifold excitation
    (perfect blockade), "off" removes the pair coupling while keeping the
    doubly-excited states, and a number is the effective kappa_bar of the
    finite pair-coupling model.  gate=True selects the two-species register
    {q+, q-, r+, r-} used by the conditional phase gate.
    """
    level_set = ("q+", "q-", "r+", "r-") if gate else ("q", "r")
    static: list[Operator] = []
    if blockade == "ideal":
        basis = enumerate_basis(n_atoms, level_set, n_max, ryd_max=1)
    elif blockade == "off":
        basis = enumerate_basis(n_atoms, level_set, n_max)
    else:
        kbar = float(blockade)
        basis = enumerate_basis(
            n_atoms, level_set + ("p'", "p''"), n_max, ryd_max=2
        )
        static.append(dipole_term(basis, kbar, convention=convention))
    if gamma_r > 0:
        static.append(dephasing_term(basis, gamma_r))
    return basis, static


def rabi_pulse(n_atoms: int, omega: float, theta: float) -> Pulse:
    """Resonant g <-> r pulse of collective rotation angle theta.

    Duration theta / (sqrt(N) omega); theta = pi is the full-transfer pulse.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return Pulse(("g", "r"), omega, theta / (sqrt(n_atoms) * omega))


def fock_ladder(
    n_atoms: int,
    n_target: int,
    omega: float,
    omega_q: float,
    pulse_duration: float | None = None,
) -> Schedule:
    """Ladder |g> -> |q^n>: alternating full-transfer pulse pairs.

    Step m first drives g -> r with effective rate sqrt(N - m) omega (area
    pi), then transfers r -> q with rate sqrt(m + 1) omega_q (area pi).
    With pulse_duration set, every pulse lasts exactly that long and the
    amplitudes are scaled instead; the first 2n pulses of the (n+1)-ladder
    are the n-ladder either way.
    """
    if n_target < 0:
        raise ValueError("n_target must be >= 0")
    if n_target > n_atoms:
        raise ValueError(f"n_target {n_target} infeasible for {n_atoms} atoms")
    if omega <= 0 or omega_q <= 0:
        raise ValueError("Rabi amplitudes must be positive")
    events = []
    for m in range(n_target):
        up_rate = sqrt(n_atoms - m)
        store_rate = sqrt(m + 1)
        if pulse_duration is None:
            events.append(Pulse(("g", "r"), omega, pi / (up_rate * omega)))
            events.append(Pulse(("r", "q"), omega_q, pi / (store_rate * omega_q)))
        else:
            events.append(
                Pulse(("g", "r"), pi / (up_rate * pulse_duration), pulse_duration)
            )
            events.append(
                Pulse(("r", "q"), pi / (store_rate * pulse_duration), pulse_duration)
            )
    return Schedule(tuple(events))


def _zero_rotation(zero_amp, keep_amp, zero_is_from_side):
    """Half-angle g*t and drive phase that null one amplitude of a pair.

    The pair couples as <to_state|H|from_state> = g e^{i phase}.  Returns
    (gt, phase) with gt in [0, pi/2]; gt = 0 when the amplitude already
    vanishes (zero-duration no-op pulse).
    """
    if abs(zero_amp) < 1e-15:
        return 0.0, 0.0
    gt = atan2(abs(zero_amp), abs(keep_amp))
    if zero_is_from_side:
        phase = pi / 2 + np.angle(keep_amp) - np.angle(zero_amp)
    else:
        phase = np.angle(zero_amp) - np.angle(keep_amp) - pi / 2
    return gt, wrap_phase(phase)


def superposition_schedule(
    target: TargetSuperposition,
    omega: float,
    omega_q: float,
) -> Schedule:
    """Schedule preparing |g> -> sum_m alpha_m |q^m> under perfect blockade.

    Built by reversing an emptying sequence: starting from the target, 2n
    alternating q->r and r->g rotations (angle and phase solved per step
    from the current amplitudes) drain the highest occupied rung until only
    the ground state remains; the time- and phase-reversed sequence is
    returned.  Raises CompilationError if the drain leaves more than 1e-9
    of population outside |g>.
    """
    if omega <= 0 or omega_q <= 0:
        raise ValueError("Rabi amplitudes must be positive")
    n = target.n_highest
    if n == 0:
        return Schedule(())
    n_atoms = target.n_atoms
    basis, _ = register_basis(n_atoms, n_max=n, blockade="ideal")
    register = Register(basis, [])
    psi = np.zeros(basis.dim, dtype=complex)
    for m, amp in enumerate(target.amplitudes[: n + 1]):
        psi[basis.state_index({"q": m})] = amp

    emptying = []
    for k in range(n, 0, -1):
        i_qk = basis.state_index({"q": k})
        i_rq = basis.state_index({"q": k - 1, "r": 1})
        i_qk1 = basis.state_index({"q": k - 1})

        # q -> r pulse: drain |q^k> into |r q^(k-1)>; |q^k> is the from side
        gt, phase = _zero_rotation(psi[i_qk], psi[i_rq], zero_is_from_side=True)
        rate = 0.5 * omega_q * sqrt(k)
        pulse = Pulse(("q", "r"), omega_q, gt / rate, phase=phase)
        emptying.append(pulse)
        psi = evolve(Schedule((pulse,)), basis, register, psi).final_state

        # g -> r pulse: drain |r q^(k-1)> into |q^(k-1)>; r is the to side
        gt, phase = _zero_rotation(psi[i_rq], psi[i_qk1], zero_is_from_side=False)
        rate = 0.5 * omega * sqrt(n_atoms - k + 1)
        pulse = Pulse(("g", "r"), omega, gt / rate, phase=phase)
        emptying.append(pulse)
        psi = evolve(Schedule((pulse,)), basis, register, psi).final_state

    residual = 1.0 - abs(psi[basis.ground_index()]) ** 2
    if residual > 1e-9:
        raise CompilationError(f"emptying residual {residual:.3e} above 1e-9")
    return Schedule(tuple(emptying)).reversed()


def phase_gate_schedule(omega_minus: float, omega_plus: float) -> Schedule:
    """Three-step conditional phase gate on storage species q+ / q-.

    A pi pulse parks q- in r-, a 2pi pulse cycles q+ through r+ (blocked
    when r- is occupied), and a closing pi pulse returns r- to q-.  Under
    blockade the register phases are (0, pi, pi, pi) on
    {g, q+, q-, q+q-}.
    """
    if omega_minus <= 0 or omega_plus <= 0:
        raise ValueError("Rabi amplitudes must be positive")
    return Schedule(
        (
            Pulse(("q-", "r-"), omega_minus, pi / omega_minus),
            Pulse(("q+", "r+"), omega_plus, 2.0 * pi / omega_plus),
            Pulse(("r-", "q-"), omega_minus, pi / omega_minus),
        )
    )


GATE_INPUTS = {
    "g": {},
    "q+": {"q+": 1},
    "q-": {"q-": 1},
    "q+q-": {"q+": 1, "q-": 1},
}


def gate_truth_table(
    schedule: Schedule, basis: Basis, static_terms=()
) -> GateTruthTable:
    """Run the four computational inputs, on one register, and extract
    phases and fidelities."""
    register = Register(basis, static_terms)
    phases = {}
    fids = {}
    for name, occ in GATE_INPUTS.items():
        psi0 = basis.basis_vector(occ)
        res = evolve(schedule, basis, register, psi0)
        phases[name] = accumulated_phase(res, occ)
        fids[name] = fidelity(res.final_state, psi0)
    return GateTruthTable(phases=phases, fidelities=fids)
