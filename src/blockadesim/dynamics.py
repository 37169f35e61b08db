"""Piecewise pulse-schedule evolution of collective state vectors.

Constant-amplitude segments are propagated exactly: by one Hermitian
eigendecomposition, or, when a diagonal anti-Hermitian decay term (norm-loss
decoherence model) is present, by ``scipy.linalg.expm`` of the non-normal
generator -i (H - i k), one exponential per distinct step of the sample
grid.  Sampled-envelope pulses are integrated by a fourth-order
two-exponential scheme on sub-intervals, doubled until the final state
changes by less than ``_ENVELOPE_TOL``.

Times are in us, angular frequencies in rad/us, phases in rad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .hilbert import Basis, BasisError, collective_op, drive_generator

# envelope refinement stops once the final state moves less than this
_ENVELOPE_TOL = 1e-10
# most bytes of states (16 B) and populations (8 B) a trajectory may keep
_TRAJECTORY_BUDGET = 2e9


class StiffnessError(RuntimeError):
    """Integration of a segment missed its tolerance or went non-finite."""


class PhaseUndefinedError(ValueError):
    """Accumulated phase requested for a vanishing amplitude."""


@dataclass(frozen=True)
class SampledEnvelope:
    """Piecewise-linear amplitude samples on [0, duration]."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("envelope needs matching times/values, >= 2 samples")
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise ValueError("envelope times must be strictly increasing")
        if self.times[0] != 0.0:
            raise ValueError("envelope must start at t=0")
        if min(self.values) < 0:
            raise ValueError("envelope amplitudes must be non-negative")

    def __call__(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.values)


@dataclass(frozen=True)
class Pulse:
    """Drive on one transition: constant amplitude or sampled envelope."""

    transition: tuple[str, str]
    omega: float | SampledEnvelope
    duration: float
    phase: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("pulse duration must be >= 0")
        if isinstance(self.omega, SampledEnvelope):
            if abs(self.omega.times[-1] - self.duration) > 1e-12:
                raise ValueError("envelope must span the pulse duration")
        elif self.omega < 0:
            raise ValueError("pulse amplitude must be >= 0")

    def area(self) -> float:
        """Single-field area integral of omega over the pulse."""
        if isinstance(self.omega, SampledEnvelope):
            return float(np.trapezoid(self.omega.values, self.omega.times))
        return self.omega * self.duration


@dataclass(frozen=True)
class Wait:
    duration: float

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("wait duration must be >= 0")


@dataclass(frozen=True)
class Schedule:
    events: tuple = ()

    @property
    def total_duration(self) -> float:
        return sum(ev.duration for ev in self.events)

    def reversed(self) -> "Schedule":
        """Phase-inverted reverse: undoes this schedule exactly.

        Each pulse keeps its amplitude and duration, gains a pi phase
        shift, and flips the sign of its detuning (together these negate
        the segment generator); envelope pulses also reverse their
        envelope in time, and the event order is reversed.  Static terms
        are outside the schedule and are not inverted.
        """
        out = []
        for ev in reversed(self.events):
            if isinstance(ev, Wait):
                out.append(ev)
                continue
            omega = ev.omega
            if isinstance(omega, SampledEnvelope):
                t_end = omega.times[-1]
                omega = SampledEnvelope(
                    tuple(t_end - t for t in reversed(omega.times)),
                    tuple(reversed(omega.values)),
                )
            out.append(
                Pulse(
                    transition=ev.transition,
                    omega=omega,
                    duration=ev.duration,
                    phase=wrap_phase(ev.phase + np.pi),
                    detuning=-ev.detuning if ev.detuning != 0.0 else 0.0,
                )
            )
        return Schedule(tuple(out))

    def to_text(self) -> str:
        """One event per line: ``PULSE from to omega phase detuning duration``
        or ``WAIT duration`` (rad/us, rad, us).  Constant pulses only."""
        lines = []
        for ev in self.events:
            if isinstance(ev, Wait):
                lines.append(f"WAIT {ev.duration!r}")
            elif isinstance(ev.omega, SampledEnvelope):
                raise ValueError("sampled-envelope pulses have no text form")
            else:
                frm, to = ev.transition
                lines.append(
                    f"PULSE {frm} {to} {ev.omega!r} {ev.phase!r} "
                    f"{ev.detuning!r} {ev.duration!r}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text: str) -> "Schedule":
        events = []
        for ln, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "WAIT" and len(parts) == 2:
                events.append(Wait(float(parts[1])))
            elif parts[0] == "PULSE" and len(parts) == 7:
                events.append(
                    Pulse(
                        transition=(parts[1], parts[2]),
                        omega=float(parts[3]),
                        phase=float(parts[4]),
                        detuning=float(parts[5]),
                        duration=float(parts[6]),
                    )
                )
            else:
                raise ValueError(f"unparseable schedule line {ln}: {line!r}")
        return Schedule(tuple(events))


@dataclass
class EvolutionResult:
    """Sampled trajectory of one schedule evolution."""

    basis: Basis
    times: np.ndarray            # (M,)
    populations: np.ndarray      # (M, dim)
    norm2: np.ndarray            # (M,)
    initial_state: np.ndarray
    final_state: np.ndarray
    states: np.ndarray | None = field(default=None, repr=False)

    def population(self, spec) -> np.ndarray:
        return self.populations[:, self.basis.state_index(spec)]

    def accumulated_phases(self) -> np.ndarray:
        """Final-time phase per basis state; nan where the amplitude is
        too small to define one."""
        out = np.full(self.basis.dim, np.nan)
        for i in range(self.basis.dim):
            try:
                out[i] = accumulated_phase(self, i)
            except PhaseUndefinedError:
                pass
        return out


def wrap_phase(a: float) -> float:
    """Wrap an angle to (-pi, pi]; within 1e-9 of -pi it reads +pi."""
    out = (a + np.pi) % (2.0 * np.pi) - np.pi
    if out <= -np.pi + 1e-9:
        out = np.pi
    return float(out)


def _split_static(basis: Basis, static_terms) -> tuple[np.ndarray, np.ndarray]:
    """Sum static terms into a Hermitian dense part and a diagonal decay.

    The anti-Hermitian content must be diagonal (the norm-loss model);
    returns (H_static, k) with the effective Hamiltonian H_static - i k.
    """
    dim = basis.dim
    total = np.zeros((dim, dim), dtype=complex)
    for op in static_terms:
        if op.basis is not basis and op.basis != basis:
            raise ValueError("static term basis mismatch")
        total += op.dense()
    herm = 0.5 * (total + total.conj().T)
    anti = total - herm                      # equals -i k on the diagonal
    k = np.imag(-np.diag(anti))
    off = anti - np.diag(np.diag(anti))
    if off.size and np.abs(off).max() > 1e-12:
        raise ValueError("non-diagonal anti-Hermitian static term")
    if (k < -1e-12).any():
        raise ValueError("decay rates must be non-negative")
    return herm, np.clip(k, 0.0, None)


def _segment_targets(t0: float, duration: float, grid: np.ndarray) -> np.ndarray:
    """Sample times falling inside (t0, t0+duration], always including the end."""
    t1 = t0 + duration
    eps = 1e-12 * max(1.0, abs(t1))
    inside = grid[(grid > t0 + eps) & (grid < t1 - eps)]
    return np.concatenate([inside, [t1]])


def _propagate_constant(h, k, psi, dt_list):
    """States at cumulative offsets dt_list (sorted, >= 0) under H - i k.

    A Hermitian segment (k = 0) takes one eigendecomposition.  A decaying
    one takes expm(-i (H - i k) span) per step; steps of the uniform sample
    grid that agree to 1e-12 (relative) share one exponential.
    """
    if not k.any():
        w, u = np.linalg.eigh(h)
        coef = u.conj().T @ psi
        return [u @ (np.exp(-1j * w * dt) * coef) for dt in dt_list]
    import scipy.linalg   # deferred: only decaying segments need it

    gen = -1j * (h - 1j * np.diag(k))
    out, step = [psi], None
    for span in np.diff(dt_list, prepend=0.0):
        if step is None or abs(span - step) > 1e-12 * span:
            step, prop = span, scipy.linalg.expm(gen * span)
        out.append(prop @ out[-1])
    return out[1:]


def evolve(
    schedule: Schedule,
    basis: Basis,
    static_terms,
    psi0: np.ndarray,
    sample_dt: float | None = None,
) -> EvolutionResult:
    """Evolve psi0 through the schedule and sample the trajectory.

    static_terms (dipole coupling, dephasing) act during every event; each
    Pulse adds its drive term.  Samples are taken at t=0, at multiples of
    sample_dt when given, and at every event boundary.  Deterministic for
    fixed inputs.  A trajectory over budget raises BasisError, and an event
    that leaves a non-finite state StiffnessError.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {norm} is not 1 within 1e-9")
    h_static, k = _split_static(basis, static_terms)

    total_t = schedule.total_duration
    sampled = sample_dt is not None and sample_dt > 0
    # the grid, t = 0 and each event boundary (a nan estimate reads as over)
    n = (total_t / sample_dt if sampled else 0.0) + 1 + len(schedule.events)
    need = 24.0 * n * basis.dim
    if not need <= _TRAJECTORY_BUDGET:
        raise BasisError(f"trajectory of {n:.3g} samples x dim {basis.dim} "
                         f"needs {need:.3g} B > budget {_TRAJECTORY_BUDGET:.3g} B")
    if sampled:
        grid = np.arange(0.0, total_t + 0.5 * sample_dt, sample_dt)
    else:
        grid = np.array([0.0])

    times = [0.0]
    states = [psi0]
    t0 = 0.0
    psi = psi0
    transitions = {}
    for i_ev, ev in enumerate(schedule.events):
        if ev.duration == 0.0:
            continue
        targets = _segment_targets(t0, ev.duration, grid)
        dts = targets - t0
        if isinstance(ev, Wait):
            segs = _propagate_constant(h_static, k, psi, dts)
        else:
            # H(amp) = base + amp * unit from the dense collective operator,
            # built once per transition
            frm, to = ev.transition
            if ev.transition not in transitions:
                transitions[ev.transition] = collective_op(basis, frm, to).dense()
            shift, unit = drive_generator(basis, to, transitions[ev.transition],
                                          ev.phase, ev.detuning)
            base = h_static + np.diag(shift) if ev.detuning != 0.0 else h_static
            if isinstance(ev.omega, SampledEnvelope):
                segs = _propagate_envelope(base, unit, k, ev, psi, dts, i_ev)
            else:
                segs = _propagate_constant(base + ev.omega * unit, k, psi, dts)
        if not np.isfinite(segs[-1]).all():
            raise StiffnessError(f"event {i_ev} left a non-finite state")
        times.extend(targets.tolist())
        states.extend(segs)
        psi = segs[-1]
        t0 += ev.duration

    arr = np.array(states)
    populations = np.abs(arr) ** 2
    return EvolutionResult(
        basis=basis,
        times=np.array(times),
        populations=populations,
        norm2=populations.sum(axis=1),
        initial_state=psi0,
        final_state=psi,
        states=arr,
    )


def _propagate_envelope(base, unit, k, pulse, psi, dts, i_ev):
    """Adaptive sub-segmentation of a sampled-envelope pulse.

    Each sub-interval is advanced by the fourth-order commutator-free
    two-exponential scheme (Gauss-node amplitudes combine linearly into two
    constant half-steps); the grid is doubled until consecutive refinements
    agree within ``_ENVELOPE_TOL``.
    """
    env = pulse.omega
    s36 = sqrt(3.0) / 6.0
    node1, node2 = 0.5 - s36, 0.5 + s36
    wa, wb = 0.25 - s36, 0.25 + s36

    def run(n_sub):
        # breakpoints of the piecewise-linear envelope pin the grid so each
        # sub-interval sees a smooth amplitude
        bounds = np.unique(
            np.concatenate(
                [np.linspace(0.0, pulse.duration, n_sub + 1), env.times, dts]
            )
        )
        out = []
        cur = psi
        want = 0
        for a, b in zip(bounds[:-1], bounds[1:]):
            h = b - a
            amp1 = float(env(a + node1 * h))
            amp2 = float(env(a + node2 * h))
            half = np.array([0.5 * h])
            for w1, w2 in ((wb, wa), (wa, wb)):
                drive = 2.0 * (w1 * amp1 + w2 * amp2)
                cur = _propagate_constant(base + drive * unit, k, cur, half)[0]
            while want < len(dts) and abs(b - dts[want]) < 1e-12:
                out.append(cur)
                want += 1
        return out

    n_sub = max(8, len(env.times) - 1)
    prev = run(n_sub)
    for _ in range(12):
        n_sub *= 2
        nxt = run(n_sub)
        err = np.linalg.norm(nxt[-1] - prev[-1])
        if err <= _ENVELOPE_TOL * max(1.0, np.linalg.norm(nxt[-1])):
            return nxt
        prev = nxt
    raise StiffnessError(
        f"envelope pulse (event {i_ev}) did not reach tol={_ENVELOPE_TOL} "
        f"within {n_sub} sub-steps"
    )


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """|<target|state>|^2; lost norm counts as infidelity."""
    if state.shape != target.shape:
        raise ValueError("state/target dimension mismatch")
    return float(abs(np.vdot(target, state)) ** 2)


def accumulated_phase(result: EvolutionResult, spec) -> float:
    """Phase of a basis amplitude at the final time relative to t=0.

    When the evolved state has a nonzero ground-state component at both
    endpoints, phases of other states are referenced to it (removing the
    global phase); otherwise the tracked state's own initial phase is the
    reference.  Wrapped to (-pi, pi].
    """
    i = result.basis.state_index(spec) if not isinstance(spec, int) else spec
    a0 = result.initial_state[i]
    a1 = result.final_state[i]
    if abs(a1) <= 1e-6 or abs(a0) <= 1e-6:
        raise PhaseUndefinedError(
            f"amplitude of state {spec!r} too small for a phase"
        )
    raw = np.angle(a1) - np.angle(a0)
    ig = result.basis.ground_index()
    if i != ig:
        g0, g1 = result.initial_state[ig], result.final_state[ig]
        if abs(g0) > 1e-6 and abs(g1) > 1e-6:
            raw -= np.angle(g1) - np.angle(g0)
    return wrap_phase(raw)
