import tracemalloc

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (loaded before any traced decaying run)

from blockadesim import dynamics, hilbert
from blockadesim.dynamics import (
    PhaseUndefinedError,
    Pulse,
    SampledEnvelope,
    Schedule,
    StiffnessError,
    Wait,
    accumulated_phase,
    evolve,
    fidelity,
    wrap_phase,
)
from blockadesim.hilbert import (BasisError, Operator, collective_op, dephasing_term,
                                 dipole_term, drive_term, enumerate_basis)
from blockadesim.oracle import oracle_equivalence, oracle_schedules
from blockadesim.protocols import fock_ladder, rabi_pulse, register_basis

from .reference import (
    decaying_two_level_propagator,
    mpmath_evolve,
    rk4_evolve,
    two_level_propagator,
)


def _ideal(n, n_max=1):
    return register_basis(n, n_max=n_max, blockade="ideal")


def test_half_angle_rotation():
    basis, static = _ideal(6)
    res = evolve(Schedule((rabi_pulse(6, 1.0, np.pi / 2),)), basis, static,
                 basis.basis_vector({}))
    np.testing.assert_allclose(
        [res.population({})[-1], res.population({"r": 1})[-1]],
        [0.5, 0.5], atol=1e-12,
    )


def test_full_transfer():
    basis, static = _ideal(5)
    res = evolve(Schedule((rabi_pulse(5, 1.0, np.pi),)), basis, static,
                 basis.basis_vector({}))
    assert fidelity(res.final_state, basis.basis_vector({"r": 1})) > 1 - 1e-9


def test_unnormalized_input_rejected():
    basis, static = _ideal(3)
    with pytest.raises(ValueError):
        evolve(Schedule(()), basis, static, 2.0 * basis.basis_vector({}))


@pytest.mark.parametrize("sample_dt", [-0.1, float("nan")])
def test_negative_or_nan_sample_step_rejected(sample_dt):
    basis, static = _ideal(3)
    with pytest.raises(ValueError, match="sample_dt"):
        evolve(Schedule((Pulse(("g", "r"), 1.0, 1.0),)), basis, static,
               basis.basis_vector({}), sample_dt=sample_dt)


def test_no_grid_and_infinite_sample_step_keep_their_meaning():
    basis, static = _ideal(3)
    psi0 = basis.basis_vector({})
    # an infinite step over a finite run samples t = 0 and the event end
    for sample_dt in (None, 0.0, np.inf):
        res = evolve(Schedule((Pulse(("g", "r"), 1.0, 1.0),)), basis, static, psi0,
                     sample_dt=sample_dt)
        assert res.times.tolist() == [0.0, 1.0]
    # an infinite step over an infinite run reads as over the budget
    with pytest.raises(BasisError, match="budget"):
        evolve(Schedule((Pulse(("g", "r"), 1e-320, np.inf),)), basis, static, psi0,
               sample_dt=np.inf)


def test_initial_state_of_another_size_rejected():
    basis, static = _ideal(3)
    assert basis.dim == 3
    with pytest.raises(ValueError, match=r"\(1,\) is not \(3,\)"):
        evolve(Schedule((Pulse(("g", "r"), 1.0, 1.0),)), basis, static,
               np.array([1.0]))


@pytest.mark.parametrize("rows, cols, vals, error, message", [
    ([0], [1], [1.0], ValueError, "non-diagonal anti-Hermitian"),
    ([1], [1], [1.0j], ValueError, "decay rates must be non-negative"),
    ([0, 1], [1, 0], [np.inf, np.inf], StiffnessError, "non-finite entry"),
])
def test_static_terms_checked_at_the_first_run(rows, cols, vals, error, message):
    # a lone off-diagonal entry, a growing state and an infinite coupling are
    # refused at a register's first run, also one without events
    basis, _ = _ideal(3)
    term = Operator(basis, np.array(rows), np.array(cols), np.array(vals, complex))
    for sched in (Schedule(()), Schedule((Pulse(("g", "r"), 1.0, 1.0),))):
        with pytest.raises(error, match=message):
            evolve(sched, basis, [term], basis.basis_vector({}))


def test_unitarity_without_decay():
    basis, _ = _ideal(4, n_max=2)
    sched = Schedule(
        (
            Pulse(("g", "r"), 0.9, 2.3, phase=0.3, detuning=0.5),
            Wait(1.0),
            Pulse(("q", "r"), 1.1, 1.7, phase=-0.8),
        )
    )
    res = evolve(sched, basis, [], basis.basis_vector({}), sample_dt=0.31)
    np.testing.assert_allclose(res.norm2, 1.0, atol=1e-9)


def test_time_reversal():
    basis, _ = _ideal(4, n_max=2)
    sched = Schedule(
        (
            Pulse(("g", "r"), 0.9, 2.3, phase=0.3),
            Pulse(("q", "r"), 1.1, 1.7, phase=-0.8),
            Pulse(("g", "r"), 0.5, 0.9, detuning=0.7),
        )
    )
    psi0 = basis.basis_vector({})
    fwd = evolve(sched, basis, [], psi0)
    back = evolve(sched.reversed(), basis, [], fwd.final_state)
    assert fidelity(back.final_state, psi0) > 1 - 1e-8


def test_reversal_handles_detuning_sign():
    # reversed() inverts the drive phase but keeps detunings: the inverse
    # of each segment exponential
    basis, _ = _ideal(3, n_max=1)
    p = Pulse(("g", "r"), 1.0, 0.7, phase=0.2, detuning=1.3)
    fwd = evolve(Schedule((p,)), basis, [], basis.basis_vector({}))
    rev = Schedule((p,)).reversed()
    back = evolve(rev, basis, [], fwd.final_state)
    assert fidelity(back.final_state, basis.basis_vector({})) > 1 - 1e-10


def test_rk4_oracle_pair_resolved():
    # brute-force RK4 vs exact segment exponentials, with pair coupling
    # and decay in play
    n = 3
    basis = enumerate_basis(n, ("q", "r", "p'", "p''"), 2,
                            mode="pair-resolved", ryd_max=2)
    kap = np.full((n, n), 8.0) - 8.0 * np.eye(n)
    static = [
        dipole_term(basis, kap),
        dephasing_term(basis, 0.05),
    ]
    sched = Schedule(
        (
            Pulse(("g", "r"), 1.0, np.pi / np.sqrt(n), phase=0.4),
            Pulse(("q", "r"), 0.8, 1.1, detuning=0.6),
            Wait(0.5),
        )
    )
    psi0 = basis.basis_vector(tuple("g" for _ in range(n)))
    res = evolve(sched, basis, static, psi0)
    ref = rk4_evolve(sched, basis, static, psi0)
    assert np.abs(res.final_state - ref).max() < 1e-8


def test_envelope_pulse_matches_area(monkeypatch):
    # resonant two-level transfer depends only on the drive area
    monkeypatch.setattr(dynamics, "_ENVELOPE_TOL", 1e-11)
    basis, static = _ideal(1)
    T = 2.0
    peak = np.pi / T  # sin^2 envelope has area peak*T/2 = pi/2 -> theta=pi/2
    ts = tuple(np.linspace(0, T, 81))
    env = SampledEnvelope(ts, tuple(2 * peak * np.sin(np.pi * t / T) ** 2
                                    for t in ts))
    pulse = Pulse(("g", "r"), env, T)
    assert np.trapezoid(env.values, env.times) == pytest.approx(np.pi, rel=1e-3)
    res = evolve(Schedule((pulse,)), basis, static, basis.basis_vector({}))
    assert res.population({"r": 1})[-1] == pytest.approx(1.0, abs=1e-5)


def test_envelope_vs_rk4(monkeypatch):
    monkeypatch.setattr(dynamics, "_ENVELOPE_TOL", 1e-12)
    basis, _ = _ideal(2, n_max=1)
    ts = (0.0, 0.4, 1.0, 1.5)
    env = SampledEnvelope(ts, (0.0, 1.2, 0.7, 0.1))
    sched = Schedule((Pulse(("g", "r"), env, 1.5, phase=0.3, detuning=0.2),))
    psi0 = basis.basis_vector({})
    res = evolve(sched, basis, [], psi0)
    ref = rk4_evolve(sched, basis, [], psi0)
    assert np.abs(res.final_state - ref).max() < 1e-7


@pytest.mark.parametrize("T", [1.0, 1e-11, 1e-13])
def test_short_envelope_pulse_files_its_end_state(T):
    # a sample is filed within 1e-12 of the pulse duration (relative), so a
    # 1e-13 us pulse ends on its last sub-interval like a 1 us one
    basis = enumerate_basis(1, ("r",), 1)
    ts = tuple(np.linspace(0.0, T, 9))
    env = SampledEnvelope(ts, tuple(2 * np.pi / T * np.sin(np.pi * t / T) ** 2
                                    for t in ts))
    res = evolve(Schedule((Pulse(("g", "r"), env, T),)), basis, [],
                 basis.basis_vector({}))
    assert abs(res.population({"r": 1})[-1] - 1.0) < 1e-12


@pytest.mark.parametrize("gamma_r", [0.0, 0.3])
def test_envelope_runs_on_its_event_blocks(monkeypatch, gamma_r):
    # with the block crossover at dim 1 every half-step of a detuned,
    # phased envelope runs on the pulse's blocks and matches the whole
    # generator; the wait after it runs on its own blocks
    basis, static = register_basis(6, 4, blockade=20.0, gamma_r=gamma_r)
    assert basis.dim == 15
    T = 1.5
    ts = tuple(np.linspace(0.0, T, 9))
    env = SampledEnvelope(ts, tuple(2 * np.pi / T * np.sin(np.pi * t / T) ** 2
                                    for t in ts))
    sched = Schedule((Pulse(("g", "r"), env, T, phase=0.4, detuning=0.3),
                      Wait(0.5)))
    psi0 = basis.basis_vector({"q": 1})
    whole = evolve(sched, basis, static, psi0, sample_dt=0.1)
    seen, propagate = [], dynamics._propagate_constant

    def spy(h, psi, dts, out, blocks=None, parts=None):
        seen.append(None if blocks is None else [b.shape for b in blocks])
        return propagate(h, psi, dts, out, blocks, parts)

    monkeypatch.setattr(dynamics, "_BLOCK_MIN_DIM", 1)
    monkeypatch.setattr(dynamics, "_propagate_constant", spy)
    blocked = evolve(sched, basis, static, psi0, sample_dt=0.1)
    assert len(seen) > 2
    assert all(shapes == [(1, 1), (1, 2), (3, 4)] for shapes in seen[:-1])
    assert seen[-1] == [(9, 1), (3, 2)]
    assert np.abs(blocked.states - whole.states).max() < 1e-12


def test_decay_exponential_exact():
    basis = enumerate_basis(2, ("r",), 1)
    static = [dephasing_term(basis, 0.3)]
    res = evolve(Schedule((Wait(2.0),)), basis, static,
                 basis.basis_vector({"r": 1}))
    assert res.norm2[-1] == pytest.approx(np.exp(-0.6), abs=1e-12)


def test_decay_rate_doubles():
    basis = enumerate_basis(4, ("r", "p'", "p''"), 2)
    static = [dephasing_term(basis, 0.4)]
    res = evolve(Schedule((Wait(1.0),)), basis, static,
                 basis.basis_vector({"r": 2}))
    assert res.norm2[-1] == pytest.approx(np.exp(-0.8), abs=1e-12)


def test_norm_nonincreasing_with_decay():
    basis, _ = _ideal(3, n_max=1)
    static = [dephasing_term(basis, 0.2)]
    res = evolve(Schedule((Pulse(("g", "r"), 1.0, 4.0),)), basis, static,
                 basis.basis_vector({}), sample_dt=0.1)
    assert (np.diff(res.norm2) <= 1e-12).all()


def test_decaying_fock_ladder_vs_rk4():
    # the default fock ladder (N = 20) to |q^6> with gamma_r = 0.01, sampled
    # as the CLI samples it, so that grid steps share one exponential
    n, n_target = 20, 6
    basis, static = register_basis(n, n_max=n_target + 1, gamma_r=0.01)
    sched = fock_ladder(n, n_target, 1.0, 1.0)
    psi0 = basis.basis_vector({})
    res = evolve(sched, basis, static, psi0,
                 sample_dt=min(ev.duration for ev in sched.events) / 8.0)
    ref = rk4_evolve(sched, basis, static, psi0)
    assert np.abs(res.final_state - ref).max() < 1e-9


def test_strong_decay_matches_closed_form(deadline):
    # one atom driven g <-> r while r decays at 1e6 rad/us: the cost does
    # not grow with the decay rate, and every sample is exact
    omega, gamma, phase, duration = 1.0, 1e6, 0.3, np.pi
    basis = enumerate_basis(1, ("r",), 1)
    static = [dephasing_term(basis, gamma)]
    sched = Schedule((Pulse(("g", "r"), omega, duration, phase=phase),))
    g, r = basis.state_index({}), basis.state_index({"r": 1})
    with deadline(1):
        res = evolve(sched, basis, static, basis.basis_vector({}),
                     sample_dt=duration / 16)
    assert len(res.times) == 17
    for t, state in zip(res.times, res.states):
        u = decaying_two_level_propagator(omega, gamma, t, phase)
        assert abs(state[g] - u[0, 0]) < 1e-10
        assert abs(state[r] - u[1, 0]) < 1e-10


def test_zero_decaying_step_returns_the_state():
    # a step that rounds to 0 takes expm(0), also when it is the first one
    h = np.array([[0.0, 1.0], [1.0, -1.0j]])
    psi = np.array([0.6, 0.8j])
    (out,) = dynamics._propagate_constant(h.ravel(), psi, np.array([0.0]),
                                          np.empty((1, 2), complex),
                                          [np.arange(2)[None]])
    np.testing.assert_array_equal(out, psi)


def test_overflowing_decay_is_a_stiffness_error():
    # expm(-i (H - i k) t) at k = 1e100 overflows: no non-finite state
    # leaves evolve
    basis = enumerate_basis(1, ("r",), 1)
    static = [dephasing_term(basis, 1e100)]
    with pytest.raises(StiffnessError, match="event 0 .* non-finite"):
        evolve(Schedule((Pulse(("g", "r"), 1.0, 1.0),)), basis, static,
               basis.basis_vector({}))


def test_trajectory_over_budget_is_a_basis_error():
    basis, static = _ideal(3)
    with pytest.raises(BasisError, match="budget"):
        evolve(Schedule((Pulse(("g", "r"), 1.0, 1.0),)), basis, static,
               basis.basis_vector({}), sample_dt=1e-300)


def _traced_evolve(*args, **kwargs):
    """An evolve call's result and the peak bytes tracemalloc saw during it."""
    tracemalloc.start()
    try:
        return evolve(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_PEAK_CASES = {
    # dim 81 and 20481 samples: the trajectory dominates
    "hermitian-trajectory": (80, False, (Pulse(("g", "r"), 1.0, 1.0),), 1.0 / 20480),
    # dim 401 and 5 samples of a detuned pulse: the dense copies dominate
    "hermitian-dense": (400, False, (Pulse(("g", "r"), 1.0, 1.0, detuning=0.3),), 0.25),
    # dim 81, three events of differing steps: several exponentials
    "decaying": (80, True, (Pulse(("g", "r"), 1.0, 1.0), Wait(0.3),
                            Pulse(("g", "r"), 2.0, 0.7, detuning=0.2)), 1.0 / 256),
}


@pytest.mark.parametrize("case", _PEAK_CASES)
def test_evolve_peak_within_its_estimate(monkeypatch, case):
    # the budget check refuses the run under any budget below its traced
    # peak: the estimate counts every dense copy and trajectory row it holds
    n_max, decaying, events, dt = _PEAK_CASES[case]
    basis = enumerate_basis(n_max, ("r",), n_max)
    static = [dephasing_term(basis, 0.1)] if decaying else []
    sched, psi0 = Schedule(events), basis.basis_vector({})
    evolve(sched, basis, static, psi0, sample_dt=0.25)      # warm every cache
    res, peak = _traced_evolve(sched, basis, static, psi0, sample_dt=dt)
    assert peak > res.states.nbytes + res.populations.nbytes
    monkeypatch.setattr(dynamics, "MEMORY_BUDGET", np.nextafter(peak, 0))
    with pytest.raises(BasisError, match="budget"):
        evolve(sched, basis, static, psi0, sample_dt=dt)


def test_evolve_peak_within_its_estimate_while_one_product_runs(monkeypatch):
    # a few thousand samples: one product's temporaries, on the dense path
    # (dim 81) and on the block path (the N = 3 pair-resolved oracle, dim
    # 98), outweigh the populations the run has not yet allocated
    dense = enumerate_basis(80, ("r",), 80)
    blocked, static, psi0 = _pair_resolved(3)
    for basis, static, psi0 in ((dense, [], dense.basis_vector({})),
                                (blocked, static, psi0)):
        sched = Schedule((Pulse(("g", "r"), 1.0, 1.0),))
        evolve(sched, basis, static, psi0, sample_dt=0.25)
        res, peak = _traced_evolve(sched, basis, static, psi0, sample_dt=1.0 / 4000)
        assert len(res.times) == 4001
        with monkeypatch.context() as m:
            m.setattr(dynamics, "MEMORY_BUDGET", np.nextafter(peak, 0))
            with pytest.raises(BasisError, match="budget"):
                evolve(sched, basis, static, psi0, sample_dt=1.0 / 4000)


def test_event_ending_before_1e_12_us_keeps_its_samples():
    # the guard against grid points at an event boundary is relative to the
    # event's end time, so a 3e-15 us pi-pulse keeps all 16 of its samples
    basis = enumerate_basis(1, ("r",), 1)
    omega = 1e15
    duration = np.pi / omega
    res = evolve(Schedule((Pulse(("g", "r"), omega, duration),)), basis, [],
                 basis.basis_vector({}), sample_dt=duration / 16)
    assert len(res.times) == 17
    np.testing.assert_allclose(res.times, np.arange(17) * duration / 16,
                               rtol=1e-12)
    np.testing.assert_allclose(res.population({"r": 1}),
                               np.sin(0.5 * omega * res.times) ** 2, atol=1e-12)


def test_pulse_shorter_than_ulp_of_its_start_time():
    # (1 + 1e-17) - 1 rounds to 0: the pulse runs over its own duration
    basis = enumerate_basis(1, ("r",), 1)
    sched = Schedule((Wait(1.0), Pulse(("g", "r"), np.pi / 1e-17, 1e-17)))
    res = evolve(sched, basis, [], basis.basis_vector({}))
    assert abs(res.population({"r": 1})[-1] - 1.0) < 1e-12


@pytest.mark.parametrize("gamma_r", [0.0, 0.3, 3.0])
@pytest.mark.parametrize("blockade", ["ideal", 20.0, 100.0])
def test_final_state_matches_mpmath_expm(blockade, gamma_r):
    basis, static = register_basis(4, 3, blockade=blockade, gamma_r=gamma_r)
    assert basis.dim <= 12
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi0 /= np.linalg.norm(psi0)
    sched = Schedule((Pulse(("g", "r"), 1.3, 0.9, phase=0.4, detuning=0.6), Wait(0.5)))
    got = evolve(sched, basis, static, psi0).final_state
    assert np.abs(got - mpmath_evolve(sched, basis, static, psi0)).max() < 1e-13


def test_fidelity_definitions():
    v = np.array([1.0, 0.0], dtype=complex)
    w = np.array([0.0, 1.0], dtype=complex)
    assert fidelity(v, v) == pytest.approx(1.0)
    assert fidelity(v, w) == 0.0
    shrunk = np.sqrt(0.99) * v
    assert fidelity(shrunk, v) == pytest.approx(0.99)
    with pytest.raises(ValueError):
        fidelity(v, np.ones(3, dtype=complex))


def test_phase_free_evolution_zero():
    basis, _ = _ideal(2, n_max=1)
    res = evolve(Schedule((Wait(3.0),)), basis, [], basis.basis_vector({}))
    assert accumulated_phase(res, {}) == pytest.approx(0.0, abs=1e-12)


def test_phase_two_pi_pulse_is_pi():
    basis = enumerate_basis(1, ("r",), 1)
    res = evolve(Schedule((Pulse(("g", "r"), 1.0, 2 * np.pi),)), basis, [],
                 basis.basis_vector({}))
    assert accumulated_phase(res, {}) == pytest.approx(np.pi, abs=1e-9)


def test_phase_light_shift_closed_form():
    omega, delta, t = 0.6, 9.0, 3.7
    basis = enumerate_basis(1, ("r",), 1)
    res = evolve(
        Schedule((Pulse(("g", "r"), omega, t, detuning=delta),)),
        basis, [], basis.basis_vector({}),
    )
    u = two_level_propagator(omega, delta, t)
    assert accumulated_phase(res, {}) == pytest.approx(
        float(np.angle(u[0, 0])), abs=1e-10
    )
    assert res.population({"r": 1})[-1] == pytest.approx(
        float(abs(u[1, 0]) ** 2), abs=1e-10
    )


def test_phase_undefined_raises():
    basis, static = _ideal(4)
    res = evolve(Schedule((rabi_pulse(4, 1.0, np.pi),)), basis, static,
                 basis.basis_vector({}))
    with pytest.raises(PhaseUndefinedError):
        accumulated_phase(res, {})   # ground state fully emptied


def test_collective_enhancement_quickfit():
    import scipy.optimize

    n = 4
    basis, static = _ideal(n)
    omega = 1.0
    period = 2 * np.pi / (np.sqrt(n) * omega)
    res = evolve(
        Schedule((Pulse(("g", "r"), omega, 3 * period),)), basis, static,
        basis.basis_vector({}), sample_dt=period / 24,
    )

    def model(t, w, a):
        return a * np.sin(0.5 * w * t) ** 2

    popt, _ = scipy.optimize.curve_fit(
        model, res.times, res.population({"r": 1}),
        p0=(np.sqrt(n) * omega, 1.0),
    )
    assert abs(popt[0]) == pytest.approx(np.sqrt(n) * omega, rel=1e-6)


def test_sampling_grid():
    basis, static = _ideal(2)
    res = evolve(Schedule((Pulse(("g", "r"), 1.0, 1.0), Wait(0.5))),
                 basis, static, basis.basis_vector({}), sample_dt=0.25)
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(1.5)
    for t in (0.25, 0.5, 0.75, 1.0, 1.25):
        assert np.min(np.abs(res.times - t)) < 1e-9


def test_wrap_phase():
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_phase(0.3) == pytest.approx(0.3)
    assert wrap_phase(2 * np.pi - 0.1) == pytest.approx(-0.1)
    # pi up to rounding keeps its sign
    assert wrap_phase(-np.pi + 3e-14) == np.pi
    assert wrap_phase(np.pi + 3e-14) == np.pi
    assert wrap_phase(-np.pi + 1e-6) == pytest.approx(-np.pi + 1e-6)


def test_schedule_text_roundtrip():
    sched = Schedule(
        (
            Pulse(("g", "r"), 0.875, 1.3125, phase=-0.5, detuning=2.25),
            Wait(0.75),
            Pulse(("r", "q"), 1.5, 0.0),
        )
    )
    text = sched.to_text()
    again = Schedule.from_text(text)
    assert again == sched
    with pytest.raises(ValueError):
        Schedule.from_text("NOPE 1 2 3")


def test_zero_duration_pulse_is_noop():
    basis, static = _ideal(3)
    psi0 = basis.basis_vector({})
    res = evolve(Schedule((Pulse(("g", "r"), 1.0, 0.0),)), basis, static, psi0)
    assert fidelity(res.final_state, psi0) == pytest.approx(1.0)


def test_static_term_basis_mismatch():
    basis, _ = _ideal(3)
    other = enumerate_basis(4, ("r",), 1)
    with pytest.raises(ValueError):
        evolve(Schedule(()), basis, [dephasing_term(other, 0.1)],
               basis.basis_vector({}))
    # a register held on another basis
    with pytest.raises(ValueError, match="register basis"):
        evolve(Schedule(()), basis, dynamics.Register(other, []),
               basis.basis_vector({}))


def _pair_resolved(n, kappa=40.0, gamma_r=0.0):
    """The oracle's pair-resolved register, uniform coupling, and its ground
    state; a dephasing term when gamma_r > 0."""
    basis = enumerate_basis(n, ("q", "r", "p'", "p''"), min(3, n),
                            mode="pair-resolved", ryd_max=2)
    static = [dipole_term(basis, np.full((n, n), kappa) - kappa * np.eye(n))]
    if gamma_r > 0:
        static.append(dephasing_term(basis, gamma_r))
    return basis, static, basis.basis_vector(tuple("g" for _ in range(n)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_path_matches_dense_on_oracle_schedules(monkeypatch, n):
    basis, static, psi0 = _pair_resolved(n)
    assert basis.dim >= dynamics._BLOCK_MIN_DIM
    for sched in oracle_schedules(n).values():
        dt = sched.total_duration / 24
        blocked = evolve(sched, basis, static, psi0, sample_dt=dt).states
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_BLOCK_MIN_DIM", basis.dim + 1)
            dense = evolve(sched, basis, static, psi0, sample_dt=dt).states
        assert np.abs(blocked - dense).max() < 1e-12


def test_decaying_block_path_matches_dense_expm(monkeypatch):
    basis, static, psi0 = _pair_resolved(3, gamma_r=0.3)
    sched = Schedule((Pulse(("g", "r"), 1.0, np.pi / np.sqrt(3), phase=0.4),
                      Pulse(("r", "q"), 0.8, 1.1, detuning=0.6), Wait(0.5)))
    blocked = evolve(sched, basis, static, psi0, sample_dt=0.1)
    monkeypatch.setattr(dynamics, "_BLOCK_MIN_DIM", basis.dim + 1)
    dense = evolve(sched, basis, static, psi0, sample_dt=0.1)
    assert 0.01 < 1.0 - blocked.norm2[-1] < 0.99
    assert np.abs(blocked.states - dense.states).max() < 1e-12


@pytest.mark.parametrize("n, dim, count, largest",
                         [(3, 98, 44, 13), (4, 261, 107, 23), (5, 551, 216, 36)])
def test_pi_pulse_blocks_of_the_oracle(n, dim, count, largest):
    basis, static, _ = _pair_resolved(n)
    blocks = dynamics._blocks(basis.dim, [*static, collective_op(basis, "g", "r")])[0]
    assert basis.dim == dim
    assert sum(len(b) for b in blocks) == count
    assert max(b.shape[1] for b in blocks) == largest
    # each state in exactly one block
    perm = np.concatenate([b.ravel() for b in blocks])
    np.testing.assert_array_equal(np.sort(perm), np.arange(dim))
    # the generator permuted into block order is block diagonal
    h = sum(op.dense() for op in static)
    h += drive_term(basis, "g", "r", 0.7, phase=0.6, detuning=0.4).dense()
    sizes = np.concatenate([np.full(len(b), b.shape[1]) for b in blocks])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    off_block = owner[:, None] != owner[None, :]
    permuted = h[np.ix_(perm, perm)]
    assert np.abs(permuted[off_block]).max() == 0.0
    assert np.abs(permuted[~off_block]).max() > 0.0


def test_small_or_single_block_generators_run_dense():
    basis, static = _ideal(3)
    drive = collective_op(basis, "g", "r")
    np.testing.assert_array_equal(dynamics._blocks(basis.dim, [*static, drive])[0],
                                  [np.arange(basis.dim)[None]])
    # a diagonal generator is size-1 blocks at any dim
    (diag,) = dynamics._blocks(basis.dim, [dephasing_term(basis, 0.1)])[0]
    np.testing.assert_array_equal(diag, np.arange(basis.dim)[:, None])
    chain = enumerate_basis(80, ("r",), 80)
    assert chain.dim >= dynamics._BLOCK_MIN_DIM
    np.testing.assert_array_equal(
        dynamics._blocks(chain.dim, [collective_op(chain, "g", "r")])[0],
        [np.arange(chain.dim)[None]])


@pytest.mark.parametrize("n, gamma_r", [(3, 0.0), (3, 0.3), (4, 0.0), (4, 0.3),
                                        (5, 0.0), (5, 0.3), (60, 0.0)])
def test_flat_stacks_hold_every_entry(monkeypatch, n, gamma_r):
    # on the pair-resolved oracle registers and fock's 60-atom register
    # (dim 63), every static, detuning and drive entry of a transition (None:
    # the waits) has its row and column in one block, and the stacks a
    # detuned, phased pulse runs on are the dense generator's blocks, bit
    # for bit
    if n == 60:
        basis, static = register_basis(60, 31)
        transitions = [("g", "r"), ("r", "q")]
        assert basis.dim == 63
    else:
        basis, static, _ = _pair_resolved(n, gamma_r=gamma_r)
        transitions = [("g", "r"), ("r", "q"), ("q", "r")]
    register, psi0 = dynamics.Register(basis, static), np.eye(basis.dim)[0]
    seen, propagate = [], dynamics._propagate_constant

    def spy(h, psi, dts, out, blocks, parts=None):
        seen.append(h.copy())
        return propagate(h, psi, dts, out, blocks, parts)

    monkeypatch.setattr(dynamics, "_propagate_constant", spy)
    static_sum = sum((op.dense() for op in static), np.zeros((basis.dim,) * 2, complex))
    for tr in [*transitions, None]:
        op, blocks = register._label(tr)[:2]
        owner = np.empty(basis.dim, int)      # each state's block, by its first state
        for idx in blocks:
            owner[idx] = idx[:, :1]
        states = np.concatenate([b.ravel() for b in blocks])
        np.testing.assert_array_equal(np.sort(states), np.arange(basis.dim))
        for term in static if op is None else [*static, op]:
            assert (owner[term.rows] == owner[term.cols]).all()
        if tr is None:
            register.evolve(Schedule((Wait(0.2),)), psi0)
            dense = static_sum
        else:
            register.evolve(Schedule((Pulse(tr, 0.7, 0.2, phase=0.6, detuning=0.4),)),
                            psi0)
            dense = static_sum + drive_term(basis, *tr, 0.7, phase=0.6,
                                            detuning=0.4).dense()
        flat, end = seen.pop(), 0
        for idx in blocks:
            at, end = end, end + idx.size * idx.shape[1]
            stack = flat[at:end].reshape(*idx.shape, -1)
            assert stack.tobytes() == dense[idx[:, :, None], idx[:, None, :]].tobytes()
        assert end == flat.size


@pytest.mark.parametrize("gamma_r", [0.0, 0.3])
def test_block_path_holds_no_dense_copy(gamma_r):
    # a fresh evolve of each N = 5 oracle schedule (dim 551) peaks within
    # half a dense dim x dim copy beyond its trajectory
    basis, static, psi0 = _pair_resolved(5, gamma_r=gamma_r)
    assert basis.dim == 551
    for sched in oracle_schedules(5).values():
        dt = sched.total_duration / 24
        evolve(sched, basis, static, psi0, sample_dt=dt)        # builds the operators
        res, peak = _traced_evolve(sched, basis, static, psi0, sample_dt=dt)
        beyond = peak - res.states.nbytes - res.populations.nbytes
        assert beyond < 0.5 * 16.0 * basis.dim**2


@pytest.mark.parametrize("gamma_r", [0.0, 0.3])
def test_block_path_peak_within_its_estimate(monkeypatch, gamma_r):
    # each N = 9 oracle schedule (dim 3721): the budget check refuses it
    # under any budget below its traced peak, and the peak stays under one
    # dense dim x dim copy beyond its trajectory
    basis, static, psi0 = _pair_resolved(9, gamma_r=gamma_r)
    assert basis.dim == 3721
    for tr in (("g", "r"), ("r", "q"), ("q", "r")):
        collective_op(basis, *tr)       # kept on the basis, built outside the trace
    for sched in oracle_schedules(9).values():
        dt = sched.total_duration / 24
        res, peak = _traced_evolve(sched, basis, static, psi0, sample_dt=dt)
        assert peak - res.states.nbytes - res.populations.nbytes < 16.0 * basis.dim**2
        with monkeypatch.context() as m:
            m.setattr(dynamics, "MEMORY_BUDGET", np.nextafter(peak, 0))
            with pytest.raises(BasisError, match="budget"):
                evolve(sched, basis, static, psi0, sample_dt=dt)


@pytest.mark.parametrize("n", [6, hilbert.N_ORACLE])
def test_oracle_modes_agree_up_to_the_cap(n):
    # symmetric and pair-resolved trajectories agree on every schedule, at
    # N = 6 and at the pair-resolved cap (dim 1005 and 9245)
    rows = oracle_equivalence(n, 40.0)
    assert {r[0] for r in rows} == set(oracle_schedules(n))
    assert min(r[2] for r in rows) > 1 - 1e-8


@pytest.mark.parametrize("blocked", [False, True])
def test_samples_in_one_product_match_per_sample(blocked):
    # more samples than one chunk: the chunk boundary changes nothing
    rng = np.random.default_rng(7)
    dim = 6
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    blocks = [np.arange(dim)[None]]
    if blocked:      # blocks {0, 1, 2}, {3, 4} and {5}
        owner = np.array([0, 0, 0, 1, 1, 2])
        h[owner[:, None] != owner[None, :]] = 0.0
        blocks = [np.array([[5]]), np.array([[3, 4]]), np.array([[0, 1, 2]])]
    # the blocks' flat stacks, one size class after another
    stacks = np.concatenate([h[np.ix_(b, b)].ravel() for (b,) in blocks])
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    dts = np.linspace(0.0, 3.0, dynamics._CHUNK + 905)
    out = dynamics._propagate_constant(stacks, psi, dts,
                                       np.empty((len(dts), dim), complex), blocks)
    w, u = np.linalg.eigh(h)
    coef = u.conj().T @ psi
    ref = np.array([u @ (np.exp(-1j * w * dt) * coef) for dt in dts])
    assert np.abs(out - ref).max() < 1e-13


def _register_runs(register_or_none, basis, static, runs):
    """States of each (schedule, psi0) run: on one held register, or (None)
    on a fresh register per run."""
    terms = static if register_or_none is None else register_or_none
    return [evolve(sched, basis, terms, psi0, sample_dt=0.1).states
            for sched, psi0 in runs]


@pytest.mark.parametrize("gamma_r", [0.0, 0.3])
@pytest.mark.parametrize("block_min_dim", [None, 1])
def test_held_register_equals_a_fresh_one_per_run(monkeypatch, gamma_r, block_min_dim):
    # the gate's four inputs, then the oracle's schedules (the pi-pulse twice,
    # a wait, a detuned and phased pulse), on the register they share: every
    # sample equals a fresh evolve's bit for bit, on the dense and the block
    # route, Hermitian and decaying
    if block_min_dim is not None:
        monkeypatch.setattr(dynamics, "_BLOCK_MIN_DIM", block_min_dim)
    gate_basis, gate_static = register_basis(5, 2, blockade=20.0, gamma_r=gamma_r,
                                             gate=True)
    gate = Schedule((Pulse(("q-", "r-"), 1.3, np.pi / 1.3),
                     Pulse(("q+", "r+"), 1.1, 2 * np.pi / 1.1),
                     Pulse(("r-", "q-"), 1.3, np.pi / 1.3)))
    inputs = [{}, {"q+": 1}, {"q-": 1}, {"q+": 1, "q-": 1}]
    oracle, oracle_static, psi0 = _pair_resolved(3, gamma_r=gamma_r)
    scheds = list(oracle_schedules(3).values())
    for basis, static, runs in (
            (gate_basis, gate_static,
             [(gate, gate_basis.basis_vector(occ)) for occ in inputs]),
            (oracle, oracle_static, [(s, psi0) for s in scheds + scheds])):
        held = _register_runs(dynamics.Register(basis, static), basis, static, runs)
        fresh = _register_runs(None, basis, static, runs)
        for a, b in zip(held, fresh):
            assert a.tobytes() == b.tobytes()


def test_changed_amplitude_or_phase_decomposes_again(monkeypatch):
    # a transition that ran another amplitude, phase or detuning takes a new
    # eigh; the same generator again takes none
    basis, static = _ideal(4, n_max=2)
    register, psi0 = dynamics.Register(basis, static), basis.basis_vector({})
    calls, eigh = [], np.linalg.eigh

    def spy(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for pulse, decomposed in ((Pulse(("g", "r"), 1.0, 0.7), 1),
                              (Pulse(("g", "r"), 1.0, 0.3), 0),
                              (Pulse(("g", "r"), 2.0, 0.3), 1),
                              (Pulse(("g", "r"), 2.0, 0.3, phase=0.4), 1),
                              (Pulse(("g", "r"), 2.0, 0.3, phase=0.4, detuning=0.1), 1),
                              (Pulse(("g", "r"), 2.0, 0.9, phase=0.4, detuning=0.1), 0)):
        calls.clear()
        sched = Schedule((pulse,))
        held = register.evolve(sched, psi0, sample_dt=0.05)
        assert len(calls) == decomposed
        fresh = evolve(sched, basis, static, psi0, sample_dt=0.05)
        assert held.states.tobytes() == fresh.states.tobytes()


def test_register_keeps_one_decomposition_per_transition(monkeypatch):
    # many pulses of differing amplitudes on three transitions and a wait:
    # one decomposition each, a decaying block keeping its generator and
    # one exponential
    monkeypatch.setattr(dynamics, "_BLOCK_MIN_DIM", 1)
    basis, static, psi0 = _pair_resolved(3, gamma_r=0.2)
    register = dynamics.Register(basis, static)
    events = [Pulse(tr, amp, 0.3) for amp in (0.5, 1.0, 1.5)
              for tr in (("g", "r"), ("r", "q"), ("q", "r"))]
    for _ in range(2):
        register.evolve(Schedule((*events, Wait(0.2))), psi0, sample_dt=0.07)
    assert set(register._kept) == {("g", "r"), ("r", "q"), ("q", "r"), None}
    for tr, (key, parts) in register._kept.items():
        blocks = register._labels[tr][1]
        assert len(parts) == len(blocks)
        for part in parts:
            if isinstance(part, list):
                gen, step, prop = part
                assert gen.shape == prop.shape and step > 0


def test_held_decompositions_count_in_the_estimate(monkeypatch):
    # a register that keeps an r -> q decomposition counts it while a g -> r
    # pulse runs: a budget that admits the pulse on a fresh register
    # refuses it on the held one
    basis = enumerate_basis(60, ("q", "r"), 20, ryd_max=1)
    assert basis.dim < dynamics._BLOCK_MIN_DIM      # one block: u is dim x dim
    register, psi0 = dynamics.Register(basis, []), basis.basis_vector({})
    register.evolve(Schedule((Pulse(("r", "q"), 1.0, 0.5),)), psi0)
    kept = 16.0 * basis.dim * (basis.dim + 1)       # its w and u
    sched = Schedule((Pulse(("g", "r"), 1.0, 0.5),))
    monkeypatch.setattr(dynamics, "MEMORY_BUDGET", 0.0)
    with pytest.raises(BasisError) as err:
        evolve(sched, basis, [], psi0)
    fresh_need = float(str(err.value).split("needs ")[1].split(" B")[0])
    monkeypatch.setattr(dynamics, "MEMORY_BUDGET", fresh_need * 1.001 + 0.5 * kept)
    evolve(sched, basis, [], psi0)
    with pytest.raises(BasisError, match="budget"):
        register.evolve(sched, psi0)


@pytest.mark.parametrize("case", _PEAK_CASES)
def test_held_register_peak_within_its_estimate(monkeypatch, case):
    # the second run of a held register, which keeps a decomposition per
    # transition from the first, peaks within the estimate of that run
    n_max, decaying, events, dt = _PEAK_CASES[case]
    basis = enumerate_basis(n_max, ("r",), n_max)
    static = [dephasing_term(basis, 0.1)] if decaying else []
    sched, psi0 = Schedule(events), basis.basis_vector({})
    register = dynamics.Register(basis, static)
    register.evolve(Schedule((Pulse(("r", "g"), 0.3, 0.2), Wait(0.1))), psi0,
                    sample_dt=0.25)
    tracemalloc.start()
    try:
        res = register.evolve(sched, psi0, sample_dt=dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > res.states.nbytes + res.populations.nbytes
    monkeypatch.setattr(dynamics, "MEMORY_BUDGET", np.nextafter(peak, 0))
    with pytest.raises(BasisError, match="budget"):
        register.evolve(sched, psi0, sample_dt=dt)
