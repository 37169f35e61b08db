"""Piecewise pulse-schedule evolution of collective state vectors.

Constant-amplitude segments are propagated exactly, one invariant block of
the generator at a time.  A pulse on a <-> b freezes every atom in any other
level and the dipole term only exchanges rr <-> p'p'', so the generator of
one event splits into blocks that never mix.  A ``Register``, which
``evolve`` takes in place of the static terms, labels them once per
transition from the entries of the static terms and of the transition's
collective operator, and adds each event's terms straight into the blocks'
flat stacks: no dense sum or copy of the generator is made.  A generator
without an off-diagonal entry is blocks of size 1, a phase factor
exp(-i h_jj t) per state; one below ``_BLOCK_MIN_DIM`` (the measured
crossover) is one block.  Blocks of one size share each numpy call: one
``eigh`` for Hermitian blocks, which evaluate their samples as one product,
``_CHUNK`` samples at a time, or, when the diagonal carries decay rates k as
-i k (the norm-loss decoherence model), ``scipy.linalg.expm`` of
-i (H - i k) per distinct step of the sample grid.  Sampled-envelope pulses
are integrated on their event's blocks by a fourth-order two-exponential
scheme on sub-intervals, doubled until the final state changes by less than
``_ENVELOPE_TOL``.

Times are in us, angular frequencies in rad/us, phases in rad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .hilbert import MEMORY_BUDGET, Basis, BasisError, collective_op, drive_generator

# envelope refinement stops once the final state moves less than this
_ENVELOPE_TOL = 1e-10
# copies of the largest flat generator a propagation holds beside its own
# decomposition: Hermitian (eigh's workspace included), decaying (expm keeps six)
HERMITIAN_COPIES = 9
_DECAYING_COPIES = 14
# samples a Hermitian block evaluates in one product
_CHUNK = 4096
# smallest dim whose coupled generators run block by block (measured crossover)
_BLOCK_MIN_DIM = 48


class StiffnessError(RuntimeError):
    """Integration missed its tolerance, went non-finite or rounded its
    result away."""


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
    states: np.ndarray = field(repr=False)      # (M, dim)

    def population(self, spec) -> np.ndarray:
        return self.populations[:, self.basis.state_index(spec)]


def wrap_phase(a: float) -> float:
    """Wrap an angle to (-pi, pi]; within 1e-9 of -pi it reads +pi."""
    out = (a + np.pi) % (2.0 * np.pi) - np.pi
    if out <= -np.pi + 1e-9:
        out = np.pi
    return float(out)


def _blocks(dim: int, ops):
    """Invariant blocks of a generator whose entries lie where the operators
    ``ops`` have theirs, and the blocks' flat layout: (blocks, start, pos, n).

    ``blocks`` holds one (count, size) array of state indices per block size,
    a block to a row, sizes ascending.  The flat stacks lay each size's
    (count, size, size) stack end to end, n entries in all: entry (i, j) of
    the generator lies at start[i] + pos[j].  A generator without an
    off-diagonal entry is dim blocks of size 1; one that couples states is
    one block below ``_BLOCK_MIN_DIM``.
    """
    if not any(np.count_nonzero(op.rows != op.cols) for op in ops):
        label = np.arange(dim)
    elif dim < _BLOCK_MIN_DIM:
        label = np.zeros(dim, np.intp)
    else:
        rows = np.concatenate([op.rows for op in ops])
        cols = np.concatenate([op.cols for op in ops])
        off = rows != cols
        # min-label propagation: hook each coupled pair's larger label to the
        # smaller, then point every state at the smallest index of its block
        rows, cols, label = rows[off], cols[off], np.arange(dim)
        while not np.array_equal(a := label[rows], b := label[cols]):
            low = np.minimum(a, b)
            np.minimum.at(label, a, low)
            np.minimum.at(label, b, low)
            while not np.array_equal(jump := label[label], label):
                label = jump
    size = np.bincount(label, minlength=dim)[label]
    order = np.lexsort((label, size))       # by block size, then block
    # each state's place in that order; its block's first state is its label
    place = np.empty(dim, np.intp)
    place[order] = np.arange(dim)
    # in that order each state opens size entries (a block of s holds s^2)
    ends = size[order].cumsum()
    start, pos = ends[place] - size, place - place[label]
    per, blocks, at = np.bincount(size), [], 0     # states per block size
    for s in per.nonzero()[0].tolist():
        blocks.append(order[at:(at := at + per[s])].reshape(-1, s))
    return blocks, start, pos, int(ends[-1])


def _propagate_constant(h, psi, dts, out, blocks, parts=None):
    """States at cumulative offsets dts (sorted, >= 0) under h = H - i k,
    written into the rows of ``out``, which is returned.

    ``blocks`` are h's invariant blocks as ``_blocks`` gives them, and h is
    their flat stacks: each block size's (count, size, size) stack in turn.
    Blocks of one size share each numpy call.  A block of size 1 is a phase
    factor.  A Hermitian block (a real diagonal) takes one eigendecomposition.
    A decaying one takes expm(-i (H - i k) span) per step; steps of the
    uniform sample grid that agree to 1e-12 (relative) share one exponential.

    ``parts``, when given, is a list of h's decompositions, one per block
    size: those it holds are used as they are (h is then not read and may
    be None), and those it lacks are made here and appended to it.
    """
    parts, end = [] if parts is None else parts, 0
    for i, idx in enumerate(blocks):
        at, end = end, end + idx.size * idx.shape[1]
        if i == len(parts):
            sub = h[at:end].reshape(*idx.shape, -1)     # (count, size, size)
            if sub.shape[-1] == 1:
                parts.append((sub[:, :, 0], None))
            elif sub.diagonal(axis1=1, axis2=2).imag.any():
                # the generator, its latest step and that step's exponential
                parts.append([-1j * sub, None, None])
            else:
                parts.append(np.linalg.eigh(sub))
        idx = None if idx.shape[1] == len(psi) else idx     # all states: views
        part, coef = parts[i], psi[idx]
        if isinstance(part, list):
            _propagate_decaying(part, coef, dts, out, idx)
            continue
        w, u = part
        if u is not None:
            coef = (u.conj().mT @ coef[..., None])[..., 0]
        for lo in range(0, len(dts), _CHUNK):
            # (samples, blocks, size); u None is the identity
            z = np.multiply.outer(dts[lo:lo + _CHUNK], -1j * w)
            np.exp(z, out=z)
            z *= coef
            if u is not None:
                z = (z.swapaxes(0, 1) @ u.mT).swapaxes(0, 1)
            out[lo:lo + _CHUNK, idx] = z
    return out


def _propagate_decaying(part, psi, dts, out, idx):
    """The decaying case of ``_propagate_constant`` for a stack of blocks
    (one block or many), indexed in ``out`` by ``idx``.

    ``part`` is [generator -i (H - i k), step, expm(generator step)]: the
    first row reuses that exponential when its step is exactly equal, and
    ``part`` keeps the last one this call used.
    """
    import scipy.linalg   # deferred: only decaying blocks need it

    psi = psi[..., None]
    for row, span in enumerate(np.diff(dts, prepend=0.0)):
        if span != part[1] if row == 0 else abs(span - part[1]) > 1e-12 * span:
            part[2] = None      # released before expm builds the next one
            part[1:] = span, scipy.linalg.expm(part[0] * span)
        psi = part[2] @ psi
        out[row, idx] = psi[..., 0]


class Register:
    """A basis and its static terms, held across ``evolve`` runs.

    For as long as it lives it keeps each transition's collective operator,
    invariant blocks and flat stacks' layout (entry (i, j) of a generator at
    start[i] + pos[j]), and per transition (None: the waits) the per-size
    decompositions of the latest generator it ran.  An event with the same
    transition, amplitude, phase and detuning reuses them; a decaying block
    reuses its exponential only for an exactly equal first step.  Every state
    is the one a fresh register gives, bit for bit.  Envelope pulses reuse
    nothing.
    """

    def __init__(self, basis: Basis, static_terms):
        self.basis, self.static_terms, self._decays = basis, list(static_terms), False
        for op in self.static_terms:
            if op.basis is not basis and op.basis != basis:
                raise ValueError("static term basis mismatch")
            self._decays = self._decays or bool(op.vals[op.rows == op.cols].imag.any())
        self._checked = False
        # transition -> (operator, blocks, start, pos, flat length)
        self._labels = {}
        # transition -> ((omega, phase, detuning), decompositions)
        self._kept = {}

    def __iter__(self):
        """The static terms: a register stands wherever a list of them does."""
        return iter(self.static_terms)

    def _label(self, tr):
        if tr not in self._labels:
            op = None if tr is None else collective_op(self.basis, *tr)
            self._labels[tr] = (op, *_blocks(self.basis.dim,
                                             self.static_terms + ([op] if tr else [])))
        return self._labels[tr]

    def _static(self, tr):
        """The static terms added into zeroed flat stacks of transition tr, in
        order; a register's first sum is checked: finite, and anti-Hermitian
        only on the diagonal, as -i k with decay rates k >= 0 (norm loss)."""
        _, _, start, pos, n = self._label(tr)
        h = np.zeros(n, dtype=complex)
        for op in self.static_terms:
            h[start[op.rows] + pos[op.cols]] += op.vals
        if not self._checked:
            if not np.isfinite(h).all():
                raise StiffnessError("static terms sum to a non-finite entry")
            for op in self.static_terms:    # nonzero entries sit where terms have theirs
                defect = abs(h[start[op.rows] + pos[op.cols]]
                             - h[start[op.cols] + pos[op.rows]].conj())
                if (defect[op.rows != op.cols] > 2e-12).any():
                    raise ValueError("non-diagonal anti-Hermitian static term")
            if (h[start + pos].imag > 1e-12).any():
                raise ValueError("decay rates must be non-negative")
            self._checked = True
        return h

    def evolve(self, schedule: Schedule, psi0: np.ndarray,
               sample_dt: float | None = None) -> EvolutionResult:
        """``evolve`` on this register's basis and static terms."""
        basis = self.basis
        psi0 = np.asarray(psi0, dtype=complex)
        if psi0.shape != (basis.dim,):
            raise ValueError(f"initial state shape {psi0.shape} is not ({basis.dim},)")
        if sample_dt is not None and not sample_dt >= 0:
            raise ValueError(f"sample_dt {sample_dt} is not >= 0")
        norm = np.linalg.norm(psi0)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"initial state norm {norm} is not 1 within 1e-9")
        dim, total_t = basis.dim, schedule.total_duration
        # steps of the grid (None and 0: none), then t = 0 and each event end;
        # a nan estimate reads as over
        steps = total_t / sample_dt if sample_dt else 0.0
        n = steps + 1 + len(schedule.events)
        # the transitions the events run, in order (None: the waits)
        runs = dict.fromkeys(getattr(ev, "transition", None) for ev in schedule.events
                             if ev.duration != 0.0)
        flat = {tr: self._label(tr)[4] for tr in [*runs, *self._kept]}
        # the largest generator's copies, each decomposition held or made, the samples
        need = (16.0 * (_DECAYING_COPIES if self._decays else HERMITIAN_COPIES)
                * max((flat[tr] for tr in runs), default=0)
                + 16.0 * (1 + self._decays) * sum(k + dim for k in flat.values())
                + n * (24.0 * dim + 40.0) + 32.0 * dim * min(n, _CHUNK))
        if not need <= MEMORY_BUDGET:
            raise BasisError(f"dim {dim} with {n:.3g} samples needs {need:.3g} B "
                             f"> budget {MEMORY_BUDGET:.3g} B")
        if not self._checked:       # check the static sum, in the first event's stacks
            self._static(next(iter(runs), None))

        # sample times: t = 0, then per event the grid points inside it (more
        # than 1e-12 of its end time from either boundary) and its end
        grid = np.arange(0.0, total_t + 0.5 * sample_dt, sample_dt) if steps else np.zeros(0)
        parts, events, t0 = [[0.0]], [], 0.0
        for i_ev, ev in enumerate(schedule.events):
            if ev.duration != 0.0:
                t1 = t0 + ev.duration
                inside = grid[np.searchsorted(grid, t0 + 1e-12 * t1, "right"):
                              np.searchsorted(grid, t1 - 1e-12 * t1)]
                parts += [inside, [t1]]
                events.append((i_ev, ev, t0, len(inside) + 1))
                t0 = t1
        times = np.concatenate(parts)
        del grid, parts

        states = np.empty((len(times), dim), dtype=complex)
        states[0] = psi = psi0
        row, h = 1, None    # h: the event's new generator, if it builds one
        # an overflow surfaces as the non-finite state checked per event
        with np.errstate(over="ignore", invalid="ignore"):
            for i_ev, ev, t0, m in events:
                # the event ends at its own duration ((t0 + d) - t0 is 0 below ulp(t0))
                out, dts = states[row:row + m], times[row:row + m] - t0
                dts[-1] = ev.duration
                row += m
                wait = isinstance(ev, Wait)
                tr = None if wait else ev.transition
                op, blocks, start, pos, _ = self._label(tr)
                envelope = not wait and isinstance(ev.omega, SampledEnvelope)
                key = None if wait or envelope else (ev.omega, ev.phase, ev.detuning)
                held = self._kept.pop(tr, None)
                if envelope or held is None or held[0] != key:
                    held = None     # released before the next decomposition
                    h = self._static(tr)
                    if not wait:
                        # H(amp) = static + detuning n_to + amp (up + up^dagger);
                        # an envelope keeps its unit drive (amp = 1) beside h
                        up = drive_generator(op, ev.phase)
                        if ev.detuning != 0.0:
                            h[start + pos] += ev.detuning * basis.occupations(tr[1])
                        unit, amp = (np.zeros_like(h), 1.0) if envelope else (h, ev.omega)
                        unit[start[op.rows] + pos[op.cols]] += amp * up
                        unit[start[op.cols] + pos[op.rows]] += amp * up.conj()
                    if envelope:
                        _propagate_envelope(h, unit, ev, psi, dts, out, i_ev, blocks)
                    held = None if envelope else (key, [])
                if held is not None:
                    _propagate_constant(h, psi, dts, out, blocks, held[1])
                    self._kept[tr] = held
                h = unit = None
                psi = out[-1]
                if not np.isfinite(psi).all():
                    raise StiffnessError(f"event {i_ev} left a non-finite state")

        populations = np.abs(states)
        populations **= 2
        return EvolutionResult(basis=basis, times=times, populations=populations,
                               norm2=populations.sum(axis=1), initial_state=psi0,
                               final_state=psi, states=states)


def evolve(schedule: Schedule, basis: Basis, static_terms, psi0: np.ndarray,
           sample_dt: float | None = None) -> EvolutionResult:
    """Evolve psi0 through the schedule and sample the trajectory.

    static_terms (dipole coupling, dephasing) act during every event; each
    Pulse adds its drive term.  Samples are taken at t=0, at multiples of
    sample_dt when it is > 0 (< 0 or NaN raises ValueError, as does a psi0
    not of shape (dim,)), and at every event boundary; each event runs over
    its own duration from its start.  Deterministic for fixed inputs.
    static_terms may be a ``Register`` on basis, which the run then uses
    and updates; a list of terms runs on a fresh register.  Callers that
    run several schedules or inputs under one set of terms hold one.

    Before anything is allocated the run's memory is estimated from the
    blocks of each transition the schedule drives (and of its waits), whose
    flat stacks hold n = sum of count x size^2 entries (dim^2 for one
    block): 16 B per entry of each copy of the largest such stack that a
    propagation holds at once (HERMITIAN_COPIES, or _DECAYING_COPIES when a
    static term decays); 16 B x (n + dim) for each decomposition the
    register holds or makes (w and u), twice when a static term decays (a
    generator and one exponential); per sample 24 B per basis state (state
    and populations) plus 40 B (times, norms, grid); and 32 B per basis state
    for each of the (up to ``_CHUNK``) samples one product evaluates (its two
    temporaries).  An estimate over MEMORY_BUDGET raises BasisError, and an
    event that leaves a non-finite state StiffnessError.
    """
    if not isinstance(static_terms, Register):
        static_terms = Register(basis, static_terms)
    elif static_terms.basis is not basis and static_terms.basis != basis:
        raise ValueError("register basis mismatch")
    return static_terms.evolve(schedule, psi0, sample_dt)


def _propagate_envelope(base, unit, pulse, psi, dts, out, i_ev, blocks):
    """Adaptive sub-segmentation of a sampled-envelope pulse, writing the
    states at offsets dts into the rows of ``out``; every half-step runs on
    the event's invariant ``blocks``.

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
        bounds = np.unique(np.concatenate(
            [np.linspace(0.0, pulse.duration, n_sub + 1), env.times, dts]))
        cur, want = psi, 0
        for a, b in zip(bounds[:-1], bounds[1:]):
            h = b - a
            amp1, amp2 = float(env(a + node1 * h)), float(env(a + node2 * h))
            for w1, w2 in ((wb, wa), (wa, wb)):
                drive = 2.0 * (w1 * amp1 + w2 * amp2)
                cur = _propagate_constant(base + drive * unit, cur, [0.5 * h],
                                          np.empty((1, len(psi)), dtype=complex),
                                          blocks)[0]
            while want < len(dts) and abs(b - dts[want]) < 1e-12 * pulse.duration:
                out[want] = cur
                want += 1
        return out[-1].copy()

    n_sub = max(8, len(env.times) - 1)
    prev = run(n_sub)
    for _ in range(12):
        n_sub *= 2
        nxt = run(n_sub)
        if np.linalg.norm(nxt - prev) <= _ENVELOPE_TOL * max(1.0, np.linalg.norm(nxt)):
            return
        prev = nxt
    raise StiffnessError(f"envelope pulse (event {i_ev}) did not reach "
                         f"tol={_ENVELOPE_TOL} within {n_sub} sub-steps")


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
