"""Independent reference implementations used as test oracles.

Kept deliberately simple: a fixed-step RK4 integrator (no eigendecomposition,
no matrix exponential), one mpmath matrix exponential per event at 40
digits, the closed-form resonant/detuned two-level propagator
and its decaying counterpart, the exact distance distribution of two
uniform points in a box by deterministic quadrature (no sampling, no package
geometry code), a listing of a basis's states read from its codes, and a
state-by-state recount of basis occupations.
"""

from itertools import product

import mpmath
import numpy as np

from blockadesim.dynamics import SampledEnvelope, Wait
from blockadesim.hilbert import drive_term


def _dense_static(basis, static_terms):
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    for op in static_terms:
        h = h + op.dense()
    return h


def rk4_evolve(schedule, basis, static_terms, psi0, steps_per_unit=1000.0):
    """Fixed-step RK4 for psi' = -i H_eff(t) psi.

    steps_per_unit is multiplied by the largest absolute row sum of H_eff
    to fix the step count of each segment; at the default the error stays
    well below the 1e-8 to 1e-9 tolerances of the tests that use it.
    """
    h_static = _dense_static(basis, static_terms)
    psi = np.asarray(psi0, dtype=complex).copy()
    for ev in schedule.events:
        if ev.duration == 0.0:
            continue
        if isinstance(ev, Wait):
            def h_of(t):
                return h_static
            scale = max(np.abs(h_static).sum(axis=1).max(), 1e-12)
        else:
            frm, to = ev.transition
            unit = drive_term(basis, frm, to, 1.0, phase=ev.phase).dense()
            det = (
                drive_term(basis, frm, to, 0.0, detuning=ev.detuning).dense()
                if ev.detuning
                else 0.0
            )
            env = ev.omega

            if isinstance(env, SampledEnvelope):
                def h_of(t, unit=unit, det=det, env=env):
                    return h_static + det + float(env(t)) * unit
                peak = max(env.values)
            else:
                def h_of(t, unit=unit, det=det, env=env):
                    return h_static + det + env * unit
                peak = env
            scale = max(
                np.abs(h_static + det + peak * unit).sum(axis=1).max(), 1e-12
            )
        n_steps = max(10, int(np.ceil(ev.duration * scale * steps_per_unit)))
        dt = ev.duration / n_steps
        t = 0.0
        for _ in range(n_steps):
            k1 = -1j * (h_of(t) @ psi)
            k2 = -1j * (h_of(t + dt / 2) @ (psi + 0.5 * dt * k1))
            k3 = -1j * (h_of(t + dt / 2) @ (psi + 0.5 * dt * k2))
            k4 = -1j * (h_of(t + dt) @ (psi + dt * k3))
            psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
    return psi


def mpmath_evolve(schedule, basis, static_terms, psi0):
    """Final state of a schedule of constant pulses and waits: each event
    applies mpmath.expm(-i H duration) of its dense generator, computed at
    40 significant digits from the float64 entries, and the result is
    rounded to complex128 once at the end."""
    h_static = _dense_static(basis, static_terms)
    with mpmath.workdps(40):
        psi = mpmath.matrix(np.asarray(psi0, dtype=complex).tolist())
        for ev in schedule.events:
            h = h_static
            if not isinstance(ev, Wait):
                h = h + drive_term(basis, *ev.transition, ev.omega, phase=ev.phase,
                                   detuning=ev.detuning).dense()
            psi = mpmath.expm(mpmath.matrix(h.tolist()) * (-1j * ev.duration)) * psi
        return np.array(psi.tolist(), dtype=complex).ravel()


_RYDBERG = {"r", "r+", "r-", "p'", "p''"}


def listed_states(basis):
    """Every state of ``basis`` in order, as a tuple read from its codes: its
    occupations aligned with basis.levels (symmetric), or its per-atom level
    names (pair-resolved)."""
    if basis.mode == "symmetric":
        return [tuple(row) for row in basis.codes.tolist()]
    return [tuple(basis.atom_levels[c] for c in row) for row in basis.codes.tolist()]


def recount(basis, state):
    """({level: occupation}, excitations, interacting-manifold quanta) of a
    state of ``basis``, counted from the state itself by plain loops.

    A symmetric state is a tuple of occupations aligned with basis.levels,
    where a pair quasi-mode "P[...]" holds two atoms; a pair-resolved state
    is a tuple of per-atom level names.  The ground occupation is included.
    """
    occ, excitations, rydberg = {}, 0, 0
    if basis.mode == "symmetric":
        for level, n in zip(basis.levels, state):
            weight = 2 if level.startswith("P[") else 1
            occ[level] = n
            excitations += weight * n
            if level in _RYDBERG or level.startswith("P["):
                rydberg += weight * n
        occ["g"] = basis.n_atoms - excitations
    else:
        for level in basis.levels + ("g",):
            occ[level] = 0
        for level in state:
            occ[level] += 1
            if level != "g":
                excitations += 1
            if level in _RYDBERG:
                rydberg += 1
    return occ, excitations, rydberg


def expected_states(basis, n_max, ryd_max):
    """Every state over basis.levels within the caps (at most n_max
    excitations, one pair quantum and ryd_max interacting quanta), ordered
    by excitation number, then state."""
    if basis.mode == "symmetric":
        candidates = product(range(n_max + 1), repeat=len(basis.levels))
    else:
        candidates = product(("g",) + basis.levels, repeat=basis.n_atoms)
    kept = []
    for state in candidates:
        occ, excitations, rydberg = recount(basis, state)
        pairs = sum(n for level, n in occ.items() if level.startswith("P["))
        if excitations <= n_max and pairs <= 1 and (
                ryd_max is None or rydberg <= ryd_max):
            kept.append((excitations, state))
    return [state for _, state in sorted(kept)]


def two_level_propagator(omega, delta, t):
    """Closed-form exp(-i H t) for H = [[0, w/2], [w/2, delta]]."""
    w_gen = np.sqrt(omega**2 + delta**2)
    half = 0.5 * w_gen * t
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    if w_gen == 0.0:
        return eye
    axis = (omega * sx - delta * sz) / w_gen
    return np.exp(-0.5j * delta * t) * (
        np.cos(half) * eye - 1j * np.sin(half) * axis
    )


def decaying_two_level_propagator(omega, gamma, t, phase=0.0):
    """Closed-form exp(-i H t) for one driven atom whose upper level decays.

    H = [[0, w e^{-i phase}/2], [w e^{i phase}/2, -i gamma/2]] in the (g, r)
    basis, so |r> loses population at rate gamma.  By Cayley-Hamilton,
    exp(A) = c0 I + c1 A for A = -i H t, with c0 and c1 fixed by the two
    eigenvalues of A (roots of l^2 - tr l + det); the larger root is taken
    first and the other from det / l1, so that neither loses digits when
    gamma >> w.
    """
    half = 0.5 * omega
    h = np.array([[0.0, half * np.exp(-1j * phase)],
                  [half * np.exp(1j * phase), -0.5j * gamma]])
    a = -1j * t * h
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    if (np.conj(tr) * disc).real < 0:
        disc = -disc
    l1 = 0.5 * (tr + disc)
    l2 = det / l1 if l1 != 0 else l1
    e1, e2 = np.exp(l1), np.exp(l2)
    if l1 == l2:
        c1, c0 = e1, e1 * (1.0 - l1)
    else:
        c1 = (e1 - e2) / (l1 - l2)
        c0 = (l1 * e2 - l2 * e1) / (l1 - l2)
    return c0 * np.eye(2) + c1 * a


# Distances evaluated per vectorized block: bounds the (block, panel, node)
# temporaries of box_distance_cdf to a few MB.
_CHUNK = 4096


def _gauss_legendre(lo, hi, order):
    """Nodes and weights of order-point Gauss-Legendre rules on [lo, hi].

    lo and hi broadcast; the rule axis is appended last.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def rectangle_distance_pdf(rho, lx, ly):
    """Density of the distance between two uniform points in an lx x ly box.

    Each coordinate difference |d| has the triangular density 2(L - u)/L^2
    on [0, L]; in polar coordinates the angular integral of the product is
    elementary.  Allowed angles are those with rho cos(phi) <= lx and
    rho sin(phi) <= ly.
    """
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        lo = np.arccos(np.minimum(1.0, lx / rho))
        hi = np.arcsin(np.minimum(1.0, ly / rho))

    def antiderivative(phi):
        return (lx * ly * phi + lx * rho * np.cos(phi)
                - ly * rho * np.sin(phi) + 0.5 * rho**2 * np.sin(phi) ** 2)

    out = 4.0 * rho / (lx * ly) ** 2 * (antiderivative(hi) - antiderivative(lo))
    return np.where((rho > 0) & (hi > lo), out, 0.0)


def box_distance_cdf(s, box, order=32):
    """P(r <= s) for the distance r of two independent uniform points in a box.

    F(s) = int_0^min(s, D) h(rho) G(sqrt(s^2 - rho^2)) d rho, with h the
    in-plane distance density of the (x, y) rectangle, D its diagonal and
    G(a) = 1 - (1 - min(a, lz)/lz)^2 the distribution of |dz|.  The
    substitution rho = s sin(theta) removes the square-root endpoint, and
    Gauss-Legendre panels split at every kink of the integrand (rho = lx,
    rho = ly, s cos(theta) = lz) give F to ~1e-8 at order 32 and ~1e-9 at
    order 48.  Any box aspect.
    """
    lx, ly, lz = (float(b) for b in box)
    diag = np.hypot(lx, ly)
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    out = np.empty_like(flat)
    for start in range(0, len(flat), _CHUNK):
        sc = np.maximum(flat[start:start + _CHUNK], 1e-300)[:, None]
        top = np.arcsin(np.minimum(1.0, diag / sc))
        kinks = np.concatenate(
            [
                np.zeros_like(sc),
                np.arcsin(np.minimum(1.0, lx / sc)),
                np.arcsin(np.minimum(1.0, ly / sc)),
                np.arccos(np.minimum(1.0, lz / sc)),
                top,
            ],
            axis=1,
        )
        breaks = np.sort(np.minimum(kinks, top), axis=1)
        theta, w = _gauss_legendre(breaks[:, :-1], breaks[:, 1:], order)
        sc = sc[:, :, None]
        a = np.minimum(sc * np.cos(theta), lz) / lz
        g = 1.0 - (1.0 - a) ** 2
        integrand = (rectangle_distance_pdf(sc * np.sin(theta), lx, ly)
                     * g * sc * np.cos(theta))
        out[start:start + _CHUNK] = (integrand * w).sum(axis=(1, 2))
    out = np.where(flat <= 0, 0.0, np.minimum(out, 1.0))
    return out.reshape(s.shape)


def box_distance_moment(box, power, order=48):
    """E[r^power] of the two-point distance, from the exact cdf.

    E[r^p] = int_0^R p s^(p-1) (1 - F(s)) ds over panels split at every
    partial diagonal of the box, where F has kinks.
    """
    lengths = np.asarray(box, dtype=float)
    corners = {
        float(np.sqrt((lengths**2 * np.array(m)).sum()))
        for m in np.ndindex(2, 2, 2)
    }
    breaks = np.array(sorted(corners))
    s, w = _gauss_legendre(breaks[:-1], breaks[1:], order)
    tail = 1.0 - box_distance_cdf(s, box, order=order)
    return float((power * s ** (power - 1) * tail * w).sum())


def box_splitting_cdf(x, box):
    """P(V / r^3 <= x) for two uniform points in a box of volume V.

    x = V / r^3 is the normalized pair splitting kappa / kappa_bar of a
    two-atom configuration (c3 cancels), so P(x' <= x) = 1 - F((V/x)^(1/3)).
    """
    vol = float(np.prod(box))
    x = np.asarray(x, dtype=float)
    return 1.0 - box_distance_cdf(np.cbrt(vol / x), box)


def window_ks(samples, cdf, window):
    """KS distance of samples against cdf, both renormalized to the window.

    Samples outside the window are dropped; the reference becomes
    (F(x) - F(lo)) / (F(hi) - F(lo)).
    """
    lo, hi = window
    xs = np.sort(samples[(samples >= lo) & (samples <= hi)])
    f_lo, f_hi = cdf(np.array([lo, hi]))
    ref = (cdf(xs) - f_lo) / (f_hi - f_lo)
    n = len(xs)
    return float(max(np.abs(np.arange(1, n + 1) / n - ref).max(),
                     np.abs(np.arange(0, n) / n - ref).max()))
