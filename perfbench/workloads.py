"""Op lists of the workloads, their correctness checks and references.

An op is one call into blockadesim's public API: mostly
``blockadesim.cli.main(argv)`` with a fresh ``--out-dir``, otherwise a direct
``dynamics.evolve`` or ``geometry.splitting_distribution`` call.  The seed
varies only inputs that leave the amount of work unchanged (superposition
amplitudes, drive phases, sampling seeds); sizes and stiffness are fixed.

Every op carries an independent check:

* hermitian CLI ops: their summary checks, leaving out the acceptance-band
  checks that fail by design (closed-form estimates, not the simulation);
* decaying ops: reported populations, norms, phases and fidelities against an
  exact ``scipy.linalg.expm`` propagation of the same generator, to 1e-8;
* envelope ops: final state against a ``solve_ivp`` (DOP853) integration;
* splitting: the exact box moment E[r^2] = (Lx^2 + Ly^2 + Lz^2) / 6 and
  histogram bookkeeping;
* rejected configs: exit 2 and nothing written.

Probes are ops whose correct outcome the program does not reach today (known
defects).  They run in every timed pass like the other ops; their outcome is
reported in ``ok_frac`` and in the details line, not in the result's
``failed`` count.  Their latencies count in the timing metrics like any
other op's, except for an op marked untimed: one that runs until its deadline
while its defect lasts, so that its latency measures the deadline.  An
untimed op gets the short ``HANG_DEADLINE_S``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from math import pi, sqrt
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from blockadesim import cli, geometry, hilbert, protocols, units
from blockadesim.dynamics import Pulse, SampledEnvelope, Schedule, evolve

WORKLOADS = ("protocols", "splitting")

OP_DEADLINE_S = 10.0      # every timed op; the slowest takes ~1 s
# an untimed op must finish well inside this once fixed (rabi takes ~5 ms);
# short, since it is spent in every pass while the defect lasts
HANG_DEADLINE_S = 0.1
REF_TOL = 1e-8

SUMMARY_CHECKS = {
    "rabi": ("collective_enhancement_1pct",),
    "fock": ("fidelity_above_0.999",),
    "superpose": ("fidelity_above_1e-6", "roundtrip_above_1e-8"),
    "gate": ("phases_within_1e-2",),
    # prefactor_within_3x_closed_form fails by design (acceptance criteria 2/4)
    "error-budget": ("slope_minus2_within_0.1",),
    "oracle-check": ("agreement_1e-8",),
}

GATE_INPUTS = {"g": {}, "q+": {"q+": 1}, "q-": {"q-": 1}, "q+q-": {"q+": 1, "q-": 1}}


@dataclass(frozen=True)
class Op:
    name: str
    kind: str                 # "cli", "envelope" or "split-all"
    args: tuple = ()          # cli argv without --out-dir, or API parameters
    check: str = "summary"    # key into CHECKS
    expect_rc: int = 0
    probe: bool = False       # known defect, see module docstring
    timed: bool = True        # False: runs until its deadline today
    files: tuple = ()         # (name, text) written to the scratch dir "{tmp}"

    @property
    def deadline_s(self) -> float:
        return OP_DEADLINE_S if self.timed else HANG_DEADLINE_S


def build_ops(workload: str, seed: int) -> tuple[Op, ...]:
    """The fixed op list of a workload; a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    cli_seed = str(int(rng.integers(0, 2**31)))
    if workload == "protocols":
        mags = rng.uniform(0.3, 1.0, 4)
        phases = rng.uniform(-pi, pi, 4)
        amps = ",".join(
            f"{m * np.cos(p):.6f}{m * np.sin(p):+.6f}j" for m, p in zip(mags, phases)
        )
        env_phase = float(rng.uniform(-pi, pi))
        decay = ("--gamma-r", "0.01")
        quarter = ("--periods", "0.25")
        return (
            Op("rabi", "cli", ("rabi",)),
            Op("rabi-k100", "cli", ("rabi", "--kappa-bar", "100")),
            Op("fock-3", "cli", ("fock", "--n-target", "3")),
            Op("fock-6", "cli", ("fock", "--n-target", "6")),
            Op("fock-9", "cli", ("fock", "--n-target", "9")),
            Op("superpose", "cli", ("superpose", f"--amplitudes={amps}")),
            Op("gate-ideal", "cli", ("gate",)),
            Op("gate-k100", "cli", ("gate", "--kappa-bar", "100")),
            Op("error-budget", "cli", ("error-budget", "--seed", cli_seed)),
            Op("oracle-n3", "cli", ("oracle-check",)),
            Op("envelope", "envelope",
               (("kappa_bar", "ideal"), ("gamma_r", 0.0), ("phase", env_phase)),
               check="envelope"),
            Op("reject-n-target", "cli",
               ("fock", "--n-atoms", "4", "--n-target", "5"),
               check="rejected", expect_rc=2),
            Op("probe-window-strings", "cli",
               ("splitting-stats", "--config", "{tmp}/window.json"),
               check="rejected", expect_rc=2, probe=True,
               files=(("window.json",
                       json.dumps({"params": {"window": ["a", "b"], "configs": 100}})),)),
            Op("probe-toplevel-list", "cli",
               ("rabi", "--config", "{tmp}/list.json"),
               check="rejected", expect_rc=2, probe=True,
               files=(("list.json", "[1, 2]"),)),
            Op("probe-c3-inf", "cli",
               ("splitting-stats", "--c3", "inf", "--configs", "200",
                "--seed", cli_seed),
               check="rejected", expect_rc=2, probe=True),
            # decaying propagation (gamma_r > 0): a kappa_bar ladder over a
            # quarter Rabi period, a gate and a fock ladder, each short
            Op("decay-rabi-k10", "cli",
               ("rabi", "--kappa-bar", "10") + quarter + decay, check="decay-rabi"),
            Op("decay-rabi-k100", "cli",
               ("rabi", "--kappa-bar", "100") + quarter + decay, check="decay-rabi"),
            Op("decay-gate-k100", "cli",
               ("gate", "--kappa-bar", "100", "--omega-plus", "40",
                "--omega-minus", "40") + decay,
               check="decay-gate"),
            Op("decay-fock-3-k10", "cli",
               ("fock", "--n-target", "3", "--kappa-bar", "10") + decay,
               check="decay-fock"),
            # the split-step integrator misses the exact propagation here by
            # ~5e-8 (> 1e-8) on the sampled populations
            Op("probe-decay-fock-6-accuracy", "cli",
               ("fock", "--n-target", "6") + decay, check="decay-fock", probe=True),
            Op("probe-rabi-gamma-1e6", "cli", ("rabi", "--gamma-r", "1e6"),
               check="decay-rabi", probe=True, timed=False),
        )
    # 5000 configurations keep each op near 0.1 s (>= 30 samples a run);
    # the work and memory still scale with configs x atoms^2
    return (
        Op("split-default", "cli",
           ("splitting-stats", "--configs", "5000", "--seed", cli_seed),
           check="splitting"),
        Op("split-min16", "cli",
           ("splitting-stats", "--configs", "5000", "--atoms", "16",
            "--seed", cli_seed),
           check="splitting"),
        Op("split-all16", "split-all",
           (("configs", 5000), ("atoms", 16), ("seed", int(cli_seed))),
           check="moment"),
    )


# ---------------------------------------------------------------------------
# API ops
# ---------------------------------------------------------------------------

def envelope_case(params: dict):
    """(basis, static terms, pulse, psi0) of the sampled-envelope op: a
    sin^2 pi pulse g -> r on a 10-atom register, 9 envelope samples."""
    n = 10
    basis, static = protocols.register_basis(
        n, n_max=2, blockade=params["kappa_bar"], gamma_r=params["gamma_r"]
    )
    duration = pi / sqrt(n)
    times = np.linspace(0.0, duration, 9)
    values = 2.0 * np.sin(pi * times / duration) ** 2
    env = SampledEnvelope(tuple(times.tolist()), tuple(values.tolist()))
    pulse = Pulse(("g", "r"), env, duration, phase=params["phase"])
    return basis, static, pulse, basis.basis_vector({})


def run_api(op: Op):
    """Execute an API op and return what its check needs."""
    params = dict(op.args)
    if op.kind == "envelope":
        basis, static, pulse, psi0 = envelope_case(params)
        return evolve(Schedule((pulse,)), basis, static, psi0)
    if op.kind == "split-all":
        hist = geometry.splitting_distribution(
            n_configs=params["configs"], n_atoms=params["atoms"],
            box=(10.0, 10.0, 10.0), c3=1000.0, seed=params["seed"],
            statistic="all-pairs", bins=60,
        )
        return hist, geometry.splitting_ks(hist.samples, window=(0.2, 20.0))
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# exact references (computed once per run, outside the timed passes)
# ---------------------------------------------------------------------------

def _resolved(argv) -> dict:
    parser = cli.build_parser()
    return cli.resolve_config(parser.parse_args(list(argv)))["params"]


def _blockade(value):
    return value if value in ("ideal", "off") else units.parse_frequency(value)


def _generator(basis, static, pulse=None) -> np.ndarray:
    """Dense non-Hermitian generator H - i k of one event."""
    g = np.zeros((basis.dim, basis.dim), dtype=complex)
    for term in static:
        g += term.dense()
    if pulse is not None:
        frm, to = pulse.transition
        g += hilbert.drive_term(
            basis, frm, to, pulse.omega, phase=pulse.phase, detuning=pulse.detuning
        ).dense()
    return g


def _sample_times(schedule: Schedule, sample_dt: float | None) -> np.ndarray:
    """t = 0, multiples of sample_dt and every event boundary (evolve's
    documented sampling contract)."""
    total = schedule.total_duration
    pts = [0.0] + np.cumsum([ev.duration for ev in schedule.events]).tolist()
    if sample_dt:
        pts += np.arange(0.0, total + 0.5 * sample_dt, sample_dt).tolist()
    pts = np.sort(np.asarray(pts))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * max(1.0, total)])
    return pts[keep & (pts <= total * (1 + 1e-12))]


def _expm_trajectory(basis, static, schedule, psi0, times) -> np.ndarray:
    """States at the given times, which include every event boundary, stepping
    exactly with expm between consecutive times."""
    ends = np.cumsum([ev.duration for ev in schedule.events])
    gens = [_generator(basis, static, ev) for ev in schedule.events]
    out = [psi0]
    for a, b in zip(times[:-1], times[1:]):
        i_ev = min(int(np.searchsorted(ends, 0.5 * (a + b))), len(gens) - 1)
        out.append(scipy.linalg.expm(-1j * gens[i_ev] * (b - a)) @ out[-1])
    return np.array(out)


def _rabi_reference(argv):
    p = _resolved(argv)
    n, omega = p["n_atoms"], units.parse_frequency(p["omega"])
    basis, static = protocols.register_basis(
        n, n_max=p["n_max"], blockade=_blockade(p["kappa_bar"]),
        convention=p["convention"], gamma_r=units.parse_frequency(p["gamma_r"]),
    )
    period = 2.0 * pi / (sqrt(n) * omega)
    sched = Schedule((Pulse(("g", "r"), omega, p["periods"] * period),))
    times = _sample_times(sched, period / p["samples_per_period"])
    states = _expm_trajectory(basis, static, sched, basis.basis_vector({}), times)
    pops = np.abs(states) ** 2
    p_g = pops[:, basis.state_index({})]
    p_r = pops[:, basis.state_index({"r": 1})]
    norm2 = pops.sum(axis=1)
    table = np.column_stack([times, p_g, p_r, norm2 - p_g - p_r, norm2])
    return {"table": table, "scalars": {"final_norm2": norm2[-1]}}


def _fock_reference(argv):
    p = _resolved(argv)
    n, n_target = p["n_atoms"], p["n_target"]
    omega, omega_q = units.parse_frequency(p["omega"]), units.parse_frequency(p["omega_q"])
    n_max = p["n_max"] if p["n_max"] is not None else min(n, n_target + 1)
    basis, static = protocols.register_basis(
        n, n_max=n_max, blockade=_blockade(p["kappa_bar"]),
        convention=p["convention"], gamma_r=units.parse_frequency(p["gamma_r"]),
    )
    sched = protocols.fock_ladder(n, n_target, omega, omega_q,
                                  pulse_duration=p["pulse_duration"])
    times = _sample_times(sched, min(ev.duration for ev in sched.events) / 8.0)
    states = _expm_trajectory(basis, static, sched, basis.basis_vector({}), times)
    pops = np.abs(states) ** 2
    q_pops = [pops[:, basis.state_index({"q": m})] for m in range(n_target + 1)]
    norm2 = pops.sum(axis=1)
    table = np.column_stack([times, *q_pops, norm2 - sum(q_pops), norm2])
    target = basis.basis_vector({"q": n_target})
    fid = abs(np.vdot(target, states[-1])) ** 2
    return {"table": table, "scalars": {"fidelity": fid}}


def _gate_reference(argv):
    p = _resolved(argv)
    basis, static = protocols.register_basis(
        p["n_atoms"], n_max=2, blockade=_blockade(p["kappa_bar"]),
        convention=p["convention"], gamma_r=units.parse_frequency(p["gamma_r"]),
        gate=True,
    )
    sched = protocols.phase_gate_schedule(
        units.parse_frequency(p["omega_minus"]), units.parse_frequency(p["omega_plus"])
    )
    times = _sample_times(sched, None)
    phases, fids = {}, {}
    for name, occ in GATE_INPUTS.items():
        psi0 = basis.basis_vector(occ)
        final = _expm_trajectory(basis, static, sched, psi0, times)[-1]
        i = basis.state_index(occ)
        phases[name] = float(np.angle(final[i] / psi0[i]))
        fids[name] = abs(np.vdot(psi0, final)) ** 2
    return {"phases": phases, "fidelities": fids}


def _envelope_reference(params):
    basis, static, pulse, psi0 = envelope_case(dict(params))
    frm, to = pulse.transition
    g0 = _generator(basis, static)
    unit = hilbert.drive_term(basis, frm, to, 1.0, phase=pulse.phase).dense()
    env = pulse.omega
    psi = psi0
    # integrate each linear piece of the envelope separately (kinks at samples)
    for a, b in zip(env.times[:-1], env.times[1:]):
        sol = solve_ivp(
            lambda t, y: -1j * ((g0 + env(t) * unit) @ y), (a, b), psi,
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        psi = sol.y[:, -1]
    return {"final_state": psi}


def build_references(ops) -> dict:
    """Reference data per op name for the checks that need one."""
    makers = {
        "decay-rabi": _rabi_reference,
        "decay-fock": _fock_reference,
        "decay-gate": _gate_reference,
        "envelope": _envelope_reference,
        "splitting": _resolved,
    }
    return {op.name: makers[op.check](op.args) for op in ops if op.check in makers}


# ---------------------------------------------------------------------------
# checks: each returns None when the output is correct, else a message
# ---------------------------------------------------------------------------

def _summary(out_dir: Path, experiment: str) -> dict:
    path = out_dir / f"{experiment.replace('-', '_')}_summary.json"
    return json.loads(path.read_text())


def _csv(out_dir: Path, name: str) -> np.ndarray:
    with open(out_dir / name, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float)


def _compare_table(got: np.ndarray, want: np.ndarray) -> str | None:
    if got.shape != want.shape:
        return f"table shape {got.shape} != reference {want.shape}"
    dev = np.abs(got - want).max()
    return None if dev <= REF_TOL else f"table deviates from expm by {dev:.3g}"


def _check_summary(op, out_dir, result, ref):
    exp = op.args[0]
    checks = _summary(out_dir, exp)["checks"]
    bad = [k for k in SUMMARY_CHECKS[exp] if checks.get(k) is not True]
    return f"summary checks false: {bad}" if bad else None


def _check_rejected(op, out_dir, result, ref):
    written = sorted(p.name for p in out_dir.iterdir())
    return f"rejected config wrote {written}" if written else None


def _check_decay_rabi(op, out_dir, result, ref):
    msg = _compare_table(_csv(out_dir, "rabi.csv"), ref["table"])
    got = _summary(out_dir, "rabi")["results"]["final_norm2"]
    if msg is None and abs(got - ref["scalars"]["final_norm2"]) > REF_TOL:
        msg = f"final_norm2 {got} != expm {ref['scalars']['final_norm2']}"
    return msg


def _check_decay_fock(op, out_dir, result, ref):
    msg = _compare_table(_csv(out_dir, "fock.csv"), ref["table"])
    got = _summary(out_dir, "fock")["results"]["fidelity"]
    if msg is None and abs(got - ref["scalars"]["fidelity"]) > REF_TOL:
        msg = f"fidelity {got} != expm {ref['scalars']['fidelity']}"
    return msg


def _check_decay_gate(op, out_dir, result, ref):
    res = _summary(out_dir, "gate")["results"]
    for name in GATE_INPUTS:
        dphi = np.angle(np.exp(1j * (res["phases"][name] - ref["phases"][name])))
        dfid = res["fidelities"][name] - ref["fidelities"][name]
        if abs(dphi) > REF_TOL or abs(dfid) > REF_TOL:
            return f"input {name}: phase off by {dphi:.3g}, fidelity by {dfid:.3g}"
    return None


def _check_envelope(op, out_dir, result, ref):
    dev = np.linalg.norm(result.final_state - ref["final_state"])
    if dev > REF_TOL:
        return f"final state deviates from DOP853 by {dev:.3g}"
    if abs(result.norm2[-1] - np.linalg.norm(result.final_state) ** 2) > 1e-12:
        return "norm2 inconsistent with the final state"
    return None


def _check_splitting(op, out_dir, result, p):
    res = _summary(out_dir, "splitting-stats")["results"]
    table = _csv(out_dir, "splitting_stats.csv")
    counts, dens = table[:, 2], table[:, 3]
    widths = table[:, 1] - table[:, 0]
    if res["n_samples"] != p["configs"]:
        return f"n_samples {res['n_samples']} != configs {p['configs']}"
    if len(table) != p["bins"] or counts.sum() != res["in_window"]:
        return "histogram rows or counts inconsistent with the summary"
    if not 0 < res["in_window"] <= res["n_samples"]:
        return f"in_window {res['in_window']} out of range"
    if abs((dens * widths).sum() - 1.0) > 1e-9:
        return "histogram density does not integrate to 1"
    if abs(res["kappa_bar"] - p["c3"] / np.prod(p["box"])) > 1e-12:
        return "kappa_bar != c3 / V"
    if not 0.0 <= res["ks_distance"] <= 1.0:
        return f"ks_distance {res['ks_distance']} out of [0, 1]"
    return None


def _check_moment(op, out_dir, result, ref):
    """Pair distances of uniform points in a box: E[r^2] = sum(L^2) / 6."""
    hist, ks = result
    params = dict(op.args)
    n_pairs = params["atoms"] * (params["atoms"] - 1) // 2
    box = np.array([10.0, 10.0, 10.0])
    if hist.samples.shape != (params["configs"] * n_pairs,):
        return f"sample shape {hist.samples.shape}"
    r2 = (np.prod(box) / hist.samples) ** (2.0 / 3.0)
    per_config = r2.reshape(params["configs"], n_pairs).mean(axis=1)
    exact = (box**2).sum() / 6.0
    sem = per_config.std(ddof=1) / sqrt(params["configs"])
    if abs(per_config.mean() - exact) > 5.0 * sem:
        return f"E[r^2] = {per_config.mean():.4f}, exact {exact} (sem {sem:.3g})"
    if not 0.0 <= ks <= 1.0:
        return f"ks {ks} out of [0, 1]"
    return None


CHECKS = {
    "summary": _check_summary,
    "rejected": _check_rejected,
    "decay-rabi": _check_decay_rabi,
    "decay-fock": _check_decay_fock,
    "decay-gate": _check_decay_gate,
    "envelope": _check_envelope,
    "splitting": _check_splitting,
    "moment": _check_moment,
}
