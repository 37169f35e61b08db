"""Command-line experiment runner.

Subcommands: splitting-stats, rabi, fock, superpose, gate, error-budget,
oracle-check.  Each run validates its configuration, executes, and writes
a CSV table, a JSON summary (resolved config echoed, key scalars, built-in
check results) and, for compiled protocols, a plain-text schedule dump.
Identical configurations produce byte-identical artifacts; nothing is
written when validation fails.

Configuration is a JSON file (``--config``) deep-merged over per-experiment
defaults; command-line flags override file values.  Frequencies accept unit
suffixes (``100MHz``, ``0.6Mrad/s``); bare numbers are rad/us.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from math import isfinite, pi, sqrt
from pathlib import Path

import numpy as np
import scipy.optimize

from . import errors as errmod
from . import geometry, oracle, protocols, units
from .dynamics import Schedule, StiffnessError, evolve, fidelity
from .geometry import GeometryError
from .hilbert import BasisError
from .protocols import CompilationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

EXPERIMENTS = (
    "splitting-stats",
    "rabi",
    "fock",
    "superpose",
    "gate",
    "error-budget",
    "oracle-check",
)

DEFAULT_PARAMS = {
    "splitting-stats": {
        "configs": 30000,
        "atoms": 2,
        "box": [10.0, 10.0, 10.0],
        "c3": 1000.0,
        "statistic": "min-pair",
        "bins": 60,
        "window": [0.2, 20.0],
        "out": None,
    },
    "rabi": {
        "n_atoms": 10,
        "omega": 1.0,
        "kappa_bar": "ideal",
        "gamma_r": 0.0,
        "convention": "split",
        "n_max": 2,
        "periods": 3.0,
        "samples_per_period": 32,
    },
    "fock": {
        "n_atoms": 20,
        "n_target": 3,
        "omega": 1.0,
        "omega_q": 1.0,
        "kappa_bar": "ideal",
        "gamma_r": 0.0,
        "convention": "split",
        "pulse_duration": None,
        "n_max": None,
    },
    "superpose": {
        "n_atoms": 10,
        "omega": 1.0,
        "omega_q": 1.0,
        "amplitudes": [0.5773502691896258, 0.5773502691896258, 0.5773502691896258],
    },
    "gate": {
        "n_atoms": 10,
        "omega_plus": 1.0,
        "omega_minus": 1.0,
        "kappa_bar": "ideal",
        "gamma_r": 0.0,
        "convention": "split",
    },
    "error-budget": {
        "n_atoms": 10,
        "convention": "eq1",
        "gamma_r": 0.001,
        "kappa_T": {"start": 10.0, "stop": 1000.0, "points": 13},
    },
    "oracle-check": {
        "n_atoms": 3,
        "kappa": 40.0,
        "omega": 1.0,
        "omega_q": 1.0,
        "n_max": None,
        "samples_per_schedule": 24,
    },
}


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def default_config(experiment: str) -> dict:
    return {
        "experiment": experiment,
        "seed": 0,
        "out_dir": ".",
        "params": copy.deepcopy(DEFAULT_PARAMS.get(experiment, {})),
    }


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON true/false are not counts)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and isfinite(value)


def _freq_ok(value, positive=True) -> bool:
    if isinstance(value, bool):
        return False
    try:
        v = units.parse_frequency(value)
    except (ValueError, TypeError):
        return False
    return isfinite(v) and (v > 0 if positive else v >= 0)


def _amplitude(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(entry[0], entry[1])
    if isinstance(entry, str):
        return complex(entry)
    raise ValueError(f"bad amplitude entry {entry!r}")


def validate(config: dict) -> list[str]:
    """Schema check; returns an empty list iff the config is runnable."""
    if not isinstance(config, dict):
        return [f"config: top level must be a JSON object, "
                f"not {type(config).__name__}"]
    v: list[str] = []
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        v.append(f"experiment: unknown kind {exp!r}")
        return v
    known = {"experiment", "seed", "out_dir", "params"}
    for key in sorted(set(config) - known):
        v.append(f"{key}: unknown top-level key")
    seed = config.get("seed")
    if not _is_int(seed) or seed < 0:
        v.append("seed: must be a non-negative integer")
    if not isinstance(config.get("out_dir"), str):
        v.append("out_dir: must be a path string")
    p = config.get("params", {})
    if not isinstance(p, dict):
        return v + ["params: must be a JSON object"]
    known_params = set(DEFAULT_PARAMS[exp])
    for key in sorted(set(p) - known_params):
        v.append(f"params.{key}: unknown key for experiment {exp}")

    def need_pos_int(name, minimum=1):
        val = p.get(name)
        if not _is_int(val) or val < minimum:
            v.append(f"params.{name}: must be an integer >= {minimum}")

    def need_pos_freq(name):
        if not _freq_ok(p.get(name)):
            v.append(f"params.{name}: must be a positive frequency")

    def need_nonneg_freq(name):
        if not _freq_ok(p.get(name), positive=False):
            v.append(f"params.{name}: must be a non-negative frequency")

    def need_blockade(name="kappa_bar", allow_off=False):
        val = p.get(name)
        ok = val == "ideal" or (allow_off and val == "off") or _freq_ok(val)
        if not ok:
            modes = '"ideal", "off" or' if allow_off else '"ideal" or'
            v.append(f"params.{name}: must be {modes} a positive frequency")

    def need_convention():
        if p.get("convention") not in ("split", "eq1"):
            v.append('params.convention: must be "split" or "eq1"')

    if exp == "splitting-stats":
        need_pos_int("configs")
        need_pos_int("atoms", 2)
        box = p.get("box")
        if (
            not isinstance(box, (list, tuple))
            or len(box) != 3
            or any(not _is_real(b) or b <= 0 for b in box)
        ):
            v.append("params.box: must be three positive finite lengths")
        if not _is_real(p.get("c3")) or p["c3"] <= 0:
            v.append("params.c3: must be positive and finite")
        if p.get("statistic") not in ("min-pair", "all-pairs"):
            v.append('params.statistic: must be "min-pair" or "all-pairs"')
        need_pos_int("bins")
        win = p.get("window")
        if (
            not isinstance(win, (list, tuple))
            or len(win) != 2
            or not all(_is_real(w) for w in win)
            or win[0] <= 0
            or win[1] <= win[0]
        ):
            v.append("params.window: must be 0 < lo < hi")
    elif exp == "rabi":
        need_pos_int("n_atoms", 2)
        need_pos_freq("omega")
        need_blockade()
        need_nonneg_freq("gamma_r")
        need_convention()
        need_pos_int("n_max")
        if (
            _is_int(p.get("n_max"))
            and _is_int(p.get("n_atoms"))
            and p["n_max"] > p["n_atoms"]
        ):
            v.append(
                f"params.n_max ({p['n_max']}) exceeds params.n_atoms "
                f"({p['n_atoms']})"
            )
        if not _is_real(p.get("periods")) or p["periods"] <= 0:
            v.append("params.periods: must be positive")
        need_pos_int("samples_per_period", 4)
    elif exp == "fock":
        need_pos_int("n_atoms", 2)
        if not _is_int(p.get("n_target")) or p["n_target"] < 0:
            v.append("params.n_target: must be an integer >= 0")
        elif _is_int(p.get("n_atoms")) and p["n_target"] > p["n_atoms"]:
            v.append(
                f"params.n_target ({p['n_target']}) exceeds params.n_atoms "
                f"({p['n_atoms']})"
            )
        need_pos_freq("omega")
        need_pos_freq("omega_q")
        need_blockade()
        need_nonneg_freq("gamma_r")
        need_convention()
        if p.get("pulse_duration") is not None and (
            not _is_real(p["pulse_duration"])
            or p["pulse_duration"] <= 0
        ):
            v.append("params.pulse_duration: must be positive or null")
        if p.get("n_max") is not None:
            if not _is_int(p["n_max"]) or p["n_max"] < 1:
                v.append("params.n_max: must be an integer >= 1 or null")
            elif _is_int(p.get("n_atoms")) and p["n_max"] > p["n_atoms"]:
                v.append(
                    f"params.n_max ({p['n_max']}) exceeds params.n_atoms "
                    f"({p['n_atoms']})"
                )
    elif exp == "superpose":
        need_pos_int("n_atoms", 2)
        need_pos_freq("omega")
        need_pos_freq("omega_q")
        amps = p.get("amplitudes")
        if not isinstance(amps, (list, tuple)) or not amps:
            v.append("params.amplitudes: must be a non-empty list")
        else:
            try:
                vec = np.array([_amplitude(a) for a in amps])
                # runner normalizes; only a null vector is hopeless
                if (np.abs(vec) ** 2).sum() < 1e-12:
                    v.append("params.amplitudes: must not all vanish")
                if _is_int(p.get("n_atoms")) and len(vec) - 1 > p["n_atoms"]:
                    v.append(
                        f"params.amplitudes: highest rung {len(vec) - 1} "
                        f"exceeds params.n_atoms ({p['n_atoms']})"
                    )
            except (ValueError, TypeError):
                v.append("params.amplitudes: entries must be numbers or [re, im]")
    elif exp == "gate":
        need_pos_int("n_atoms", 2)
        need_pos_freq("omega_plus")
        need_pos_freq("omega_minus")
        need_blockade(allow_off=True)
        need_nonneg_freq("gamma_r")
        need_convention()
    elif exp == "error-budget":
        need_pos_int("n_atoms", 2)
        need_convention()
        need_nonneg_freq("gamma_r")
        kt = p.get("kappa_T")
        if isinstance(kt, dict):
            if not all(_is_real(kt.get(k)) for k in ("start", "stop")) \
                    or not _is_int(kt.get("points")) \
                    or kt.get("points", 0) < 5 \
                    or not (5.0 <= kt.get("start", 0) < kt.get("stop", 0)):
                v.append(
                    "params.kappa_T: need 5 <= start < stop and integer points >= 5"
                )
        elif isinstance(kt, (list, tuple)):
            if len(kt) < 5 or any(
                not _is_real(x) or x < 5 for x in kt
            ):
                v.append("params.kappa_T: need >= 5 grid values, all >= 5")
        else:
            v.append("params.kappa_T: must be a list or {start, stop, points}")
    elif exp == "oracle-check":
        n = p.get("n_atoms")
        if not _is_int(n) or not 2 <= n <= 5:
            v.append("params.n_atoms: must be an integer in [2, 5]")
        need_pos_freq("kappa")
        need_pos_freq("omega")
        need_pos_freq("omega_q")
        if p.get("n_max") is not None and (
            not _is_int(p["n_max"]) or p["n_max"] < 1
        ):
            v.append("params.n_max: must be an integer >= 1 or null")
        need_pos_int("samples_per_schedule", 4)
    return v


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _blockade_arg(value):
    if value in ("ideal", "off"):
        return value
    return units.parse_frequency(value)


def _run_splitting(config, out_dir: Path):
    p = config["params"]
    hist = geometry.splitting_distribution(
        n_configs=p["configs"],
        n_atoms=p["atoms"],
        box=tuple(p["box"]),
        c3=float(p["c3"]),
        seed=config["seed"],
        statistic=p["statistic"],
        bins=p["bins"],
    )
    ks = geometry.splitting_ks(hist.samples, window=tuple(p["window"]))
    dens = hist.density()
    centers = np.sqrt(hist.bin_edges[:-1] * hist.bin_edges[1:])
    rows = [
        (
            hist.bin_edges[i],
            hist.bin_edges[i + 1],
            int(hist.counts[i]),
            dens[i],
            geometry.analytic_splitting_pdf(centers[i]),
        )
        for i in range(len(hist.counts))
    ]
    csv_path = Path(p["out"]) if p.get("out") else out_dir / "splitting_stats.csv"
    _write_csv(
        csv_path,
        ["x_left", "x_right", "count", "density", "analytic_density"],
        rows,
    )
    kb = geometry.kappa_bar(float(np.prod(p["box"])), float(p["c3"]))
    summary = {
        "experiment": "splitting-stats",
        "config": config,
        "results": {
            "kappa_bar": kb,
            "ks_distance": ks,
            "n_samples": hist.n_samples,
            "in_window": int(hist.counts.sum()),
        },
        "checks": {"ks_below_0.05": bool(ks < 0.05)},
    }
    _write_json(out_dir / "splitting_stats_summary.json", summary)


def _rabi_fit(times, pops, freq_guess):
    def model(t, w, a):
        return a * np.sin(0.5 * w * t) ** 2

    popt, _ = scipy.optimize.curve_fit(
        model, times, pops, p0=(freq_guess, 1.0), maxfev=20000
    )
    return float(abs(popt[0]))


def _run_rabi(config, out_dir: Path):
    p = config["params"]
    n = p["n_atoms"]
    omega = units.parse_frequency(p["omega"])
    gamma = units.parse_frequency(p["gamma_r"])
    basis, static = protocols.register_basis(
        n,
        n_max=p["n_max"],
        blockade=_blockade_arg(p["kappa_bar"]),
        convention=p["convention"],
        gamma_r=gamma,
    )
    period = 2.0 * pi / (sqrt(n) * omega)
    duration = p["periods"] * period
    sched = Schedule((protocols.Pulse(("g", "r"), omega, duration),))
    res = evolve(
        sched, basis, static, basis.basis_vector({}),
        sample_dt=period / p["samples_per_period"],
    )
    p_g = res.population({})
    p_r = res.population({"r": 1})
    p_leak = res.norm2 - p_g - p_r
    fitted = _rabi_fit(res.times, p_r, sqrt(n) * omega)
    expected = sqrt(n) * omega
    rows = list(zip(res.times, p_g, p_r, p_leak, res.norm2))
    _write_csv(
        out_dir / "rabi.csv",
        ["time", "p_ground", "p_single", "p_leak", "norm2"],
        rows,
    )
    rel_err = abs(fitted - expected) / expected
    summary = {
        "experiment": "rabi",
        "config": config,
        "results": {
            "fitted_frequency": fitted,
            "collective_frequency": expected,
            "relative_error": rel_err,
            "final_norm2": float(res.norm2[-1]),
        },
        "checks": {"collective_enhancement_1pct": bool(rel_err < 0.01)},
    }
    _write_json(out_dir / "rabi_summary.json", summary)


def _run_fock(config, out_dir: Path):
    p = config["params"]
    n = p["n_atoms"]
    n_target = p["n_target"]
    omega = units.parse_frequency(p["omega"])
    omega_q = units.parse_frequency(p["omega_q"])
    gamma = units.parse_frequency(p["gamma_r"])
    n_max = p["n_max"] if p["n_max"] is not None else min(n, n_target + 1)
    basis, static = protocols.register_basis(
        n,
        n_max=n_max,
        blockade=_blockade_arg(p["kappa_bar"]),
        convention=p["convention"],
        gamma_r=gamma,
    )
    sched = protocols.fock_ladder(
        n, n_target, omega, omega_q, pulse_duration=p["pulse_duration"]
    )
    durations = [ev.duration for ev in sched.events] or [1.0]
    res = evolve(
        sched, basis, static, basis.basis_vector({}),
        sample_dt=min(durations) / 8.0,
    )
    target = basis.basis_vector({"q": n_target})
    fid = fidelity(res.final_state, target)
    header = ["time"] + [f"p_q{m}" for m in range(n_target + 1)] + [
        "p_excited", "norm2",
    ]
    q_pops = [res.population({"q": m}) for m in range(n_target + 1)]
    p_exc = res.norm2 - sum(q_pops)
    rows = list(zip(res.times, *q_pops, p_exc, res.norm2))
    _write_csv(out_dir / "fock.csv", header, rows)
    (out_dir / "fock_schedule.txt").write_text(sched.to_text())
    summary = {
        "experiment": "fock",
        "config": config,
        "results": {
            "fidelity": fid,
            "infidelity": 1.0 - fid,
            "total_duration": sched.total_duration,
            "n_pulses": len(sched.events),
        },
        "checks": {"fidelity_above_0.999": bool(fid > 0.999)},
    }
    _write_json(out_dir / "fock_summary.json", summary)


def _run_superpose(config, out_dir: Path):
    p = config["params"]
    n = p["n_atoms"]
    omega = units.parse_frequency(p["omega"])
    omega_q = units.parse_frequency(p["omega_q"])
    raw = np.array([_amplitude(a) for a in p["amplitudes"]])
    amps = tuple(raw / np.sqrt((np.abs(raw) ** 2).sum()))
    target = protocols.TargetSuperposition(amplitudes=amps, n_atoms=n)
    sched = protocols.superposition_schedule(target, omega, omega_q)
    n_top = target.n_highest
    basis, static = protocols.register_basis(
        n, n_max=max(n_top, 1), blockade="ideal"
    )
    res = evolve(sched, basis, static, basis.basis_vector({}))
    tvec = np.zeros(basis.dim, dtype=complex)
    for m, amp in enumerate(amps[: n_top + 1]):
        tvec[basis.state_index({"q": m})] = amp
    fid = fidelity(res.final_state, tvec)
    back = evolve(sched.reversed(), basis, static, res.final_state)
    fid_round = fidelity(back.final_state, basis.basis_vector({}))
    rows = []
    for m in range(n_top + 1):
        a_t = amps[m] if m < len(amps) else 0.0
        a_got = res.final_state[basis.state_index({"q": m})]
        rows.append((m, a_t.real, a_t.imag, a_got.real, a_got.imag, abs(a_got) ** 2))
    _write_csv(
        out_dir / "superpose.csv",
        ["m", "target_re", "target_im", "achieved_re", "achieved_im", "population"],
        rows,
    )
    (out_dir / "superpose_schedule.txt").write_text(sched.to_text())
    summary = {
        "experiment": "superpose",
        "config": config,
        "results": {
            "fidelity": fid,
            "roundtrip_fidelity": fid_round,
            "n_pulses": len(sched.events),
        },
        "checks": {
            "fidelity_above_1e-6": bool(fid > 1.0 - 1e-6),
            "roundtrip_above_1e-8": bool(fid_round > 1.0 - 1e-8),
        },
    }
    _write_json(out_dir / "superpose_summary.json", summary)


def _run_gate(config, out_dir: Path):
    p = config["params"]
    omega_p = units.parse_frequency(p["omega_plus"])
    omega_m = units.parse_frequency(p["omega_minus"])
    gamma = units.parse_frequency(p["gamma_r"])
    basis, static = protocols.register_basis(
        p["n_atoms"],
        n_max=2,
        blockade=_blockade_arg(p["kappa_bar"]),
        convention=p["convention"],
        gamma_r=gamma,
        gate=True,
    )
    sched = protocols.phase_gate_schedule(omega_m, omega_p)
    table = protocols.gate_truth_table(sched, basis, static)
    ideal = {"g": 0.0, "q+": pi, "q-": pi, "q+q-": pi}
    rows = [
        (name, table.phases[name], ideal[name], table.fidelities[name])
        for name in ("g", "q+", "q-", "q+q-")
    ]
    _write_csv(
        out_dir / "gate.csv",
        ["input", "phase", "ideal_phase", "fidelity"],
        rows,
    )
    (out_dir / "gate_schedule.txt").write_text(sched.to_text())
    phase_err = max(
        abs(protocols.wrap_phase(table.phases[k] - ideal[k])) for k in ideal
    )
    summary = {
        "experiment": "gate",
        "config": config,
        "results": {
            "phases": table.phases,
            "fidelities": table.fidelities,
            "conditional_phase": table.conditional_phase(),
            "max_phase_error": phase_err,
        },
        "checks": {
            "phases_within_1e-2": bool(phase_err < 1e-2),
        },
    }
    _write_json(out_dir / "gate_summary.json", summary)


def _run_error_budget(config, out_dir: Path):
    p = config["params"]
    n = p["n_atoms"]
    gamma = units.parse_frequency(p["gamma_r"])
    kt = p["kappa_T"]
    if isinstance(kt, dict):
        grid = np.geomspace(kt["start"], kt["stop"], kt["points"])
    else:
        grid = np.asarray(kt, dtype=float)
    result = errmod.blockade_scaling_experiment(
        grid, n_atoms=n, convention=p["convention"]
    )
    T = pi / sqrt(n)
    p_deph_est = errmod.p_deph_estimate(gamma, T)
    p_deph_sim = errmod.dephasing_norm_loss(gamma, T)
    rows = [
        (kt_i, est, sim, p_deph_est, p_deph_sim, result.slope)
        for kt_i, sim, est in zip(result.kappa_T, result.p_sim, result.p_est)
    ]
    _write_csv(
        out_dir / "error_budget.csv",
        ["kappaT", "p_doub_est", "p_doub_sim", "p_deph_est", "p_deph_sim",
         "slope_fit"],
        rows,
    )
    closed_form = 1.0 / (4.0 * pi)
    geom_factor = errmod.geometry_factor(
        8, (10.0, 10.0, 10.0), seed=config["seed"]
    )
    summary = {
        "experiment": "error-budget",
        "config": config,
        "results": {
            "slope": result.slope,
            "prefactor": result.prefactor,
            "closed_form_prefactor": closed_form,
            "geometry_resolved_prefactor": geom_factor,
            "prefactor_ratio": result.prefactor / closed_form,
            "pulse_duration": T,
            "p_deph_est": p_deph_est,
            "p_deph_sim": p_deph_sim,
        },
        "checks": {
            "slope_minus2_within_0.1": bool(abs(result.slope + 2.0) < 0.1),
            "prefactor_within_3x_closed_form": bool(
                closed_form / 3.0 < result.prefactor < 3.0 * closed_form
            ),
        },
    }
    _write_json(out_dir / "error_budget_summary.json", summary)


def _run_oracle(config, out_dir: Path):
    p = config["params"]
    rows = oracle.oracle_equivalence(
        p["n_atoms"],
        units.parse_frequency(p["kappa"]),
        omega=units.parse_frequency(p["omega"]),
        omega_q=units.parse_frequency(p["omega_q"]),
        n_max=p["n_max"],
        samples_per_schedule=p["samples_per_schedule"],
    )
    _write_csv(out_dir / "oracle_check.csv", ["schedule", "time", "fidelity"], rows)
    worst = min(r[2] for r in rows)
    summary = {
        "experiment": "oracle-check",
        "config": config,
        "results": {"min_fidelity": worst, "max_deviation": 1.0 - worst},
        "checks": {"agreement_1e-8": bool(worst > 1.0 - 1e-8)},
    }
    _write_json(out_dir / "oracle_check_summary.json", summary)


_RUNNERS = {
    "splitting-stats": _run_splitting,
    "rabi": _run_rabi,
    "fock": _run_fock,
    "superpose": _run_superpose,
    "gate": _run_gate,
    "error-budget": _run_error_budget,
    "oracle-check": _run_oracle,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _box_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("box must be LX,LY,LZ")
    return [float(x) for x in parts]


def _amps_arg(text: str):
    return [complex(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Collective-excitation simulator for blockaded ensembles",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def add_common(sp):
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out-dir", type=str, default=None)
        sp.add_argument(
            "--print-config", action="store_true",
            help="print the resolved config and exit",
        )

    sp = sub.add_parser("splitting-stats", help="pair-splitting Monte Carlo")
    add_common(sp)
    sp.add_argument("--configs", type=int, dest="configs")
    sp.add_argument("--atoms", type=int, dest="atoms")
    sp.add_argument("--box", type=_box_arg, dest="box", metavar="LX,LY,LZ")
    sp.add_argument("--c3", type=float, dest="c3")
    sp.add_argument("--statistic", choices=("min-pair", "all-pairs"))
    sp.add_argument("--bins", type=int, dest="bins")
    sp.add_argument("--out", type=str, dest="out", metavar="FILE")

    sp = sub.add_parser("rabi", help="collective Rabi oscillation")
    add_common(sp)
    sp.add_argument("--n-atoms", type=int, dest="n_atoms")
    sp.add_argument("--omega", type=str, dest="omega")
    sp.add_argument("--kappa-bar", type=str, dest="kappa_bar")
    sp.add_argument("--gamma-r", type=str, dest="gamma_r")
    sp.add_argument("--convention", choices=("split", "eq1"))
    sp.add_argument("--periods", type=float, dest="periods")

    sp = sub.add_parser("fock", help="storage-rung ladder synthesis")
    add_common(sp)
    sp.add_argument("--n-atoms", type=int, dest="n_atoms")
    sp.add_argument("--n-target", type=int, dest="n_target")
    sp.add_argument("--omega", type=str, dest="omega")
    sp.add_argument("--omega-q", type=str, dest="omega_q")
    sp.add_argument("--kappa-bar", type=str, dest="kappa_bar")
    sp.add_argument("--gamma-r", type=str, dest="gamma_r")
    sp.add_argument("--convention", choices=("split", "eq1"))
    sp.add_argument("--pulse-duration", type=float, dest="pulse_duration")

    sp = sub.add_parser("superpose", help="arbitrary superposition synthesis")
    add_common(sp)
    sp.add_argument("--n-atoms", type=int, dest="n_atoms")
    sp.add_argument("--omega", type=str, dest="omega")
    sp.add_argument("--omega-q", type=str, dest="omega_q")
    sp.add_argument(
        "--amplitudes", type=_amps_arg, dest="amplitudes",
        metavar="A0,A1,...",
        help="complex entries, e.g. 0.707,0.5+0.5j (normalized before use)",
    )

    sp = sub.add_parser("gate", help="conditional phase gate truth table")
    add_common(sp)
    sp.add_argument("--n-atoms", type=int, dest="n_atoms")
    sp.add_argument("--omega-plus", type=str, dest="omega_plus")
    sp.add_argument("--omega-minus", type=str, dest="omega_minus")
    sp.add_argument("--kappa-bar", type=str, dest="kappa_bar")
    sp.add_argument("--gamma-r", type=str, dest="gamma_r")
    sp.add_argument("--convention", choices=("split", "eq1"))

    sp = sub.add_parser("error-budget", help="leakage and dephasing scaling")
    add_common(sp)
    sp.add_argument("--n-atoms", type=int, dest="n_atoms")
    sp.add_argument("--gamma-r", type=str, dest="gamma_r")
    sp.add_argument("--convention", choices=("split", "eq1"))
    sp.add_argument("--kt-start", type=float, dest="kt_start")
    sp.add_argument("--kt-stop", type=float, dest="kt_stop")
    sp.add_argument("--kt-points", type=int, dest="kt_points")

    sp = sub.add_parser("oracle-check", help="symmetric vs brute-force modes")
    add_common(sp)
    sp.add_argument("--n-atoms", type=int, dest="n_atoms")
    sp.add_argument("--kappa", type=str, dest="kappa")
    sp.add_argument("--omega", type=str, dest="omega")
    sp.add_argument("--omega-q", type=str, dest="omega_q")

    return parser


_PARAM_KEYS = {exp: set(DEFAULT_PARAMS[exp]) for exp in EXPERIMENTS}


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- command-line flags.

    A file whose top level, or whose ``params``, is not a JSON object is
    returned unmerged for ``validate`` to reject.
    """
    config = default_config(args.experiment)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            return loaded
        loaded.setdefault("experiment", args.experiment)
        config = _deep_merge(config, loaded)
        if not isinstance(config["params"], dict):
            return config
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out_dir is not None:
        config["out_dir"] = args.out_dir
    overrides = {}
    for key in _PARAM_KEYS[args.experiment]:
        flag_key = {"kappa_T": None}.get(key, key)
        if flag_key and getattr(args, flag_key, None) is not None:
            overrides[key] = getattr(args, flag_key)
    if args.experiment == "error-budget":
        kt = dict(config["params"]["kappa_T"]) if isinstance(
            config["params"]["kappa_T"], dict) else None
        touched = False
        for name, attr in (("start", "kt_start"), ("stop", "kt_stop"),
                           ("points", "kt_points")):
            if getattr(args, attr, None) is not None:
                if kt is None:
                    kt = dict(DEFAULT_PARAMS["error-budget"]["kappa_T"])
                kt[name] = getattr(args, attr)
                touched = True
        if touched:
            overrides["kappa_T"] = kt
    if overrides:
        config["params"] = _deep_merge(config["params"], overrides)
    if isinstance(config["params"].get("amplitudes"), list):
        config["params"]["amplitudes"] = [
            [a.real, a.imag] if isinstance(a, complex) else a
            for a in config["params"]["amplitudes"]
        ]
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = validate(config)
    if violations:
        for item in violations:
            print(f"config violation: {item}", file=sys.stderr)
        return EXIT_CONFIG
    if args.print_config:
        print(json.dumps(_jsonable(config), sort_keys=True, indent=2))
        return EXIT_OK
    out_dir = Path(config["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _RUNNERS[config["experiment"]](config, out_dir)
    except (CompilationError, StiffnessError, GeometryError, BasisError,
            np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
