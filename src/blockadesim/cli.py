"""Command-line experiment runner.

Subcommands: splitting-stats, rabi, fock, superpose, gate, error-budget,
oracle-check.  ``main`` validates and parses a run's configuration; the
runner returns a ``Run`` (table columns, key scalars, built-in check results,
for compiled protocols the schedule) that ``main`` renders as a CSV table,
a JSON summary echoing the resolved config and a schedule dump, and writes
only after the run succeeds.  Identical configs give byte-identical files.

One table (``_TABLE``: help, runner, parameters by name, default and kind)
generates the subcommands, defaults, checks, flags (``n_atoms`` ->
``--n-atoms``) and the flag merge.  A JSON file (``--config``) is
deep-merged over the defaults and must not name another experiment; flags
override it.  Frequencies accept unit suffixes (``100MHz``, ``0.6Mrad/s``);
bare numbers are rad/us.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.  Exits 2 and 3 write nothing, and exit 4 leaves no artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import os
import sys
import warnings
from math import hypot, inf, isfinite, pi, prod, sqrt
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import errors as errmod
from . import geometry, oracle, protocols, units
from .dynamics import (PhaseUndefinedError, Register, Schedule, StiffnessError,
                       evolve, fidelity)
from .geometry import GeometryError
from .hilbert import N_ATOMS_MAX, N_ORACLE, BasisError
from .protocols import CompilationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# parameter kinds and the top-level parameters
# ---------------------------------------------------------------------------

class Kind(NamedTuple):
    """The values a parameter takes and how its ``--flag`` parses them."""

    parse: Callable[[object], object]   # config value -> run value
    flag: dict                          # add_argument keywords


class Param(NamedTuple):
    name: str
    default: object
    kind: Kind
    capped: bool = False    # its highest rung may not exceed params.n_atoms


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON true/false are not counts)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float that is not a bool and fits in a float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _kind(ok, must: str, nullable=False, **flag) -> Kind:
    """Values passing ``ok`` (or null, if ``nullable``), used as given."""
    message = f"must be {must}" + (" or null" if nullable else "")

    def parse(value):
        if not (nullable and value is None) and not ok(value):
            raise ValueError(message)
        return value

    return Kind(parse, flag)


def _count(low: int, high: int | None = None, nullable=False) -> Kind:
    span = f">= {low}" if high is None else f"in [{low}, {high}]"
    return _kind(
        lambda v: _is_int(v) and low <= v and (high is None or v <= high),
        f"an integer {span}", nullable, type=int,
    )


def _positive(nullable=False, high: float | None = None) -> Kind:
    must = "positive and finite" if high is None else f"in (0, {high:g}]"
    return _kind(lambda v: _is_real(v) and v > 0 and (high is None or v <= high),
                 must, nullable, type=float)


def _choice(*options: str) -> Kind:
    return _kind(lambda v: v in options,
                 " or ".join(f'"{o}"' for o in options), choices=options)


def _frequency(*modes: str, positive=True) -> Kind:
    """A frequency, parsed to rad/us, or one of the blockade ``modes``."""
    sign = "positive" if positive else "non-negative"
    words = [f'"{m}"' for m in modes] + [f"a {sign} frequency"]
    message = "must be " + ", ".join(words[:-2] + [" or ".join(words[-2:])])

    def parse(value):
        if value in modes:
            return value
        try:
            v = units.parse_frequency(value)
        except ValueError as exc:   # the parser says why
            raise ValueError(f"{message} ({exc})") from None
        except (TypeError, OverflowError):
            raise ValueError(message) from None
        if isinstance(value, bool) or not isfinite(v) \
                or not (v > 0 if positive else v >= 0):
            raise ValueError(message)
        return v

    return Kind(parse, {"type": str})


def _reals(value, count: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == count \
        and all(_is_real(x) for x in value)


def _volume(box) -> float:
    """The box volume in floating point, which may underflow to 0 or
    overflow to inf."""
    return prod(map(float, box))


def _numbers_arg(text: str) -> list[float]:
    """A ``--flag`` type: comma-separated numbers (the kind checks how many)."""
    return [float(x) for x in text.split(",")]


def _amplitude(entry) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(entry[0], entry[1])
    if isinstance(entry, (int, float, str)):
        return complex(entry)
    raise ValueError(f"bad amplitude entry {entry!r}")


def _amplitudes(amps) -> tuple:
    """Amplitude entries -> the normalized complex vector."""
    if not isinstance(amps, (list, tuple)) or not amps:
        raise ValueError("must be a non-empty list")
    try:
        raw = np.array([_amplitude(a) for a in amps])
    except (ValueError, TypeError, OverflowError):
        raise ValueError("entries must be numbers or [re, im]") from None
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = (np.abs(raw) ** 2).sum()
    if not isfinite(norm2):
        raise ValueError("entries must be finite, with a finite norm")
    # unnormalized input is scaled; only a null vector is hopeless
    if norm2 < 1e-12:
        raise ValueError("must not all vanish")
    return tuple(raw / np.sqrt(norm2))


def _amplitudes_arg(text: str) -> list:
    """``0.7,0.5+0.5j`` -> ``[[0.7, 0.0], [0.5, 0.5]]`` (JSON has no complex)."""
    return [[a.real, a.imag] for a in map(complex, text.split(","))]


def _path(nullable=False, **flag) -> Kind:
    return _kind(lambda v: isinstance(v, str) and "\0" not in v,
                 "a path string without NUL bytes", nullable, type=str, **flag)


_CONVENTION = _choice("split", "eq1")

# top-level keys besides "experiment" and "params"
_TOP = (
    # the key of numpy's Philox generator is 128 bits wide
    Param("seed", 0, _count(0, 2**128 - 1)),
    Param("out_dir", ".", _path()),
)

_MAX_PAIRS = 10_000_000    # splitting-stats: pairs evaluated (all-pairs: kept)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def default_config(experiment: str) -> dict:
    config = {"experiment": experiment}
    config.update((param.name, param.default) for param in _TOP)
    config["params"] = copy.deepcopy(DEFAULT_PARAMS.get(experiment, {}))
    return config


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check(values: dict, params, prefix: str) -> list[str]:
    """One violation per parameter whose kind rejects its value."""
    n_atoms = values.get("n_atoms")
    out = []
    for param in params:
        try:
            value = param.kind.parse(values.get(param.name))
            if param.capped and value is not None and _is_int(n_atoms):
                rung = len(value) - 1 if isinstance(value, tuple) else value
                if rung > n_atoms:
                    raise ValueError(f"highest rung {rung} exceeds "
                                     f"params.n_atoms ({n_atoms})")
        except ValueError as exc:
            out.append(f"{prefix}{param.name}: {exc}")
    return out


def validate(config: dict) -> list[str]:
    """Schema check; returns an empty list iff the config is runnable."""
    if not isinstance(config, dict):
        return [f"config: top level must be a JSON object, "
                f"not {type(config).__name__}"]
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        return [f"experiment: unknown kind {exp!r}"]
    known = {"experiment", "params"} | {param.name for param in _TOP}
    v = [f"{key}: unknown top-level key" for key in sorted(set(config) - known)]
    v += _check(config, _TOP, "")
    p = config.get("params", {})
    if not isinstance(p, dict):
        return v + ["params: must be a JSON object"]
    for key in sorted(set(p) - set(DEFAULT_PARAMS[exp])):
        v.append(f"params.{key}: unknown key for experiment {exp}")
    v += _check(p, _TABLE[exp][2], "params.")
    if exp == "splitting-stats" and not v:
        if p["configs"] * p["atoms"] * (p["atoms"] - 1) // 2 > _MAX_PAIRS:
            v.append(f"params.configs: configs x atom pairs must be "
                     f"<= {_MAX_PAIRS}")
        kb, diag = p["c3"] / _volume(p["box"]), hypot(*p["box"])
        r3 = diag * diag * diag
        # two atoms at opposite corners give the smallest sample x
        if not (0 < kb < inf and p["c3"] / r3 / kb > 0 and r3 * r3 < inf):
            v.append("params.box: c3 / volume must be positive and finite, "
                     "and so must x = (c3 / diagonal^3) / (c3 / volume) "
                     "and diagonal^6")
    if exp == "error-budget" and not v and not p["kt_start"] < p["kt_stop"]:
        v.append("params.kt_stop: must exceed params.kt_start")
    return v


# ---------------------------------------------------------------------------
# deterministic formatters
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def _field(text: str, alone: bool) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted, its quotes
    doubled, when it holds a comma, a quote or a line break, or when it is
    the empty only field of its record."""
    if any(c in text for c in ',"\r\n') or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


# rows of the CSV table rendered at once: bounds the text and the Python
# cells a large table holds while it is written
_CSV_ROWS = 1 << 16


def _csv_text(header: list[str], columns):
    """The CSV table of equally long columns, as ``csv.writer`` writes the
    ``_fmt`` of each cell: the header line, then the rows in chunks of at
    most ``_CSV_ROWS``.  One format string renders each row of a chunk,
    with ``%.12g`` for a float column, ``%d`` for an int column and quoted
    ``_fmt`` text for any other; the two give the same text for the floats
    and ints of a mixed column, so chunks may differ in their format."""
    alone = len(columns) == 1   # csv.writer quotes a lone empty field
    yield ",".join(_field(name, alone) for name in header) + "\r\n"
    n_rows = len(columns[0]) if columns else 0
    for r0 in range(0, n_rows, _CSV_ROWS):
        cells = [c[r0 : r0 + _CSV_ROWS] for c in columns]
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
        specs = []
        for i, column in enumerate(cells):
            kinds = set(map(type, column))
            if kinds <= {float, np.float64}:
                specs.append("%.12g")
            elif kinds == {int}:
                specs.append("%d")
            else:
                cells[i] = [_field(_fmt(x), alone) for x in column]
                specs.append("%s")
        fmt = ",".join(specs) + "\r\n"
        yield "".join(map(fmt.__mod__, zip(*cells)))


def _json_text(obj: dict) -> str:
    # numpy scalars and arrays become Python numbers and lists
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()) + "\n"


# ---------------------------------------------------------------------------
# experiment implementations: (parsed parameters, seed) -> Run
# ---------------------------------------------------------------------------

class Run(NamedTuple):
    """What one run found, for ``main`` to write."""

    header: list[str]          # the CSV table: column names, then columns
    columns: list              # equally long arrays or sequences
    results: dict
    checks: dict
    schedule: Schedule | None = None


def _register(p: dict, n_max: int, **extra):
    """The run's register basis and static terms at its blockade,
    convention and decay rate."""
    return protocols.register_basis(
        p["n_atoms"],
        n_max=n_max,
        blockade=p["kappa_bar"],
        convention=p["convention"],
        gamma_r=p["gamma_r"],
        **extra,
    )


def _run_splitting(p: dict, seed: int) -> Run:
    hist = geometry.splitting_distribution(
        n_configs=p["configs"],
        n_atoms=p["atoms"],
        box=tuple(p["box"]),
        c3=float(p["c3"]),
        seed=seed,
        statistic=p["statistic"],
        bins=p["bins"],
    )
    ks = geometry.splitting_ks(hist.samples, window=tuple(p["window"]))
    edges = hist.bin_edges
    analytic = geometry.analytic_splitting_pdf(np.sqrt(edges[:-1] * edges[1:]))
    kb = geometry.kappa_bar(float(np.prod(p["box"])), float(p["c3"]))
    return Run(
        ["x_left", "x_right", "count", "density", "analytic_density"],
        [edges[:-1], edges[1:], hist.counts, hist.density(), analytic],
        results={
            "kappa_bar": kb,
            "ks_distance": ks,
            "n_samples": len(hist.samples),
            "in_window": int(hist.counts.sum()),
        },
        checks={"ks_below_0.05": bool(ks < 0.05)},
    )


def _rabi_fit(times, pops, freq_guess):
    import scipy.optimize   # deferred: costs several times this module's import

    def model(t, w, a):
        return a * np.sin(0.5 * w * t) ** 2

    # too few samples, or numbers that overflow, leave a non-finite
    # covariance: the fit never left its start value
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
        popt, pcov = scipy.optimize.curve_fit(
            model, times, pops, p0=(freq_guess, 1.0), maxfev=20000
        )
    if not np.isfinite(pcov).all():
        raise StiffnessError("the Rabi fit has no finite covariance")
    return float(abs(popt[0]))


def _run_rabi(p: dict, seed: int) -> Run:
    expected = sqrt(p["n_atoms"]) * p["omega"]
    if expected == inf:     # the period would be 0
        raise StiffnessError("collective Rabi frequency sqrt(N) omega overflows")
    basis, static = _register(p, p["n_max"])
    period = 2.0 * pi / expected
    sched = Schedule((protocols.Pulse(("g", "r"), p["omega"], p["periods"] * period),))
    res = evolve(
        sched, basis, static, basis.basis_vector({}),
        sample_dt=period / p["samples_per_period"],
    )
    p_g = res.population({})
    p_r = res.population({"r": 1})
    p_leak = res.norm2 - p_g - p_r
    fitted = _rabi_fit(res.times, p_r, expected)
    rel_err = abs(fitted - expected) / expected
    return Run(
        ["time", "p_ground", "p_single", "p_leak", "norm2"],
        [res.times, p_g, p_r, p_leak, res.norm2],
        results={
            "fitted_frequency": fitted,
            "collective_frequency": expected,
            "relative_error": rel_err,
            "final_norm2": float(res.norm2[-1]),
        },
        checks={"collective_enhancement_1pct": bool(rel_err < 0.01)},
    )


def _run_fock(p: dict, seed: int) -> Run:
    n = p["n_atoms"]
    n_target = p["n_target"]
    n_max = p["n_max"] if p["n_max"] is not None else min(n, n_target + 1)
    basis, static = _register(p, n_max)
    sched = protocols.fock_ladder(
        n, n_target, p["omega"], p["omega_q"],
        pulse_duration=p["pulse_duration"],
    )
    durations = [ev.duration for ev in sched.events] or [1.0]
    res = evolve(
        sched, basis, static, basis.basis_vector({}),
        sample_dt=min(durations) / 8.0,
    )
    target = basis.basis_vector({"q": n_target})
    fid = fidelity(res.final_state, target)
    q_pops = [res.population({"q": m}) for m in range(n_target + 1)]
    return Run(
        ["time", *(f"p_q{m}" for m in range(n_target + 1)), "p_excited", "norm2"],
        [res.times, *q_pops, res.norm2 - sum(q_pops), res.norm2],
        results={
            "fidelity": fid,
            "infidelity": 1.0 - fid,
            "total_duration": sched.total_duration,
            "n_pulses": len(sched.events),
        },
        checks={"fidelity_above_0.999": bool(fid > 0.999)},
        schedule=sched,
    )


def _run_superpose(p: dict, seed: int) -> Run:
    n = p["n_atoms"]
    amps = p["amplitudes"]
    target = protocols.TargetSuperposition(amplitudes=amps, n_atoms=n)
    sched = protocols.superposition_schedule(target, p["omega"], p["omega_q"])
    n_top = target.n_highest
    basis, static = protocols.register_basis(
        n, n_max=max(n_top, 1), blockade="ideal"
    )
    register = Register(basis, static)
    res = evolve(sched, basis, register, basis.basis_vector({}))
    rungs = [basis.state_index({"q": m}) for m in range(n_top + 1)]
    want = np.array(amps[: n_top + 1])
    tvec = np.zeros(basis.dim, dtype=complex)
    tvec[rungs] = want
    fid = fidelity(res.final_state, tvec)
    back = evolve(sched.reversed(), basis, register, res.final_state)
    fid_round = fidelity(back.final_state, basis.basis_vector({}))
    got = res.final_state[rungs]
    return Run(
        ["m", "target_re", "target_im", "achieved_re", "achieved_im", "population"],
        [list(range(n_top + 1)), want.real, want.imag, got.real, got.imag,
         [abs(a) ** 2 for a in got]],
        results={
            "fidelity": fid,
            "roundtrip_fidelity": fid_round,
            "n_pulses": len(sched.events),
        },
        checks={
            "fidelity_above_1e-6": bool(fid > 1.0 - 1e-6),
            "roundtrip_above_1e-8": bool(fid_round > 1.0 - 1e-8),
        },
        schedule=sched,
    )


def _run_gate(p: dict, seed: int) -> Run:
    basis, static = _register(p, 2, gate=True)
    sched = protocols.phase_gate_schedule(p["omega_minus"], p["omega_plus"])
    table = protocols.gate_truth_table(sched, basis, static)
    ideal = {"g": 0.0, "q+": pi, "q-": pi, "q+q-": pi}
    names = list(protocols.GATE_INPUTS)
    phase_err = max(
        abs(protocols.wrap_phase(table.phases[k] - ideal[k])) for k in ideal
    )
    return Run(
        ["input", "phase", "ideal_phase", "fidelity"],
        [names, [table.phases[k] for k in names], [ideal[k] for k in names],
         [table.fidelities[k] for k in names]],
        results={
            "phases": table.phases,
            "fidelities": table.fidelities,
            "conditional_phase": table.conditional_phase(),
            "max_phase_error": phase_err,
        },
        checks={
            "phases_within_1e-2": bool(phase_err < 1e-2),
        },
        schedule=sched,
    )


def _run_error_budget(p: dict, seed: int) -> Run:
    n = p["n_atoms"]
    gamma = p["gamma_r"]
    # ascending (validate requires kt_start < kt_stop): the order of the
    # scan's results
    kts = np.geomspace(p["kt_start"], p["kt_stop"], p["kt_points"])
    result = errmod.blockade_scaling_experiment(
        kts, n_atoms=n, convention=p["convention"]
    )
    T = result.pulse_duration
    p_deph_est = errmod.p_deph_estimate(gamma, T)
    p_deph_sim = errmod.dephasing_norm_loss(gamma, T)
    closed_form = 1.0 / (4.0 * pi)
    adiabatic = errmod.adiabatic_prefactor(n, p["convention"])
    high = kts >= 100.0
    adiabatic_err = np.abs(kts[high] ** 2 * result.p_sim[high] / adiabatic - 1.0)
    geom_factor = errmod.geometry_factor(
        8, (10.0, 10.0, 10.0), seed=seed
    )
    return Run(
        ["kappaT", "p_doub_est", "p_doub_sim", "p_deph_est", "p_deph_sim",
         "slope_fit"],
        [kts, result.p_est, result.p_sim, [p_deph_est] * len(kts),
         [p_deph_sim] * len(kts), [result.slope] * len(kts)],
        results={
            "slope": result.slope,
            "prefactor": result.prefactor,
            "closed_form_prefactor": closed_form,
            "geometry_resolved_prefactor": geom_factor,
            "prefactor_ratio": result.prefactor / closed_form,
            "pulse_duration": T,
            "p_deph_est": p_deph_est,
            "p_deph_sim": p_deph_sim,
            "adiabatic_prefactor": adiabatic,
        },
        checks={
            "slope_minus2_within_0.1": bool(abs(result.slope + 2.0) < 0.1),
            "prefactor_within_3x_closed_form": bool(
                closed_form / 3.0 < result.prefactor < 3.0 * closed_form
            ),
            "prefactor_within_5pct_adiabatic": bool(
                high.any() and (adiabatic_err < 0.05).all()
            ),
        },
    )


def _run_oracle(p: dict, seed: int) -> Run:
    names, times, fids = zip(*oracle.oracle_equivalence(
        p["n_atoms"],
        p["kappa"],
        omega=p["omega"],
        omega_q=p["omega_q"],
        n_max=p["n_max"],
        samples_per_schedule=p["samples_per_schedule"],
    ))
    worst = min(fids)
    return Run(
        ["schedule", "time", "fidelity"], [names, times, fids],
        results={"min_fidelity": worst, "max_deviation": 1.0 - worst},
        checks={"agreement_1e-8": bool(worst > 1.0 - 1e-8)},
    )


# experiment -> (subcommand help, runner, parameters)
_TABLE = {
    "splitting-stats": ("pair-splitting Monte Carlo", _run_splitting, (
        Param("configs", 30000, _count(1, 3_000_000)),
        Param("atoms", 2, _count(2)),
        Param("box", [10.0, 10.0, 10.0], _kind(
            lambda v: _reals(v, 3) and min(v) > 0 and 0 < _volume(v) < inf,
            "three positive finite lengths with a positive finite volume",
            type=_numbers_arg, metavar="LX,LY,LZ")),
        Param("c3", 1000.0, _positive()),
        Param("statistic", "min-pair", _choice("min-pair", "all-pairs")),
        Param("bins", 60, _count(1, 10_000)),
        Param("window", [0.2, 20.0], _kind(
            lambda v: _reals(v, 2) and 0 < v[0] < v[1], "0 < lo < hi",
            type=_numbers_arg, metavar="LO,HI")),
        Param("out", None, _path(nullable=True, metavar="FILE")),
    )),
    "rabi": ("collective Rabi oscillation", _run_rabi, (
        Param("n_atoms", 10, _count(2, N_ATOMS_MAX)),
        Param("omega", 1.0, _frequency()),
        Param("kappa_bar", "ideal", _frequency("ideal")),
        Param("gamma_r", 0.0, _frequency(positive=False)),
        Param("convention", "split", _CONVENTION),
        Param("n_max", 2, _count(1), capped=True),
        Param("periods", 3.0, _positive(high=300.0)),
        Param("samples_per_period", 32, _count(4, 4096)),
    )),
    "fock": ("storage-rung ladder synthesis", _run_fock, (
        Param("n_atoms", 20, _count(2, N_ATOMS_MAX)),
        Param("n_target", 3, _count(0), capped=True),
        Param("omega", 1.0, _frequency()),
        Param("omega_q", 1.0, _frequency()),
        Param("kappa_bar", "ideal", _frequency("ideal")),
        Param("gamma_r", 0.0, _frequency(positive=False)),
        Param("convention", "split", _CONVENTION),
        Param("pulse_duration", None, _positive(nullable=True)),
        Param("n_max", None, _count(1, nullable=True), capped=True),
    )),
    "superpose": ("arbitrary superposition synthesis", _run_superpose, (
        Param("n_atoms", 10, _count(2, N_ATOMS_MAX)),
        Param("omega", 1.0, _frequency()),
        Param("omega_q", 1.0, _frequency()),
        Param("amplitudes", [0.5773502691896258, 0.5773502691896258,
                             0.5773502691896258], Kind(_amplitudes, {
            "type": _amplitudes_arg, "metavar": "A0,A1,...",
            "help": "complex entries, e.g. 0.707,0.5+0.5j "
                    "(normalized before use)",
        }), capped=True),
    )),
    "gate": ("conditional phase gate truth table", _run_gate, (
        Param("n_atoms", 10, _count(2, N_ATOMS_MAX)),
        Param("omega_plus", 1.0, _frequency()),
        Param("omega_minus", 1.0, _frequency()),
        Param("kappa_bar", "ideal", _frequency("ideal", "off")),
        Param("gamma_r", 0.0, _frequency(positive=False)),
        Param("convention", "split", _CONVENTION),
    )),
    "error-budget": ("leakage and dephasing scaling", _run_error_budget, (
        Param("n_atoms", 10, _count(2, N_ATOMS_MAX)),
        Param("convention", "eq1", _CONVENTION),
        Param("gamma_r", 0.001, _frequency(positive=False)),
        Param("kt_start", 10.0, _kind(lambda v: _is_real(v) and v >= 5,
                                      "a real number >= 5", type=float)),
        Param("kt_stop", 1000.0, _positive()),
        Param("kt_points", 13, _count(5, 2000)),
    )),
    "oracle-check": ("symmetric vs brute-force modes", _run_oracle, (
        Param("n_atoms", 3, _count(2, N_ORACLE)),
        Param("kappa", 40.0, _frequency()),
        Param("omega", 1.0, _frequency()),
        Param("omega_q", 1.0, _frequency()),
        Param("n_max", None, _count(1, nullable=True), capped=True),
        Param("samples_per_schedule", 24, _count(4, 4096)),
    )),
}

EXPERIMENTS = tuple(_TABLE)

DEFAULT_PARAMS = {
    exp: {param.name: param.default for param in params}
    for exp, (_, _, params) in _TABLE.items()
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_flags(parser: argparse.ArgumentParser, params) -> None:
    for param in params:
        parser.add_argument("--" + param.name.replace("_", "-"),
                            **param.kind.flag)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    _add_flags(common, _TOP)
    common.add_argument(
        "--print-config", action="store_true",
        help="print the resolved config and exit",
    )
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Collective-excitation simulator for blockaded ensembles",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, (help_text, _, params) in _TABLE.items():
        _add_flags(sub.add_parser(experiment, help=help_text, parents=[common],
                                  allow_abbrev=False), params)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built once per process (parsing leaves it
    unchanged)."""
    return build_parser()


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
    params = config["params"]
    for table, target in ((_TOP, config), (_TABLE[args.experiment][2], params)):
        for param in table:
            if getattr(args, param.name, None) is not None:
                target[param.name] = getattr(args, param.name)
    return config


def _artifacts(config: dict, p: dict, run: Run) -> dict:
    """The CSV table, optional schedule dump and JSON summary of one run,
    as {path: text}, named after the experiment (splitting-stats writes its
    table to ``out`` when set); the table's text is its chunks, rendered as
    they are written."""
    out_dir = Path(config["out_dir"])
    stem = config["experiment"].replace("-", "_")
    table = Path(p["out"]) if p.get("out") else out_dir / f"{stem}.csv"
    files = {table: _csv_text(run.header, run.columns)}
    if run.schedule is not None:
        files[out_dir / f"{stem}_schedule.txt"] = run.schedule.to_text()
    summary = {"experiment": config["experiment"], "config": config,
               "results": run.results, "checks": run.checks}
    files[out_dir / f"{stem}_summary.json"] = _json_text(summary)
    return files


def _write_all(artifacts: dict) -> None:
    """Write each file, a text or an iterable of text chunks, under a
    temporary name beside its target and move them all into place only once
    every write has succeeded; a failed write leaves none of them behind."""
    staged = []
    try:
        for path, text in artifacts.items():
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            with open(tmp, "w", newline="") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(OSError, ValueError):
                tmp.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args)
    except (OSError, ValueError) as exc:    # unreadable, or not JSON
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(config, dict) and config.get("experiment") != args.experiment:
        violations = [f"experiment: {args.config} is for "
                      f"{config['experiment']!r}, not {args.experiment!r}"]
    else:
        violations = validate(config)
    if violations:
        for item in violations:
            print(f"config violation: {item}", file=sys.stderr)
        return EXIT_CONFIG
    if args.print_config:
        print(_json_text(config), end="")
        return EXIT_OK
    _, runner, params = _TABLE[config["experiment"]]
    # the run's parameters: frequencies in rad/us, normalized amplitudes
    p = {param.name: param.kind.parse(config["params"][param.name])
         for param in params}
    try:
        artifacts = _artifacts(config, p, runner(p, config["seed"]))
    except (CompilationError, StiffnessError, GeometryError, BasisError,
            PhaseUndefinedError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        Path(config["out_dir"]).mkdir(parents=True, exist_ok=True)
        _write_all(artifacts)
    except (OSError, ValueError) as exc:    # ValueError: an unusable path
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
