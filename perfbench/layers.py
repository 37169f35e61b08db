"""Outside-in layer tracing of blockadesim's public functions.

``install(tracer)`` wraps the functions listed in ``LAYERS`` and rebinds each
wrapper everywhere a ``blockadesim`` module holds the original by name (for
example ``evolve`` in ``cli``, ``errors``, ``oracle`` and ``protocols``);
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.  A
module or function that no longer exists is reported as absent instead of
raising, so the tracer survives refactors that delete or rename layers.

Each call records a span ``[function, op id, parent span, start, end,
outermost in its group]``; the spans stay in memory until the pass ends.  A
layer's self time is its span time minus the time covered by its child
spans.  ``<layer>.<group>_s`` is the inclusive time of the outermost spans
of that group.  Counters that need the call's arguments or result (dims,
nnz, events, ...) are filled by hooks that run after the span has closed and
are themselves recorded as ``trace`` spans, so their cost lands in the
tracing overhead, not in a layer.  Per-layer metrics cover every op, probes
included.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> (module, {function: group}).  units is not timed: each op makes
# only a handful of parse_frequency calls.
LAYERS = {
    "cli": ("blockadesim.cli", {
        "main": "main", "build_parser": "parse", "resolve_config": "resolve",
        "default_config": "resolve", "validate": "validate",
    }),
    "hilbert": ("blockadesim.hilbert", {
        "enumerate_basis": "enumerate", "collective_op": "assemble",
        "number_op": "assemble", "rydberg_number": "assemble",
        "drive_term": "assemble", "dipole_term": "assemble",
        "dephasing_term": "assemble", "symmetric_embedding": "embed",
        "hermiticity_defect": "check",
    }),
    "dynamics": ("blockadesim.dynamics", {
        "evolve": "evolve", "fidelity": "analyse", "accumulated_phase": "analyse",
    }),
    "protocols": ("blockadesim.protocols", {
        "register_basis": "register", "rabi_pulse": "compile",
        "fock_ladder": "compile", "superposition_schedule": "compile",
        "phase_gate_schedule": "compile", "gate_truth_table": "truth_table",
    }),
    "errors": ("blockadesim.errors", {
        "blockade_scaling_experiment": "scan", "atom_number_sensitivity": "scan",
        "dephasing_norm_loss": "scan", "geometry_factor": "scan",
        "estimate_budget": "estimate", "p_doub_estimate": "estimate",
        "p_deph_estimate": "estimate", "p_doub_geometry": "estimate",
        "regime_check": "estimate",
    }),
    "geometry": ("blockadesim.geometry", {
        "splitting_distribution": "sample", "sample_positions": "sample",
        "coupling_matrix": "sample", "splitting_ks": "ks",
        "analytic_window_cdf": "ks", "analytic_splitting_pdf": "density",
    }),
    "kernels": ("blockadesim._kernels", {
        "min_pair_kappa": "pair", "all_pair_kappa": "pair",
    }),
    "oracle": ("blockadesim.oracle", {
        "oracle_equivalence": "compare", "oracle_schedules": "compare",
    }),
}

# per-layer metric -> (unit, better, the end-to-end metric and workloads it
# should move).  Every traced run reports all of them; a layer a workload
# never enters reads 0.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "op_p50_ms on protocols (~34% of the pass)"),
    "cli.calls": ("count", "lower", "op_p50_ms on protocols"),
    "cli.rejected": ("count", "higher", "ok_frac on protocols (probes exit 2 once fixed)"),
    "cli.artifacts": ("count", "lower", "op_p50_ms on protocols"),
    "cli.artifact_bytes": ("B", "lower", "op_p50_ms on protocols"),
    "hilbert.self_s": ("s", "lower", "pass_s on protocols"),
    "hilbert.enumerate_s": ("s", "lower", "pass_s on protocols (oracle-n3)"),
    "hilbert.enumerate_calls": ("count", "lower", "pass_s on protocols (oracle-n3)"),
    "hilbert.dim_max": ("count", "lower", "pass_s on protocols (oracle-n3)"),
    "hilbert.assemble_s": ("s", "lower", "pass_s and op_p50_ms on protocols (~40%)"),
    "hilbert.assemble_calls": ("count", "lower", "pass_s and op_p50_ms on protocols"),
    "hilbert.nnz": ("count", "lower", "pass_s on protocols"),
    "hilbert.embed_s": ("s", "lower", "pass_s on protocols (oracle-n3)"),
    "dynamics.self_s": ("s", "lower", "pass_s on protocols (decaying ops)"),
    "dynamics.evolve_s": ("s", "lower", "pass_s on protocols (decaying ops)"),
    "dynamics.evolve_calls": ("count", "lower", "pass_s on protocols"),
    "dynamics.events": ("count", "lower", "pass_s on protocols"),
    "dynamics.decaying_events": ("count", "lower", "pass_s and op_max_ms on protocols"),
    "dynamics.samples": ("count", "lower", "pass_s on protocols"),
    "dynamics.dim3": ("count", "lower",
                      "pass_s on protocols (computed: sum of dim^3 over propagated events)"),
    "dynamics.norm_loss_max": ("prob", "lower", "ok_frac on protocols (reference checks)"),
    "protocols.self_s": ("s", "lower", "op_p50_ms on protocols"),
    "protocols.compile_s": ("s", "lower", "op_p50_ms on protocols"),
    "protocols.compile_calls": ("count", "lower", "op_p50_ms on protocols"),
    "protocols.truth_table_s": ("s", "lower", "op_p50_ms on protocols"),
    "errors.self_s": ("s", "lower", "pass_s on protocols"),
    "errors.scan_s": ("s", "lower", "pass_s on protocols (error-budget)"),
    "errors.scan_points": ("count", "lower", "pass_s on protocols"),
    "geometry.self_s": ("s", "lower", "pass_s and peak_rss_mb on splitting (~72%)"),
    "geometry.sample_s": ("s", "lower", "pass_s and peak_rss_mb on splitting"),
    "geometry.ks_s": ("s", "lower", "pass_s on splitting"),
    "geometry.configs": ("count", "lower", "pass_s on splitting"),
    "geometry.pairs": ("count", "lower", "pass_s and peak_rss_mb on splitting"),
    "kernels.self_s": ("s", "lower", "pass_s and peak_rss_mb on splitting (~27%)"),
    "kernels.pair_s": ("s", "lower", "pass_s on splitting"),
    "kernels.input_bytes": ("B", "lower", "peak_rss_mb on splitting"),
    "oracle.self_s": ("s", "lower", "pass_s on protocols (oracle-n3)"),
    "oracle.pr_dim": ("count", "lower", "pass_s on protocols (oracle-n3)"),
    "trace.pass_s": ("s", "lower", "pass_s over the traced passes"),
    "trace.untraced_pass_s": ("s", "lower", "pass_s over the untraced passes of the same run"),
    "trace.overhead_s": ("s", "lower", "tracing overhead: traced minus untraced pass_s"),
    "trace.spans": ("count", "lower", "spans recorded per traced pass"),
    "trace.absent": ("count", "lower", "layer functions missing from the package"),
}

MAX_COUNTERS = ("hilbert.dim_max", "oracle.pr_dim", "dynamics.norm_loss_max")
TRACE_FID = "trace.hook"


class Tracer:
    """Span store and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.recording = False
        self.op_id = -1
        self.hook_errors = 0

    def count(self, name: str, value: float = 1.0) -> None:
        if name in MAX_COUNTERS:
            self.counters[name] = max(self.counters[name], value)
        else:
            self.counters[name] += value

    def reset_stack(self) -> None:
        """After an interrupted op: close every span still open."""
        now = perf_counter()
        for idx in self.stack:
            self.spans[idx][4] = now
        self.stack.clear()


def _outermost_in_group(tracer: Tracer, fid: str) -> bool:
    group = GROUP_OF.get(fid)
    return all(GROUP_OF.get(tracer.spans[i][0]) != group for i in tracer.stack)


def _hook_enumerate(tracer, bound, out):
    tracer.count("hilbert.dim_max", out.dim)
    if bound.arguments.get("mode") == "pair-resolved":
        tracer.count("oracle.pr_dim", out.dim)


def _hook_assemble(tracer, bound, out):
    tracer.count("hilbert.nnz", out.matrix.nnz)


def _hook_evolve(tracer, bound, out):
    events = bound.arguments["schedule"].events
    moving = sum(1 for ev in events if ev.duration > 0)
    dim = bound.arguments["basis"].dim
    decays = any(
        np.abs(term.matrix.diagonal().imag).max(initial=0.0) > 0
        for term in bound.arguments["static_terms"]
    )
    tracer.count("dynamics.events", len(events))
    tracer.count("dynamics.decaying_events", moving if decays else 0)
    tracer.count("dynamics.samples", len(out.times))
    tracer.count("dynamics.dim3", float(dim) ** 3 * moving)
    tracer.count("dynamics.norm_loss_max", float(1.0 - out.norm2[-1]))


def _hook_main(tracer, bound, out):
    tracer.count("cli.calls")
    tracer.count("cli.rejected", out == 2)


def _hook_scan(tracer, bound, out):
    args = bound.arguments
    if "kappa_T_values" in args:
        points = len(args["kappa_T_values"])
    elif "deltas" in args:
        points = len(args["deltas"])
    else:
        points = 1
    tracer.count("errors.scan_points", points)


def _hook_splitting(tracer, bound, out):
    n, atoms = bound.arguments["n_configs"], bound.arguments["n_atoms"]
    tracer.count("geometry.configs", n)
    tracer.count("geometry.pairs", n * atoms * (atoms - 1) // 2)


def _hook_pair(tracer, bound, out):
    tracer.count("kernels.input_bytes", bound.arguments["positions"].nbytes)


# counters that need a call's arguments or result; a hook runs only for the
# outermost span of its group (drive_term's inner collective_op adds no nnz)
HOOKS = {
    "hilbert.enumerate_basis": _hook_enumerate,
    "hilbert.collective_op": _hook_assemble,
    "hilbert.number_op": _hook_assemble,
    "hilbert.rydberg_number": _hook_assemble,
    "hilbert.drive_term": _hook_assemble,
    "hilbert.dipole_term": _hook_assemble,
    "hilbert.dephasing_term": _hook_assemble,
    "dynamics.evolve": _hook_evolve,
    "cli.main": _hook_main,
    "errors.blockade_scaling_experiment": _hook_scan,
    "errors.atom_number_sensitivity": _hook_scan,
    "errors.dephasing_norm_loss": _hook_scan,
    "errors.geometry_factor": _hook_scan,
    "geometry.splitting_distribution": _hook_splitting,
    "kernels.min_pair_kappa": _hook_pair,
    "kernels.all_pair_kappa": _hook_pair,
}

GROUP_OF = {
    f"{layer}.{fname}": f"{layer}.{group}"
    for layer, (_, funcs) in LAYERS.items()
    for fname, group in funcs.items()
}


def _wrap(tracer: Tracer, fid: str, fn):
    hook = HOOKS.get(fid)
    try:
        sig = inspect.signature(fn) if hook else None
    except (TypeError, ValueError):
        sig = hook = None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        spans, stack = tracer.spans, tracer.stack
        outer = _outermost_in_group(tracer, fid)
        rec = [fid, tracer.op_id, stack[-1] if stack else -1, perf_counter(), 0.0, outer]
        stack.append(len(spans))
        spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[4] = perf_counter()
            stack.pop()
        if outer and hook is not None:
            hrec = [TRACE_FID, tracer.op_id, stack[-1] if stack else -1, rec[4], 0.0, False]
            spans.append(hrec)
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound, out)
            except Exception:
                tracer.hook_errors += 1
            hrec[4] = perf_counter()
        return out

    return wrapper


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "blockadesim" or name.startswith("blockadesim."))
    ]


def install(tracer: Tracer, layers=LAYERS):
    """Wrap every listed function and rebind it in all package modules.

    Returns ``(patches, absent)``: the undo list for ``uninstall`` and the
    ``layer`` or ``layer.function`` names that could not be found.
    """
    wrappers: dict[int, tuple] = {}
    absent: list[str] = []
    for layer, (modname, funcs) in layers.items():
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            absent.append(layer)
            continue
        for fname in funcs:
            fn = getattr(mod, fname, None)
            if not inspect.isfunction(fn):
                absent.append(f"{layer}.{fname}")
                continue
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{layer}.{fname}", fn))
    patches = []
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patches.append((mod, attr, val))
    return patches, absent


def uninstall(patches) -> None:
    for mod, attr, val in reversed(patches):
        setattr(mod, attr, val)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, group times and counters of one traced pass."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for fid, _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {name: 0.0 for name in LAYER_METRICS if not name.startswith("trace.")}
    for i, (fid, _, _, t0, t1, outer) in enumerate(spans):
        layer = fid.split(".", 1)[0]
        if layer == "trace":
            continue
        out[f"{layer}.self_s"] += (t1 - t0) - child_time[i]
        group = GROUP_OF[fid]
        if outer:
            if f"{group}_s" in out:
                out[f"{group}_s"] += t1 - t0
            if f"{group}_calls" in out:
                out[f"{group}_calls"] += 1
    for name, value in tracer.counters.items():
        out[name] = value
    out["trace.spans"] = float(len(spans))
    return out
