"""Timed passes, per-op deadlines and the result of one benchmark run.

A run builds the workload's op list and references, runs one untimed
warm-up pass over the timed ops and then closed-loop passes over the op list
until ``seconds`` of passes are used.  An untraced run also measures
``setup_s`` in fresh processes, spawned one at a time between passes and
spread evenly over the run: this machine's speed shifts for tens of seconds
at a time, and the median of spawns spread over the run moves less from run
to run than the best or the median of spawns made back to back.  In a traced run untraced and traced passes
alternate, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import blockadesim
from blockadesim import cli

from . import THREAD_VARS, layers
from .workloads import CHECKS, build_ops, build_references, run_api

SETUP_SPAWNS = 15
SETUP_TIMEOUT_S = 60.0
MIN_PASSES = 2


class DeadlineExceeded(BaseException):
    """Raised inside the running op when its deadline passes.

    A BaseException, so the CLI's own error handling cannot swallow it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DeadlineExceeded


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the block after ``seconds`` (SIGALRM; no extra process)."""
    global _armed
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure_setup(root: Path) -> float:
    """Seconds from spawning a fresh interpreter until ``blockadesim.cli`` is
    imported.  CLOCK_MONOTONIC is shared by both processes."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import blockadesim.cli; print(repr(time.monotonic()))"
    )
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(root / "src")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=root,
    )
    try:
        stdout, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("set-up process could not import blockadesim.cli")
    return float(stdout.decode().strip().splitlines()[-1]) - t0


@dataclass
class OpRun:
    name: str
    probe: bool
    timed: bool
    latency_s: float
    cpu_s: float
    failure: str | None


@dataclass
class Pass:
    traced: bool
    runs: list[OpRun] = field(default_factory=list)
    layer: dict | None = None           # per-layer metrics of a traced pass
    absent: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.latency_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.runs)


def run_op(op, index: int, ref, tmp: Path, tracer=None) -> OpRun:
    """Run one op under its deadline, then check its output (untimed)."""
    out_dir = tmp / f"op{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    result, failure = None, None
    with contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.op_id, tracer.recording = index, True
        c0, t0 = process_time(), perf_counter()
        try:
            with deadline(op.deadline_s):
                if op.kind == "cli":
                    argv = [a.replace("{tmp}", str(tmp)) for a in op.args]
                    result = cli.main(argv + ["--out-dir", str(out_dir)])
                else:
                    result = run_api(op)
        except DeadlineExceeded:
            failure = f"deadline of {op.deadline_s} s exceeded"
        except Exception as exc:
            failure = f"raised {type(exc).__name__}: {exc}"
        t1, c1 = perf_counter(), process_time()
        if tracer is not None:
            tracer.recording = False
            tracer.reset_stack()
    if failure is None and t1 - t0 > op.deadline_s:
        failure = f"overran its {op.deadline_s} s deadline"
    if failure is None and op.kind == "cli" and result != op.expect_rc:
        failure = f"exit {result}, expected {op.expect_rc}"
    if failure is None:
        try:
            failure = CHECKS[op.check](op, out_dir, result, ref)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None and op.kind == "cli":
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        tracer.count("cli.artifacts", len(files))
        tracer.count("cli.artifact_bytes", sum(p.stat().st_size for p in files))
    shutil.rmtree(out_dir, ignore_errors=True)
    return OpRun(op.name, op.probe, op.timed, t1 - t0, c1 - c0, failure)


def run_pass(ops, refs, tmp: Path, traced: bool) -> Pass:
    record = Pass(traced)
    tracer = patches = None
    if traced:
        tracer = layers.Tracer()
        patches, absent = layers.install(tracer)
    try:
        for i, op in enumerate(ops):
            record.runs.append(run_op(op, i, refs.get(op.name), tmp, tracer))
    finally:
        if patches is not None:
            layers.uninstall(patches)
    if traced:
        record.layer = layers.layer_metrics(tracer)
        record.layer["trace.hook_errors"] = float(tracer.hook_errors)
        record.absent = absent
    return record


def context() -> dict:
    """Machine and build context recorded with every result."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blockadesim": getattr(blockadesim, "__version__", "unknown"),
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _median(xs):
    return float(statistics.median(xs))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        tmp: Path):
    """One benchmark run; returns (result, details) as JSON-ready dicts."""
    ops = build_ops(workload, seed)
    for op in ops:
        for name, text in op.files:
            (tmp / name).write_text(text)
    refs = build_references(ops)
    signal.signal(signal.SIGALRM, _on_alarm)

    for i, op in enumerate(ops):          # warm-up, untimed, result discarded
        if op.timed:
            run_op(op, i, refs.get(op.name), tmp)

    passes: list[Pass] = []
    setup: list[float] = []
    spawns = 0 if trace else SETUP_SPAWNS
    t_start, t_setup, elapsed = perf_counter(), 0.0, 0.0
    while True:
        if len(setup) < spawns and elapsed >= len(setup) * seconds / spawns:
            t0 = perf_counter()
            setup.append(measure_setup(root))
            t_setup += perf_counter() - t0
        t0 = perf_counter()
        passes.append(run_pass(ops, refs, tmp, traced=trace and len(passes) % 2 == 1))
        elapsed, last = perf_counter() - t_start - t_setup, perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            break
    while len(setup) < spawns:
        setup.append(measure_setup(root))

    runs = [r for p in passes for r in p.runs]
    regular = [r for r in runs if not r.probe]
    failed = sum(r.failure is not None for r in regular)
    per_op = _op_summary(runs)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "context": context(),
        "passes": len(passes),
        "ops": per_op,
    }
    if not trace:
        timed = [e for e in per_op.values() if e["timed"]]
        best = [e["best_ms"] for e in timed]
        metrics = {
            "setup_s": (_median(setup), "s"),
            "pass_s": (sum(best) / 1e3, "s"),
            "op_p50_ms": (_median(best), "ms"),
            "op_max_ms": (max(best), "ms"),
            "cpu_s": (sum(e["best_cpu_ms"] for e in timed) / 1e3, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (sum(r.failure is None for r in runs) / len(runs), "frac"),
        }
        details["samples"] = {
            "setup_s": len(setup), "per_op": len(passes), "ops": len(timed),
            "ok_frac": len(runs),
        }
        details["medians"] = {
            "pass_s": _median([p.wall_s for p in passes]),
            "cpu_s": _median([p.cpu_s for p in passes]),
            "op_p50_ms": _median([r.latency_s for r in runs]) * 1e3,
        }
    else:
        metrics, extra = _layer_summary(passes)
        details.update(extra)
    result = {
        "correct": failed == 0,
        "attempted": len(regular),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def _op_summary(runs) -> dict:
    """Per op: runs, failures, best (minimum) and median latency."""
    out = {}
    for r in runs:
        entry = out.setdefault(r.name, {"probe": r.probe, "timed": r.timed,
                                        "lat": [], "cpu": [],
                                        "failures": 0, "first_failure": None})
        entry["lat"].append(r.latency_s)
        entry["cpu"].append(r.cpu_s)
        if r.failure is not None:
            entry["failures"] += 1
            entry["first_failure"] = entry["first_failure"] or r.failure
    for entry in out.values():
        lat, cpu = entry.pop("lat"), entry.pop("cpu")
        entry["runs"] = len(lat)
        entry["best_ms"] = min(lat) * 1e3
        entry["best_cpu_ms"] = min(cpu) * 1e3
        entry["median_ms"] = _median(lat) * 1e3
    return out


def _best_pass_s(passes) -> float:
    """Sum over the timed ops of each op's best latency in these passes."""
    runs = [r for p in passes for r in p.runs if r.timed]
    return sum(e["best_ms"] for e in _op_summary(runs).values()) / 1e3


def _layer_summary(passes):
    """Per-layer metrics: medians over the traced passes (max for the
    max-type counters), plus best-of pass times of traced and untraced passes."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {}
    for name, (unit, _, _) in layers.LAYER_METRICS.items():
        if name.startswith("trace."):
            continue
        vals = [p.layer.get(name, 0.0) for p in traced]
        agg = max(vals) if name in layers.MAX_COUNTERS else _median(vals)
        metrics[name] = (float(agg), unit)
    t_traced = _best_pass_s(traced)
    t_plain = _best_pass_s(plain)
    metrics["trace.pass_s"] = (t_traced, "s")
    metrics["trace.untraced_pass_s"] = (t_plain, "s")
    metrics["trace.overhead_s"] = (t_traced - t_plain, "s")
    metrics["trace.spans"] = (_median([p.layer["trace.spans"] for p in traced]), "count")
    metrics["trace.absent"] = (float(len(traced[0].absent)), "count")
    extra = {
        "absent": traced[0].absent,
        "hook_errors": sum(p.layer["trace.hook_errors"] for p in traced),
        "traced_passes": len(traced),
        "layer_moves": {k: v[2] for k, v in layers.LAYER_METRICS.items()},
    }
    return metrics, extra
