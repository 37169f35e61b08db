"""Tests of the benchmark harness itself (op lists, layer wrappers, tracer)."""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from blockadesim import protocols  # noqa: E402

from perfbench import layers, measure, workloads  # noqa: E402


def _package_bindings():
    return {
        (mod.__name__, name): val
        for mod in layers._package_modules()
        for name, val in vars(mod).items()
        if callable(val)
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    assert workloads.build_ops(workload, 7) == workloads.build_ops(workload, 7)
    a, b = workloads.build_ops(workload, 7), workloads.build_ops(workload, 8)
    # the seed changes inputs, never which ops run
    assert [(o.name, o.kind, o.check, o.probe, o.timed) for o in a] == [
        (o.name, o.kind, o.check, o.probe, o.timed) for o in b
    ]


def test_seed_varies_inputs():
    a = workloads.build_ops("protocols", 1)
    b = workloads.build_ops("protocols", 2)
    assert a != b


def test_install_and_uninstall_leave_functions_identical():
    before = _package_bindings()
    evolve = sys.modules["blockadesim.dynamics"].evolve
    holders = [key for key, val in before.items() if val is evolve]
    assert len(holders) > 2          # dynamics, the package and importers
    patches, absent = layers.install(layers.Tracer())
    try:
        assert absent == []
        for mod, name in holders:    # rebound everywhere it was imported
            wrapped = getattr(sys.modules[mod], name)
            assert wrapped is not evolve and wrapped.__wrapped__ is evolve
    finally:
        layers.uninstall(patches)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_layer_is_reported_not_raised():
    spec = {
        "ghost": ("blockadesim._no_such_module", {"gone": "pair"}),
        "dynamics": ("blockadesim.dynamics",
                     {"evolve": "evolve", "strang_gone": "evolve"}),
    }
    before = _package_bindings()
    patches, absent = layers.install(layers.Tracer(), spec)
    try:
        assert absent == ["ghost", "dynamics.strang_gone"]
        assert patches
    finally:
        layers.uninstall(patches)
    assert all(_package_bindings()[k] is v for k, v in before.items())


def test_traced_truth_table_self_times_add_up():
    basis, static = protocols.register_basis(3, n_max=2, gate=True)
    sched = protocols.phase_gate_schedule(1.0, 1.0)
    tracer = layers.Tracer()
    patches, _ = layers.install(tracer)
    try:
        tracer.recording = True
        t0 = time.perf_counter()
        protocols.gate_truth_table(sched, basis, static)
        total = time.perf_counter() - t0
        tracer.recording = False
    finally:
        layers.uninstall(patches)
    m = layers.layer_metrics(tracer)
    assert m["dynamics.evolve_calls"] == 4
    assert m["dynamics.events"] == 12
    assert m["dynamics.dim3"] == 12 * basis.dim**3
    assert m["protocols.truth_table_s"] <= total
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    hooks = sum(s[4] - s[3] for s in tracer.spans if s[0] == layers.TRACE_FID)
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))
    # every instant of the root span is some layer's self time or a hook's
    assert self_sum + hooks == pytest.approx(m["protocols.truth_table_s"], rel=1e-9)
    assert set(m) >= {k for k in layers.LAYER_METRICS if not k.startswith("trace.")}


def test_deadline_interrupts_a_running_op():
    old = signal.signal(signal.SIGALRM, measure._on_alarm)
    try:
        t0 = time.perf_counter()
        with pytest.raises(measure.DeadlineExceeded):
            with measure.deadline(0.05):
                while True:
                    np.sqrt(np.arange(100.0))
        assert time.perf_counter() - t0 < 1.0
    finally:
        signal.signal(signal.SIGALRM, old)


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.LAYER_METRICS)
