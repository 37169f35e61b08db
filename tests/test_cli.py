import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize  # noqa: F401  (loaded before the timed rabi run)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockadesim import cli, errors, geometry, hilbert, protocols
from blockadesim.dynamics import Schedule
from blockadesim.hilbert import N_ATOMS_MAX, N_ORACLE
from blockadesim.protocols import CompilationError


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_default_configs_clean():
    for exp in cli.EXPERIMENTS:
        assert cli.validate(cli.default_config(exp)) == []


def test_validate_unknown_experiment():
    out = cli.validate({"experiment": "frobnicate"})
    assert len(out) == 1 and "unknown kind" in out[0]


def test_validate_n_max_exceeds_atoms():
    config = cli.default_config("rabi")
    config["params"]["n_atoms"] = 3
    config["params"]["n_max"] = 5
    out = cli.validate(config)
    assert len(out) == 1
    assert "n_max" in out[0] and "n_atoms" in out[0]


def test_validate_negative_omega():
    config = cli.default_config("rabi")
    config["params"]["omega"] = -1.0
    out = cli.validate(config)
    assert any("omega" in item for item in out)


def test_invalid_config_exits_2_without_artifacts(tmp_path):
    code = run_cli(
        "rabi", "--out-dir", str(tmp_path), "--omega", "-3.0"
    )
    assert code == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_unknown_frequency_unit_rejected(tmp_path, capsys):
    code = run_cli("rabi", "--out-dir", str(tmp_path), "--omega", "5furlongs")
    assert code == cli.EXIT_CONFIG
    assert "params.omega: must be a positive frequency (unknown frequency " \
           "unit 'furlongs' in '5furlongs')" in capsys.readouterr().err


def test_milli_frequency_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("rabi", "--out-dir", str(out), "--omega", "1mHz")
    assert code == cli.EXIT_CONFIG
    assert "params.omega: must be a positive frequency (unknown frequency " \
           "unit 'mHz' in '1mHz')" in capsys.readouterr().err
    assert not out.exists()


def test_gate_experiment_ideal(tmp_path):
    code = run_cli("gate", "--out-dir", str(tmp_path), "--n-atoms", "5")
    assert code == 0
    summary = json.loads((tmp_path / "gate_summary.json").read_text())
    phases = summary["results"]["phases"]
    assert abs(phases["g"]) < 1e-2
    for key in ("q+", "q-", "q+q-"):
        assert abs(abs(phases[key]) - np.pi) < 1e-2
    assert summary["checks"]["phases_within_1e-2"]
    sched = Schedule.from_text((tmp_path / "gate_schedule.txt").read_text())
    assert len(sched.events) == 3
    assert summary["config"]["params"]["n_atoms"] == 5


def test_decaying_gate_phases_read_plus_pi(tmp_path):
    # pi up to rounding is written as +pi, whatever its last bits
    code = run_cli("gate", "--kappa-bar", "100", "--omega-plus", "40",
                   "--omega-minus", "40", "--gamma-r", "0.01",
                   "--out-dir", str(tmp_path))
    assert code == 0
    results = json.loads((tmp_path / "gate_summary.json").read_text())["results"]
    assert abs(results["phases"]["q+q-"] - np.pi) < 1e-9
    assert abs(results["conditional_phase"] - np.pi) < 1e-9


@pytest.mark.parametrize("extra", [(), ("--gamma-r", "1")], ids=["ideal", "decaying"])
def test_gate_with_a_sub_ulp_closing_pulse(tmp_path, extra):
    # the closing pi-pulse of 3e-300 us ends below ulp of its start time;
    # it is propagated over its own duration and still flips the phases
    code = run_cli("gate", "--omega-minus", "1e300", *extra, "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "gate_summary.json").read_text())
    assert summary["checks"]["phases_within_1e-2"]


def test_splitting_stats_csv(tmp_path):
    code = run_cli(
        "splitting-stats", "--out-dir", str(tmp_path),
        "--configs", "400", "--atoms", "2", "--bins", "24",
    )
    assert code == 0
    lines = (tmp_path / "splitting_stats.csv").read_text().splitlines()
    assert lines[0] == "x_left,x_right,count,density,analytic_density"
    assert len(lines) == 25
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 400
    summary = json.loads((tmp_path / "splitting_stats_summary.json").read_text())
    assert 0 <= summary["results"]["ks_distance"] <= 1


def test_splitting_stats_out_flag(tmp_path):
    target = tmp_path / "custom.csv"
    code = run_cli(
        "splitting-stats", "--out-dir", str(tmp_path),
        "--configs", "50", "--out", str(target),
    )
    assert code == 0
    assert target.exists()


def test_rabi_experiment(tmp_path):
    code = run_cli("rabi", "--out-dir", str(tmp_path), "--n-atoms", "4")
    assert code == 0
    summary = json.loads((tmp_path / "rabi_summary.json").read_text())
    assert summary["results"]["relative_error"] < 0.01
    assert summary["checks"]["collective_enhancement_1pct"]
    header = (tmp_path / "rabi.csv").read_text().splitlines()[0]
    assert header == "time,p_ground,p_single,p_leak,norm2"


def test_fock_experiment(tmp_path):
    code = run_cli(
        "fock", "--out-dir", str(tmp_path), "--n-atoms", "12",
        "--n-target", "2",
    )
    assert code == 0
    summary = json.loads((tmp_path / "fock_summary.json").read_text())
    assert summary["results"]["fidelity"] > 0.999
    assert (tmp_path / "fock_schedule.txt").exists()


def test_superpose_experiment(tmp_path):
    code = run_cli(
        "superpose", "--out-dir", str(tmp_path),
        "--amplitudes", "0.6,0.8",
    )
    assert code == 0
    summary = json.loads((tmp_path / "superpose_summary.json").read_text())
    assert summary["results"]["fidelity"] > 1 - 1e-6
    assert summary["results"]["roundtrip_fidelity"] > 1 - 1e-8


def test_superpose_normalizes_input(tmp_path):
    # unnormalized entries are scaled to unit norm at the boundary
    code = run_cli(
        "superpose", "--out-dir", str(tmp_path), "--amplitudes", "3,4",
    )
    assert code == 0
    summary = json.loads((tmp_path / "superpose_summary.json").read_text())
    assert summary["results"]["fidelity"] > 1 - 1e-6
    config = cli.default_config("superpose")
    config["params"]["amplitudes"] = [0.0, 0.0]
    assert any("vanish" in item for item in cli.validate(config))


def test_error_budget_experiment(tmp_path):
    code = run_cli(
        "error-budget", "--out-dir", str(tmp_path),
        "--kt-start", "10", "--kt-stop", "200", "--kt-points", "6",
    )
    assert code == 0
    lines = (tmp_path / "error_budget.csv").read_text().splitlines()
    assert lines[0] == \
        "kappaT,p_doub_est,p_doub_sim,p_deph_est,p_deph_sim,slope_fit"
    assert len(lines) == 7
    summary = json.loads((tmp_path / "error_budget_summary.json").read_text())
    assert -2.2 < summary["results"]["slope"] < -1.8


def test_runs_enumerate_each_basis_and_build_each_operator_once(tmp_path, monkeypatch):
    # error-budget enumerates its scan's register and the two-atom basis of
    # dephasing_norm_loss; gate builds one operator per transition of its
    # three pulses for the four inputs' evolve calls
    enumerated, built = [], []

    def spy(fn, calls):
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return counted

    for mod in (errors, protocols):
        monkeypatch.setattr(mod, "enumerate_basis", spy(hilbert.enumerate_basis, enumerated))
    monkeypatch.setattr(hilbert, "_collective_op", spy(hilbert._collective_op, built))
    assert run_cli("error-budget", "--out-dir", str(tmp_path / "budget")) == 0
    assert [args[0] for args in enumerated] == [10, 2]
    built.clear()
    assert run_cli("gate", "--out-dir", str(tmp_path / "gate")) == 0
    assert [args[1:] for args in built] == [("q-", "r-"), ("q+", "r+"), ("r-", "q-")]


_DECOMPOSITIONS = {
    # argv: (eigh, expm, block labellings, pair-channel moves)
    ("gate",): (3, 0, 3, 0),
    ("gate", "--kappa-bar", "100", "--omega-plus", "40", "--omega-minus", "40",
     "--gamma-r", "0.01"): (0, 3, 3, 3),
    ("fock", "--n-target", "9"): (2, 0, 2, 0),
    ("oracle-check",): (22, 0, 8, 1),
    ("error-budget",): (13, 0, 14, 1),
}


@pytest.mark.parametrize("argv", _DECOMPOSITIONS, ids=" ".join)
def test_runs_decompose_each_distinct_generator_once(tmp_path, monkeypatch, argv):
    # a register decomposes each distinct generator once: gate's four inputs
    # share three, the fock ladder alternates two, the oracle's second
    # pi-pulse reuses the first; error-budget builds one dipole pattern (one
    # move per pair channel) for its 13 couplings, while each of its points
    # is a register of its own
    import scipy.linalg

    from blockadesim import dynamics

    calls = dict.fromkeys(("eigh", "expm", "_blocks", "moves"), 0)

    def spy(mod, name, key=None):
        fn = getattr(mod, name)

        def counted(*args, **kwargs):
            if key is None or key(*args):
                calls[name if key is None else "moves"] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)

    spy(np.linalg, "eigh")
    spy(scipy.linalg, "expm")
    spy(dynamics, "_blocks")
    # two r-type quanta into a pair mode: one dipole channel's entries
    spy(hilbert, "_moves",
        lambda basis, changes: any(hilbert.is_pair_mode(lev) for lev, _ in changes))
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
    assert tuple(calls.values()) == _DECOMPOSITIONS[argv]


@pytest.mark.parametrize("convention", ["eq1", "split"])
def test_error_budget_matches_adiabatic_prefactor(tmp_path, convention):
    code = run_cli("error-budget", "--out-dir", str(tmp_path),
                   "--convention", convention)
    assert code == 0
    summary = json.loads((tmp_path / "error_budget_summary.json").read_text())
    assert summary["checks"]["prefactor_within_5pct_adiabatic"] is True
    assert summary["results"]["adiabatic_prefactor"] > 0


_IMPORT_PATH_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]

import blockadesim, blockadesim.cli as cli
assert scipy_modules() == [], scipy_modules()
assert cli.main(["splitting-stats", "--configs", "200", "--out-dir", out]) == 0
assert scipy_modules() == [], scipy_modules()
for experiment in ("fock", "superpose", "gate", "oracle-check"):
    assert cli.main([experiment, "--out-dir", out]) == 0
    assert scipy_modules() == [], (experiment, scipy_modules())
assert cli.main(["rabi", "--gamma-r", "0.01", "--periods", "0.25",
                 "--out-dir", out]) == 0
assert "scipy.linalg" in sys.modules
"""


def test_import_path_loads_no_scipy(tmp_path):
    """Importing the package and running splitting-stats, fock, superpose,
    gate and oracle-check at defaults load no scipy; a decaying run loads
    scipy.linalg on first use."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_PROBE, src, str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is not installed")

sys.meta_path.insert(0, NoScipy())
sys.path.insert(0, sys.argv[1])
from blockadesim import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def test_error_budget_runs_without_scipy(tmp_path):
    """Default error-budget needs numpy only: with every scipy import made
    to fail it exits 0 and writes the files it writes with scipy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, src, "error-budget",
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    without = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for p in out.iterdir():
        p.unlink()
    assert run_cli("error-budget", "--out-dir", str(out)) == 0
    assert without == {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(without) == 2


@pytest.mark.parametrize("argv", [
    ("rabi", "--kappa", "100", "--out-dir", "{out}"),     # --kappa-bar
    ("rabi", "--out", "{out}"),                          # --out-dir
])
def test_abbreviated_flags_rejected(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)          # the default out_dir is "."
    out = tmp_path / "out"
    code = run_cli(*(a.replace("{out}", str(out)) for a in argv))
    assert code == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_oracle_check_experiment(tmp_path):
    code = run_cli("oracle-check", "--out-dir", str(tmp_path),
                   "--n-atoms", "3")
    assert code == 0
    summary = json.loads((tmp_path / "oracle_check_summary.json").read_text())
    assert summary["checks"]["agreement_1e-8"]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "rabi",
        "seed": 3,
        "params": {"n_atoms": 9, "periods": 2.0},
    }))
    out = tmp_path / "out"
    code = run_cli("rabi", "--config", str(cfg), "--out-dir", str(out),
                   "--n-atoms", "4")
    assert code == 0
    summary = json.loads((out / "rabi_summary.json").read_text())
    assert summary["config"]["params"]["n_atoms"] == 4     # flag wins
    assert summary["config"]["params"]["periods"] == 2.0   # file wins
    assert summary["config"]["seed"] == 3


def test_print_config_writes_nothing(tmp_path, capsys):
    code = run_cli("gate", "--out-dir", str(tmp_path), "--print-config")
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["experiment"] == "gate"
    assert list(tmp_path.iterdir()) == []


def test_byte_identical_reruns(tmp_path):
    argv = [
        "splitting-stats", "--out-dir", str(tmp_path),
        "--configs", "300", "--seed", "5",
    ]
    assert run_cli(*argv) == 0
    first = {
        p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
    }
    assert run_cli(*argv) == 0
    second = {
        p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
    }
    assert first == second


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("splitting-stats", "--out-dir", str(a), "--configs", "200",
            "--seed", "1")
    run_cli("splitting-stats", "--out-dir", str(b), "--configs", "200",
            "--seed", "2")
    assert (a / "splitting_stats.csv").read_bytes() != \
        (b / "splitting_stats.csv").read_bytes()


def _replace_gate_runner(monkeypatch, runner):
    help_text, _, params = cli._TABLE["gate"]
    monkeypatch.setitem(cli._TABLE, "gate", (help_text, runner, params))


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(p, seed):
        raise CompilationError("synthetic failure")

    _replace_gate_runner(monkeypatch, boom)
    out = tmp_path / "out"
    code = run_cli("gate", "--out-dir", str(out))
    assert code == cli.EXIT_NUMERICAL
    assert not out.exists()             # no partial artifacts, no empty dir


def test_io_failure_exit_code(tmp_path, monkeypatch):
    def boom(p, seed):
        raise OSError("disk went away")

    _replace_gate_runner(monkeypatch, boom)
    code = run_cli("gate", "--out-dir", str(tmp_path))
    assert code == cli.EXIT_IO


def test_write_error_is_an_io_failure(tmp_path, monkeypatch):
    # a path the file system refuses once the run has succeeded: exit 4
    monkeypatch.setattr(cli, "_artifacts",
                        lambda config, p, run: {tmp_path / "a\0b": "x"})
    assert run_cli("gate", "--out-dir", str(tmp_path)) == cli.EXIT_IO


def test_failed_write_leaves_no_artifacts(tmp_path, monkeypatch):
    # the first file is written fine, the second cannot be: neither remains
    first, second = tmp_path / "a.csv", tmp_path / "missing" / "b.csv"
    monkeypatch.setattr(cli, "_artifacts",
                        lambda config, p, run: {first: "x", second: "y"})
    assert run_cli("gate", "--out-dir", str(tmp_path)) == cli.EXIT_IO
    assert not first.exists() and not second.exists()
    assert list(tmp_path.iterdir()) == []


def test_runner_value_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    # a plain ValueError from a runner is a bug: it surfaces as a traceback
    def boom(p, seed):
        raise ValueError("synthetic bug")

    _replace_gate_runner(monkeypatch, boom)
    with pytest.raises(ValueError, match="synthetic bug"):
        run_cli("gate", "--out-dir", str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_empty_splitting_window_is_a_numerical_failure(tmp_path):
    out = tmp_path / "out"
    code = run_cli("splitting-stats", "--window", "1000,2000",
                   "--configs", "100", "--out-dir", str(out))
    assert code == cli.EXIT_NUMERICAL
    assert not out.exists()


_NUMERICAL_FAILURES = (
    # an event's propagation overflows to a non-finite state
    ("fock", "--gamma-r", "1e100"),
    ("gate", "--kappa-bar", "100", "--gamma-r", "1e100"),
    ("rabi", "--gamma-r", "1e100"),
    ("rabi", "--kappa-bar", "1.7e308"),
    # a trajectory of ~1e301 samples: over the budget before any allocation
    ("fock", "--omega", "1e-300"),
    ("fock", "--omega-q", "1e-300"),
    # sqrt(N) omega overflows to inf, so the Rabi period would be 0
    ("rabi", "--omega", "1e308", "--n-atoms", "100"),
    # pair couplings near the float maximum, and leakage that rounds to 0
    ("oracle-check", "--kappa", "1e308"),
    ("error-budget", "--kt-start", "5", "--kt-stop", "1e308", "--kt-points", "5"),
    # Rabi fits that never leave their start value: a covariance overflow,
    # and two samples for two parameters
    ("rabi", "--omega", "1e307", "--n-atoms", "100"),
    ("rabi", "--periods", "0.01"),
)

# runs cli.main(argv) under a 2 GB address-space limit of its own process
_LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from blockadesim import cli
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv", _NUMERICAL_FAILURES, ids=" ".join)
def test_overflow_and_oversize_runs_are_numerical_failures(tmp_path, argv):
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_RUN, src, *argv, "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    assert proc.stderr.startswith("numerical failure:")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


# times cli.main(argv) in its own process, under a 2 GB address-space limit
# of that process when the first argument is "limited"
_TIMED_RUN = """
import resource, sys, time
if sys.argv[1] == "limited":
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[2])
from blockadesim import cli
start = time.perf_counter()
code = cli.main(sys.argv[3:])
print(time.perf_counter() - start)
sys.exit(code)
"""


# id suffix: (rabi arguments, start of the stderr line, seconds allowed). A
# dim-10001 register, which a g <-> r pulse splits into blocks of at most 2
# states, with 1.2M samples, whose trajectory alone would take ~3e11 B; and a
# dim-3000001 register, which is built before the estimate refuses it
_OVERSIZED_RUNS = {
    "": (("--n-atoms", "5000", "--n-max", "5000", "--periods", "300",
          "--samples-per-period", "4096"), "dim 10001 with 1.23e+06 samples", 1.0),
    "-dim3000001": (("--n-atoms", "1500000", "--n-max", "1500000"),
                    "dim 3000001 with 98 samples", 5.0),
}


@pytest.mark.parametrize("limit, argv, message, seconds", [
    pytest.param(limit, *run, id=limit + suffix)
    for suffix, run in _OVERSIZED_RUNS.items() for limit in ("limited", "unlimited")])
def test_oversized_basis_is_refused_at_once(tmp_path, limit, argv, message, seconds):
    # refused at the estimate, before the run allocates its trajectory
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_RUN, limit, src, "rabi", *argv,
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    assert proc.stderr.startswith(f"numerical failure: {message}")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert float(proc.stdout) < seconds
    assert not out.exists()


def test_nul_byte_in_path_rejected(tmp_path, capsys, monkeypatch):
    # rejected before the run, not reported as a numerical failure after it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": "a\u0000b"}))
    assert run_cli("gate", "--config", "cfg.json") == cli.EXIT_CONFIG
    assert "config violation: out_dir:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    err = _rejected(capsys, tmp_path, "splitting-stats", "--out", "t\0.csv",
                    "--configs", "100")
    assert "config violation: params.out:" in err


def test_rabi_strong_decay_finishes(tmp_path, deadline):
    start = time.perf_counter()
    with deadline(1):
        code = run_cli("rabi", "--gamma-r", "1e6", "--out-dir", str(tmp_path))
    assert code == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0
    summary = json.loads((tmp_path / "rabi_summary.json").read_text())
    norm2 = summary["results"]["final_norm2"]
    assert np.isfinite(norm2) and 0.0 <= norm2 <= 1.0


def _print_config(capsys, tmp_path, *argv):
    """Exit code and stderr of a --print-config run; it writes nothing."""
    code = run_cli(*argv, "--out-dir", str(tmp_path / "out"), "--print-config")
    assert not (tmp_path / "out").exists()
    return code, capsys.readouterr().err


def test_work_is_bounded(tmp_path, capsys):
    # each bound is checked through --print-config alone: no oversized run
    # is ever started
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"kt_points": 2001}}))
    too_much = (
        (("splitting-stats", "--configs", "10000000000000"), "params.configs"),
        (("splitting-stats", "--configs", "3000001"), "params.configs"),
        (("splitting-stats", "--bins", "10001"), "params.bins"),
        (("splitting-stats", "--atoms", "5000", "--configs", "1"),
         "params.configs"),
        (("splitting-stats", "--statistic", "all-pairs", "--atoms", "300",
          "--configs", "1000"), "params.configs"),
        (("rabi", "--periods", "301"), "params.periods"),
        (("rabi", "--samples-per-period", "4097"), "params.samples_per_period"),
        (("oracle-check", "--samples-per-schedule", "4097"),
         "params.samples_per_schedule"),
        (("error-budget", "--kt-points", str(10**12)), "params.kt_points"),
        (("error-budget", "--config", str(cfg)), "params.kt_points"),
    )
    for argv, name in too_much:
        code, err = _print_config(capsys, tmp_path, *argv)
        assert code == cli.EXIT_CONFIG and f"config violation: {name}:" in err
    at_the_bound = (
        ("splitting-stats", "--configs", "3000000", "--bins", "10000"),
        ("splitting-stats", "--statistic", "all-pairs", "--atoms", "16",
         "--configs", "83333"),
        ("rabi", "--periods", "300", "--samples-per-period", "4096"),
        ("oracle-check", "--samples-per-schedule", "4096"),
        ("error-budget", "--kt-points", "2000"),
    )
    for argv in at_the_bound:
        assert _print_config(capsys, tmp_path, *argv)[0] == cli.EXIT_OK


def test_missing_config_file():
    assert run_cli("gate", "--config", "/nonexistent/cfg.json") == \
        cli.EXIT_CONFIG


def _rejected(capsys, tmp_path, *argv):
    """Exit 2 with a config violation, nothing written to the out dir."""
    out = tmp_path / "out"
    code = run_cli(*argv, "--out-dir", str(out))
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "config violation:" in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("grid", ["junk", [10, 20, 40, 80, 160]])
def test_kappa_t_key_rejected_beside_a_grid_flag(tmp_path, capsys, grid):
    # the grid is kt_start, kt_stop and kt_points: kappa_T is an unknown
    # key, whatever grid flags come with it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"kappa_T": grid}}))
    err = _rejected(capsys, tmp_path, "error-budget", "--config", str(cfg),
                    "--kt-points", "7")
    assert "config violation: params.kappa_T: unknown key for experiment " \
           "error-budget" in err


def test_kappa_t_grid_bounds(tmp_path, capsys):
    err = _rejected(capsys, tmp_path, "error-budget", "--kt-start", "1000",
                    "--kt-stop", "10")
    assert "config violation: params.kt_stop: must exceed params.kt_start" \
        in err
    err = _rejected(capsys, tmp_path, "error-budget", "--kt-start", "4.9")
    assert "config violation: params.kt_start:" in err


def test_non_numeric_window_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"window": ["a", "b"], "configs": 100}}))
    err = _rejected(capsys, tmp_path, "splitting-stats", "--config", str(cfg))
    assert "params.window" in err


def test_seed_outside_the_philox_key_range_rejected(tmp_path, capsys):
    # numpy's Philox takes keys below 2**128
    err = _rejected(capsys, tmp_path, "splitting-stats", "--configs", "100",
                    "--seed", str(2**128))
    assert "config violation: seed:" in err
    code, _ = _print_config(capsys, tmp_path, "splitting-stats", "--configs",
                            "100", "--seed", str(2**128 - 1))
    assert code == cli.EXIT_OK


def test_top_level_json_list_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)          # the default out_dir is "."
    cases = (
        ("[1, 2]", "config: top level must be a JSON object"),
        ('{"params": [1, 2]}', "params: must be a JSON object"),
        ('{"out_dir": 5}', "out_dir: must be a path string"),
    )
    for content, message in cases:
        (tmp_path / "cfg.json").write_text(content)
        code = run_cli("rabi", "--config", "cfg.json")
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG and f"config violation: {message}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_non_finite_numbers_rejected(tmp_path, capsys):
    for value in ("inf", "nan"):
        err = _rejected(capsys, tmp_path, "splitting-stats", "--c3", value,
                        "--configs", "200")
        assert "params.c3" in err
        err = _rejected(capsys, tmp_path, "splitting-stats",
                        "--box", f"10,{value},10", "--configs", "200")
        assert "params.box" in err
    cfg = tmp_path / "cfg.json"
    for omega, periods in (("Infinity", "NaN"), ("9" * 400, "9" * 400)):
        cfg.write_text('{"params": {"omega": %s, "periods": %s}}'
                       % (omega, periods))
        err = _rejected(capsys, tmp_path, "rabi", "--config", str(cfg))
        assert "params.omega" in err and "params.periods" in err
    err = _rejected(capsys, tmp_path, "superpose", "--amplitudes", "inf,1")
    assert "params.amplitudes" in err
    for entry in ("1e400", "9" * 400):   # overflows to inf / too big for a float
        cfg.write_text('{"params": {"amplitudes": [%s, 1]}}' % entry)
        err = _rejected(capsys, tmp_path, "superpose", "--config", str(cfg))
        assert "params.amplitudes" in err


def test_box_volume_out_of_float_range_rejected(tmp_path, capsys):
    # each length is valid, the volume underflows to 0 or overflows to inf
    for box in ("1e-300,1e-300,1e-300", "1e300,1e300,1e300"):
        err = _rejected(capsys, tmp_path, "splitting-stats", "--box", box,
                        "--configs", "200")
        assert "params.box" in err
    # a finite volume whose c3 / V overflows or underflows
    for box, c3 in (("1e-110,1e-110,1e-110", "1000"), ("1e100,1e100,1e100", "1e-30")):
        err = _rejected(capsys, tmp_path, "splitting-stats", "--box", box,
                        "--c3", c3, "--configs", "200")
        assert "params.box" in err


@pytest.mark.parametrize("box", ["1e150,1e-150,1", "1e100,1e-200,1", "1e60,1e60,1e60"])
def test_box_whose_farthest_pair_leaves_the_float_range_rejected(
        box, tmp_path, capsys):
    # finite c3 / V, but the diagonal's r^3 overflows (first), its
    # x = (c3 / r^3) / (c3 / V) underflows (second), so a sample would be 0,
    # or its r^6 overflows (third), which the library rejects
    err = _rejected(capsys, tmp_path, "splitting-stats", "--box", box,
                    "--configs", "100")
    assert "params.box" in err


def _power(low: int, high: int):
    """m x 10^e for a mantissa m in [1, 10) and an integer e in [low, high],
    parsed as text: 0.0 below the float range, inf above it."""
    return st.builds(lambda m, e: float(f"{m!r}e{e}"),
                     st.floats(1.0, 10.0, exclude_max=True), st.integers(low, high))


class _Sampled(Exception):
    pass


@settings(derandomize=True, max_examples=500, deadline=None)
@given(box=st.lists(_power(-330, 310), min_size=3, max_size=3), c3=_power(-320, 310))
def test_cli_and_library_admit_the_same_box_and_c3(box, c3):
    """validate names box or c3 exactly when splitting_distribution refuses
    the run before sampling, and names the parameter the library names."""
    config = cli.default_config("splitting-stats")
    config["params"].update(box=box, c3=c3, configs=10)
    named = {item.partition(":")[0] for item in cli.validate(config)}

    def sampled(*args, **kwargs):
        raise _Sampled

    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_sample", sampled)
        try:
            geometry.splitting_distribution(10, 2, tuple(box), c3, 0)
        except _Sampled:
            refused = set()
        except ValueError as exc:
            refused = {"params." + str(exc).partition(" must be")[0]}
    assert named <= {"params.box", "params.c3"}
    assert bool(named) == bool(refused) and refused <= named
    if c3 < math.inf:
        assert ("params.box" in named) == bool(refused)


def test_oracle_check_n_max_above_n_atoms_rejected(tmp_path, capsys):
    err = _rejected(capsys, tmp_path, "oracle-check", "--n-atoms", "3",
                    "--n-max", "5")
    assert "params.n_max" in err and "params.n_atoms" in err
    err = _rejected(capsys, tmp_path, "oracle-check", "--n-atoms",
                    str(N_ORACLE + 1))
    assert "params.n_atoms" in err


@pytest.mark.parametrize("argv", [
    *((exp, "--n-atoms", str(10**20))
      for exp in ("rabi", "fock", "superpose", "gate", "error-budget")),
    ("rabi", "--kappa-bar", "10", "--n-atoms", str(2**62 + 1)),
    ("rabi", "--n-atoms", str(N_ATOMS_MAX + 1)),
])
def test_n_atoms_beyond_int64_occupations_rejected(argv, tmp_path, capsys):
    # N - n and N (n + 1) are int64 occupation arrays: 1e20 overflows the
    # first, 2**62 + 1 wraps the second to a negative number
    err = _rejected(capsys, tmp_path, *argv)
    assert "config violation: params.n_atoms" in err


def test_n_atoms_at_its_bound_runs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("rabi", "--kappa-bar", "10", "--n-atoms", str(N_ATOMS_MAX),
                   "--out-dir", str(out)) == cli.EXIT_OK
    summary = json.loads((out / "rabi_summary.json").read_text())
    assert summary["results"]["final_norm2"] == pytest.approx(1.0, abs=1e-9)


def test_window_reaching_the_density_underflow(tmp_path):
    # x * x underflows in the analytic density on these windows
    for window in ("1e-300,1e300", "1e-200,0.3"):
        out = tmp_path / window
        assert run_cli("splitting-stats", "--window", window,
                       "--out-dir", str(out)) == cli.EXIT_OK
        text = (out / "splitting_stats_summary.json").read_text()
        assert "NaN" not in text
        assert 0 <= json.loads(text)["results"]["ks_distance"] <= 1
    # samples inside the window, but no analytic mass on it
    out = tmp_path / "flat"
    assert run_cli("splitting-stats", "--box", "100,1,1", "--window",
                   "1e-5,0.04", "--configs", "2000",
                   "--out-dir", str(out)) == cli.EXIT_NUMERICAL
    assert not out.exists()


def test_bool_is_not_an_integer(tmp_path, capsys):
    cases = (
        ("splitting-stats", {"params": {"atoms": True}}, "params.atoms"),
        ("fock", {"params": {"n_target": True}}, "params.n_target"),
        ("rabi", {"seed": False}, "seed"),
        ("rabi", {"params": {"omega": True}}, "params.omega"),
    )
    for experiment, content, name in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        err = _rejected(capsys, tmp_path, experiment, "--config", str(cfg))
        assert f"config violation: {name}:" in err


def test_config_file_for_another_experiment_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "gate"}))
    err = _rejected(capsys, tmp_path, "rabi", "--config", str(cfg),
                    "--n-atoms", "3")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config violation: experiment:")
    assert "'gate'" in lines[0] and "'rabi'" in lines[0]


_SCALARS = (
    st.none() | st.booleans() | st.text(max_size=6)
    | st.sampled_from(["ideal", "off", "split", "1MHz", "inf", "nan", "1e400",
                       "0.5+0.5j"])
    | st.integers() | st.integers(min_value=10**300, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_file_exits_0_or_2(tmp_path, monkeypatch, capsys, data):
    """Whatever JSON a config file holds, --print-config exits 0 or 2 and
    writes nothing; params keys are mostly the experiment's own, so that
    the values reach its checks."""
    experiment = data.draw(st.sampled_from(cli.EXPERIMENTS))
    names = sorted(cli.DEFAULT_PARAMS[experiment]) + ["bogus"]
    params = st.dictionaries(st.sampled_from(names), _SCALARS | _JSON,
                             min_size=1, max_size=4)
    config = st.fixed_dictionaries({"params": params | _JSON}, optional={
        "experiment": st.sampled_from(cli.EXPERIMENTS) | _JSON,
        "seed": _JSON,
        "out_dir": _JSON,
    })
    content = data.draw(_JSON | config)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(content))
    code = run_cli(experiment, "--config", "cfg.json", "--print-config")
    out = capsys.readouterr().out
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if code == cli.EXIT_OK:
        assert json.loads(out)["experiment"] == experiment
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_DEFAULT_RUNS = [[exp] for exp in cli.EXPERIMENTS if exp != "splitting-stats"] \
    + [["splitting-stats", "--configs", "2000"]]


def _default_artifacts(out: Path) -> dict:
    """Every experiment at its defaults into ``out``: {file: bytes}."""
    for argv in _DEFAULT_RUNS:
        assert run_cli(*argv, "--out-dir", str(out)) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for p in out.iterdir():
        p.unlink()
    return files


def test_parser_is_built_once_and_survives_every_outcome(tmp_path, monkeypatch,
                                                         capsys):
    """main parses with one parser per process; rejected configs, unknown
    flags and --help leave it fit for the runs that follow, and every run
    at defaults writes the same bytes twice."""
    parser = cli._parser()

    def rebuilt():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    out = tmp_path / "out"
    assert run_cli("fock", "--n-atoms", "4", "--n-target", "5",
                   "--out-dir", str(out)) == cli.EXIT_CONFIG
    assert run_cli("rabi", "--no-such-flag", "1") == cli.EXIT_CONFIG
    assert run_cli("--help") == cli.EXIT_OK
    assert "splitting-stats" in capsys.readouterr().out
    first = _default_artifacts(out)
    second = _default_artifacts(out)
    assert len(first) == 2 * len(cli.EXPERIMENTS) + 3    # + 3 schedule dumps
    assert first == second
    assert cli._parser() is parser
    monkeypatch.undo()
    assert cli.build_parser() is not cli.build_parser()


def test_csv_text_renders_each_type():
    """Floats as %.12g, ints and strings as written, bools as JSON spells
    them; a column of mixed types renders cell by cell."""
    py = [float("inf"), float("-inf"), float("nan"), -0.0, 1e-300, 0.1 + 0.2,
          1.0 / 3.0]
    columns = [
        py,
        np.array(py),
        [0, -1, 2**70, 3, 4, 5, 6],
        [np.int64(-7), np.int32(8), np.uint8(9), np.int64(0), np.int64(1),
         np.int64(2), np.int64(3)],
        [True, False, np.True_, np.False_, True, np.bool_(True), False],
        ["a", "b,c", 'q"d', "", "x y", "line\nbreak", "z"],
        [1, 2.5, "s", np.float32(0.5), None, np.bool_(False), 1e20],
    ]
    assert "".join(cli._csv_text(
        ["py", "np", "int", "npint", "bool", "str", "mixed"], columns)) == (
        "py,np,int,npint,bool,str,mixed\r\n"
        "inf,inf,0,-7,true,a,1\r\n"
        '-inf,-inf,-1,8,false,"b,c",2.5\r\n'
        'nan,nan,1180591620717411303424,9,true,"q""d",s\r\n'
        "-0,-0,3,0,false,,0.5\r\n"
        "1e-300,1e-300,4,1,true,x y,None\r\n"
        '0.3,0.3,5,2,true,"line\nbreak",false\r\n'
        "0.333333333333,0.333333333333,6,3,false,z,1e+20\r\n"
    )
    assert "".join(cli._csv_text(["a", "b"], [[], []])) == "a,b\r\n"


def _csv_writer_text(header, columns) -> str:
    """The reference: ``csv.writer`` over the ``_fmt`` of each cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([cli._fmt(x) for x in row] for row in zip(*columns))
    return buf.getvalue()


_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2e-310, 1e308, -1e308])
_INTS = st.integers() | st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63))
_TEXT = st.text(alphabet=',"\r\n ab', max_size=4)
_NP_INTS = st.builds(lambda x, t: t(x), st.integers(0, 127),
                     st.sampled_from([np.int64, np.int32, np.uint8]))
_CELLS = {
    "float": _FLOATS,
    "np.float64": _FLOATS.map(np.float64),
    "int": _INTS,
    "np.integer": _NP_INTS,
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "str": _TEXT,
}
_CELLS["mixed"] = st.one_of(*_CELLS.values(), st.none(),
                           st.floats(width=32).map(np.float32))
_ARRAYS = {     # array columns: their cells, and the dtype they are stored in
    "float64 array": (_FLOATS, np.float64),
    "int64 array": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint8 array": (st.integers(0, 255), np.uint8),
    "bool array": (st.booleans(), bool),
}


def _column(kind: str, n_rows: int):
    if kind in _CELLS:
        return st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)
    cells, dtype = _ARRAYS[kind]
    return st.lists(cells, min_size=n_rows, max_size=n_rows).map(
        lambda v: np.array(v, dtype=dtype))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_text_matches_csv_writer(data):
    """Column by column with one format string per row, a table reads as
    ``csv.writer`` writes the ``_fmt`` of each cell: quoting, special floats,
    big ints, bools and mixed columns included."""
    n_rows = data.draw(st.integers(0, 30))
    kinds = data.draw(st.lists(st.sampled_from(sorted({**_CELLS, **_ARRAYS})),
                               min_size=1, max_size=6))
    columns = [data.draw(_column(kind, n_rows)) for kind in kinds]
    header = data.draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    assert "".join(cli._csv_text(header, columns)) == _csv_writer_text(header, columns)


def test_csv_chunks_join_to_the_one_chunk_table(monkeypatch):
    """Rows split across chunks render as in one chunk, a column whose
    chunks hold different types (floats, then strings) included."""
    columns = [[0.1, 2.5, "s", None, 1e20], np.arange(5.0), [1, 2, 3, 4, 2**70],
               ["a", "b,c", 'q"d', "", "z"]]
    whole = "".join(cli._csv_text(["a", "b", "c", "d"], columns))
    monkeypatch.setattr(cli, "_CSV_ROWS", 2)
    chunks = list(cli._csv_text(["a", "b", "c", "d"], columns))
    assert len(chunks) == 4         # the header, then rows 2 + 2 + 1
    assert "".join(chunks) == whole == _csv_writer_text(["a", "b", "c", "d"], columns)
