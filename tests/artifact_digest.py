"""Digest of every artifact the CLI writes for a fixed set of runs.

Not a test module (pytest collects only ``test_*.py``).  Given the root of a
checkout, it runs in process, against that checkout's ``src`` and
``perfbench``:

* the seven experiments at their defaults (``splitting-stats`` with
  ``--configs 2000``), ``splitting-stats`` over all pairs of 16 atoms for
  2000 configurations (below the sampler's parallel threshold: one chunk on
  the calling thread) and for 9000 (on two CPUs, two threads with two
  chunks of 2250 configurations each; on one CPU, two chunks of 4500; each
  chunk written into its own slice of the samples, and each thread's share
  sorted by that thread into one sorted run, which the histogram and the KS
  read without merging), min-pair of 16 atoms for 50000 configurations (on
  two CPUs, seven chunks of 3571 or 3572 per thread, and two sorted runs
  copied out of their scratch-sized buffers), and on two non-default KS
  windows, min-pair of 16 atoms on 0.5..3 and all pairs of 16 atoms on
  0.001..1000 (the bounded KS scan away from its default window),
  ``oracle-check`` at 4, 5, 8 and 12 atoms (12 is the pair-resolved cap;
  at 4 also with 4096 samples per schedule, past one product's ``_CHUNK``
  samples on the block route),
  ``fock`` to |q^30> of 60 atoms (dim 63), without and with decay (dim
  123), the symmetric registers whose generators split into blocks, and
  ``rabi`` on 200000 atoms with ``--n-max 200000`` for a quarter period
  (dim 400001), a large basis and its operators built from the state keys;
* every ``cli`` op of ``perfbench.workloads.build_ops`` for both workloads at
  seeds 1 and 2;
* eleven edge runs at the limits of floating point, of the unit parser,
  of the error-budget grid and of the rabi table's size, which pin their
  exit codes.

Every run writes into the same out-dir, which is emptied before each run, so
that the config echoed in a summary is the same for any two checkouts.  Each
written file prints as ``<run>/<file> <exit code> <sha256>``, and each run's
captured stdout and stderr as ``<run>:stdout`` / ``<run>:stderr`` lines.
Warnings add ``<category>: <message>`` lines to stderr (no source paths), and
an exception leaving ``cli.main`` counts as exit code 1 with its type and
message on stderr, as an uncaught exception would end the process.
Comparing two checkouts is one ``diff``:

    python tests/artifact_digest.py PARENT_ROOT > parent.txt
    python tests/artifact_digest.py .           > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

DEFAULT_RUNS = (
    ("splitting-stats", "--configs", "2000"),
    ("splitting-stats", "--configs", "2000", "--statistic", "all-pairs",
     "--atoms", "16"),
    ("splitting-stats", "--configs", "9000", "--statistic", "all-pairs",
     "--atoms", "16"),
    ("splitting-stats", "--configs", "50000", "--atoms", "16"),
    ("splitting-stats", "--configs", "2000", "--atoms", "16", "--window", "0.5,3"),
    ("splitting-stats", "--configs", "2000", "--statistic", "all-pairs",
     "--atoms", "16", "--window", "0.001,1000"),
    ("rabi",), ("fock",), ("superpose",), ("gate",), ("error-budget",),
    ("oracle-check",), ("oracle-check", "--n-atoms", "4"),
    ("oracle-check", "--n-atoms", "5"), ("oracle-check", "--n-atoms", "8"),
    ("oracle-check", "--n-atoms", "12"),
    ("oracle-check", "--n-atoms", "4", "--samples-per-schedule", "4096"),
    ("fock", "--n-atoms", "60", "--n-target", "30"),
    ("fock", "--n-atoms", "60", "--n-target", "30", "--kappa-bar", "20",
     "--gamma-r", "0.01"),
    ("rabi", "--n-atoms", "200000", "--n-max", "200000", "--periods", "0.25"),
)

# a 2e-307 us pulse sampled 96 times; sqrt(N) omega overflowing to inf; a
# pair coupling near the float maximum; leakage that rounds to 0; a milli
# suffix; a Rabi fit of two samples; a grid that does not ascend; a gate
# whose 3e-300 us closing pulse is shorter than ulp of its start time,
# without and with decay; the largest grid, under the split convention; and
# the largest rabi table (1.2M rows)
EDGE_RUNS = (
    ("rabi", "--omega", "1e307", "--n-atoms", "100"),
    ("rabi", "--omega", "1e308", "--n-atoms", "100"),
    ("oracle-check", "--kappa", "1e308"),
    ("error-budget", "--kt-start", "5", "--kt-stop", "1e308", "--kt-points", "5"),
    ("rabi", "--omega", "1mHz"),
    ("rabi", "--periods", "0.01"),
    ("error-budget", "--kt-start", "1000", "--kt-stop", "10"),
    ("gate", "--omega-minus", "1e300"),
    ("gate", "--omega-minus", "1e300", "--gamma-r", "1"),
    ("error-budget", "--kt-points", "2000", "--convention", "split"),
    ("rabi", "--periods", "300", "--samples-per-period", "4096"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def runs():
    """(name, argv, input files) of every run, in order."""
    from perfbench.workloads import WORKLOADS, build_ops

    for argv in DEFAULT_RUNS:
        yield "default/" + ",".join(argv), list(argv), ()
    for workload in WORKLOADS:
        for seed in (1, 2):
            for op in build_ops(workload, seed):
                if op.kind == "cli":
                    yield f"{workload}/{seed}/{op.name}", list(op.args), op.files
    for argv in EDGE_RUNS:
        yield "edge/" + ",".join(argv), list(argv), ()


def digest(root: Path, out: Path) -> list[str]:
    sys.path[:0] = [str(root / "src"), str(root)]
    from blockadesim import cli

    inputs, run_dir = out / "inputs", out / "run"
    lines = []
    for name, argv, files in runs():
        for path in (inputs, run_dir):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
        for fname, text in files:
            (inputs / fname).write_text(text)
        argv = [a.replace("{tmp}", str(inputs)) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv + ["--out-dir", str(run_dir)])
            except Exception as exc:
                rc = 1
                print(f"{type(exc).__name__}: {exc}", file=stderr)
        for w in caught:
            print(f"{w.category.__name__}: {w.message}", file=stderr)
        for path in sorted(run_dir.rglob("*")):
            if path.is_file():
                rel = path.relative_to(run_dir)
                lines.append(f"{name}/{rel} {rc} {_sha(path.read_bytes())}")
        lines.append(f"{name}:stdout {rc} {_sha(stdout.getvalue().encode())}")
        lines.append(f"{name}:stderr {rc} {_sha(stderr.getvalue().encode())}")
    shutil.rmtree(out, ignore_errors=True)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", type=Path, help="root of the checkout to digest")
    parser.add_argument(
        "--out-dir", type=Path,
        default=Path(tempfile.gettempdir()) / "blockadesim_artifact_digest",
        help="scratch dir for the runs (emptied; use the same one for both "
             "checkouts)",
    )
    args = parser.parse_args(argv)
    print("\n".join(digest(args.root.resolve(), args.out_dir.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
