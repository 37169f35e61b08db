#!/usr/bin/env python3
"""Run one blockadesim benchmark workload and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload protocols --seed 1 --seconds 45 --trace 0

Workloads (one process each, closed loop, one client):

* ``protocols``: short hermitian CLI runs (rabi, fock, superpose, gate,
  error-budget, oracle-check at N=3), a sampled-envelope pulse, malformed
  configs that must exit 2, and short decaying runs (gamma_r > 0: a kappa_bar
  10/100 ladder, a gate, a fock ladder) with the ``rabi --gamma-r 1e6`` probe;
* ``splitting``: splitting-stats at 5000 configurations x 2 and x 16 atoms
  and an all-pairs case at 5000 x 16 atoms.

The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the details (machine context, sample
counts, per-op best/median latencies and failures, probe outcomes, and the
median-based pass figures).  With ``--trace 0`` the metrics are
the end-to-end ones.  Op timings are best-of: each op's minimum latency over the
run's passes.  Contention from other tenants only ever slows an op: on a
shared 2-vCPU x86_64 machine, per-op medians of unchanged code spread 25-50%
between 20-second windows, per-op minima far less:

* ``setup_s``: fresh interpreter until ``blockadesim.cli`` is imported
  (median of 15 spawns, one at a time between passes and spread over the
  run, their time not counted in ``--seconds``);
* ``pass_s``: one pass over the op list, the sum of the ops' best latencies;
* ``op_p50_ms`` / ``op_max_ms``: median and largest best latency over the
  workload's ops;
* ``cpu_s``: process CPU time (user + sys) per pass, the sum of the ops' best
  CPU times;
* ``peak_rss_mb``: peak resident set size of the workload process;
* ``ok_frac``: share of op runs, probes included, that met their check.

The four timing metrics leave out only the untimed probe (``rabi --gamma-r
1e6``), whose latency is its deadline while its known defect lasts.

With ``--trace 1`` the metrics are the per-layer ones of ``layers.py``.
BLAS and OpenMP thread counts are pinned to 1 before numpy is imported.
Scratch files live in ``.perfbench_tmp/`` of the checkout and are removed at
exit.  Without ``src/blockadesim`` next to this directory the run exits 2
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("protocols", "splitting"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "blockadesim" / "__init__.py").is_file():
        print(f"perfbench: no src/blockadesim under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    threads = "1"
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / str(os.getpid())
    os.environ.update({var: threads for var in THREAD_VARS}, TMPDIR=str(tmp))
    warnings.filterwarnings("ignore", message="numba not available")
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        from perfbench import measure

        result, details = measure.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
