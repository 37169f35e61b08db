"""Layered benchmark of blockadesim.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (``protocols`` or ``splitting``) in its own process and
prints one JSON result as its last stdout line.  See ``run.py`` for the
metrics and ``layers.py`` for the traced run.
"""

# BLAS/OpenMP thread-count variables pinned before numpy is imported
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
