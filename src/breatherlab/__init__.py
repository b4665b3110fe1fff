"""Numerical laboratory for mKdV breather orbital stability."""

import os
import sys

__version__ = "0.1.0"

# BLAS reads its thread count from these once, as it loads: numpy's BLAS as
# numpy loads, scipy's as scipy.linalg loads. The package sets them to 1
# before any of its modules imports numpy: the dense eigensolver's summation
# order depends on the thread count, so a spectrum report replays byte for
# byte, and more threads do not pay here. A caller that imported numpy first
# with them unset keeps numpy's own BLAS threads, which the phase sweep's
# forked workers would inherit; _ONE_BLAS_THREAD is False only then.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_ONE_BLAS_THREAD = "numpy" not in sys.modules or all(
    os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
