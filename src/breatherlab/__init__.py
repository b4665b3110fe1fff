"""Numerical laboratory for mKdV breather orbital stability."""

__version__ = "0.1.0"

# BLAS reads its thread count from these once, as it loads: numpy's BLAS as
# numpy loads, scipy's as scipy.linalg loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
