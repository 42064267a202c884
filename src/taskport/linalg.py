"""Dense float64 kernels used by the matching pipeline.

Only singular *values* are ever needed.  They come from numpy's LAPACK SVD
with ``compute_uv=False``, batched over stacks of equally shaped matrices so
that all heads of one projection cost a single call; the test suite certifies
them against a brute-force Gram-eigenvalue oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailureError


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with positive dims, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def frobenius_inner(a, b) -> float:
    """Sum of elementwise products of two equally shaped matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def singular_values(m) -> np.ndarray:
    """Singular values of ``m``, sorted descending, length min(rows, cols).

    ``m`` is one matrix or a stack ``(..., rows, cols)``; a stack returns one
    descending vector per matrix, shape ``(..., min(rows, cols))``.  Raises
    ValueError on non-finite entries or empty dims, and NumericalFailureError
    if LAPACK's divide-and-conquer SVD fails to converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or min(a.shape) < 1:
        raise ValueError(f"expected a matrix or a stack of matrices with positive dims, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(f"SVD did not converge on shape {a.shape}: {e}") from e
