"""Small numeric kernel: symmetric solves and the normal tail.

Thin, contract-checked wrappers around numpy. Everything returns float64
and never mutates its inputs.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

__all__ = ["solve_symmetric", "q_function"]

# relative residual above which an exact solve is abandoned for the
# minimum-norm least-squares fallback
_RESIDUAL_RTOL = 1e-8


def solve_symmetric(A, b) -> np.ndarray:
    """Solve A x = b for symmetric A.

    Uses an exact solve when A is well-posed (relative residual at most
    1e-8); otherwise falls back to the minimum-norm least-squares solution
    with singular values below max_sv * d * 1e-12 treated as zero.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch(
            f"right-hand side has shape {b.shape}, matrix is {A.shape[0]} x {A.shape[0]}")
    b_norm = float(np.linalg.norm(b))
    try:
        x = np.linalg.solve(A, b)
        if np.all(np.isfinite(x)):
            residual = float(np.linalg.norm(A @ x - b))
            if residual <= _RESIDUAL_RTOL * max(b_norm, 1e-300):
                return x
    except np.linalg.LinAlgError:
        pass
    x, *_ = np.linalg.lstsq(A, b, rcond=A.shape[0] * 1e-12)
    if not np.all(np.isfinite(x)):
        raise DimensionMismatch("least-squares fallback produced non-finite values")
    return x


def q_function(z: float) -> float:
    """Upper-tail probability of the standard normal, Q(z) = P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
