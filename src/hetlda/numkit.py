"""Small numeric kernel: the one rank rule for symmetric matrices, and the
normal tail. Everything returns float64 and never mutates its inputs.

A matrix is scaled to unit diagonal (van der Sluis 1969) before its rank
is decided, so the units of a feature move no eigenvalue across the cut.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

__all__ = ["unit_diagonal_eigh", "solve_symmetric", "q_function"]

# at unit diagonal, an exact dependency leaves eigenvalues near 4e-16
_SINGULAR_RTOL = 1e-14


def unit_diagonal_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, V) with V' A V = diag(e) where the symmetric float matrix A is
    not singular: eigh of D A D, D = diag(|A_ii|^-1/2) (1 where A_ii = 0),
    keeps the eigenvalues e of size above _SINGULAR_RTOL of the largest,
    and V = D U scales their eigenvectors back to feature units."""
    diag = np.abs(A.diagonal())
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    e, u = np.linalg.eigh(scale[:, None] * A * scale)
    keep = _above_cut(e)
    return e[keep], scale[:, None] * u[:, keep]


def _above_cut(e: np.ndarray) -> np.ndarray:
    """|e| > _SINGULAR_RTOL max|e| along the first axis of e, the one rank
    cut; False at or below it, and down a column that holds a NaN."""
    size = np.abs(e)
    return size > _SINGULAR_RTOL * size.max(0, initial=0.0)


def solve_symmetric(A, b) -> np.ndarray:
    """Solution of A x = b for symmetric A, V diag(1/e) V' b on
    unit_diagonal_eigh's (e, V): when A is singular, x = D y with y the
    minimum-norm least-squares solution of D A D y = D b."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if b.ndim != 1 or A.shape != (b.size, b.size):
        raise DimensionMismatch("expected a square matrix and a matching "
                                f"vector, got shapes {A.shape} and {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("solve_symmetric needs a finite matrix and vector")
    e, v = unit_diagonal_eigh(A)
    return v @ ((b @ v) / e)


def q_function(z: float) -> float:
    """Upper-tail probability of the standard normal, Q(z) = P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
