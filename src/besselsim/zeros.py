"""Zeros of Hermite and Laguerre polynomials and their self-similar profiles.

The zeros are the eigenvalues of the symmetric tridiagonal Jacobi matrix
of each family (Golub & Welsch, Math. Comp. 1969): for H_N the diagonal
is 0 and the off-diagonal sqrt(j/2); for L_N^(nu-1) the diagonal is
2j + nu and the off-diagonal sqrt(j (j + nu - 1)).  At nu = 0 the first
off-diagonal entry vanishes and the matrix splits into 0 and the matrix
of L_{N-1}^(1), as L_N^(-1)(x) = -(x/N) L_{N-1}^(1)(x) (Szego).

The ordered zeros z_1 > ... > z_N of H_N are also the unique ordered
solution of the electrostatic system

    z_i = sum_{j != i} 1/(z_i - z_j),

and the zeros of L_N^(nu-1) solve

    z_i = sum_{j != i} 2 z_i/(z_i - z_j) + nu.

That system is the check, not the solver: each ZeroProfile carries the
max-norm of its defect at the returned zeros.  The defect sums come from
``chambers.pair_sums``, which works through the pair matrix in row blocks
of bounded size, so the check holds no N x N array.  Scaled square-root
profiles of the zeros are exact self-similar solutions of the frozen
particle ODEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .chambers import CHAMBER_A, CHAMBER_B, ChamberPoint, pair_sums


@dataclass(frozen=True)
class ZeroProfile:
    family: str  # "hermite" | "laguerre"
    n: int
    nu: float | None
    zeros: np.ndarray  # strictly decreasing
    residual: float  # max-norm fixed-point defect


def hermite_defect(z: np.ndarray) -> np.ndarray:
    """Componentwise defect z_i - sum_{j != i} 1/(z_i - z_j)."""
    z = np.asarray(z, dtype=float)
    return z - pair_sums(1.0, z)


def laguerre_defect(z: np.ndarray, nu: float) -> np.ndarray:
    """Componentwise defect z_i - nu - sum_{j != i} 2 z_i/(z_i - z_j)."""
    z = np.asarray(z, dtype=float)
    return z - nu - pair_sums(2.0 * z, z)


def hermite_zeros(n: int) -> ZeroProfile:
    """Ordered zeros of H_N: eigenvalues of its Jacobi matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    off = np.sqrt(np.arange(1, n) / 2.0)
    z = eigvalsh_tridiagonal(np.zeros(n), off)[::-1]
    z = 0.5 * (z - z[::-1])  # exact mirror symmetry
    return ZeroProfile("hermite", n, None, z, float(np.abs(hermite_defect(z)).max()))


def laguerre_zeros(n: int, nu: float) -> ZeroProfile:
    """Ordered zeros of L_N^(nu-1): eigenvalues of its Jacobi matrix (at nu = 0 the last is 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    j = np.arange(n, dtype=float)
    off = np.sqrt(j[1:] * (j[1:] + nu - 1.0))
    z = eigvalsh_tridiagonal(2.0 * j + nu, off)[::-1]
    return ZeroProfile("laguerre", n, nu, z, float(np.abs(laguerre_defect(z, nu)).max()))


def profile_solution_a(n: int, c: float, t: float) -> ChamberPoint:
    """Self-similar type A profile sqrt(2t + c^2) * (Hermite zeros)."""
    if c < 0 or t < 0:
        raise ValueError("c and t must be nonnegative")
    z = hermite_zeros(n).zeros
    return ChamberPoint(math.sqrt(2.0 * t + c * c) * z, CHAMBER_A)


def profile_solution_b(n: int, nu: float, c: float, t: float) -> ChamberPoint:
    """Self-similar type B profile sqrt(2t + c^2) * sqrt(Laguerre zeros)."""
    if c < 0 or t < 0:
        raise ValueError("c and t must be nonnegative")
    z = laguerre_zeros(n, nu).zeros
    return ChamberPoint(math.sqrt(2.0 * t + c * c) * np.sqrt(z), CHAMBER_B)
