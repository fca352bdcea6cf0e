"""Least-squares selection solve via QR of the smoothed constraint matrix.

With M = S^{-1/2} C^T = Q R, the minimal-selection-norm interpolant of
the constraints C u = b is u = S^{-1/2} Q R^{-T} b: the pseudoinverse
of C S^{-1/2} applied to b, pulled back through the smoother. Direct
dense factorization only; the grids of interest stay at desk scale.

The factored matrix is built in Chebyshev coefficient space. The
smoother is S^{-1/2} = V diag(mu) V^{-1}, with V the tensor synthesis
and mu the multiplier, and C V = A is the coefficient-space constraint
matrix. Writing V^T V = R_V^T R_V (per axis: diagonal on roots axes, a
small QR on the extrema time axis) gives V = Q_V R_V with Q_V
orthogonal, so M = Q_V M' with M' = R_V^{-T} diag(mu) A^T. M and M'
share R and their singular values; the solution is
u = S^{-1/2} V R_V^{-1} Q' R^{-T} b, and cond is read from R alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .assembly import ConstraintSystem, SmootherSpec, smoother_multiplier_array
from .chebyshev import _along, analysis, gram_factor, synthesis

__all__ = [
    "QRFactorization",
    "SolveReport",
    "RankDeficientError",
    "householder_qr",
    "condition_estimate",
    "pinv_solve",
]

RANK_TOL = 1e-13
# A smoother callable whose probed multiplier misses a random coefficient
# tensor by more than this (relative) is not diagonal in the basis.
DIAGONAL_TOL = 1e-10


class RankDeficientError(RuntimeError):
    """The constraint matrix has (numerically) dependent columns."""

    def __init__(self, column: int, value: float, threshold: float):
        self.column = column
        super().__init__(
            f"rank-deficient constraint matrix: |R[{column},{column}]| = "
            f"{value:.3e} below threshold {threshold:.3e}; constraint "
            f"index {column} is numerically dependent on its predecessors"
        )


@dataclass(frozen=True, eq=False)
class QRFactorization:
    """Thin QR factors: q has orthonormal columns, r is upper triangular."""

    q: np.ndarray
    r: np.ndarray


def householder_qr(mat: np.ndarray) -> QRFactorization:
    """Thin Householder QR with a loud full-rank check.

    Raises RankDeficientError naming the first offending column when a
    diagonal entry of R falls below 1e-13 times a two-norm estimate.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] < mat.shape[1]:
        raise ValueError(
            f"householder_qr expects a tall matrix, got {mat.shape}"
        )
    q, r = np.linalg.qr(mat, mode="reduced")
    # ||A||_2 <= sqrt(||A||_1 ||A||_inf), cheap and deterministic
    norm_est = np.sqrt(np.abs(mat).sum(axis=0).max()
                       * np.abs(mat).sum(axis=1).max())
    diag = np.abs(np.diag(r))
    threshold = RANK_TOL * norm_est
    bad = np.flatnonzero(diag < threshold)
    if bad.size:
        raise RankDeficientError(int(bad[0]), float(diag[bad[0]]), threshold)
    return QRFactorization(q=q, r=r)


def condition_estimate(mat: np.ndarray) -> float:
    """Two-norm condition number sigma_max / sigma_min of a dense matrix."""
    s = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[-1]):
        return np.inf
    return float(s[0] / s[-1])


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one constrained solve.

    Residual norms are recomputed from the returned solution through the
    implicit constraint operators, never carried over from the factors.
    """

    solution: np.ndarray
    residual_l2: float
    residual_linf: float
    cond_estimate: float
    n_omega: int
    n_gamma: int
    seconds: float


def _smoother(system: ConstraintSystem, smoother):
    """(mu, S^{-1/2} on grid tensors). mu is exact for a SmootherSpec; a
    callable is probed, mu = analysis(smoother(synthesis(1))), exact only
    to about eps * max(mu), and checked on a random coefficient tensor."""
    shape, axes = system.grid_shape, system.axes
    if isinstance(smoother, SmootherSpec):
        return (smoother_multiplier_array(smoother, shape),
                system.grid_smoother(smoother))
    mult = analysis(smoother(synthesis(np.ones(shape), axes)), axes)
    coef = np.random.default_rng(0).standard_normal(shape)
    want = mult * coef
    got = analysis(smoother(synthesis(coef, axes)), axes)
    defect = np.linalg.norm(got - want) / np.linalg.norm(want)
    if not defect <= DIAGONAL_TOL:
        raise ValueError(
            f"smoother is not diagonal in the Chebyshev basis: relative "
            f"defect {defect:.3e} on a random coefficient tensor "
            f"(tolerance {DIAGONAL_TOL:.0e})"
        )
    return mult, smoother


def _gram_inverse(axes):
    """R_V^{-1} = diag(scale) times the (axis, R_a^{-1}) factors listed:
    diagonal Gram factors (roots axes) fold into the scale tensor."""
    factors = [gram_factor(ax) for ax in axes]
    scale = np.ones(tuple(len(r) for r in factors))
    inverses = []
    for a, r in enumerate(factors):
        if np.count_nonzero(np.triu(r, 1)):
            inverses.append((a, solve_triangular(r, np.eye(len(r)))))
        else:
            scale /= _along(np.diag(r), len(axes), a)
    return scale, inverses


def pinv_solve(system: ConstraintSystem, smoother) -> SolveReport:
    """Solve C u = b for the minimal-selection-norm u.

    smoother is a SmootherSpec (preferred: its multiplier is exact) or a
    callable applying S^{-1/2} to a grid tensor, which must be diagonal
    in the Chebyshev basis (ValueError otherwise).
    """
    t0 = time.perf_counter()
    shape = system.grid_shape
    size = int(np.prod(shape))
    if size < system.n_rows:
        raise ValueError(
            f"under-resolved grid: {size} grid points cannot carry "
            f"{system.n_rows} constraints"
        )
    mult, half_inverse = _smoother(system, smoother)
    scale, inverses = _gram_inverse(system.axes)

    # rows of A become rows of A diag(mu) R_V^{-1}, i.e. columns of M'
    mat = system.coefficient_matrix()
    mat *= (mult * scale).reshape(1, size)
    rows = mat.reshape((system.n_rows,) + shape)
    for a, inv in inverses:
        rows[...] = np.moveaxis(np.moveaxis(rows, a + 1, -1) @ inv, -1, a + 1)
    fac = householder_qr(mat.T)
    del mat, rows
    cond = condition_estimate(fac.r)
    z = solve_triangular(fac.r, system.rhs, trans="T", lower=False)

    # u = S^{-1/2} Q z with Q z = V R_V^{-1} Q' z (Q = Q_V Q' is M's factor)
    coef = (fac.q @ z).reshape(shape)
    for a, inv in inverses:
        coef = np.moveaxis(np.tensordot(inv, coef, axes=([1], [a])), 0, a)
    u = half_inverse(synthesis(coef * scale, system.axes))
    res = system.residual(u)
    seconds = time.perf_counter() - t0
    return SolveReport(
        solution=u,
        residual_l2=float(np.linalg.norm(res)),
        residual_linf=float(np.max(np.abs(res))) if res.size else 0.0,
        cond_estimate=cond,
        n_omega=system.n_omega,
        n_gamma=system.n_gamma,
        seconds=seconds,
    )
