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

Q' is never formed: the factorization keeps LAPACK's Householder
reflectors and applies them to the one vector R^{-T} b (ormqr).
cond = sigma_max / sigma_min comes from two Lanczos runs on R (R^T R and
R^{-1} R^{-T}), not from a dense SVD.

The QR is LAPACK dgeqrt: blocked like dgeqrf, but each column panel is
factored recursively (dgeqrt3, after Elmroth and Gustavson), so nearly
all of its flops run in level-3 BLAS. Its block size is the fixed
QR_BLOCK. dgeqrt leaves the reflectors where dgeqrf does and returns the
upper-triangular T of each block reflector, whose diagonal is the tau of
that block's reflectors (T_ii = tau_i); ormqr applies them as usual.

Memory: pinv_solve builds M' once and dgeqrt overwrites that buffer with
the reflectors, so the solve peaks at about one N x n matrix plus the
n x n R (T and the workspace are QR_BLOCK x n each). dgeqrt is called
through ctypes from the OpenBLAS that numpy bundles (its ILP64 symbol
scipy_dgeqrt_64_), which keeps it on numpy's thread pool; a numpy
without that library (the symbol does not resolve) falls back to
numpy.linalg.qr(mode="raw"), which factors a copy.
"""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .assembly import (
    BLOCK_BYTES,
    ConstraintSystem,
    SmootherSpec,
    smoother_multiplier_array,
)
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
# Lanczos for cond: relative eigenvalue tolerance, and the order of R
# below which a dense SVD of R is cheaper than the two Lanczos runs
# (measured crossover between n = 100 and 150 on 2 cores).
LANCZOS_TOL = 1e-14
LANCZOS_MIN_ORDER = 128
# Column block of the dgeqrt factorization (its NB), capped at n.
QR_BLOCK = 128


@functools.cache
def _bundled_geqrt():
    """LAPACK dgeqrt from the OpenBLAS bundled with numpy, or None.

    numpy's wheels ship scipy-openblas in numpy.libs with ILP64 symbols
    (every integer argument is int64). The library is already loaded by
    numpy, so this opens the same copy and the same thread pool. Resolved
    on first use, not at import.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_dgeqrt_64_
        except (OSError, AttributeError):
            continue
        fn.restype = None
        int64 = ctypes.POINTER(ctypes.c_int64)
        # M, N, NB, A, LDA, T, LDT, WORK, INFO
        fn.argtypes = [int64, int64, int64, ctypes.c_void_p, int64,
                       ctypes.c_void_p, int64, ctypes.c_void_p, int64]
        return fn
    return None


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
    """Thin QR of a tall N x n matrix, kept as LAPACK left it.

    h.T (N x n) holds R on and above its diagonal and the Householder
    reflectors below it; tau holds their scales (dgeqrt: the diagonal of
    its block reflectors' T; fallback: geqrf's tau). r is the upper-
    triangular n x n factor. Q is applied by apply_q and never formed.
    h.T is F-contiguous, so LAPACK reads it in place; when dgeqrt ran in
    place (pinv_solve's case) h.T is the very buffer that held the
    factored matrix, so the factorization costs no second N x n array.
    """

    h: np.ndarray
    tau: np.ndarray
    r: np.ndarray

    def apply_q(self, z: np.ndarray) -> np.ndarray:
        """Q z for z of shape (n,) or (n, k), by LAPACK ormqr on h.T."""
        refl = self.h.T
        big, n = refl.shape
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[0] != n:
            raise ValueError(
                f"apply_q expects shape ({n},) or ({n}, k), got {z.shape}"
            )
        rhs = z.reshape(n, -1)
        c = np.zeros((big, rhs.shape[1]), order="F")
        c[:n] = rhs
        _, work, _ = lapack.dormqr("L", "N", refl, self.tau, c, -1,
                                   overwrite_c=1)
        qz, _, info = lapack.dormqr("L", "N", refl, self.tau, c,
                                    int(work[0]), overwrite_c=1)
        if info:
            raise np.linalg.LinAlgError(f"dormqr failed with info={info}")
        return qz.reshape((big,) + z.shape[1:])


def _int64(value: int):
    """An ILP64 LAPACK integer argument: a pointer to an int64."""
    return ctypes.byref(ctypes.c_int64(value))


def _geqrt_in_place(geqrt, buf: np.ndarray) -> np.ndarray:
    """Factor the F-contiguous float64 buf in place with the ctypes
    geqrt; returns tau, the diagonal of the block reflectors' T."""
    big, n = buf.shape
    nb = max(1, min(QR_BLOCK, n))
    # T holds one nb x nb upper-triangular block per nb columns, side by
    # side; the diagonal of each is the tau of its reflectors
    t = np.empty((nb, n), order="F")
    work = np.empty(nb * n)
    info = ctypes.c_int64(0)
    geqrt(_int64(big), _int64(n), _int64(nb), buf.ctypes.data,
          _int64(max(1, big)), t.ctypes.data, _int64(nb),
          work.ctypes.data, ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"dgeqrt failed with info={info.value}")
    cols = np.arange(n)
    return t[cols % nb, cols]


def householder_qr(mat: np.ndarray) -> QRFactorization:
    """Thin Householder QR (LAPACK dgeqrt) with a loud full-rank check.

    dgeqrt factors blocks of QR_BLOCK columns, each panel recursively,
    and tau is read off the diagonal of its T. It factors
    np.asfortranarray(mat, dtype=float) in place, like SciPy's
    overwrite_a: an F-contiguous float64 mat (pinv_solve passes one) is
    overwritten by the reflectors and R, and the result's h.T is mat
    itself; any other mat is copied once and left unchanged. Without
    numpy's bundled LAPACK the QR runs through numpy.linalg.qr on a copy.

    Raises ValueError for non-finite input, and RankDeficientError naming
    the first offending column when a diagonal entry of R falls below
    1e-13 times a two-norm estimate.
    """
    buf = np.asfortranarray(mat, dtype=float)
    big, n = buf.shape
    if big < n:
        raise ValueError(
            f"householder_qr expects a tall matrix, got {buf.shape}"
        )
    geqrt = _bundled_geqrt()
    if geqrt is None:
        h, tau = np.linalg.qr(buf, mode="raw")
    else:
        tau = _geqrt_in_place(geqrt, buf)
        h = buf.T
    r = np.triu(h[:, :n].T)
    # a NaN or inf anywhere in mat reaches R through the reflectors
    if not (np.isfinite(r).all() and np.isfinite(tau).all()):
        raise ValueError(
            "householder_qr: the matrix has non-finite entries "
            "(NaN or inf in its R factor)"
        )
    # ||A||_2 = ||R||_2 <= sqrt(||R||_1 ||R||_inf), cheap and deterministic;
    # |R| is summed a block of columns (rows) at a time, not copied whole
    step = max(1, BLOCK_BYTES // (8 * max(1, n)))
    blocks = range(0, n, step)
    norm_1 = max((np.abs(r[:, j:j + step]).sum(axis=0).max()
                  for j in blocks), default=0.0)
    norm_inf = max((np.abs(r[i:i + step]).sum(axis=1).max()
                    for i in blocks), default=0.0)
    norm_est = np.sqrt(norm_1 * norm_inf)
    diag = np.abs(np.diag(r))
    threshold = RANK_TOL * norm_est
    bad = np.flatnonzero(diag < threshold)
    if bad.size:
        raise RankDeficientError(int(bad[0]), float(diag[bad[0]]), threshold)
    return QRFactorization(h=h, tau=tau, r=r)


def _dense_cond(mat: np.ndarray) -> float:
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[-1]):
        return np.inf
    return float(s[0] / s[-1])


def _largest_eigenvalue(matvec, n: int) -> float:
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(eigsh(op, k=1, which="LA", tol=LANCZOS_TOL, v0=v0,
                       return_eigenvectors=False)[0])


def condition_estimate(r: np.ndarray) -> float:
    """Two-norm condition number sigma_max / sigma_min of upper-triangular r.

    sigma_max^2 is the top eigenvalue of R^T R, 1/sigma_min^2 that of
    R^{-1} R^{-T}; each comes from a deterministic Lanczos run (fixed
    start vector) whose steps are O(n^2) products and triangular solves.
    Small r, or a run that does not converge, takes a dense SVD instead.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    if not np.all(np.diag(r)):
        return np.inf
    if n < LANCZOS_MIN_ORDER:
        return _dense_cond(r)
    # The products and the dense SVD run on numpy's BLAS, like the QR:
    # multithreaded calls into SciPy's OpenBLAS between QRs left its
    # threads competing with numpy's (sweep-2d ran 1.5x slower). The
    # triangular solves go to LAPACK trtrs on R^T, lower-triangular and
    # F-contiguous (a view when r is C-contiguous); trans=1 solves with R.
    lower = np.asfortranarray(r.T)

    def gram(x):
        return r.T @ (r @ x.ravel())

    def inverse_gram(x):
        y, _ = lapack.dtrtrs(lower, x.reshape(n, 1), lower=1)
        y, _ = lapack.dtrtrs(lower, y, lower=1, trans=1, overwrite_b=1)
        return y.ravel()

    try:
        big = _largest_eigenvalue(gram, n)
        inv_small = _largest_eigenvalue(inverse_gram, n)
    except ArpackNoConvergence:
        return _dense_cond(r)
    return float(np.sqrt(big * inv_small))


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
    step = max(1, BLOCK_BYTES // (8 * size))
    for a, inv in inverses:
        for i in range(0, system.n_rows, step):
            block = rows[i:i + step]
            block[...] = np.moveaxis(
                np.moveaxis(block, a + 1, -1) @ inv, -1, a + 1)
    # dgeqrt overwrites mat: fac.h is mat's buffer from here on
    fac = householder_qr(mat.T)
    del mat, rows
    cond = condition_estimate(fac.r)
    z = solve_triangular(fac.r, system.rhs, trans="T", lower=False)

    # u = S^{-1/2} Q z with Q z = V R_V^{-1} Q' z (Q = Q_V Q' is M's factor)
    coef = fac.apply_q(z).reshape(shape)
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
