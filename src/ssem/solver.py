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
R^{-1} R^{-T}), not from a dense SVD. A cond above 1 / RANK_TOL is
refused as rank loss, like a negligible |R_ii|.

The QR is LAPACK dgeqrt: blocked like dgeqrf, but each column panel is
factored recursively (dgeqrt3, after Elmroth and Gustavson), so nearly
all of its flops run in level-3 BLAS. Its block size is the fixed
QR_BLOCK. dgeqrt leaves the reflectors where dgeqrf does and returns the
upper-triangular T of each block reflector, whose diagonal is the tau of
that block's reflectors (T_ii = tau_i); ormqr applies them as usual.

Memory and passes: pinv_solve builds A once and turns it into M' in
place, a block of rows of about BLOCK_BYTES at a time (diag(mu) and the
time-axis R_V^{-1} together), and dgeqrt overwrites that buffer with the
reflectors, so the solve peaks at about one N x n matrix plus the n x n
R (T and the workspace are QR_BLOCK x n each). R is copied out once,
F-ordered, and read once for its finiteness and norm estimate; the
Lanczos solves read it in place. dgeqrt is called through ctypes from
the OpenBLAS that numpy bundles (its ILP64 symbol scipy_dgeqrt_64_),
which keeps it on numpy's thread pool; a numpy without that library
(the symbol does not resolve) falls back to numpy.linalg.qr(mode="raw"),
which factors a copy.
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
# Lanczos basis size between restarts: on heat-st (n = 1994) 8 vectors
# take 26 matvecs per run where ARPACK's default of 20 takes 42.
LANCZOS_NCV = 8
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
    """The constraint matrix has (numerically) dependent columns.

    column is the first column whose |R_ii| (value) falls below
    threshold. It is None when every |R_ii| passes but cond (value)
    exceeds the bound 1 / RANK_TOL (threshold): unpivoted R can hide a
    dependence that sigma_min shows (the Kahan matrix).
    """

    def __init__(self, column: int | None, value: float, threshold: float):
        self.column = column
        if column is None:
            detail = (f"cond = {value:.3e} above bound {threshold:.3e} "
                      f"(1 / RANK_TOL), although no |R_ii| falls below "
                      f"its threshold")
        else:
            detail = (f"|R[{column},{column}]| = {value:.3e} below threshold "
                      f"{threshold:.3e}; constraint index {column} is "
                      f"numerically dependent on its predecessors")
        super().__init__(f"rank-deficient constraint matrix: {detail}")


@dataclass(frozen=True, eq=False)
class QRFactorization:
    """Thin QR of a tall N x n matrix, kept as LAPACK left it.

    h.T (N x n) holds R on and above its diagonal and the Householder
    reflectors below it; tau holds their scales (dgeqrt: the diagonal of
    its block reflectors' T; fallback: geqrf's tau). r is the upper-
    triangular n x n factor, F-ordered. Q is applied by apply_q and never
    formed.
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


def _norm_estimate(r: np.ndarray) -> float:
    """sqrt(||r||_1 ||r||_inf) >= ||r||_2 for upper-triangular r.

    Cheap and deterministic: the column and row sums of |r| come from one
    pass over r's upper triangle, a block of columns at a time (contiguous
    when r is F-ordered). NaN or inf in r propagates into the result.
    """
    n = r.shape[1]
    col_sums = np.empty(n)
    row_sums = np.zeros(n)
    step = max(1, BLOCK_BYTES // (8 * max(1, n)))
    for j in range(0, n, step):
        block = np.abs(r[:j + step, j:j + step])
        col_sums[j:j + step] = block.sum(axis=0)
        row_sums[:j + step] += block.sum(axis=1)
        del block  # before the next, taller block is allocated
    return float(np.sqrt(col_sums.max(initial=0.0)
                         * row_sums.max(initial=0.0)))


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
    # R is the upper triangle of h.T; as the transpose of h's lower
    # triangle it is copied without a transposing pass and is F-ordered,
    # the layout the triangular solves read in place
    r = np.tril(h[:, :n]).T
    # a NaN or inf anywhere in mat reaches R through the reflectors, and
    # from R the norm estimate
    norm_est = _norm_estimate(r)
    if not (np.isfinite(norm_est) and np.isfinite(tau).all()):
        raise ValueError(
            "householder_qr: the matrix has non-finite entries "
            "(NaN or inf in its R factor)"
        )
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
    return float(eigsh(op, k=1, which="LA", ncv=LANCZOS_NCV,
                       tol=LANCZOS_TOL, v0=v0,
                       return_eigenvectors=False)[0])


def condition_estimate(r: np.ndarray) -> float:
    """Two-norm condition number sigma_max / sigma_min of upper-triangular r.

    sigma_max^2 is the top eigenvalue of R^T R, 1/sigma_min^2 that of
    R^{-1} R^{-T}; each comes from a deterministic Lanczos run (fixed
    start vector) whose steps are O(n^2) products and triangular solves.
    Small r, or a run that does not converge, takes a dense SVD instead.
    """
    # F-ordered, as householder_qr returns R: LAPACK reads it in place
    r = np.asfortranarray(r, dtype=float)
    n = r.shape[0]
    if not np.all(np.diag(r)):
        return np.inf
    if n < LANCZOS_MIN_ORDER:
        return _dense_cond(r)
    # The products and the dense SVD run on numpy's BLAS, like the QR:
    # multithreaded calls into SciPy's OpenBLAS between QRs left its
    # threads competing with numpy's (sweep-2d ran 1.5x slower). The
    # triangular solves go to LAPACK trtrs on R: trans=1 solves with R^T.

    def gram(x):
        return r.T @ (r @ x.ravel())

    def inverse_gram(x):
        y, _ = lapack.dtrtrs(r, x.reshape(n, 1), trans=1)
        y, _ = lapack.dtrtrs(r, y, overwrite_b=1)
        return y.ravel()

    try:
        big = _largest_eigenvalue(gram, n)
        inv_small = _largest_eigenvalue(inverse_gram, n)
    except ArpackNoConvergence:
        return _dense_cond(r)
    return float(np.sqrt(big * inv_small))


# The steps of pinv_solve, in order, as SolveReport.phases names them.
PHASES = ("build", "scale", "factor", "cond", "backsolve", "pullback",
          "residual")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one constrained solve.

    Residual norms are recomputed from the returned solution through the
    implicit constraint operators, never carried over from the factors.
    phases maps each name in PHASES to the seconds pinv_solve spent on
    that step; they add up to seconds.
    """

    solution: np.ndarray
    residual_l2: float
    residual_linf: float
    cond_estimate: float
    n_omega: int
    n_gamma: int
    seconds: float
    phases: dict


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


def _scale_rows(rows: np.ndarray, weight: np.ndarray, inverses) -> None:
    """Turn rows of A into rows of A diag(mu) R_V^{-1}, in place.

    rows is A shaped (n_rows,) + grid shape and weight is mu * scale on
    the grid. Each block of rows of about BLOCK_BYTES is scaled and then
    multiplied by each (axis, R_a^{-1}) while it is in cache, so A is
    read and written once. With that axis moved last, the product is one
    matmul per block, batched over its rows: one small GEMM per row of
    A. (A single tall-skinny 2-D GEMM per block is split across
    OpenBLAS's threads and ran 3-20x slower on 2 cores.)
    """
    step = max(1, BLOCK_BYTES // (8 * weight.size))
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        block *= weight
        for a, inv in inverses:
            moved = np.moveaxis(block, a + 1, -1)
            flat = moved.reshape(len(block), -1, len(inv))
            moved[...] = np.matmul(flat, inv).reshape(moved.shape)


def pinv_solve(system: ConstraintSystem, smoother) -> SolveReport:
    """Solve C u = b for the minimal-selection-norm u.

    smoother is a SmootherSpec (preferred: its multiplier is exact) or a
    callable applying S^{-1/2} to a grid tensor, which must be diagonal
    in the Chebyshev basis (ValueError otherwise). Raises
    RankDeficientError when a diagonal entry of R is negligible or cond
    exceeds 1 / RANK_TOL.
    """
    marks = [time.perf_counter()]
    shape = system.grid_shape
    size = int(np.prod(shape))
    if size < system.n_rows:
        raise ValueError(
            f"under-resolved grid: {size} grid points cannot carry "
            f"{system.n_rows} constraints"
        )
    mat = system.coefficient_matrix()
    marks.append(time.perf_counter())

    # rows of A become rows of A diag(mu) R_V^{-1}, i.e. columns of M'
    mult, half_inverse = _smoother(system, smoother)
    scale, inverses = _gram_inverse(system.axes)
    _scale_rows(mat.reshape((system.n_rows,) + shape), mult * scale,
                inverses)
    marks.append(time.perf_counter())
    # dgeqrt overwrites mat: fac.h is mat's buffer from here on
    fac = householder_qr(mat.T)
    del mat
    marks.append(time.perf_counter())
    cond = condition_estimate(fac.r)
    if cond > 1.0 / RANK_TOL:
        raise RankDeficientError(None, cond, 1.0 / RANK_TOL)
    marks.append(time.perf_counter())
    # householder_qr has checked R: it is finite
    z = solve_triangular(fac.r, system.rhs, trans="T", lower=False,
                         check_finite=False)
    marks.append(time.perf_counter())

    # u = S^{-1/2} Q z with Q z = V R_V^{-1} Q' z (Q = Q_V Q' is M's factor)
    coef = fac.apply_q(z).reshape(shape)
    for a, inv in inverses:
        coef = np.moveaxis(np.tensordot(inv, coef, axes=([1], [a])), 0, a)
    u = half_inverse(synthesis(coef * scale, system.axes))
    marks.append(time.perf_counter())
    res = system.residual(u)
    marks.append(time.perf_counter())
    return SolveReport(
        solution=u,
        residual_l2=float(np.linalg.norm(res)),
        residual_linf=float(np.max(np.abs(res))) if res.size else 0.0,
        cond_estimate=cond,
        n_omega=system.n_omega,
        n_gamma=system.n_gamma,
        seconds=marks[-1] - marks[0],
        phases=dict(zip(PHASES, np.diff(marks).tolist())),
    )
