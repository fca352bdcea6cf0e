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

The QR is LAPACK dgeqrt: blocked like dgeqrf, but each column panel is
factored recursively (dgeqrt3, after Elmroth and Gustavson), so nearly
all of its flops run in level-3 BLAS. Its block size is the fixed
QR_BLOCK. dgeqrt leaves the Householder reflectors below R and returns
the upper-triangular T of each block reflector. Q' is never formed: the
factorization keeps the reflectors and T, and dgemqrt applies them to
the one vector R^{-T} b. cond = sigma_max / sigma_min comes from two
Lanczos runs on R (R^T R and R^{-1} R^{-T}), not from a dense SVD. A
cond above 1 / RANK_TOL is refused as rank loss, like a negligible
|R_ii|.

Memory and passes: pinv_solve builds A once and turns it into M' in
place, a block of rows of about BLOCK_BYTES at a time (diag(mu) and the
time-axis R_V^{-1} together), and dgeqrt overwrites that buffer with the
reflectors, so the solve peaks at about one N x n matrix plus the n x n
R (T and the workspace are QR_BLOCK x n each). R is copied out once,
F-ordered, and read once for its finiteness and norm estimate; the
triangular solves (LAPACK dtrtrs) read it in place. dgeqrt, dgemqrt and
dtrtrs are called through ctypes from the OpenBLAS that numpy bundles
(its ILP64 symbols scipy_dgeqrt_64_ and so on), which keeps them on
numpy's thread pool; a numpy without that library runs the same three
routines from SciPy's LAPACK, the only use of SciPy in a solve.
"""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
# Lanczos for cond: a run ends when the Ritz residual bound of its top
# Ritz value theta falls to LANCZOS_TOL * theta. Below LANCZOS_MIN_ORDER
# a dense SVD of R is cheaper than the two runs (measured crossover
# between n = 100 and 150 on 2 cores); a run that has not converged in
# LANCZOS_MAX_STEPS steps takes the dense SVD too.
LANCZOS_TOL = 1e-14
LANCZOS_MIN_ORDER = 128
LANCZOS_MAX_STEPS = 100
# Column block of the dgeqrt factorization (its NB), capped at n.
QR_BLOCK = 128


def _int64(value: int):
    """An ILP64 LAPACK integer argument: a pointer to an int64."""
    return ctypes.byref(ctypes.c_int64(value))


def _require_fortran(*arrays) -> None:
    """LAPACK reads these buffers through raw pointers: refuse any that is
    not F-contiguous float64."""
    if not all(a.dtype == np.float64 and a.flags.f_contiguous
               for a in arrays):
        raise ValueError("LAPACK arguments must be F-contiguous float64")


@functools.cache
def _bundled_lapack():
    """dgeqrt, dgemqrt and dtrtrs from the OpenBLAS bundled with numpy, or
    None unless all three resolve.

    numpy's wheels ship scipy-openblas in numpy.libs with ILP64 symbols:
    every integer argument is a pointer to an int64, and each character
    argument adds its length (gfortran's hidden size_t) after the others.
    The library is already loaded by numpy, so this opens the same copy
    and the same thread pool. Resolved on first use, not at import.

    The wrappers take the arguments of SciPy's lapack functions that
    pinv_solve uses, and work in place on the F-contiguous float64
    arrays they are given, as SciPy's do with overwrite_a/_b/_c=1.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            geqrt, gemqrt, trtrs = (getattr(lib, f"scipy_{name}_64_")
                                    for name in ("dgeqrt", "dgemqrt",
                                                 "dtrtrs"))
        except (OSError, AttributeError):
            continue
        break
    else:
        return None
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    char, size = ctypes.c_char_p, ctypes.c_size_t
    # M, N, NB, A, LDA, T, LDT, WORK, INFO
    geqrt.argtypes = [i64, i64, i64, ptr, i64, ptr, i64, ptr, i64]
    # SIDE, TRANS, M, N, K, NB, V, LDV, T, LDT, C, LDC, WORK, INFO
    gemqrt.argtypes = [char, char] + [i64] * 4 + [ptr, i64] * 3 \
        + [ptr, i64, size, size]
    # UPLO, TRANS, DIAG, N, NRHS, A, LDA, B, LDB, INFO
    trtrs.argtypes = [char] * 3 + [i64, i64, ptr, i64, ptr, i64, i64] \
        + [size] * 3

    def dgeqrt(nb, a, overwrite_a=1):
        _require_fortran(a)
        info = ctypes.c_int64()
        t = np.zeros((nb, a.shape[1]), order="F")
        work = np.empty(t.size)
        geqrt(_int64(a.shape[0]), _int64(a.shape[1]), _int64(nb),
              a.ctypes.data, _int64(max(1, a.shape[0])), t.ctypes.data,
              _int64(nb), work.ctypes.data, info)
        return a, t, info.value

    def dgemqrt(v, t, c, overwrite_c=1):
        _require_fortran(v, t, c)
        (big, cols), (nb, k) = c.shape, t.shape
        info = ctypes.c_int64()
        work = np.empty(nb * cols)
        gemqrt(b"L", b"N", _int64(big), _int64(cols), _int64(k), _int64(nb),
               v.ctypes.data, _int64(big), t.ctypes.data, _int64(nb),
               c.ctypes.data, _int64(big), work.ctypes.data, info, 1, 1)
        return c, info.value

    def dtrtrs(a, b, trans=0, overwrite_b=1):
        _require_fortran(a, b)
        n, info = a.shape[0], ctypes.c_int64()
        trtrs(b"U", b"T" if trans else b"N", b"N", _int64(n),
              _int64(b.shape[1]), a.ctypes.data, _int64(max(1, n)),
              b.ctypes.data, _int64(max(1, n)), info, 1, 1, 1)
        return b, info.value

    return dgeqrt, dgemqrt, dtrtrs


def _lapack():
    """(dgeqrt, dgemqrt, dtrtrs) with SciPy's signatures: numpy's bundled
    ones, or SciPy's lapack where those do not resolve. Callers pass
    F-contiguous float64 arrays and overwrite_*=1, so both work in place."""
    bundled = _bundled_lapack()
    if bundled is not None:
        return bundled
    from scipy.linalg import lapack
    return lapack.dgeqrt, lapack.dgemqrt, lapack.dtrtrs


def _require(name: str, info: int) -> None:
    if info:
        raise np.linalg.LinAlgError(f"{name} failed with info={info}")


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
    """Thin QR of a tall N x n matrix, kept as LAPACK dgeqrt left it.

    h.T (N x n) holds R on and above its diagonal and the Householder
    reflectors below it; t holds the upper-triangular T of each block
    reflector, side by side (QR_BLOCK x n). r is the upper-triangular
    n x n factor, F-ordered, and rank_margin is min |R_ii| over the rank
    threshold householder_qr applied (above 1 when it passed). Q is
    applied by apply_q and never formed.
    h.T is F-contiguous, so LAPACK reads it in place; when dgeqrt ran in
    place (pinv_solve's case) h.T is the very buffer that held the
    factored matrix, so the factorization costs no second N x n array.
    """

    h: np.ndarray
    t: np.ndarray
    r: np.ndarray
    rank_margin: float

    def apply_q(self, z: np.ndarray) -> np.ndarray:
        """Q z for z of shape (n,) or (n, k), by LAPACK dgemqrt on h.T."""
        refl = self.h.T
        big, n = refl.shape
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[0] != n:
            raise ValueError(
                f"apply_q expects shape ({n},) or ({n}, k), got {z.shape}"
            )
        c = np.zeros((big, z.size // n), order="F")
        c[:n] = z.reshape(n, -1)
        qz, info = _lapack()[1](refl, self.t, c, overwrite_c=1)
        _require("dgemqrt", info)
        return qz.reshape((big,) + z.shape[1:])


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

    dgeqrt factors blocks of QR_BLOCK columns, each panel recursively. It
    factors np.asfortranarray(mat, dtype=float) in place, like SciPy's
    overwrite_a: an F-contiguous float64 mat (pinv_solve passes one) is
    overwritten by the reflectors and R, and the result's h.T is mat
    itself; any other mat is copied once and left unchanged.

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
    nb = max(1, min(QR_BLOCK, n))
    buf, t, info = _lapack()[0](nb, buf, overwrite_a=1)
    _require("dgeqrt", info)
    h = buf.T
    # R is the upper triangle of h.T; as the transpose of h's lower
    # triangle it is copied without a transposing pass and is F-ordered,
    # the layout the triangular solves read in place
    r = np.tril(h[:, :n]).T
    # a NaN or inf anywhere in mat reaches R through the reflectors, and
    # from R the norm estimate; T's diagonal holds the reflectors' tau
    norm_est = _norm_estimate(r)
    cols = np.arange(n)
    if not (np.isfinite(norm_est) and np.isfinite(t[cols % nb, cols]).all()):
        raise ValueError(
            "householder_qr: the matrix has non-finite entries "
            "(NaN or inf in its R factor)"
        )
    diag = np.abs(np.diag(r))
    threshold = RANK_TOL * norm_est
    bad = np.flatnonzero(diag < threshold)
    if bad.size:
        raise RankDeficientError(int(bad[0]), float(diag[bad[0]]), threshold)
    return QRFactorization(h=h, t=t, r=r,
                           rank_margin=float(diag.min(initial=np.inf)
                                             / threshold))


def _dense_cond(mat: np.ndarray) -> float:
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[-1]):
        return np.inf
    return float(s[0] / s[-1])


def _largest_eigenvalue(matvec, n: int) -> float | None:
    """Top eigenvalue of a symmetric positive definite n x n operator, or
    None when LANCZOS_MAX_STEPS Lanczos steps do not find it.

    Lanczos with full reorthogonalization from a fixed start vector, so
    repeat runs agree bit for bit. A run stops on the Ritz residual bound
    |beta_j s_j| <= LANCZOS_TOL * theta, with theta the top eigenvalue of
    the j x j tridiagonal T_j and s_j the last entry of its eigenvector
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13).
    """
    steps = min(n, LANCZOS_MAX_STEPS)
    basis = np.zeros((steps + 1, n))
    tri = np.zeros((steps + 1, steps + 1))
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        w = matvec(basis[j])
        tri[j, j] = basis[j] @ w
        # Gram-Schmidt twice against the whole basis: the three-term
        # recurrence and the full reorthogonalization in one
        for _ in range(2):
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        beta = np.linalg.norm(w)
        theta, vecs = np.linalg.eigh(tri[:j + 1, :j + 1])
        if abs(beta * vecs[-1, -1]) <= LANCZOS_TOL * theta[-1]:
            return float(theta[-1])
        tri[j + 1, j] = tri[j, j + 1] = beta
        basis[j + 1] = w / beta
    return None


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
    trtrs = _lapack()[2]

    def gram(x):
        return r.T @ (r @ x)

    def inverse_gram(x):
        y, _ = trtrs(r, x.reshape(n, 1).copy(order="F"), trans=1,
                     overwrite_b=1)
        y, _ = trtrs(r, y, overwrite_b=1)
        return y.ravel()

    big = _largest_eigenvalue(gram, n)
    inv_small = None if big is None else _largest_eigenvalue(inverse_gram, n)
    if inv_small is None:
        return _dense_cond(r)
    return float(np.sqrt(big * inv_small))


def solve_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The back-solve z = R^{-T} b, by LAPACK dtrtrs on the upper-triangular
    r in place (when F-ordered, as householder_qr returns it)."""
    x = np.array(b, dtype=float).reshape(len(b), 1)
    x, info = _lapack()[2](np.asfortranarray(r, dtype=float), x, trans=1,
                           overwrite_b=1)
    _require("dtrtrs", info)
    return x.ravel()


# The steps of pinv_solve, in order, as SolveReport.phases names them.
PHASES = ("build", "scale", "factor", "cond", "backsolve", "pullback",
          "residual")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one constrained solve.

    Residual norms are recomputed from the returned solution through the
    implicit constraint operators, never carried over from the factors.
    n_rows x grid_size is the shape of the constraint matrix, and
    rank_margin is min |R_ii| over the rank threshold (see
    QRFactorization). phases maps each name in PHASES to the seconds
    pinv_solve spent on that step; they add up to seconds.
    """

    solution: np.ndarray
    residual_l2: float
    residual_linf: float
    cond_estimate: float
    n_omega: int
    n_gamma: int
    n_rows: int
    grid_size: int
    rank_margin: float
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
            inverses.append((a, np.linalg.solve(r, np.eye(len(r)))))
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
    z = solve_triangular(fac.r, system.rhs)
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
        n_rows=system.n_rows,
        grid_size=size,
        rank_margin=fac.rank_margin,
        seconds=marks[-1] - marks[0],
        phases=dict(zip(PHASES, np.diff(marks).tolist())),
    )
