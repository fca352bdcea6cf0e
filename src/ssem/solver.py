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
Lanczos runs on R (R^T R and R^{-1} R^{-T}), not from a dense SVD. Both
start from a hashed vector that depends on n alone (_hashed), so cond is
repeatable bit for bit and a solve loads no numpy.random. Each run stops
once the error bound of its top Ritz value, (Ritz residual)^2 over the
Ritz gap, is at rounding level and the residual itself is small (see
the LANCZOS_* constants). A cond above 1 / RANK_TOL is refused as rank
loss. That bound is the one rank criterion: the QR's early check, |R_ii|
below RANK_TOL * max |R_jj|, implies it, because sigma_min <= min |R_ii|
and max |R_ii| <= sigma_max for triangular R, and only adds the name of
the column.

Memory and passes: pinv_solve builds A once and turns it into M' in
place, a block of rows of about BLOCK_BYTES at a time (diag(mu) and the
time-axis R_V^{-1} together), and dgeqrt overwrites that buffer with the
reflectors, so the solve peaks at about one N x n matrix plus T and the
workspace (QR_BLOCK x n each). R is never copied: it is the upper
triangle of the leading n x n block of that buffer (LDA = N), with the
reflectors below it. The finiteness check reads that whole block with
numpy's min and max; everything else reads the triangle only, in
place, through LAPACK with UPLO = 'U': the Lanczos products (BLAS
dtrmv) and the triangular solves (LAPACK dtrtrs). dgeqrt,
dgemqrt, dtrtrs and dtrmv are called through ctypes from the OpenBLAS
that numpy bundles (its ILP64 symbols scipy_dgeqrt_64_ and so on),
which keeps them on numpy's thread pool; a numpy without that library
runs the same four routines from SciPy, the only use of SciPy in a
solve. For the Lanczos runs, R's layout is checked and its arguments
are built once per condition_estimate call, so each step is two dtrmv
or two dtrtrs calls on one reused vector.
"""

from __future__ import annotations

import contextlib
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
from .chebyshev import _along, _apply, analysis, synthesis

__all__ = [
    "QRFactorization",
    "SolveReport",
    "RankDeficientError",
    "householder_qr",
    "condition_estimate",
    "pinv_solve",
]

RANK_TOL = 1e-13
# A smoother callable whose probed multiplier misses the hashed coefficient
# tensor (_hashed) by more than this (relative) is not diagonal in the
# basis.
DIAGONAL_TOL = 1e-10
# Lanczos for cond: a run ends when the error bound of its top Ritz value
# theta, (Ritz residual)^2 / (gap to the next Ritz value), falls to
# LANCZOS_ERROR_TOL * theta, so theta is exact to rounding. A pair of
# eigenvalues too close for the run to resolve shows a large Ritz gap,
# and its theta is off by about the residual; so that bound counts only
# once the residual is below LANCZOS_CLUSTER_TOL * theta. A gap too
# small for the bound falls back to the residual reaching
# LANCZOS_TOL * theta. Below LANCZOS_MIN_ORDER a dense SVD of R is
# cheaper than the two runs (measured crossover between n = 93 and 103
# on 2 cores); a run that has not converged in LANCZOS_MAX_STEPS steps
# takes the dense SVD too.
LANCZOS_ERROR_TOL = np.finfo(float).eps
LANCZOS_CLUSTER_TOL = 1e-10
LANCZOS_TOL = 1e-14
LANCZOS_MIN_ORDER = 100
LANCZOS_MAX_STEPS = 100
# Column block of the dgeqrt factorization (its NB), capped at n.
QR_BLOCK = 128


def _int64(value: int):
    """An ILP64 LAPACK integer argument: a pointer to an int64."""
    return ctypes.byref(ctypes.c_int64(value))


def _leading_dimension(a: np.ndarray) -> int | None:
    """LAPACK's LDA for reading the matrix a in place: its column stride in
    elements. None unless a is float64 with unit row stride and its
    columns do not overlap (a view such as a[:n] of an F-ordered N x n
    buffer has LDA = N > n)."""
    if a.dtype != np.float64 or a.ndim != 2:
        return None
    if a.flags.f_contiguous:
        return max(1, a.shape[0])
    lda, rem = divmod(a.strides[1], a.itemsize)
    if a.strides[0] != a.itemsize or rem or lda < a.shape[0]:
        return None
    return lda


def _leading_dimensions(*arrays) -> list[int]:
    """LAPACK reads these matrices through raw pointers: their LDAs, or
    ValueError for any it could only read with the wrong strides."""
    ldas = [_leading_dimension(a) for a in arrays]
    if None in ldas:
        raise ValueError(
            "LAPACK arguments must be float64 matrices with unit row stride")
    return ldas


def _readable(r) -> np.ndarray:
    """r itself when LAPACK can read it in place, else an F-ordered
    float64 copy."""
    r = np.asarray(r)
    if _leading_dimension(r) is None:
        r = np.asfortranarray(r, dtype=float)
    return r


# What the solve and the sweep call in numpy's bundled OpenBLAS.
_BUNDLED_LAPACK = ("dgeqrt", "dgemqrt", "dtrtrs", "dtrmv")
_BUNDLED_THREADS = ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_set_num_threads64_")


@functools.cache
def _bundled_openblas():
    """The OpenBLAS bundled with numpy, as a ctypes.CDLL, or None unless
    every routine in _BUNDLED_LAPACK and _BUNDLED_THREADS resolves.

    numpy's wheels ship scipy-openblas in numpy.libs with ILP64 symbols.
    The library is already loaded by numpy, so this opens the same copy
    and the same thread pool. Resolved on first use, not at import.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            for name in _BUNDLED_LAPACK:
                getattr(lib, f"scipy_{name}_64_")
            get, put = (getattr(lib, name) for name in _BUNDLED_THREADS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


@functools.cache
def _bundled_lapack():
    """(dgeqrt, dgemqrt, dtrtrs, grams) on the OpenBLAS bundled with
    numpy, grams by the BLAS dtrmv and dtrtrs; None where that library
    does not resolve.

    Every integer argument of the ILP64 symbols is a pointer to an int64,
    and each character argument adds its length (gfortran's hidden
    size_t) after the others.

    The wrappers take the arguments of SciPy's lapack functions that
    pinv_solve uses, and work in place on the arrays they are given, as
    SciPy's do with overwrite_a/_b/_c=1; grams is _scipy_grams' twin. A
    matrix is read with the LDA of its column stride, so a view into a
    larger F-ordered buffer needs no copy.
    """
    lib = _bundled_openblas()
    if lib is None:
        return None
    geqrt, gemqrt, trtrs, trmv = (
        getattr(lib, f"scipy_{name}_64_") for name in _BUNDLED_LAPACK)
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
    # UPLO, TRANS, DIAG, N, A, LDA, X, INCX
    trmv.argtypes = [char] * 3 + [i64, ptr, i64, ptr, i64] + [size] * 3
    for routine in (geqrt, gemqrt, trtrs, trmv):
        routine.restype = None

    def dgeqrt(nb, a, overwrite_a=1):
        lda, = _leading_dimensions(a)
        info = ctypes.c_int64()
        t = np.zeros((nb, a.shape[1]), order="F")
        work = np.empty(t.size)
        geqrt(_int64(a.shape[0]), _int64(a.shape[1]), _int64(nb),
              a.ctypes.data, _int64(lda), t.ctypes.data, _int64(nb),
              work.ctypes.data, info)
        return a, t, info.value

    def dgemqrt(v, t, c, overwrite_c=1):
        ldv, ldt, ldc = _leading_dimensions(v, t, c)
        (big, cols), (nb, k) = c.shape, t.shape
        info = ctypes.c_int64()
        work = np.empty(nb * cols)
        gemqrt(b"L", b"N", _int64(big), _int64(cols), _int64(k), _int64(nb),
               v.ctypes.data, _int64(ldv), t.ctypes.data, _int64(ldt),
               c.ctypes.data, _int64(ldc), work.ctypes.data, info, 1, 1)
        return c, info.value

    def dtrtrs(a, b, trans=0, overwrite_b=1):
        lda, ldb = _leading_dimensions(a, b)
        info = ctypes.c_int64()
        trtrs(b"U", b"T" if trans else b"N", b"N", _int64(a.shape[0]),
              _int64(b.shape[1]), a.ctypes.data, _int64(lda),
              b.ctypes.data, _int64(ldb), info, 1, 1, 1)
        return b, info.value

    def grams(a):
        # R's layout is checked and its arguments built here, once; each
        # call of gram or inverse_gram is then two BLAS or LAPACK calls
        lda, = _leading_dimensions(a)
        x = np.zeros(a.shape[0])
        dim, ld, one = _int64(len(x)), _int64(lda), _int64(1)
        # data_as keeps a reference to its array, so a and x stay alive
        ptr_a, ptr_x = (v.ctypes.data_as(ctypes.c_void_p) for v in (a, x))
        info = ctypes.c_int64()

        def gram(v):
            x[:] = v
            for trans in (b"N", b"T"):
                trmv(b"U", trans, b"N", dim, ptr_a, ld, ptr_x, one, 1, 1, 1)
            return x

        def inverse_gram(v):
            x[:] = v
            for trans in (b"T", b"N"):
                trtrs(b"U", trans, b"N", dim, one, ptr_a, ld, ptr_x, dim,
                      info, 1, 1, 1)
                _require("dtrtrs", info.value)
            return x

        return gram, inverse_gram

    return dgeqrt, dgemqrt, dtrtrs, grams


def _scipy_grams(a):
    """(gram, inverse_gram) for R, the upper triangle of the n x n a:
    gram(v) is R^T R v and inverse_gram(v) is R^{-1} R^{-T} v, by two
    BLAS dtrmv or two LAPACK dtrtrs calls in place on one vector, which
    each call returns and the next overwrites.

    The SciPy twin of the bundled grams. f2py copies a strided matrix on
    every call, so a strided a (QRFactorization.upper) is copied once
    here instead.
    """
    from scipy.linalg import blas, lapack
    a = np.asfortranarray(a, dtype=float)
    x = np.zeros(a.shape[0])
    col = x.reshape(-1, 1)

    def gram(v):
        x[:] = v
        for trans in (0, 1):
            blas.dtrmv(a, x, trans=trans, overwrite_x=1)
        return x

    def inverse_gram(v):
        x[:] = v
        for trans in (1, 0):
            _require("dtrtrs",
                     lapack.dtrtrs(a, col, trans=trans, overwrite_b=1)[1])
        return x

    return gram, inverse_gram


def _lapack():
    """(dgeqrt, dgemqrt, dtrtrs, grams): numpy's bundled ones, or
    SciPy's lapack and _scipy_grams where those do not resolve. The LAPACK
    routines take SciPy's signatures. Callers pass float64 arrays with
    unit row stride and overwrite_*=1, so both work in place (f2py copies
    a strided matrix first)."""
    bundled = _bundled_lapack()
    if bundled is not None:
        return bundled
    from scipy.linalg import lapack
    return lapack.dgeqrt, lapack.dgemqrt, lapack.dtrtrs, _scipy_grams


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the bundled OpenBLAS to one thread inside the block, for
    callers that run solves side by side, and restore its previous count
    on the way out, also on an error.

    Yields True when it pinned, False where solves run on SciPy's LAPACK
    (_bundled_lapack is None), whose thread pool it leaves alone. The
    count is one setting for the whole process: blocks nest, but two
    threads whose blocks overlap without nesting can leave the pin in
    place.
    """
    if _bundled_lapack() is None:
        yield False
        return
    lib = _bundled_openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield True
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _require(name: str, info: int) -> None:
    if info:
        raise np.linalg.LinAlgError(f"{name} failed with info={info}")


class RankDeficientError(RuntimeError):
    """The constraint matrix has (numerically) dependent columns: its
    cond exceeds 1 / RANK_TOL.

    column is the first column whose |R_ii| (value) is zero or below
    threshold, RANK_TOL * max |R_jj|, which implies that cond bound. It
    is None when every |R_ii| passes but cond (value) exceeds the bound
    1 / RANK_TOL (threshold): unpivoted R can hide a dependence that
    sigma_min shows (the Kahan matrix).
    """

    def __init__(self, column: int | None, value: float, threshold: float):
        self.column = column
        if column is None:
            detail = (f"cond = {value:.3e} above bound {threshold:.3e} "
                      f"(1 / RANK_TOL), although no |R_ii| falls below "
                      f"its threshold")
        else:
            detail = (f"|R[{column},{column}]| = {value:.3e} against "
                      f"threshold {threshold:.3e} (RANK_TOL * max |R_ii|); "
                      f"constraint index {column} is numerically dependent "
                      f"on its predecessors")
        super().__init__(f"rank-deficient constraint matrix: {detail}")


@dataclass(frozen=True, eq=False)
class QRFactorization:
    """Thin QR of a tall N x n matrix, kept as LAPACK dgeqrt left it.

    a is dgeqrt's F-ordered N x n buffer: R on and above its diagonal,
    the Householder reflectors below it. When dgeqrt ran in place
    (pinv_solve's case) it is the buffer that held the factored matrix,
    so the factorization costs no second N x n array. t holds the
    upper-triangular T of each block reflector, side by side
    (QR_BLOCK x n). rank_margin is min |R_ii| / (RANK_TOL * max |R_ii|),
    above 1 when householder_qr passed and never below
    1 / (RANK_TOL * cond). Q is applied by apply_q and never formed.
    """

    a: np.ndarray
    t: np.ndarray
    rank_margin: float

    @property
    def upper(self) -> np.ndarray:
        """The leading n x n block of a, a view (LDA = N): R is its upper
        triangle and the reflectors lie below it. condition_estimate and
        solve_triangular read it in place."""
        return self.a[:self.a.shape[1]]

    def apply_q(self, z: np.ndarray) -> np.ndarray:
        """Q z for z of shape (n,) or (n, k), by LAPACK dgemqrt on a."""
        big, n = self.a.shape
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[0] != n:
            raise ValueError(
                f"apply_q expects shape ({n},) or ({n}, k), got {z.shape}"
            )
        c = np.zeros((big, z.size // n), order="F")
        c[:n] = z.reshape(n, -1)
        qz, info = _lapack()[1](self.a, self.t, c, overwrite_c=1)
        _require("dgemqrt", info)
        return qz.reshape((big,) + z.shape[1:])


def householder_qr(mat: np.ndarray) -> QRFactorization:
    """Thin Householder QR (LAPACK dgeqrt) with a loud full-rank check.

    dgeqrt factors blocks of QR_BLOCK columns, each panel recursively. It
    factors np.asfortranarray(mat, dtype=float) in place, like SciPy's
    overwrite_a: an F-contiguous float64 mat (pinv_solve passes one) is
    overwritten by the reflectors and R, and the result's a is mat
    itself; any other mat is copied once and left unchanged.

    Raises ValueError for non-finite input, and RankDeficientError naming
    the first offending column when a diagonal entry of R is zero or
    below RANK_TOL times the largest. That check is the early form of
    pinv_solve's cond bound, which it implies: sigma_min <= |R_ii| and
    max |R_jj| <= sigma_max, so cond > 1 / RANK_TOL whenever it fails.
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
    # a NaN or inf anywhere in mat reaches R, the upper triangle of
    # buf[:n], through the reflectors; where they are trivial (tau = 0,
    # a triangular mat) it may stay off the diagonal, so all of buf[:n]
    # is read: min and max propagate both, in place, with no n x n copy
    lead = buf[:n]
    if not (np.isfinite(lead.min(initial=0.0))
            and np.isfinite(lead.max(initial=0.0))):
        raise ValueError(
            "householder_qr: the matrix has non-finite entries "
            "(NaN or inf in its R factor)"
        )
    diag = np.abs(np.diag(buf))
    threshold = RANK_TOL * diag.max(initial=0.0)
    bad = np.flatnonzero((diag < threshold) | (diag == 0.0))
    if bad.size:
        raise RankDeficientError(int(bad[0]), float(diag[bad[0]]), threshold)
    return QRFactorization(a=buf, t=t,
                           rank_margin=float(diag.min(initial=np.inf)
                                             / threshold))


def _hashed(size: int) -> np.ndarray:
    """size unstructured values in (-1, 1), never 0: SplitMix64 (Steele,
    Lea and Flood, 2014) of the counters 1 .. size, in numpy uint64,
    whose top 52 bits k give (k + 1/2) 2^-51 - 1.

    A pure function of size, so every call, thread and process gets the
    same values, and no numpy.random is loaded for them. The Lanczos
    start vector and the smoother probe's coefficient tensor are these.
    """
    z = np.arange(1, size + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(12)).astype(float) * 2.0 ** -51 \
        + (2.0 ** -52 - 1.0)


def _dense_cond(mat: np.ndarray) -> float:
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[-1]):
        return np.inf
    return float(s[0] / s[-1])


def _largest_eigenvalue(matvec, n: int) -> float | None:
    """Top eigenvalue of a symmetric positive definite n x n operator, or
    None when LANCZOS_MAX_STEPS Lanczos steps do not find it.

    Lanczos with full reorthogonalization from the hashed start vector
    _hashed(n): it depends on n alone, so repeat runs agree bit for bit,
    and it has no structure that could hide the top eigenvector (a
    constant start is orthogonal to an alternating one). matvec(v)
    returns A v in an array that the run may overwrite. With
    theta_1 > theta_2 the top Ritz values of the j x j tridiagonal T_j and
    s_j the last entry of theta_1's eigenvector, |beta_j s_j| is the Ritz
    residual and about (beta_j s_j)^2 / (theta_1 - theta_2) the error of
    theta_1 (Parlett, The Symmetric Eigenvalue Problem, ch. 11 and 13).
    That bound trusts the Ritz gap, which an unresolved close pair of
    eigenvalues hides: it then misses an error of about the residual. So
    a run stops when the residual is below LANCZOS_CLUSTER_TOL * theta_1
    and the bound below LANCZOS_ERROR_TOL * theta_1, or, for a gap too
    small for the bound to help, when the residual falls to
    LANCZOS_TOL * theta_1; so no run takes more steps than that residual
    test alone would.
    """
    steps = min(n, LANCZOS_MAX_STEPS)
    basis = np.zeros((steps + 1, n))
    tri = np.zeros((steps + 1, steps + 1))
    coef, proj = np.empty(steps + 1), np.empty(n)
    start = _hashed(n)
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        w = matvec(basis[j])
        head = basis[:j + 1]
        tri[j, j] = basis[j] @ w
        # Gram-Schmidt twice against the whole basis: the three-term
        # recurrence and the full reorthogonalization in one
        for _ in range(2):
            w -= np.matmul(np.matmul(head, w, out=coef[:j + 1]), head,
                           out=proj)
        beta = np.sqrt(w @ w)
        theta, vecs = np.linalg.eigh(tri[:j + 1, :j + 1])
        top, residual = theta[-1], abs(beta * vecs[-1, -1])
        gap = top - theta[-2] if j else 0.0
        if residual <= LANCZOS_TOL * top or (
                residual <= LANCZOS_CLUSTER_TOL * top
                and residual * residual <= LANCZOS_ERROR_TOL * top * gap):
            return float(top)
        # eigh reads the lower triangle only
        tri[j + 1, j] = beta
        np.divide(w, beta, out=basis[j + 1])
    return None


def condition_estimate(r: np.ndarray) -> float:
    """Two-norm condition number sigma_max / sigma_min of R, the upper
    triangle of r.

    Only r's upper triangle is read (LAPACK's UPLO = 'U'), so r may be
    QRFactorization.upper, which is read in place. sigma_max^2 is the top
    eigenvalue of R^T R, 1/sigma_min^2 that of R^{-1} R^{-T}; each comes
    from a deterministic Lanczos run (from the hashed start vector of
    _largest_eigenvalue) whose steps are triangular products (BLAS dtrmv)
    and solves (LAPACK dtrtrs). R's layout is checked and its arguments
    bound once per call, so a step is those two calls on one reused
    vector. Small r, or a run that does not converge, takes a dense SVD
    of R instead. An empty r (n = 0) has cond 1, as an identity does.
    """
    r = _readable(r)
    n = r.shape[0]
    if n == 0:
        return 1.0
    if not np.all(np.diag(r)):
        return np.inf
    if n < LANCZOS_MIN_ORDER:
        return _dense_cond(np.triu(r))
    gram, inverse_gram = _lapack()[3](r)
    big = _largest_eigenvalue(gram, n)
    inv_small = None if big is None else _largest_eigenvalue(inverse_gram, n)
    if inv_small is None:
        return _dense_cond(np.triu(r))
    return float(np.sqrt(big * inv_small))


def solve_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The back-solve z = R^{-T} b, by LAPACK dtrtrs on R, the upper
    triangle of r. Only that triangle is read, in place when r has unit
    row stride (QRFactorization.upper does)."""
    x = np.array(b, dtype=float).reshape(len(b), 1)
    x, info = _lapack()[2](_readable(r), x, trans=1, overwrite_b=1)
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
    rank_margin is min |R_ii| / (RANK_TOL * max |R_ii|) (see
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
    to about eps * max(mu), and checked on the hashed coefficient tensor
    _hashed(grid size), whose entries are unstructured and never 0.

    A callable whose result is not a finite tensor of the grid's shape,
    or is zero on the probe (mu = 0), is a ValueError naming that result;
    so is one that is not diagonal in the Chebyshev basis.
    """
    shape, axes = system.grid_shape, system.axes
    if isinstance(smoother, SmootherSpec):
        return (smoother_multiplier_array(smoother, shape),
                system.grid_smoother(smoother))

    def probe(coef):
        out = smoother(synthesis(coef, axes))
        if np.shape(out) != shape:
            raise ValueError(f"smoother result has shape {np.shape(out)}, "
                             f"not the grid shape {shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError("smoother result has non-finite entries "
                             "(NaN or inf)")
        return analysis(out, axes)

    mult = probe(np.ones(shape))
    if not np.any(mult):
        raise ValueError("smoother result is zero on the probe: its "
                         "multiplier mu vanishes on every Chebyshev mode")
    coef = _hashed(mult.size).reshape(shape)
    want = mult * coef
    defect = np.linalg.norm(probe(coef) - want) / np.linalg.norm(want)
    if not defect <= DIAGONAL_TOL:
        raise ValueError(
            f"smoother is not diagonal in the Chebyshev basis: relative "
            f"defect {defect:.3e} on the hashed coefficient tensor "
            f"(tolerance {DIAGONAL_TOL:.0e})"
        )
    return mult, smoother


def _gram_inverse(axes):
    """R_V^{-1} = diag(scale) times the (axis, R_a^{-1}) factors listed:
    diagonal Gram factors (roots axes) fold into the scale tensor."""
    factors = [ax.basis.gram for ax in axes]
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
    in the Chebyshev basis (ValueError otherwise). A system with no rows,
    or with more rows than grid points, is a ValueError. Raises
    RankDeficientError when cond exceeds 1 / RANK_TOL; the QR finds most
    such cases first, from a negligible |R_ii|, and names the column.
    """
    marks = [time.perf_counter()]
    shape = system.grid_shape
    size = int(np.prod(shape))
    if not system.n_rows:
        raise ValueError("empty constraint system: no interior or boundary "
                         "rows, so there is nothing to solve")
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
    # dgeqrt overwrites mat: fac.a is mat's buffer from here on
    fac = householder_qr(mat.T)
    del mat
    marks.append(time.perf_counter())
    cond = condition_estimate(fac.upper)
    if cond > 1.0 / RANK_TOL:
        raise RankDeficientError(None, cond, 1.0 / RANK_TOL)
    marks.append(time.perf_counter())
    z = solve_triangular(fac.upper, system.rhs)
    marks.append(time.perf_counter())

    # u = S^{-1/2} Q z with Q z = V R_V^{-1} Q' z (Q = Q_V Q' is M's factor)
    coef = fac.apply_q(z).reshape(shape)
    for a, inv in inverses:
        coef = _apply(inv, coef, a)
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
