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
Where reflections of roots axes map the constraints onto themselves, an
orthogonal recombination P of the rows (ConstraintSystem.parity_blocks)
makes P A block-diagonal, one block per parity pattern of the split
axes' k_a; diag(mu) and R_V^{-1} act on the roots axes diagonally, so
M' P^T is block-diagonal too. Its singular values are those of the
blocks, and the minimal-norm solution of P A c = P b is that of A c = b.
So each block is factored on its own, its Q' R^{-T} (P b) fills the
block's coefficients, cond is the largest sigma_max over the smallest
sigma_min, and the rank threshold below takes max |R_jj| over all
blocks. A system with no such reflection is one block, M' itself.
Where the reflections map the interior rows but not every boundary row
(ConstraintSystem.border: dirichlet-3d's samples mirror on no axis),
those boundary rows are a border B at full width, M' P^T = [D | B] with
D block-diagonal, and R is block upper-triangular: each block's Q^T
takes B's rows of its parity to a coupling T on top of a rest, and one
more QR of the stacked rests gives the border's R_B (pinv_solve).

The QR is LAPACK dgeqrt: blocked like dgeqrf, but each column panel is
factored recursively (dgeqrt3, after Elmroth and Gustavson), so nearly
all of its flops run in level-3 BLAS. Its block size is the fixed
QR_BLOCK. dgeqrt leaves the Householder reflectors below R and returns
the upper-triangular T of each block reflector. Q' is never formed: the
factorization keeps the reflectors and T, and dgemqrt applies them to
the one vector R^{-T} b. cond = sigma_max / sigma_min comes from two
Lanczos runs on 2^-e R (its Gram matrix and that of its inverse; e is
the binary exponent of max |R_ii|), not from a dense SVD. Both runs
start from a hashed vector that depends on n alone (_hashed), so cond is
repeatable bit for bit and a solve loads no numpy.random. Each run stops
once the error bound of its top Ritz value, (Ritz residual)^2 over the
Ritz gap, is at rounding level and the residual itself is small (see
the LANCZOS_* constants). A cond above 1 / RANK_TOL is refused as rank
loss. That bound is the one rank criterion: the QR's early check, |R_ii|
below RANK_TOL * max |R_jj|, implies it, because sigma_min <= min |R_ii|
and max |R_ii| <= sigma_max for triangular R, and only adds the name of
the column.

Memory and passes: pinv_solve builds each parity block of A once, from
the representative rows (never all of A when the system splits), and
turns it into its block of M' in place, a block of rows of about
BLOCK_BYTES at a time (diag(mu) and the time-axis R_V^{-1} together);
dgeqrt overwrites that buffer with the reflectors. The blocks are solved
in groups, each factored, estimated, back-solved and pulled back as one
R and freed before the next group is built. A border couples every
block, so a bordered system is one group, and a border-free one a group
per block. So a border-free solve peaks at about the largest block,
N x n when unsplit, plus T and the workspace (QR_BLOCK x n each). A
bordered solve builds the border one block's parity at a time, straight
into Q^T's buffer, and peaks at the blocks plus the stacked rests and T
(dirichlet-3d m=20: about 7 MiB of blocks and 22 MiB of border, where
the unsplit M' took 77 MiB). (One group of all the blocks of a
border-free solve would hold them all at once: 25 MiB more at the peak
of the heat problem.) R is never copied: it is the upper triangle of
the leading n x n block of that buffer (LDA = N), with the reflectors
below it. The finiteness check
reads that whole block with numpy's min and max; everything else reads
the triangle only, in place, through LAPACK with UPLO = 'U'. A LAPACK
provider (_lapack) gives dgeqrt, dgemqrt and kernels(R, x), which binds
R and a vector x once and returns x and two in-place kernels on it:
product(trans), x <- R x or R^T x (BLAS dtrmv), and solve(trans),
x <- R^{-1} x or R^{-T} x (LAPACK dtrtrs); the Lanczos runs and the
back-solve use only those. It is the OpenBLAS that numpy bundles,
through ctypes (its ILP64 symbols scipy_dgeqrt_64_ and so on), on
numpy's thread pool; a numpy without that library runs the same four
routines from SciPy, the only use of SciPy in a solve.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
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
    """(dgeqrt, dgemqrt, kernels) on the OpenBLAS bundled with numpy;
    None where that library does not resolve.

    Every integer argument of the ILP64 symbols is a pointer to an int64,
    and each character argument adds its length (gfortran's hidden
    size_t) after the others.

    dgeqrt and dgemqrt take the arguments of SciPy's lapack functions
    that householder_qr, apply_q and pinv_solve use (dgemqrt's trans is
    "N" for Q c, "T" for Q^T c) and work in place, as SciPy's do with
    overwrite_a/_c=1. kernels(a, x) returns (x, product, solve) for R, the
    upper triangle of a, acting in place on the caller's vector x (see
    the module docstring; trans is b"N" or b"T"). A matrix is read with
    the LDA of its column stride, so a view into a larger F-ordered
    buffer needs no copy.
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

    def dgemqrt(v, t, c, trans="N", overwrite_c=1):
        ldv, ldt, ldc = _leading_dimensions(v, t, c)
        (big, cols), (nb, k) = c.shape, t.shape
        info = ctypes.c_int64()
        work = np.empty(nb * cols)
        gemqrt(b"L", trans.encode(), _int64(big), _int64(cols), _int64(k),
               _int64(nb), v.ctypes.data, _int64(ldv), t.ctypes.data,
               _int64(ldt), c.ctypes.data, _int64(ldc), work.ctypes.data,
               info, 1, 1)
        return c, info.value

    def kernels(a, x):
        # R's layout is checked and its arguments built here, once; each
        # kernel call is then one BLAS or LAPACK call on x
        lda, = _leading_dimensions(a)
        dim, ld, one = _int64(len(x)), _int64(lda), _int64(1)
        # data_as keeps a reference to its array, so a and x stay alive
        ptr_a, ptr_x = (v.ctypes.data_as(ctypes.c_void_p) for v in (a, x))
        info = ctypes.c_int64()

        def product(trans):
            trmv(b"U", trans, b"N", dim, ptr_a, ld, ptr_x, one, 1, 1, 1)

        def solve(trans):
            trtrs(b"U", trans, b"N", dim, one, ptr_a, ld, ptr_x, dim, info,
                  1, 1, 1)
            _require("dtrtrs", info.value)

        return x, product, solve

    return dgeqrt, dgemqrt, kernels


def _lapack():
    """(dgeqrt, dgemqrt, kernels): numpy's bundled ones, or the same
    routines from SciPy where those do not resolve (see _bundled_lapack
    for the signatures). Callers pass float64 arrays with unit row stride
    and overwrite_*=1, so both work in place. f2py would copy a strided
    matrix on every call, so SciPy's kernels copy R once, when bound."""
    bundled = _bundled_lapack()
    if bundled is not None:
        return bundled
    from scipy.linalg import blas, lapack

    def kernels(a, x):
        a = np.asfortranarray(a, dtype=float)
        col = x.reshape(-1, 1)

        def product(trans):
            blas.dtrmv(a, x, trans=int(trans == b"T"), overwrite_x=1)

        def solve(trans):
            _require("dtrtrs", lapack.dtrtrs(a, col, trans=int(trans == b"T"),
                                             overwrite_b=1)[1])

        return x, product, solve

    return lapack.dgeqrt, lapack.dgemqrt, kernels


# The open _one_blas_thread blocks of all threads, and the thread count
# the first of them saved, under one lock.
_PIN_LOCK = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the bundled OpenBLAS to one thread inside the block, and
    restore its previous count on the way out, also on an error.

    A sweep's split QRs are small: on OpenBLAS's default pool of two
    threads the second spins on each of them and wastes CPU, so
    run_experiment solves inside this block. Where solves run on SciPy's
    LAPACK (_bundled_lapack is None), its thread pool is left alone. The
    count is one setting for the whole process, and user threads may
    run sweeps at once, so the blocks of all threads share one pin: the
    first to enter saves the count and pins it, the last to leave
    restores it, in whatever order they overlap.
    """
    global _pin_depth, _pin_saved
    if _bundled_lapack() is None:
        yield
        return
    lib = _bundled_openblas()
    with _PIN_LOCK:
        if not _pin_depth:
            _pin_saved = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if not _pin_depth:
                lib.scipy_openblas_set_num_threads64_(_pin_saved)


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
    sigma_min shows (the Kahan matrix). A block of M' with more
    constraints than coefficients is refused before any QR (too_wide):
    column is then the first constraint row past its width, and value
    and threshold are None.
    """

    def __init__(self, column: int | None, value: float | None,
                 threshold: float | None, detail: str | None = None):
        self.column, self.value, self.threshold = column, value, threshold
        if detail is None and column is None:
            detail = (f"cond = {value:.3e} above bound {threshold:.3e} "
                      f"(1 / RANK_TOL), although no |R_ii| falls below "
                      f"its threshold")
        elif detail is None:
            detail = (f"|R[{column},{column}]| = {value:.3e} against "
                      f"threshold {threshold:.3e} (RANK_TOL * max |R_ii|); "
                      f"constraint index {column} is numerically dependent "
                      f"on its predecessors")
        super().__init__(f"rank-deficient constraint matrix: {detail}")

    @classmethod
    def too_wide(cls, row: int, count: int, width: int):
        """A parity block of count constraints on width < count
        coefficients: its rows are dependent, and row is the first past
        that width. No QR ran, so no |R_ii| is named."""
        return cls(row, None, None,
                   f"a parity block has {count} constraints on {width} "
                   f"coefficients, more constraints than coefficients, so "
                   f"constraint index {row} (the first past that width) is "
                   f"numerically dependent on its predecessors")


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
    1 / (RANK_TOL * cond). Q is applied by apply_q (the thin N x n Q) and
    reflect (all of Q, or Q^T), and never formed.
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
        return self.reflect(c).reshape((big,) + z.shape[1:])

    def reflect(self, c: np.ndarray, trans: str = "N") -> np.ndarray:
        """Q c, or Q^T c for trans "T", with Q the full N x N orthogonal
        factor, for an F-ordered float64 c of N rows: one LAPACK dgemqrt,
        in place on c (SciPy's returns a copy where it cannot); returns
        the result."""
        qc, info = _lapack()[1](self.a, self.t, c, trans=trans,
                                overwrite_c=1)
        _require("dgemqrt", info)
        return qc


def householder_qr(mat: np.ndarray) -> QRFactorization:
    """Thin Householder QR (LAPACK dgeqrt) with a loud full-rank check.

    dgeqrt factors blocks of QR_BLOCK columns, each panel recursively. It
    factors np.asfortranarray(mat, dtype=float) in place, like SciPy's
    overwrite_a: an F-contiguous float64 mat (pinv_solve passes one) is
    overwritten by the reflectors and R, and the result's a is mat
    itself; any other mat is copied once and left unchanged.

    Raises ValueError for non-finite input, and RankDeficientError naming
    the first offending column when a diagonal entry of R is zero or
    below RANK_TOL times the largest (_rank_verdict). That check is the
    early form of pinv_solve's cond bound, which it implies:
    sigma_min <= |R_ii| and max |R_jj| <= sigma_max, so
    cond > 1 / RANK_TOL whenever it fails.
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
    margin = _rank_verdict([(np.arange(n), np.abs(np.diag(buf)))])
    return QRFactorization(a=buf, t=t, rank_margin=margin)


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


def _dense_cond(mat: np.ndarray) -> tuple:
    """(sigma_max / sigma_min, sigma_max, sigma_min) of mat by a dense SVD;
    the ratio is inf where sigma_min is 0 or it leaves the double range."""
    s = np.linalg.svd(mat, compute_uv=False)
    top, bottom = float(s[0]), float(s[-1])
    if bottom <= 0.0 or not np.isfinite(bottom):
        return np.inf, top, bottom
    with np.errstate(over="ignore"):
        return float(s[0] / s[-1]), top, bottom


def _largest_eigenvalue(matvec, n: int) -> float | None:
    """Top eigenvalue of a symmetric positive definite n x n operator, or
    None when LANCZOS_MAX_STEPS Lanczos steps do not find it or a step
    leaves the double range (beta is inf or NaN).

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
        if not np.isfinite(beta):
            return None
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


def condition_estimate(r: np.ndarray, extremes: bool = False, blocks=(),
                       coupling: np.ndarray | None = None):
    """Two-norm condition number sigma_max / sigma_min of R, the upper
    triangle of r; with extremes, the triple (cond, sigma_max, sigma_min),
    from which pinv_solve takes the cond of its groups together. With
    blocks, the upper triangles R_1, ..., R_k of arrays, and coupling T
    (their total order x the order of r), R is the block upper-triangular
    [[diag(R_1, ..., R_k), T], [0, R_r]] of a bordered solve, R_r the
    upper triangle of r (pinv_solve), never formed.

    Only upper triangles are read (LAPACK's UPLO = 'U'), so r and blocks
    may be QRFactorization.upper, which is read in place. sigma_max^2 is
    the top eigenvalue of R^T R, 1/sigma_min^2 that of R^{-1} R^{-T}; each
    comes from a deterministic Lanczos run (from the hashed start vector
    of _largest_eigenvalue) whose steps are two calls of one of R's
    kernels (_BlockTriangular), bound to R once per call. The runs see
    2^-e R, e the binary exponent of max |R_ii|: exact, so cond is the
    unscaled runs' bit for bit wherever they stay in the double range,
    and R's scale cannot overflow them. Small R, a run that does not
    converge, and a run or a cond^2 that leaves the double range take a
    dense SVD of R instead. An empty R (n = 0) has cond 1, as an identity
    does, and no singular values (sigma_max 0, sigma_min inf); a zero
    |R_ii| gives cond inf and sigma_min 0.
    """
    found = _extremes(_BlockTriangular(blocks, coupling, r))
    return found if extremes else found[0]


class _BlockTriangular:
    """R = [[diag(R_1, ..., R_k), T], [0, R_B]], R_i and R_B the upper
    triangles of arrays (read in place where LAPACK can, _readable) and T
    the coupling; with no coupling, R is diag(R_1, ..., R_k, R_B).

    kernels() binds R once, as the provider's kernels bind one triangle:
    it returns a vector x and product(trans), x <- R x or R^T x, and
    solve(trans), x <- R^{-1} x or R^{-T} x, in place. Each runs the
    per-block dtrmv or dtrtrs on x's segments and, with a coupling, one
    dgemv with T between the head (the R_i) and R_B, the order the
    block-triangular structure needs: R y = x, say, solves for y_B first,
    then R_D y_D = x_D - T y_B.
    """

    def __init__(self, blocks, coupling, border):
        self.blocks = [_readable(r) for r in (*blocks, border)]
        self.coupling = coupling
        self.head = sum(len(r) for r in self.blocks[:-1])
        self.n = self.head + len(self.blocks[-1])

    def diagonal(self) -> np.ndarray:
        return np.abs(np.concatenate([np.diag(r) for r in self.blocks]))

    def dense(self) -> np.ndarray:
        """R as a new n x n array, for the dense SVD."""
        out, lo = np.zeros((self.n, self.n)), 0
        for r in self.blocks:
            out[lo:lo + len(r), lo:lo + len(r)] = np.triu(r)
            lo += len(r)
        if self.coupling is not None:
            out[:self.head, self.head:] = self.coupling
        return out

    def kernels(self):
        x, lo, bound = np.zeros(self.n), 0, []
        for r in self.blocks:
            bound.append(_lapack()[2](r, x[lo:lo + len(r)])[1:])
            lo += len(r)
        # with no coupling the border is one more diagonal block
        upper, last = bound[:-1], bound[-1:]
        head, tail, coupling = x[:self.head], x[self.head:], self.coupling

        def couple(trans, sign):
            if coupling is None:
                return
            if trans == b"N":
                head[:] += sign * (coupling @ tail)
            else:
                tail[:] += sign * (coupling.T @ head)

        def product(trans):
            # R x = [R_D x_D + T x_B; R_B x_B] and R^T x = [R_D^T x_D;
            # T^T x_D + R_B^T x_B]: T reads its segment before it changes
            first, then = (upper, last) if trans == b"N" else (last, upper)
            for prod, _ in first:
                prod(trans)
            couple(trans, 1.0)
            for prod, _ in then:
                prod(trans)

        def solve(trans):
            # R y = x solves for y_B first, R^T y = x for y_D first
            first, then = (last, upper) if trans == b"N" else (upper, last)
            for _, sol in first:
                sol(trans)
            couple(trans, -1.0)
            for _, sol in then:
                sol(trans)

        return x, product, solve


def _extremes(r: _BlockTriangular) -> tuple:
    """condition_estimate's (cond, sigma_max, sigma_min) of R."""
    n = r.n
    if n == 0:
        return 1.0, 0.0, np.inf
    diag = r.diagonal()
    if not np.all(diag):
        return np.inf, np.inf, 0.0
    if n < LANCZOS_MIN_ORDER:
        return _dense_cond(r.dense())
    x, product, solve = r.kernels()
    exponent = np.frexp(diag.max())[1]

    def top(kernel, order, shift):
        # (2^-e R)^T (2^-e R) for the product, its inverse for the solve
        def matvec(v):
            x[:] = v
            for trans in order:
                kernel(trans)
                np.ldexp(x, shift, out=x)
            return x
        return _largest_eigenvalue(matvec, n)

    with np.errstate(all="ignore"):
        big = top(product, (b"N", b"T"), -exponent)
        inverse = None if big is None else top(solve, (b"T", b"N"), exponent)
        square = np.inf if inverse is None else big * inverse
        if not np.isfinite(square):
            return _dense_cond(r.dense())
        return (float(np.sqrt(square)),
                float(np.ldexp(np.sqrt(big), exponent)),
                float(np.ldexp(1.0 / np.sqrt(inverse), exponent)))


def solve_triangular(r: np.ndarray, b: np.ndarray, blocks=(),
                     coupling: np.ndarray | None = None) -> np.ndarray:
    """The back-solve z = R^{-T} b, by the solve(b"T") kernel of R on a
    copy of b: LAPACK dtrtrs on each triangle and, with a coupling, one
    dgemv with T between them. R is the upper triangle of r or, with
    blocks and coupling, the block upper-triangular R of
    condition_estimate. Only upper triangles are read, in place where
    they have unit row stride (QRFactorization.upper does)."""
    x, _, solve = _BlockTriangular(blocks, coupling, r).kernels()
    x[:] = b
    solve(b"T")
    return x


# The steps of pinv_solve, in order, as SolveReport.phases names them.
PHASES = ("build", "scale", "factor", "cond", "backsolve", "pullback",
          "residual")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one constrained solve.

    Residual norms are recomputed from the returned solution through the
    implicit constraint operators, never carried over from the factors.
    n_rows x grid_size is the shape of the constraint matrix, and
    rank_margin is min |R_ii| / (RANK_TOL * max |R_ii|) over the R of
    every block (see QRFactorization). phases maps each name in PHASES to
    the seconds pinv_solve spent on that step, summed over its groups of
    blocks; they add up to seconds (a bordered solve counts the border's
    build and scaling under build and scale, and Q^T B, the stacking and
    R_B's QR under factor). blocks is the (N, n) shape of each factored block
    of M', in order; with a border, the last is the border's: its n rows
    on the N coefficients left below the blocks' R, N = grid_size minus
    the blocks' rows.
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
    blocks: tuple


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
        return (smoother_multiplier_array(smoother, axes),
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
    # times 2^-e, e the exponent of max |want|: exact, and no norm overflows
    exponent = np.frexp(np.abs(want).max())[1]
    got, want = (np.ldexp(v, -exponent) for v in (probe(coef), want))
    defect = np.linalg.norm(got - want) / np.linalg.norm(want)
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


def _factored(mat: np.ndarray, rows: np.ndarray) -> QRFactorization:
    """householder_qr of mat, whose column j is constraint row rows[j]: a
    RankDeficientError names that row, not the column."""
    try:
        return householder_qr(mat)
    except RankDeficientError as err:
        raise RankDeficientError(int(rows[err.column]), err.value,
                                 err.threshold) from None


def _rank_verdict(factored) -> float:
    """rank_margin of the (rows, |R_ii|) of each factor against
    RANK_TOL times the largest |R_ii| of all; a RankDeficientError names
    the row of the first failing column. householder_qr gives it one R,
    rows its columns; pinv_solve every factor, rows constraint rows."""
    threshold = RANK_TOL * max(diag.max(initial=0.0) for _, diag in factored)
    for rows, diag in factored:
        bad = np.flatnonzero((diag < threshold) | (diag == 0.0))
        if bad.size:
            raise RankDeficientError(int(rows[bad[0]]), float(diag[bad[0]]),
                                     threshold)
    return float(min(diag.min(initial=np.inf) for _, diag in factored)
                 / threshold)


def pinv_solve(system: ConstraintSystem, smoother) -> SolveReport:
    """Solve C u = b for the minimal-selection-norm u.

    smoother is a SmootherSpec (preferred: its multiplier is exact) or a
    callable applying S^{-1/2} to a grid tensor, which must be diagonal
    in the Chebyshev basis (ValueError otherwise). A system with no rows,
    or with more rows than grid points, is a ValueError. Raises
    RankDeficientError when cond exceeds 1 / RANK_TOL; the QR finds most
    such cases first, from a negligible |R_ii|, and names the
    representative constraint row of that column; a block with more
    constraints than coefficients is refused before any QR.

    M' is factored one ParityBlock at a time (system.parity_blocks), in
    groups. With a border (system.border), the recombined M' P^T is
    [D | B], D block-diagonal with one N_chi x n_chi block per parity
    pattern chi and B the border's columns at full width, B_chi its
    N_chi x n_B rows of parity chi: B couples every block, so the blocks
    are one group. With none, each block is a group of its own. A group's
    blocks are built, scaled and factored in place, D_chi = Q_chi
    [R_chi; 0]. With a border, Q_chi^T B_chi splits into its top n_chi
    rows T_chi, the coupling, and the rest; the rests, stacked, are
    factored once more, Q_B [R_B; 0]. So the group's R is the block
    upper-triangular [[diag(R_chi), T], [0, R_B]], or its one block's
    R_chi. One condition_estimate gives its sigma_max and sigma_min and
    one solve_triangular its z = R^{-T} b; block chi is pulled back as
    Q_chi [z_chi; tail_chi], the tail Q_B [z_B; 0] with a border and zeros
    without; and the group is freed before the next one is built. cond is
    the largest sigma_max over the smallest sigma_min of the groups (one
    group's own cond), and the |R_ii| threshold is RANK_TOL times the
    largest |R_jj| of all factors.
    """
    phases = dict.fromkeys(PHASES, 0.0)
    clock = [time.perf_counter()]

    def lap(name):
        now = time.perf_counter()
        phases[name] += now - clock[0]
        clock[0] = now

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
    blocks, border = system.parity_blocks(), system.border
    for block in blocks:
        # a block with more rows than coefficients has dependent rows
        width = int(np.prod(block.coefficient_shape(shape)))
        if width < len(block.rows):
            raise RankDeficientError.too_wide(int(block.rows[width]),
                                              len(block.rows), width)
    lap("build")
    # rows of A become rows of A diag(mu) R_V^{-1}, i.e. columns of M'
    mult, half_inverse = _smoother(system, smoother)
    scale, inverses = _gram_inverse(system.axes)
    weight = mult * scale
    lap("scale")

    def columns_of(block, at):
        """M'^T's rows of block at the coefficients of the block at (its
        own, or a block's for the border), as built and scaled."""
        mat = system.block_matrix(block, at.parity)
        lap("build")
        _scale_rows(mat.reshape((len(block.rows),)
                                + at.coefficient_shape(shape)),
                    weight[at.columns], inverses)
        lap("scale")
        return mat

    # u = S^{-1/2} Q z with Q z = V R_V^{-1} Q' z (Q = Q_V Q' is M's
    # factor); each block's Q' z fills its coefficients of Q' z
    coef = np.zeros(shape)
    factored, extremes, shapes = [], [], []
    # a border couples every block, so a bordered system is one group; with
    # none, each block is a group of its own
    for group in ([blocks] if border is not None
                  else [[block] for block in blocks]):
        # dgeqrt overwrites the built rows: fac.a is their buffer
        facs = [_factored(columns_of(block, block).T, block.rows)
                for block in group]
        lap("factor")
        head, coupling = sum(len(block.rows) for block in group), None
        if border is not None:
            # a bordered system has a block for every parity pattern
            # (ConstraintSystem), so the blocks share out all size rows and
            # the border's n_B columns never outnumber the size - n_D rows
            # below the blocks' R (n_rows <= size was checked above)
            n_b = len(border.rows)
            coupling = np.empty((head, n_b), order="F")
            rest = np.empty((size - head, n_b), order="F")
            top = low = 0
            for fac, block in zip(facs, group):
                # Q_chi^T B_chi in place: B_chi is the built rows' transpose
                share = fac.reflect(columns_of(border, block).T, "T")
                n = len(block.rows)
                coupling[top:top + n] = share[:n]
                rest[low:low + len(share) - n] = share[n:]
                top, low = top + n, low + len(share) - n
                del share
                lap("factor")
            # a NaN or inf in B reaches T or R_B (householder_qr checks R_B)
            if not (np.isfinite(coupling.min(initial=0.0))
                    and np.isfinite(coupling.max(initial=0.0))):
                raise ValueError("the border's coupling T to the blocks has "
                                 "non-finite entries (NaN or inf)")
            # dgeqrt factors the stacked rests in place: R_B's a is rest
            facs.append(_factored(rest, border.rows))
            group = [*group, border]
            del rest
            lap("factor")
        factored += [(block.rows, np.abs(np.diag(fac.a)))
                     for fac, block in zip(facs, group)]
        shapes += [fac.a.shape for fac in facs]
        # R is [[diag(R_chi), T], [0, R_B]], or the one block's R
        uppers = [fac.upper for fac in facs]
        extremes.append(condition_estimate(uppers[-1], extremes=True,
                                           blocks=uppers[:-1],
                                           coupling=coupling))
        lap("cond")
        z = solve_triangular(uppers[-1], np.concatenate(
            [block.rhs for block in group]), blocks=uppers[:-1],
            coupling=coupling)
        lap("backsolve")
        # block chi's Q' z is Q_chi [z_chi; tail_chi], the tail Q_B [z_B; 0]
        # with a border and zeros without one
        tail = (facs.pop().apply_q(z[head:]) if border is not None else
                np.zeros(size - head))
        top = low = 0
        for fac, block in zip(facs, group):
            big, n = fac.a.shape
            full = np.concatenate([z[top:top + n], tail[low:low + big - n]])
            coef[block.columns] = fac.reflect(full[:, None]).reshape(
                block.coefficient_shape(shape))
            top, low = top + n, low + big - n
        # the group's buffers are freed before the next group is built
        del facs, uppers, fac
        lap("pullback")
    margin = _rank_verdict(factored)
    # sigma_max_i / sigma_min_j over every pair of groups, a group's own
    # cond on the diagonal
    conds, tops, bottoms = (np.array(v) for v in zip(*extremes))
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.divide.outer(tops, bottoms)
    np.fill_diagonal(ratios, conds)
    cond = float(ratios.max())
    if cond > 1.0 / RANK_TOL:
        raise RankDeficientError(None, cond, 1.0 / RANK_TOL)

    for a, inv in inverses:
        coef = _apply(inv, coef, a)
    u = half_inverse(synthesis(coef * scale, system.axes))
    lap("pullback")
    res = system.residual(u)
    lap("residual")
    return SolveReport(
        solution=u,
        residual_l2=float(np.linalg.norm(res)),
        residual_linf=float(np.max(np.abs(res))) if res.size else 0.0,
        cond_estimate=cond,
        n_omega=system.n_omega,
        n_gamma=system.n_gamma,
        n_rows=system.n_rows,
        grid_size=size,
        rank_margin=margin,
        seconds=sum(phases.values()),
        phases=phases,
        blocks=tuple(shapes),
    )
