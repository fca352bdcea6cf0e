"""Tensor Chebyshev machinery on roots and extrema axes.

Grid functions and coefficient tensors are plain numpy arrays; the k-th
axis of a grid function is sampled at the nodes of the k-th axis object.
All operations act along a designated axis so they can be applied to
batches (extra leading axes) unchanged.

Space uses Chebyshev *roots* axes, whose nodes lie strictly inside
(-1, 1); time uses an *extrema* axis. Only the two axis classes and their
cached AxisBasis records know the kind. A kind supplies its nodes, the
map to the reference variable of its basis, and per size its analysis
and synthesis matrices, Gram factor, barycentric weights and the
frequency of each coefficient, which the smoother's multiplier reads.
synthesis and analysis transform a grid function on any mix of kinds.
Dense matrices beat an FFT at these sizes (m up to about 64); the tests
check them against the defining sums. The interpolant of a grid
function is differentiated one way on every axis: by the rows of
bary_rows.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.polynomial.chebyshev as ncheb

__all__ = [
    "RootsAxis",
    "ExtremaAxis",
    "roots_axis",
    "extrema_axis",
    "forward_cheb",
    "inverse_cheb",
    "apply_sturm_liouville",
    "bary_rows",
    "bary_interp_row",
    "synthesis",
    "analysis",
    "basis_values",
    "tensor_rows",
]

NODE_MATCH_TOL = 1e-14


class AxisBasis(NamedTuple):
    """One axis kind's 1-D matrices at one size, cached and read-only."""

    analysis: np.ndarray   # node values to coefficients
    synthesis: np.ndarray  # [i, k]: basis function k at node i
    gram: np.ndarray       # upper-triangular R: synthesis^T synthesis = R^T R
    weights: np.ndarray    # barycentric weights of the nodes
    frequencies: np.ndarray  # k of each coefficient (of T_k), as floats


@dataclass(frozen=True, eq=False)
class RootsAxis:
    """One spatial axis: the m roots of T_m, ordered by increasing angle.

    Attributes
    ----------
    m : int
        Number of nodes.
    nodes : ndarray
        x_k = cos(pi (2k+1) / (2m)), strictly decreasing, all in (-1, 1).
    basis : AxisBasis
        The matrices of T_k in x itself.
    """

    m: int
    nodes: np.ndarray
    basis: AxisBasis

    scale = 1.0  # the reference variable is x itself

    @staticmethod
    def reference(x):
        return x


@dataclass(frozen=True, eq=False)
class ExtremaAxis:
    """A Chebyshev extrema (endpoint-including) axis on [t_lo, t_hi].

    Holds n+1 nodes, affinely mapped from -cos(pi j / n) so that they
    increase from t_lo to t_hi and include both endpoints exactly. Its
    basis is T_k(s) in the reversed reference variable
    s = 1 + scale (t - t_lo), scale = -2 / (t_hi - t_lo), which is
    cos(pi j / n) at node j.
    """

    n: int
    t_lo: float
    t_hi: float
    nodes: np.ndarray
    basis: AxisBasis

    @property
    def scale(self) -> float:
        return -2.0 / (self.t_hi - self.t_lo)

    def reference(self, t):
        return 1.0 + self.scale * (t - self.t_lo)


def _node_count(value, name: str) -> int:
    """value as an int, or a ValueError naming the argument (a bool is an
    int to operator.index, but not a node count)."""
    try:
        if type(value) is bool:
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def roots_axis(m: int) -> RootsAxis:
    """Build the m-point Chebyshev roots axis x_k = cos(pi (2k+1) / (2m))."""
    m = _node_count(m, "roots axis m")
    if m < 1:
        raise ValueError(f"roots axis needs m >= 1, got {m}")
    nodes = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    return RootsAxis(m=m, nodes=nodes, basis=_roots_basis(m))


def extrema_axis(n: int, t_lo: float = 0.0, t_hi: float = 2.0) -> ExtremaAxis:
    """Build the (n+1)-point extrema axis on [t_lo, t_hi]."""
    n = _node_count(n, "extrema axis n")
    if n < 1:
        raise ValueError(f"extrema axis needs n >= 1, got {n}")
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
        raise ValueError(f"extrema axis needs finite t_lo < t_hi, got "
                         f"[{t_lo}, {t_hi}]")
    j = np.arange(n + 1)
    ref = -np.cos(np.pi * j / n)  # -1 .. 1, increasing, endpoints exact
    # ref[0] + 1 is exactly 0, so nodes[0] is t_lo; nodes[-1] may round
    nodes = t_lo + (ref + 1.0) * (t_hi - t_lo) / 2.0
    nodes[-1] = t_hi
    return ExtremaAxis(n=n, t_lo=t_lo, t_hi=t_hi, nodes=nodes,
                       basis=_extrema_basis(n))


def _along(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """Reshape a 1-d vector for broadcasting along `axis` of an ndim array."""
    shape = [1] * ndim
    shape[axis % ndim] = vec.shape[0]
    return vec.reshape(shape)


def _apply(mat: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """The matrix mat applied along one axis of u."""
    return np.moveaxis(np.tensordot(mat, u, axes=([1], [axis])), 0, axis)


def _synthesize(synth: np.ndarray, c: np.ndarray, axis: int) -> np.ndarray:
    """Sum a Chebyshev series along one axis, highest degree first: the
    coefficients of a smooth function decay, so the small terms are added
    before the large ones. (On the smoother's decaying multipliers at
    m = 9 this took the relative rounding error of S^{-1} from 2.4e-16 in
    the forward order to 1.7e-16.)"""
    return _apply(synth[:, ::-1], np.flip(c, axis), axis)


def _frozen(*mats):
    """Mark cached matrices read-only: every caller shares them. (Two
    threads that miss the cache at once both compute an entry; the
    results are equal and either is kept.)"""
    for mat in mats:
        mat.flags.writeable = False
    return mats


@functools.cache
def _roots_basis(m: int) -> AxisBasis:
    """The m-point roots axis: synthesis[i, k] = T_k(x_i) = cos(k theta_i),
    and analysis its inverse (p_k / m) T_k(x_i), transposed (discrete
    orthogonality). So V^T V = diag(m, m/2, ..., m/2), and R is its
    exactly diagonal square root. Weights (-1)^k sin(theta_k)."""
    k = np.arange(m)
    # k (2i + 1) mod 4m keeps each angle pi k (2i + 1) / (2m) below 2 pi
    synth = np.cos(np.pi * (np.outer(2 * k + 1, k) % (4 * m)) / (2 * m))
    forward = synth.T * np.where(k == 0, 1.0, 2.0)[:, None] / m
    gram = np.diag(np.sqrt(np.where(k == 0, m, m / 2.0)))
    weights = (-1.0) ** k * np.sin(np.pi * (2 * k + 1) / (2 * m))
    return AxisBasis(*_frozen(forward, synth, gram, weights, k.astype(float)))


@functools.cache
def _extrema_basis(n: int) -> AxisBasis:
    """The (n+1)-point extrema axis: synthesis[j, k] = cos(pi j k / n), and
    analysis its inverse, by the discrete orthogonality of the cosines
    under the trapezoid weights. R comes from a QR of the synthesis.
    Weights (-1)^j, halved at both ends (Berrut & Trefethen, SIAM Review
    46, 2004); the affine map to [t_lo, t_hi] and the reversed node order
    scale every weight alike, which cancels."""
    j = np.arange(n + 1)
    synth = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
    ends = (j == 0) | (j == n)
    forward = synth * np.where(ends, 1.0, 2.0) \
        / np.where(ends, 2.0 * n, n)[:, None]
    weights = (-1.0) ** j
    weights[[0, -1]] *= 0.5
    return AxisBasis(*_frozen(forward, synth, np.linalg.qr(synth, mode="r"),
                              weights, j.astype(float)))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def forward_cheb(u: np.ndarray, axes=None) -> np.ndarray:
    """Discrete Chebyshev transform on a roots grid.

    Returns the coefficient tensor c with c_k = (p_k / m) sum_i u_i T_k(x_i)
    per axis (p_0 = 1, p_k = 2 otherwise), the DCT-II as a matrix.

    Parameters
    ----------
    u : ndarray
        Grid function; each transformed axis must be sampled on a roots grid.
    axes : iterable of int, optional
        Axes to transform (default: all).
    """
    c = np.asarray(u, dtype=float)
    for a in range(c.ndim) if axes is None else axes:
        c = _apply(_roots_basis(c.shape[a]).analysis, c, a)
    return c


def inverse_cheb(c: np.ndarray, axes=None) -> np.ndarray:
    """Inverse of :func:`forward_cheb`: u_i = sum_k c_k T_k(x_i) per axis."""
    u = np.asarray(c, dtype=float)
    for a in range(u.ndim) if axes is None else axes:
        u = _synthesize(_roots_basis(u.shape[a]).synthesis, u, a)
    return u


def synthesis(c: np.ndarray, axes) -> np.ndarray:
    """Grid values u = V c of a coefficient tensor, one axis object per
    trailing axis of c, in order; leading axes are a batch.

    V is the tensor product of the per-axis synthesis matrices: T_k at
    the roots nodes, cos(pi j k / n) on an extrema axis.
    """
    u = np.asarray(c, dtype=float)
    for i, ax in enumerate(axes, start=-len(axes)):
        u = _synthesize(ax.basis.synthesis, u, i)
    return u


def analysis(u: np.ndarray, axes) -> np.ndarray:
    """Inverse of :func:`synthesis`: the coefficient tensor of grid values."""
    c = np.asarray(u, dtype=float)
    for i, ax in enumerate(axes, start=-len(axes)):
        c = _apply(ax.basis.analysis, c, i)
    return c


# ---------------------------------------------------------------------------
# coefficient space: basis evaluation
# ---------------------------------------------------------------------------

def basis_values(ax, x, order: int = 0) -> np.ndarray:
    """The order-th derivatives of an axis' basis functions at points x.

    Returns a (len(x), size) matrix whose column k is the basis function
    behind coefficient k of :func:`synthesis`: T_k of the axis' reference
    variable ax.reference(x), whose derivative in x is ax.scale.
    Derivatives are taken in coefficient space (chebder), so they stay
    accurate at points near the ends of the interval.
    """
    size, s = len(ax.nodes), ax.reference(np.asarray(x, dtype=float))
    if order == 0:
        return ncheb.chebvander(s, size - 1)
    deriv = _chebder_matrix(size, order) * ax.scale ** order
    return ncheb.chebvander(s, deriv.shape[0] - 1) @ deriv


@functools.cache
def _chebder_matrix(size: int, order: int) -> np.ndarray:
    """Column k: the Chebyshev coefficients of the order-th derivative of
    T_k, k < size (chebder of the identity, cached: it is a Python loop
    over the degrees)."""
    return _frozen(ncheb.chebder(np.eye(size), order))[0]


def tensor_rows(factors) -> np.ndarray:
    """Row-wise Kronecker (Khatri-Rao) product of per-axis row matrices.

    factors[a] is (n, size_a); row r of the (n, prod size_a) result is the
    C-ordered outer product of the rows r of all factors, i.e. the tensor
    basis evaluated at the r-th point.
    """
    rows = factors[0]
    for f in factors[1:]:
        rows = (rows[:, :, None] * f[:, None, :]).reshape(len(rows), -1)
    return rows


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def apply_sturm_liouville(u: np.ndarray, axis: int) -> np.ndarray:
    """Apply the Chebyshev Sturm-Liouville operator -(1-x^2) u'' + x u'.

    This is the square of the first-order operator sqrt(1-x^2) d/dx with
    a sign; its discrete eigenfunctions are the sampled T_j with
    eigenvalue j^2. Realized with the exact derivatives of the
    interpolant, D u and D @ D u for the barycentric differentiation
    matrix D (a literal composition of the first-order operator would
    differentiate the interpolant of sqrt(1-x^2) u', which is not a
    polynomial, so it would not satisfy the eigenvalue identity).
    """
    u = np.asarray(u, dtype=float)
    ax = roots_axis(u.shape[axis])
    d = _bary_diff_matrix(ax)
    x = _along(ax.nodes, u.ndim, axis)
    return -(1.0 - x**2) * _apply(d @ d, u, axis) + x * _apply(d, u, axis)


# ---------------------------------------------------------------------------
# barycentric interpolation
# ---------------------------------------------------------------------------

def _node_diff_rows(ax, k: np.ndarray) -> np.ndarray:
    """Rows k of the barycentric differentiation matrix: the derivative
    rows at the nodes themselves, where the formula at other points has
    a removable singularity."""
    w, x = ax.basis.weights, ax.nodes
    off = np.arange(len(x)) != k[:, None]
    rows = np.divide(w / w[k, None], x[k, None] - x, where=off,
                     out=np.zeros(off.shape))
    rows[~off] = -rows[off].reshape(len(k), len(x) - 1).sum(axis=1)
    return rows


def _bary_diff_matrix(ax) -> np.ndarray:
    """The barycentric differentiation matrix D at an axis' nodes."""
    return _node_diff_rows(ax, np.arange(len(ax.nodes)))


def bary_rows(ax, x, order: int = 0) -> np.ndarray:
    """Barycentric value (order 0), first- or second-derivative rows at x.

    Row r, contracted with samples at the axis' nodes, gives the
    interpolant of those samples, or its derivative, at x[r]: the 1-D
    factors of :func:`bary_interp_row` and of the grid operator C of the
    assembly, at interior nodes and at boundary points alike. A point
    within NODE_MATCH_TOL of a node gets that node's indicator row
    (order 0) or differentiation-matrix row (order 1). Order-2 rows are
    the order-1 rows times the differentiation matrix D at the nodes,
    exact at any x: the derivative of the interpolant is a polynomial of
    lower degree, which its own node values D u interpolate exactly.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"bary_rows has no derivative of order {order}; "
                         f"it takes 0, 1 or 2")
    d = np.ravel(np.asarray(x, dtype=float))[:, None] - ax.nodes
    hit = np.argmin(np.abs(d), axis=1)
    on_node = np.abs(d[np.arange(len(d)), hit]) < NODE_MATCH_TOL
    rows = np.zeros(d.shape)
    d = d[~on_node]
    t = ax.basis.weights / d
    q = t.sum(axis=1, keepdims=True)
    if order == 0:
        rows[~on_node] = t / q
        rows[on_node, hit[on_node]] = 1.0
        return rows
    qp = (t / d).sum(axis=1, keepdims=True)
    rows[~on_node] = -t / d / q + t * (qp / q**2)
    rows[on_node] = _node_diff_rows(ax, hit[on_node])
    return rows if order == 1 else rows @ _bary_diff_matrix(ax)


def bary_interp_row(axes, y) -> np.ndarray:
    """Point-evaluation weights for the tensor interpolant at y.

    Returns a grid-shaped tensor whose full contraction with a grid
    function gives the value at y of its tensor degree-(m-1) interpolant.
    Points that coincide with a node (within 1e-14 per axis) yield exact
    indicator weights on that axis.
    """
    return functools.reduce(np.multiply.outer,
                            [bary_rows(ax, yi)[0] for ax, yi in zip(axes, y)])
