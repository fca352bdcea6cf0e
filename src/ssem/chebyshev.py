"""Tensor Chebyshev machinery on roots grids.

Grid functions and coefficient tensors are plain numpy arrays; the k-th
axis of a grid function is sampled at the nodes of the k-th axis object.
All operations act along a designated axis so they can be applied to
batches (extra leading axes) unchanged.

Spatial axes always use Chebyshev *roots* grids, which keep every node
strictly inside (-1, 1); the extrema grid appears only as a time axis.
Transforms are built on the scipy.fft DCT/DST family and are validated
against direct O(m^2) evaluation of the defining sums in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as ncheb
from scipy.fft import dct, dst

__all__ = [
    "RootsAxis",
    "ExtremaAxis",
    "roots_axis",
    "extrema_axis",
    "forward_cheb",
    "inverse_cheb",
    "diff1",
    "diff2",
    "apply_sturm_liouville",
    "bary_weights",
    "bary_rows",
    "bary_interp_row",
    "forward_extrema",
    "inverse_extrema",
    "synthesis",
    "analysis",
    "basis_values",
    "gram_factor",
    "tensor_rows",
]

NODE_MATCH_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class RootsAxis:
    """One spatial axis: the m roots of T_m, ordered by increasing angle.

    Attributes
    ----------
    m : int
        Number of nodes.
    angles : ndarray
        theta_k = pi (2k+1) / (2m), strictly increasing in (0, pi).
    nodes : ndarray
        x_k = cos(theta_k), strictly decreasing, all in (-1, 1).
    """

    m: int
    angles: np.ndarray
    nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class ExtremaAxis:
    """A Chebyshev extrema (endpoint-including) axis on [t_lo, t_hi].

    Holds n+1 nodes, affinely mapped from -cos(pi j / n) so that they
    increase from t_lo to t_hi and include both endpoints exactly.
    """

    n: int
    t_lo: float
    t_hi: float
    nodes: np.ndarray


def roots_axis(m: int) -> RootsAxis:
    """Build the m-point Chebyshev roots axis x_k = cos(pi (2k+1) / (2m))."""
    if m < 1:
        raise ValueError(f"roots axis needs m >= 1, got {m}")
    k = np.arange(m)
    angles = np.pi * (2 * k + 1) / (2 * m)
    return RootsAxis(m=m, angles=angles, nodes=np.cos(angles))


def extrema_axis(n: int, t_lo: float = 0.0, t_hi: float = 2.0) -> ExtremaAxis:
    """Build the (n+1)-point extrema axis on [t_lo, t_hi]."""
    if n < 1:
        raise ValueError(f"extrema axis needs n >= 1, got {n}")
    j = np.arange(n + 1)
    ref = -np.cos(np.pi * j / n)  # -1 .. 1, increasing, endpoints exact
    nodes = t_lo + (ref + 1.0) * (t_hi - t_lo) / 2.0
    nodes[0] = t_lo
    nodes[-1] = t_hi
    return ExtremaAxis(n=n, t_lo=float(t_lo), t_hi=float(t_hi), nodes=nodes)


def _along(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """Reshape a 1-d vector for broadcasting along `axis` of an ndim array."""
    shape = [1] * ndim
    shape[axis % ndim] = vec.shape[0]
    return vec.reshape(shape)


def _shift(v: np.ndarray, axis: int) -> np.ndarray:
    """Superdiagonal shift along an axis: out_k = v_{k+1}, last slot zero."""
    out = np.roll(v, -1, axis=axis)
    idx = [slice(None)] * out.ndim
    idx[axis % out.ndim] = -1
    out[tuple(idx)] = 0.0
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def forward_cheb(u: np.ndarray, axes=None) -> np.ndarray:
    """Discrete Chebyshev transform on a roots grid.

    Returns the coefficient tensor c with c_k = (p_k / m) sum_i u_i T_k(x_i)
    per axis (p_0 = 1, p_k = 2 otherwise), computed via DCT-II.

    Parameters
    ----------
    u : ndarray
        Grid function; each transformed axis must be sampled on a roots grid.
    axes : iterable of int, optional
        Axes to transform (default: all).
    """
    u = np.asarray(u, dtype=float)
    if axes is None:
        axes = range(u.ndim)
    c = u
    for ax in axes:
        m = c.shape[ax]
        scale = np.full(m, 1.0 / m)
        scale[0] = 1.0 / (2 * m)
        c = dct(c, type=2, axis=ax) * _along(scale, c.ndim, ax)
    return c


def inverse_cheb(c: np.ndarray, axes=None) -> np.ndarray:
    """Inverse of :func:`forward_cheb`: u_i = sum_k c_k T_k(x_i) per axis."""
    c = np.asarray(c, dtype=float)
    if axes is None:
        axes = range(c.ndim)
    u = c
    for ax in axes:
        half = np.full(u.shape[ax], 0.5)
        half[0] = 1.0
        u = dct(u * _along(half, u.ndim, ax), type=3, axis=ax)
    return u


def forward_extrema(u: np.ndarray, axis: int = -1) -> np.ndarray:
    """Modal transform on an extrema axis (DCT-I pairing).

    The basis along the axis is C_k(j) = cos(pi k j / n), the degree-k
    Chebyshev polynomial in the (reversed) reference variable; the
    transform returns the coefficients of a sampled function in that
    basis. Only the diagonalization matters downstream: frequency k of
    this basis indexes the smoother multiplier.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[axis] - 1
    gamma = np.full(n + 1, n / 2.0)
    gamma[0] = gamma[-1] = float(n)
    return dct(u, type=1, axis=axis) / (2.0 * _along(gamma, u.ndim, axis))


def inverse_extrema(c: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`forward_extrema`."""
    c = np.asarray(c, dtype=float)
    n = c.shape[axis] - 1
    half = np.full(n + 1, 0.5)
    half[0] = half[-1] = 1.0
    return dct(c * _along(half, c.ndim, axis), type=1, axis=axis)


def synthesis(c: np.ndarray, axes) -> np.ndarray:
    """Grid values u = V c of a coefficient tensor, one axis object per axis.

    V is the tensor product of the per-axis synthesis matrices: T_k at
    the roots nodes, cos(pi j k / n) on an extrema axis.
    """
    u = np.asarray(c, dtype=float)
    for i, ax in enumerate(axes):
        if isinstance(ax, ExtremaAxis):
            u = inverse_extrema(u, axis=i)
        else:
            u = inverse_cheb(u, axes=(i,))
    return u


def analysis(u: np.ndarray, axes) -> np.ndarray:
    """Inverse of :func:`synthesis`: the coefficient tensor of grid values."""
    c = np.asarray(u, dtype=float)
    for i, ax in enumerate(axes):
        if isinstance(ax, ExtremaAxis):
            c = forward_extrema(c, axis=i)
        else:
            c = forward_cheb(c, axes=(i,))
    return c


# ---------------------------------------------------------------------------
# coefficient space: basis evaluation and Gram factors
# ---------------------------------------------------------------------------

def basis_values(ax, x, order: int = 0) -> np.ndarray:
    """The order-th derivatives of an axis' basis functions at points x.

    Returns a (len(x), size) matrix whose column k is the basis function
    behind coefficient k of :func:`synthesis`: T_k on a roots axis; on an
    extrema axis T_k(s) in the reversed reference variable
    s = 1 - 2 (t - t_lo) / (t_hi - t_lo), which is cos(pi j / n) at node j.
    Derivatives are taken in coefficient space (chebder), so they stay
    accurate at points near the ends of the interval.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(ax, ExtremaAxis):
        size = ax.n + 1
        scale = -2.0 / (ax.t_hi - ax.t_lo)
        s = 1.0 + scale * (x - ax.t_lo)
    else:
        size, scale, s = ax.m, 1.0, x
    if order == 0:
        return ncheb.chebvander(s, size - 1)
    deriv = ncheb.chebder(np.eye(size), order) * scale ** order
    return ncheb.chebvander(s, deriv.shape[0] - 1) @ deriv


def gram_factor(ax) -> np.ndarray:
    """Upper-triangular R with V^T V = R^T R for the axis' synthesis V.

    On a roots axis the basis is discretely orthogonal, V^T V =
    diag(m, m/2, ..., m/2), so R is its (exactly diagonal) square root; on
    an extrema axis R comes from a QR factorization of
    V[j, k] = cos(pi j k / n).
    """
    if isinstance(ax, ExtremaAxis):
        j = np.arange(ax.n + 1)
        v = np.cos(np.pi * (np.outer(j, j) % (2 * ax.n)) / ax.n)
        return np.linalg.qr(v, mode="r")
    g = np.full(ax.m, ax.m / 2.0)
    g[0] = ax.m
    return np.diag(np.sqrt(g))


def tensor_rows(factors, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Kronecker (Khatri-Rao) product of per-axis row matrices.

    factors[a] is (n, size_a); row r of the (n, prod size_a) result is the
    C-ordered outer product of the rows r of all factors, i.e. the tensor
    basis evaluated at the r-th point. Written into out when given.
    """
    lead = factors[0]
    for f in factors[1:-1]:
        lead = (lead[:, :, None] * f[:, None, :]).reshape(len(lead), -1)
    last = factors[-1] if len(factors) > 1 else np.ones((len(lead), 1))
    if out is None:
        out = np.empty((len(lead), lead.shape[1] * last.shape[1]))
    np.multiply(lead[:, :, None], last[:, None, :],
                out=out.reshape(len(lead), lead.shape[1], last.shape[1]))
    return out


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def diff1(u: np.ndarray, axis: int) -> np.ndarray:
    """First spectral derivative along an axis of a roots grid.

    Computes the exact derivative of the degree-(m-1) interpolant at the
    nodes, via DCT analysis, a frequency shift, and DST synthesis. The
    scale constant is calibrated so that diff1 of samples of x is exactly
    one (see the eigenvalue property tests, which lock the convention).
    """
    u = np.asarray(u, dtype=float)
    m = u.shape[axis]
    k = np.arange(m)
    theta = np.pi * (2 * k + 1) / (2 * m)
    v = dct(u, type=2, axis=axis) * _along(k / (2.0 * m), u.ndim, axis)
    v = _shift(v, axis)
    return dst(v, type=3, axis=axis) / _along(np.sin(theta), u.ndim, axis)


def _diff2_same_axis(u: np.ndarray, axis: int) -> np.ndarray:
    m = u.shape[axis]
    k = np.arange(m)
    theta = np.pi * (2 * k + 1) / (2 * m)
    x = np.cos(theta)
    ndim = u.ndim
    c = dct(u, type=2, axis=axis)
    term1 = -dct(c * _along(k**2 / (2.0 * m), ndim, axis), type=3, axis=axis)
    term1 = term1 / _along(1.0 - x**2, ndim, axis)
    v = _shift(c * _along(k / (2.0 * m), ndim, axis), axis)
    term2 = dst(v, type=3, axis=axis) * _along(x / (1.0 - x**2) ** 1.5, ndim, axis)
    return term1 + term2


def diff2(u: np.ndarray, axis_i: int, axis_j: int) -> np.ndarray:
    """Second spectral derivative.

    For equal axes this is the two-term single-transform formula (exact
    on polynomials of degree <= m-1 along the axis); for distinct axes it
    is the composition of the two first derivatives.
    """
    if axis_i == axis_j:
        return _diff2_same_axis(np.asarray(u, dtype=float), axis_i)
    return diff1(diff1(u, axis_i), axis_j)


def apply_sturm_liouville(u: np.ndarray, axis: int) -> np.ndarray:
    """Apply the Chebyshev Sturm-Liouville operator -(1-x^2) u'' + x u'.

    This is the square of the first-order operator sqrt(1-x^2) d/dx with
    a sign; its discrete eigenfunctions are the sampled T_j with
    eigenvalue j^2. Realized by single applications of the exact
    derivative operators (a literal composition of the first-order
    operator re-analyzes a sine-series intermediate as a cosine series
    and aliases, so it does not satisfy the eigenvalue identity).
    """
    u = np.asarray(u, dtype=float)
    m = u.shape[axis]
    x = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    return (-_along(1.0 - x**2, u.ndim, axis) * _diff2_same_axis(u, axis)
            + _along(x, u.ndim, axis) * diff1(u, axis))


# ---------------------------------------------------------------------------
# barycentric interpolation
# ---------------------------------------------------------------------------

def bary_weights(ax: RootsAxis) -> np.ndarray:
    """Barycentric weights for the roots grid: w_k = (-1)^k sin(theta_k)."""
    return (-1.0) ** np.arange(ax.m) * np.sin(ax.angles)


def _interp_row_1d(ax: RootsAxis, y: float) -> np.ndarray:
    d = y - ax.nodes
    hit = np.argmin(np.abs(d))
    if abs(d[hit]) < NODE_MATCH_TOL:
        row = np.zeros(ax.m)
        row[hit] = 1.0
        return row
    t = bary_weights(ax) / d
    return t / t.sum()


def _deriv_row_1d(ax: RootsAxis, y: float) -> np.ndarray:
    w = bary_weights(ax)
    d = y - ax.nodes
    hit = np.argmin(np.abs(d))
    if abs(d[hit]) < NODE_MATCH_TOL:
        # limiting row: the differentiation-matrix row at the node
        row = np.zeros(ax.m)
        others = np.arange(ax.m) != hit
        row[others] = (w[others] / w[hit]) / (ax.nodes[hit] - ax.nodes[others])
        row[hit] = -row[others].sum()
        return row
    t = w / d
    q = t.sum()
    qp = (t / d).sum()
    return -t / d / q + t * (qp / q**2)


def bary_rows(ax: RootsAxis, x, order: int = 0) -> np.ndarray:
    """Barycentric value (order 0) or derivative (order 1) rows at points x.

    Row r, contracted with samples at the axis' nodes, gives the degree-
    (m-1) interpolant (or its derivative) at x[r]: the 1-D factors of
    :func:`bary_interp_row` and of the boundary rows of the assembly.
    """
    row = (_interp_row_1d, _deriv_row_1d)[order]
    return np.array([row(ax, xi) for xi in np.ravel(x)]).reshape(-1, ax.m)


def bary_interp_row(axes, y) -> np.ndarray:
    """Point-evaluation weights for the tensor interpolant at y.

    Returns a grid-shaped tensor whose full contraction with a grid
    function gives the value at y of its tensor degree-(m-1) interpolant.
    Points that coincide with a node (within 1e-14 per axis) yield exact
    indicator weights on that axis.
    """
    rows = [_interp_row_1d(ax, yi) for ax, yi in zip(axes, y)]
    out = rows[0]
    for r in rows[1:]:
        out = np.multiply.outer(out, r)
    return out
