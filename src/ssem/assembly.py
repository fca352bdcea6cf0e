"""Constraint assembly: interior operator rows, boundary rows, smoothers.

The solve selects, among all grid functions satisfying the constraints
C u = b, the one of minimal smoothness norm. C stacks interior rows
(the differential operator collocated at interior grid nodes) over
boundary rows (point evaluation / directional derivative at sampled
boundary points); the smoother is a positive frequency multiplier. The
constraints are realized twice: on grid functions through the implicit
spectral operators (C u, used for residual checks), and on tensor
Chebyshev coefficients as the dense matrix A = C V handed to the solver,
built directly from 1-D evaluations of T_k, T_k' and T_k'' at the
interior nodes and boundary points.

Coefficient functions are evaluated lazily: interior coefficients are
callables of the unpacked node coordinates (or plain constants),
boundary coefficients and data are callables of (points, normals)
arrays (or constants). Interior rows come first, boundary rows second,
each in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import (
    RootsAxis,
    bary_rows,
    basis_values,
    diff1,
    diff2,
    forward_cheb,
    inverse_cheb,
    tensor_rows,
)
from .geometry import (
    BoundaryPointSet,
    DomainSpec,
    InteriorIndexSet,
    classify_interior,
    interior_coordinates,
    sample_boundary,
)

__all__ = [
    "EllipticOperatorSpec",
    "BoundaryConditionSpec",
    "SmootherSpec",
    "ConstraintSystem",
    "apply_operator",
    "build_rhs",
    "smoother_multiplier_array",
    "apply_smoother_half_inverse",
    "assemble_elliptic",
]

@dataclass(frozen=True, eq=False)
class EllipticOperatorSpec:
    """Second-order operator -a_ij d_ij u + b_i d_i u + c u with source f.

    second_order maps axis pairs (i, j) to coefficients a_ij (note the
    leading minus in the operator); first_order maps axes to b_i; zeroth
    is c (or None); source is f. Supply symmetric pairs explicitly when
    mixed derivatives are present.
    """

    second_order: dict
    first_order: dict
    zeroth: object = None
    source: object = 0.0


@dataclass(frozen=True, eq=False)
class BoundaryConditionSpec:
    """Boundary operator a(y) u(y) + b(y) grad(u)(y) . nu with data g.

    trace is a, flux is b; (a, b) must not both vanish at any sampled
    point. data, trace and flux may be constants or callables of
    (points, normals).
    """

    trace: object
    flux: object
    data: object


@dataclass(frozen=True, eq=False)
class SmootherSpec:
    """Positive frequency multiplier defining the selection norm.

    kind "power" uses (1 + |k|^2)^(-p/2); kind "exp" uses exp(-|k|/2)
    with the Euclidean norm of the integer frequency vector.
    """

    kind: str = "power"
    p: float | None = 4.0

    def half_inverse_multiplier(self, k_squared: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return (1.0 + k_squared) ** (-self.p / 2.0)
        if self.kind == "exp":
            return np.exp(-np.sqrt(k_squared) / 2.0)
        raise ValueError(f"unknown smoother kind {self.kind!r}")


def _coeff_at_nodes(coeff, coords: np.ndarray) -> np.ndarray:
    """Evaluate an interior coefficient at node coordinates (n, d)."""
    n = coords.shape[0]
    if callable(coeff):
        return np.broadcast_to(np.asarray(coeff(*coords.T), dtype=float),
                               (n,)).copy()
    return np.full(n, float(coeff))


def _coeff_at_points(coeff, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Evaluate a boundary coefficient at sampled points."""
    n = points.shape[0]
    if callable(coeff):
        return np.broadcast_to(np.asarray(coeff(points, normals), dtype=float),
                               (n,)).copy()
    return np.full(n, float(coeff))


# ---------------------------------------------------------------------------
# interior operator
# ---------------------------------------------------------------------------

def apply_operator(u: np.ndarray, op: EllipticOperatorSpec,
                   interior: InteriorIndexSet, axes) -> np.ndarray:
    """Collocate the operator at the interior nodes.

    Derivatives are taken spectrally on the full grid, then restricted;
    coefficients are evaluated only at the interior nodes.
    """
    u = np.asarray(u, dtype=float)
    d = len(axes)
    sel = tuple(interior.indices.T)
    coords = interior_coordinates(axes, interior)
    out = np.zeros(interior.count)
    for (i, j), a in op.second_order.items():
        out -= _coeff_at_nodes(a, coords) * diff2(u, i - d, j - d)[sel]
    for i, b in op.first_order.items():
        out += _coeff_at_nodes(b, coords) * diff1(u, i - d)[sel]
    if op.zeroth is not None:
        out += _coeff_at_nodes(op.zeroth, coords) * u[sel]
    return out


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def build_rhs(op: EllipticOperatorSpec, bc: BoundaryConditionSpec,
              interior: InteriorIndexSet, boundary: BoundaryPointSet,
              axes) -> np.ndarray:
    """Stack the data: source at interior nodes, boundary data after."""
    coords = interior_coordinates(axes, interior)
    f = _coeff_at_nodes(op.source, coords)
    g = _coeff_at_points(bc.data, boundary.points, boundary.normals)
    return np.concatenate([f, g])


# ---------------------------------------------------------------------------
# coefficient-space rows A = C V, as sums of terms (w, factors): a weight
# (per row, or a scalar) times the tensor_rows product of 1-D basis rows
# ---------------------------------------------------------------------------

def _operator_terms(op: EllipticOperatorSpec, interior: InteriorIndexSet,
                    axes) -> list:
    """Interior rows of A: the operator applied to each tensor basis
    function, collocated at the interior nodes."""
    d = len(axes)
    coords = interior_coordinates(axes, interior)
    # at_nodes[a][k]: k-th derivative of axis a's basis at each node
    at_nodes = [[basis_values(ax, ax.nodes, k)[interior.indices[:, a]]
                 for k in range(3)] for a, ax in enumerate(axes)]

    def factors(*diff_axes):
        orders = [sum(i % d == a for i in diff_axes) for a in range(d)]
        return [at_nodes[a][k] for a, k in enumerate(orders)]

    terms = [(-_coeff_at_nodes(a, coords), factors(i, j))
             for (i, j), a in op.second_order.items()]
    terms += [(_coeff_at_nodes(b, coords), factors(i))
              for i, b in op.first_order.items()]
    if op.zeroth is not None:
        terms.append((_coeff_at_nodes(op.zeroth, coords), factors()))
    return terms


def _boundary_terms(bc: BoundaryConditionSpec, boundary: BoundaryPointSet,
                    axes, rows=basis_values) -> list:
    """Boundary rows: a u + b grad(u) . nu at the sampled points, with the
    1-D factors rows(ax, x, order) -- basis_values for the rows of A,
    bary_rows for the rows of C on grid functions."""
    pts, nrm = boundary.points, boundary.normals
    a = _coeff_at_points(bc.trace, pts, nrm)
    b = _coeff_at_points(bc.flux, pts, nrm)
    if np.any((a == 0.0) & (b == 0.0)):
        raise ValueError("boundary condition vanishes at a sampled point")
    values = [rows(ax, pts[:, j]) for j, ax in enumerate(axes)]
    terms = [(a, values)]
    for j, ax in enumerate(axes):
        slope = list(values)
        slope[j] = rows(ax, pts[:, j], 1)
        terms.append((b * nrm[:, j], slope))
    return terms


def _apply_terms(terms, u: np.ndarray) -> np.ndarray:
    """The (w, factors) rows applied to a grid function, one axis at a
    time; axes of u beyond the factors' are kept."""
    out = 0.0
    for w, factors in terms:
        if np.any(w):
            vals = np.tensordot(factors[0], u, axes=1)
            for f in factors[1:]:
                vals = np.einsum("rj...,rj->r...", vals, f)
            out = out + np.reshape(w, (-1,) + (1,) * (vals.ndim - 1)) * vals
    return out


def _fill_rows(out: np.ndarray, terms) -> None:
    """Write the sum of the (w, factors) terms into the rows of out.

    The first term is written in place and the others share one scratch
    block: a full-size temporary per term can stay in the heap after it
    is freed and raise the peak RSS of the solve.
    """
    terms = [(w, f) for w, f in terms if np.any(w)]
    if not terms:
        out[:] = 0.0
    scratch = np.empty_like(out) if len(terms) > 1 else None
    for k, (w, factors) in enumerate(terms):
        weighted = [np.reshape(w, (-1, 1)) * factors[0], *factors[1:]]
        if k == 0:
            tensor_rows(weighted, out=out)
        else:
            out += tensor_rows(weighted, out=scratch)


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------

def smoother_multiplier_array(spec: SmootherSpec, shape) -> np.ndarray:
    """The S^{-1/2} multiplier evaluated on the full frequency grid."""
    k_squared = np.zeros(shape)
    for ax, m in enumerate(shape):
        k = np.arange(m, dtype=float) ** 2
        k_squared = k_squared + k.reshape((1,) * ax + (m,)
                                          + (1,) * (len(shape) - ax - 1))
    return spec.half_inverse_multiplier(k_squared)


def apply_smoother_half_inverse(u: np.ndarray, spec: SmootherSpec,
                                d: int | None = None) -> np.ndarray:
    """Apply S^{-1/2}; trailing d axes of u are the grid axes."""
    u = np.asarray(u, dtype=float)
    if d is None:
        d = u.ndim
    axes = range(u.ndim - d, u.ndim)
    mult = smoother_multiplier_array(spec, u.shape[u.ndim - d:])
    return inverse_cheb(forward_cheb(u, axes=axes) * mult, axes=axes)


# ---------------------------------------------------------------------------
# constraint system
# ---------------------------------------------------------------------------

class ConstraintSystem:
    """The linear constraints C u = b of one discrete problem.

    apply realizes C on grid functions through the implicit spectral
    operators; coefficient_matrix builds A = C V, the same constraints on
    the coefficients c of u = V c. The solver factors A and rechecks its
    answer through apply. grid_smoother is S^{-1/2} of a SmootherSpec on
    this grid (systems built by hand may leave out half_inverse_fn and
    solve with a smoother callable). A space-time system also counts its
    heat, initial and lateral rows.
    """

    def __init__(self, axes, interior, boundary, rhs, apply_fn, matrix_fn,
                 n_omega, n_gamma, half_inverse_fn=None, n_heat_rows=0,
                 n_initial_rows=0, n_lateral_rows=0):
        self.axes = tuple(axes)
        self.grid_shape = tuple(ax.m if isinstance(ax, RootsAxis) else ax.n + 1
                                for ax in axes)
        self.interior = interior
        self.boundary = boundary
        self.rhs = rhs
        self.n_rows = rhs.shape[0]
        self.n_omega = n_omega
        self.n_gamma = n_gamma
        self.n_heat_rows = n_heat_rows
        self.n_initial_rows = n_initial_rows
        self.n_lateral_rows = n_lateral_rows
        self._apply = apply_fn
        self._matrix = matrix_fn
        self._half_inverse = half_inverse_fn

    def apply(self, u: np.ndarray) -> np.ndarray:
        """C u: all constraint values for a grid function."""
        return self._apply(np.asarray(u, dtype=float))

    def coefficient_matrix(self) -> np.ndarray:
        """A = C V as a new (n_rows, grid size) array the caller owns:
        A @ analysis(u).ravel() equals apply(u) (C-order coefficients)."""
        return self._matrix()

    def grid_smoother(self, spec: SmootherSpec):
        """S^{-1/2} of spec as an operator on this system's grid functions."""
        if self._half_inverse is None:
            raise ValueError("this constraint system has no grid smoother; "
                             "solve it with a smoother callable")
        return lambda u: self._half_inverse(np.asarray(u, dtype=float), spec)

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u) - self.rhs


def assemble_elliptic(domain: DomainSpec, axes, op: EllipticOperatorSpec,
                      bc: BoundaryConditionSpec) -> ConstraintSystem:
    """Classify, sample, and wire up the constraint system of a BVP."""
    m = axes[0].m
    interior = classify_interior(domain, axes)
    boundary = sample_boundary(domain, m)
    rhs = build_rhs(op, bc, interior, boundary, axes)
    interior_terms = _operator_terms(op, interior, axes)
    boundary_terms = _boundary_terms(bc, boundary, axes)
    bary_terms = _boundary_terms(bc, boundary, axes, bary_rows)

    def apply_fn(u):
        vals_a = apply_operator(u, op, interior, axes)
        return np.concatenate([vals_a, _apply_terms(bary_terms, u)])

    def matrix_fn():
        mat = np.empty((rhs.shape[0], int(np.prod([ax.m for ax in axes]))))
        _fill_rows(mat[:interior.count], interior_terms)
        _fill_rows(mat[interior.count:], boundary_terms)
        return mat

    return ConstraintSystem(axes, interior, boundary, rhs, apply_fn,
                            matrix_fn, n_omega=interior.count,
                            n_gamma=boundary.count,
                            half_inverse_fn=apply_smoother_half_inverse)
