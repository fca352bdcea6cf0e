"""Space-time solve of the heat initial-boundary value problem.

The grid is a tensor product of two spatial Chebyshev roots axes with a
Chebyshev extrema axis in time (so t = 0 is an actual node and the
initial condition is a plain restriction row). Constraints collocate
u_t - lap(u) = 0 at interior nodes for t > 0, restrict to the initial
slice, and interpolate spatially on the lateral boundary for t > 0; the
smoother is the same power/exponential multiplier extended with the
integer time frequency.

The coefficient-space rows are products of 1-D basis evaluations, as in
the elliptic case; the solver folds the R factor of the (n+1)x(n+1) time
synthesis into the factored matrix, so the non-symmetric space-time
smoother needs no separate adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    ConstraintSystem,
    SmootherSpec,
    _apply_terms,
    _fill_rows,
    _require_finite,
    smoother_multiplier_array,
)
from .chebyshev import (
    ExtremaAxis,
    bary_rows,
    basis_values,
    diff2,
    forward_cheb,
    forward_extrema,
    inverse_cheb,
    inverse_extrema,
)
from .geometry import (
    DomainSpec,
    classify_interior,
    interior_coordinates,
    sample_boundary_2d,
)
from .solver import SolveReport, pinv_solve

__all__ = [
    "SpaceTimeGrid",
    "ParabolicProblem",
    "time_diff_matrix",
    "assemble_parabolic",
    "spacetime_half_inverse",
    "solve_parabolic",
]


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Two spatial roots axes and one extrema time axis."""

    space_axes: tuple  # (RootsAxis, RootsAxis)
    time_axis: ExtremaAxis


@dataclass(frozen=True, eq=False)
class ParabolicProblem:
    """Heat IBVP data: spatial domain, initial value, lateral data.

    initial is u0(x, y) vectorized over coordinate arrays; lateral is
    g(points, t) for boundary points (n, 2) at a scalar time; exact, if
    given, is u(x, y, t) for error reporting.
    """

    domain: DomainSpec
    initial: callable
    lateral: callable
    exact: callable = None


def time_diff_matrix(axis: ExtremaAxis) -> np.ndarray:
    """Dense spectral differentiation matrix on the extrema time axis.

    Built from the barycentric weights of the extrema nodes (+-1
    alternation, halved at the endpoints), so it is exact on polynomials
    of degree <= n in t regardless of the interval; cf. Trefethen,
    Spectral Methods in MATLAB (2000).
    """
    t = axis.nodes
    n = axis.n
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    mat = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        others = np.arange(n + 1) != j
        mat[j, others] = (w[others] / w[j]) / (t[j] - t[others])
        mat[j, j] = -mat[j, others].sum()
    return mat


def assemble_parabolic(problem: ParabolicProblem,
                       grid: SpaceTimeGrid) -> ConstraintSystem:
    """Constraint system of the heat IBVP on the space-time grid.

    Row order: heat-operator rows at interior nodes for t > 0 (node
    outer, time inner), then the initial restriction rows, then lateral
    rows (boundary point outer, time inner); right-hand side stacks
    (0; u0; g) to match.
    """
    sx, sy = grid.space_axes
    taxis = grid.time_axis
    n = taxis.n
    axes = (sx, sy, taxis)
    interior = classify_interior(problem.domain, grid.space_axes)
    boundary = sample_boundary_2d(problem.domain, sx.m)
    # Dirichlet trace rows in space, tensored with time restrictions
    trace = [(1.0, [bary_rows(ax, boundary.points[:, j])
                    for j, ax in enumerate(grid.space_axes)])]
    dmat = time_diff_matrix(taxis)
    ii, jj = interior.indices[:, 0], interior.indices[:, 1]
    n_heat = interior.count * n
    n_init = interior.count
    n_lat = boundary.count * n

    coords = interior_coordinates(grid.space_axes, interior)
    u0 = _require_finite(
        np.asarray(problem.initial(coords[:, 0], coords[:, 1]), dtype=float),
        "initial values")
    gvals = _require_finite(np.stack(
        [np.asarray(problem.lateral(boundary.points, taxis.nodes[j]),
                    dtype=float) for j in range(1, n + 1)],
        axis=1,
    ), "lateral values")  # (n_gamma, n)
    rhs = np.concatenate([np.zeros(n_heat), u0, gvals.ravel()])

    def heat_operator(u):
        ut = np.tensordot(u, dmat, axes=([2], [1]))
        return ut - diff2(u, -3, -3) - diff2(u, -2, -2)

    def apply_fn(u):
        heat = heat_operator(u)[ii, jj, 1:]          # (n_omega, n)
        init = u[ii, jj, 0]
        lat = _apply_terms(trace, u)[:, 1:]
        return np.concatenate([heat.ravel(), init, lat.ravel()])

    # coefficient rows: 1-D basis values and derivatives (x0, x2 at the
    # interior nodes' x, likewise y; t0, t1 at the time nodes), gathered
    # into the row order above
    x0, x2 = (basis_values(sx, sx.nodes, k)[ii] for k in (0, 2))
    y0, y2 = (basis_values(sy, sy.nodes, k)[jj] for k in (0, 2))
    t0, t1 = (basis_values(taxis, taxis.nodes, k) for k in (0, 1))
    node = np.repeat(np.arange(interior.count), n)
    node_time = np.tile(np.arange(1, n + 1), interior.count)
    point = np.repeat(np.arange(boundary.count), n)
    point_time = np.tile(np.arange(1, n + 1), boundary.count)
    heat_terms = [(1.0, [x0[node], y0[node], t1[node_time]]),
                  (-1.0, [x2[node], y0[node], t0[node_time]]),
                  (-1.0, [x0[node], y2[node], t0[node_time]])]
    init_terms = [(1.0, [x0, y0, np.repeat(t0[:1], n_init, axis=0)])]
    lat_terms = [(1.0, [basis_values(sx, boundary.points[point, 0]),
                        basis_values(sy, boundary.points[point, 1]),
                        t0[point_time]])]

    def matrix_fn():
        mat = np.empty((rhs.shape[0], sx.m * sy.m * (n + 1)))
        _fill_rows(mat[:n_heat], heat_terms)
        _fill_rows(mat[n_heat:n_heat + n_init], init_terms)
        _fill_rows(mat[n_heat + n_init:], lat_terms)
        return mat

    return ConstraintSystem(axes, interior, boundary, rhs, apply_fn,
                            matrix_fn, n_omega=interior.count,
                            n_gamma=boundary.count,
                            half_inverse_fn=spacetime_half_inverse,
                            n_heat_rows=n_heat, n_initial_rows=n_init,
                            n_lateral_rows=n_lat)


def spacetime_half_inverse(u: np.ndarray, spec: SmootherSpec) -> np.ndarray:
    """Apply the space-time S^{-1/2}: roots transforms in space, the
    extrema transform in time, multiplier in (1 + |k_x|^2 + k_t^2)."""
    u = np.asarray(u, dtype=float)
    space = (u.ndim - 3, u.ndim - 2)
    c = forward_extrema(forward_cheb(u, axes=space), axis=-1)
    c = c * smoother_multiplier_array(spec, u.shape[u.ndim - 3:])
    return inverse_cheb(inverse_extrema(c, axis=-1), axes=space)


def solve_parabolic(problem: ParabolicProblem, grid: SpaceTimeGrid,
                    spec: SmootherSpec) -> SolveReport:
    """Assemble and solve the heat IBVP."""
    return pinv_solve(assemble_parabolic(problem, grid), spec)
