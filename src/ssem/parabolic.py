"""Space-time solve of the heat initial-boundary value problem.

The grid is a tensor product of two spatial Chebyshev roots axes with a
Chebyshev extrema axis in time (so t = 0 is an actual node). The heat
problem is an elliptic-form problem on (x, y, t), assembled by the same
builder as an elliptic one from three row groups:

- heat rows: the elliptic-form operator u_t - lap(u) (HEAT) collocated
  at the spatial interior nodes for t > 0, node outer and time inner,
  with zero source;
- initial rows: zeroth-order rows (u itself) at the interior nodes at
  t = 0, with source u0 (build_system evaluates it as any source);
- lateral rows: the problem's boundary condition a u + b du/dnu = g at
  the sampled boundary points for t > 0, point outer and time inner;
  its callables take the space-time points (k, 3) and their normals
  (k, 3), which have no time component.

The smoother is assembly's one S^{-1/2} on these three axes: its
multiplier reads the time frequencies from the extrema axis as it reads
the space frequencies from the roots axes. The solver folds the R
factor of the (n+1)x(n+1) time synthesis into the factored matrix, so
the non-symmetric space-time smoother needs no separate adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    ConstraintSystem,
    EllipticOperatorSpec,
    SmootherSpec,
    _half_inverse,
    build_system,
)
from .chebyshev import ExtremaAxis, extrema_axis, roots_axis
from .geometry import (
    BoundaryPointSet,
    DomainSpec,
    InteriorIndexSet,
    classify_interior,
    sample_boundary_2d,
)
from .solver import SolveReport, pinv_solve

__all__ = [
    "SpaceTimeGrid",
    "ParabolicProblem",
    "assemble_parabolic",
    "spacetime_half_inverse",
    "solve_parabolic",
]

# u_t - lap(u) on the axes (x, y, t)
HEAT = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                            first_order={2: 1.0})


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Two spatial roots axes and one extrema time axis."""

    space_axes: tuple  # (RootsAxis, RootsAxis)
    time_axis: ExtremaAxis


@dataclass(frozen=True, eq=False)
class ParabolicProblem:
    """Heat IBVP data: spatial domain, initial value, lateral condition.

    initial is u0(x, y) vectorized over coordinate arrays; lateral is a
    BoundaryConditionSpec (any a u + b du/dnu = g) for t > 0, whose
    callables take the space-time points (k, 3) as (x, y, t) and their
    normals (k, 3), which have no time component.
    """

    domain: DomainSpec
    initial: callable
    lateral: object  # BoundaryConditionSpec


def _with_times(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Each row of rows extended by each of times, row outer, time inner."""
    return np.column_stack([np.repeat(rows, len(times), axis=0),
                            np.tile(times, len(rows))])


def assemble_parabolic(problem: ParabolicProblem,
                       grid: SpaceTimeGrid) -> ConstraintSystem:
    """Constraint system of the heat IBVP on the space-time grid.

    Row order: heat-operator rows at interior nodes for t > 0 (node
    outer, time inner), then the initial rows, then lateral rows
    (boundary point outer, time inner); right-hand side stacks
    (0; u0; g) to match: u0 and g are their groups' source and data, which
    build_system evaluates and checks ("source", "boundary data"). The
    system reports the spatial interior and boundary sets.
    """
    times = grid.time_axis.nodes
    interior = classify_interior(problem.domain, grid.space_axes)
    boundary = sample_boundary_2d(problem.domain, grid.space_axes[0].m)
    heat_nodes = _with_times(interior.indices, np.arange(1, len(times)))
    initial_nodes = _with_times(interior.indices, [0])
    lateral_points = _with_times(boundary.points, times[1:])
    lateral_normals = _with_times(boundary.normals, np.zeros(len(times) - 1))
    groups = [
        (InteriorIndexSet(heat_nodes), HEAT),
        (InteriorIndexSet(initial_nodes),
         EllipticOperatorSpec({}, {}, zeroth=1.0,
                              source=lambda x, y, t: problem.initial(x, y))),
        (BoundaryPointSet(lateral_points, lateral_normals), problem.lateral),
    ]
    return build_system((*grid.space_axes, grid.time_axis), groups,
                        interior, boundary, spacetime_half_inverse)


def spacetime_half_inverse(u: np.ndarray, spec: SmootherSpec) -> np.ndarray:
    """Apply the space-time S^{-1/2} to a grid function u (x, y, t): two
    roots axes in space and an extrema axis in time, whose frequencies
    make the multiplier one of |k_x|^2 + k_t^2. An array that is not
    3-D is a ValueError."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 3:
        raise ValueError(f"spacetime_half_inverse: expected a 3-D (x, y, t) "
                         f"grid function, got shape {u.shape}")
    nx, ny, nt = u.shape
    return _half_inverse(u, spec, (roots_axis(nx), roots_axis(ny),
                                   extrema_axis(nt - 1)))


def solve_parabolic(problem: ParabolicProblem, grid: SpaceTimeGrid,
                    spec: SmootherSpec) -> SolveReport:
    """Assemble and solve the heat IBVP."""
    return pinv_solve(assemble_parabolic(problem, grid), spec)
