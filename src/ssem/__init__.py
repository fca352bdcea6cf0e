"""Smooth-selection embedding method on Chebyshev tensor grids.

Solves elliptic and parabolic boundary-value problems on irregular
domains embedded in the box [-1, 1]^d.  Constraints (the PDE at interior
grid nodes, boundary conditions at sampled boundary points) are imposed
exactly in the least-squares sense while a Sobolev-type smoothness
functional selects the distinguished solution, computed stably through a
QR factorization of the smoothed constraint matrix.
"""

from .chebyshev import (
    ExtremaAxis,
    RootsAxis,
    apply_multiplier,
    apply_sturm_liouville,
    bary_deriv_row,
    bary_interp_row,
    bary_weights,
    diff1,
    diff2,
    forward_cheb,
    forward_extrema,
    inverse_cheb,
    inverse_extrema,
)
from .geometry import (
    BoundaryPointSet,
    DomainSpec,
    InteriorIndexSet,
    annulus_domain,
    classify_interior,
    disc_domain,
    interior_coordinates,
    sample_boundary,
    sample_boundary_2d,
    sample_boundary_3d,
    sphere_domain,
    star_ball_domain,
    star_domain,
)
from .assembly import (
    BoundaryConditionSpec,
    ConstraintSystem,
    EllipticOperatorSpec,
    SmootherSpec,
    apply_operator,
    apply_smoother_half_forward,
    apply_smoother_half_inverse,
    assemble_elliptic,
    boundary_row,
    build_rhs,
)
from .solver import (
    QRFactorization,
    RankDeficientError,
    SolveReport,
    condition_estimate,
    householder_qr,
    pinv_solve,
)
from .parabolic import (
    ParabolicProblem,
    SpaceTimeGrid,
    assemble_parabolic,
    solve_parabolic,
    spacetime_half_inverse,
    time_diff_matrix,
)
from .experiments import (
    ConfigError,
    ConvergenceRow,
    ExperimentConfig,
    PROBLEM_IDS,
    fit_convergence_order,
    l2_error,
    run_experiment,
    solve_problem,
)

__version__ = "0.1.0"

__all__ = [
    "ExtremaAxis", "RootsAxis", "apply_multiplier", "apply_sturm_liouville",
    "bary_deriv_row", "bary_interp_row", "bary_weights",
    "diff1", "diff2",
    "forward_cheb", "forward_extrema", "inverse_cheb", "inverse_extrema",
    "BoundaryPointSet", "DomainSpec", "InteriorIndexSet",
    "annulus_domain", "classify_interior", "disc_domain",
    "interior_coordinates", "sample_boundary", "sample_boundary_2d",
    "sample_boundary_3d", "sphere_domain", "star_ball_domain", "star_domain",
    "BoundaryConditionSpec", "ConstraintSystem", "EllipticOperatorSpec",
    "SmootherSpec", "apply_operator",
    "apply_smoother_half_forward", "apply_smoother_half_inverse",
    "assemble_elliptic", "boundary_row", "build_rhs",
    "QRFactorization", "RankDeficientError", "SolveReport",
    "condition_estimate", "householder_qr", "pinv_solve",
    "ParabolicProblem", "SpaceTimeGrid", "assemble_parabolic",
    "solve_parabolic", "spacetime_half_inverse", "time_diff_matrix",
    "ConfigError", "ConvergenceRow", "ExperimentConfig", "PROBLEM_IDS",
    "fit_convergence_order", "l2_error", "run_experiment", "solve_problem",
    "__version__",
]
