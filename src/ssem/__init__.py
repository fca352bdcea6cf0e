"""Smooth-selection embedding method on Chebyshev tensor grids.

Solves elliptic and parabolic boundary-value problems on irregular
domains embedded in the box [-1, 1]^d.  Constraints (the PDE at interior
grid nodes, boundary conditions at sampled boundary points) are imposed
exactly in the least-squares sense while a Sobolev-type smoothness
functional selects the distinguished solution, computed stably through a
QR factorization of the smoothed constraint matrix.
"""

from .chebyshev import extrema_axis, roots_axis
from .geometry import (
    DomainSpec,
    annulus_domain,
    disc_domain,
    star_ball_domain,
    star_domain,
)
from .assembly import (
    BoundaryConditionSpec,
    ConstraintSystem,
    EllipticOperatorSpec,
    SmootherSpec,
    apply_smoother_half_inverse,
    assemble_elliptic,
)
from .solver import RankDeficientError, SolveReport, pinv_solve
from .parabolic import ParabolicProblem, SpaceTimeGrid, solve_parabolic
from .experiments import ConfigError, PROBLEM_IDS, solve_problem

__version__ = "0.1.0"

__all__ = [
    "roots_axis", "extrema_axis",
    "DomainSpec", "disc_domain", "star_domain", "annulus_domain",
    "star_ball_domain",
    "EllipticOperatorSpec", "BoundaryConditionSpec", "ConstraintSystem",
    "assemble_elliptic",
    "SmootherSpec", "apply_smoother_half_inverse", "pinv_solve",
    "SolveReport", "RankDeficientError",
    "ParabolicProblem", "SpaceTimeGrid", "solve_parabolic",
    "PROBLEM_IDS", "solve_problem", "ConfigError",
    "__version__",
]
