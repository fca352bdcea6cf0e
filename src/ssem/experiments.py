"""Built-in convergence experiments and their error/fit metrics.

Five benchmark problems with known exact solutions, each swept over a
list of grid sizes and smoother exponents. The reported l2 error is the
root mean square of u - exact over the interior grid nodes (all time
slices included for the parabolic problem); rows whose error has fallen
to the conditioning floor (cond times machine epsilon above the error)
are flagged and excluded from order fits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .assembly import (
    BoundaryConditionSpec,
    EllipticOperatorSpec,
    SmootherSpec,
    assemble_elliptic,
)
from .chebyshev import extrema_axis, roots_axis
from .geometry import (
    annulus_domain,
    disc_domain,
    interior_coordinates,
    star_ball_domain,
    star_domain,
)
from .parabolic import ParabolicProblem, SpaceTimeGrid, assemble_parabolic
from .solver import RankDeficientError, _one_blas_thread, pinv_solve

__all__ = [
    "PROBLEM_IDS",
    "ExperimentConfig",
    "ConvergenceRow",
    "ConfigError",
    "run_experiment",
    "fit_convergence_order",
    "solve_problem",
]

EPS = 2.2e-16
# Order n of the parabolic problem's time axis (n + 1 extrema nodes on [0, 2]).
TIME_POINTS = 10
# Trapezoid nodes of Bessel's integral for J0: the error is
# 2 sum_l J_{2 l N}(r), below 1e-20 for |r| <= 8 at N = 20.
J0_NODES = 20


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or combination)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment sweep: a problem, grid sizes, and smoothers."""

    problem: str
    grids: tuple
    p_list: tuple = ()          # empty with the exponential smoother
    smoother: str = "power"
    out: str = ""

    def __post_init__(self):
        if self.problem not in PROBLEM_IDS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose one of "
                f"{sorted(PROBLEM_IDS)}"
            )
        if not self.grids:
            raise ConfigError("grids must be a non-empty list of sizes")
        for m in self.grids:
            try:
                operator.index(m)
            except TypeError:
                raise ConfigError(
                    f"grid sizes must be integers, got {m!r}") from None
        repeated = [m for i, m in enumerate(self.grids)
                    if m in self.grids[:i]]
        if repeated:
            raise ConfigError(f"grid size {repeated[0]} is listed twice in "
                              f"{list(self.grids)}")
        if any(m < 6 for m in self.grids):
            raise ConfigError(f"grid sizes must be >= 6, got {list(self.grids)}")
        if self.smoother not in ("power", "exp"):
            raise ConfigError(f"smoother must be 'power' or 'exp', "
                              f"got {self.smoother!r}")
        if self.smoother == "exp" and self.p_list:
            raise ConfigError(f"the exp smoother takes no exponents; got "
                              f"p_list {list(self.p_list)}")
        if self.smoother == "power":
            if not self.p_list:
                raise ConfigError("p_list must be non-empty for the power "
                                  "smoother")
            bad = [p for p in self.p_list if not math.isfinite(p)]
            if bad:
                raise ConfigError(f"smoother exponents must be finite; "
                                  f"got {bad}")
            labels = [_format_p(p) for p in self.p_list]
            repeated = [lab for i, lab in enumerate(labels)
                        if lab in labels[:i]]
            if repeated:
                raise ConfigError(f"smoother exponent {repeated[0]} is "
                                  f"listed twice in {list(self.p_list)}")
            # the CSV's p column is the label: it must name p exactly
            bad = [p for p, lab in zip(self.p_list, labels) if float(lab) != p]
            if bad:
                raise ConfigError(f"smoother exponent {bad[0]!r} would be "
                                  f"labelled {_format_p(bad[0])} in the CSV; "
                                  f"give at most six significant digits")
            d = _PROBLEMS[self.problem].grid_dim
            bad = [p for p in self.p_list if p <= d / 2]
            if bad:
                raise ConfigError(
                    f"smoother exponents must exceed d/2 = {d / 2} for "
                    f"bounded point constraints; got {bad}"
                )

    def smoother_specs(self):
        if self.smoother == "exp":
            return [("exp", SmootherSpec(kind="exp"))]
        return [(_format_p(p), SmootherSpec(kind="power", p=float(p)))
                for p in self.p_list]


def _format_p(p) -> str:
    return f"{p:g}"


@dataclass
class ConvergenceRow:
    """One (m, smoother) outcome; extra diagnostics ride along the CSV
    columns (m..seconds) for acceptance checks. A failed row's error is
    "<ExceptionType>: <message>" of what failed it."""

    m: int
    n_omega: int
    n_gamma: int
    p: str
    l2_error: float
    linf_error: float
    cond: float
    seconds: float
    residual_linf: float = math.nan
    rhs_linf: float = math.nan
    floored: bool = False
    failed: bool = False
    error: str = ""

    def mark_floor(self):
        self.floored = (np.isfinite(self.cond)
                        and self.cond * EPS > self.l2_error)


# ---------------------------------------------------------------------------
# problem roster
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Problem:
    grid_dim: int
    build: object  # callable(m) -> (system, errfun)


def _error_norms(diff: np.ndarray):
    """(RMS, max) of the pointwise error over the interior nodes."""
    if diff.size == 0:
        raise ValueError("interior index set is empty")
    return (float(np.sqrt(np.mean(diff**2))), float(np.max(np.abs(diff))))


def _elliptic_problem(domain, op, bc, exact, quotient_constants=False):
    # quotient_constants: pure Neumann data determines u only up to an
    # additive constant (constants lie in the kernel of both the interior
    # operator and the flux rows), so errors are measured in the quotient.
    # The one domain object serves every m, so its boundary tables are
    # computed once.
    dim = domain.dim

    def build(m):
        axes = tuple(roots_axis(m) for _ in range(dim))
        system = assemble_elliptic(domain, axes, op, bc)

        def errors(u):
            coords = interior_coordinates(axes, system.interior)
            diff = u[tuple(system.interior.indices.T)] - exact(*coords.T)
            if quotient_constants:
                diff = diff - diff.mean()
            return _error_norms(diff)

        return system, errors

    return _Problem(grid_dim=dim, build=build)


def _j0(r):
    """Bessel J0 by Bessel's integral (1/pi) int_0^pi cos(r sin th) dth.

    The integrand is smooth and pi-periodic, so the trapezoid rule (the
    mean over J0_NODES equispaced th) converges spectrally.
    """
    theta = np.pi * np.arange(J0_NODES) / J0_NODES
    return np.cos(np.multiply.outer(r, np.sin(theta))).mean(axis=-1)


def _parabolic_problem():
    def exact(x, y, t):
        r = np.hypot(x, y)
        return np.exp(-t) * _j0(r) - np.exp(-t / 4.0) * _j0(r / 2.0)

    problem = ParabolicProblem(
        domain=star_domain(),
        initial=lambda x, y: exact(x, y, 0.0),
        lateral=BoundaryConditionSpec(trace=1.0, flux=0.0,
                                      data=lambda pts, nrm: exact(*pts.T)),
    )

    def build(m):
        grid = SpaceTimeGrid(
            space_axes=(roots_axis(m), roots_axis(m)),
            time_axis=extrema_axis(TIME_POINTS, 0.0, 2.0),
        )
        system = assemble_parabolic(problem, grid)

        def errors(u):
            ii, jj = system.interior.indices.T
            coords = interior_coordinates(grid.space_axes, system.interior)
            vals = exact(coords[:, 0:1], coords[:, 1:2],
                         grid.time_axis.nodes[None, :])
            return _error_norms(u[ii, jj, :] - vals)

        return system, errors

    return _Problem(grid_dim=3, build=build)


def _build_roster():
    laplace = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                                   first_order={}, zeroth=None, source=0.0)
    dirichlet_disc = _elliptic_problem(
        disc_domain(), laplace,
        BoundaryConditionSpec(
            trace=1.0, flux=0.0,
            data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2),
        exact=lambda x, y: x**2 - y**2,
    )

    neumann_star = _elliptic_problem(
        star_domain(),
        EllipticOperatorSpec(
            second_order={(0, 0): lambda x, y: 2.0 + y,
                          (1, 1): lambda x, y: 2.0 - x},
            first_order={}, zeroth=None,
            source=lambda x, y: -12.0 * (x + y)),
        BoundaryConditionSpec(
            trace=0.0, flux=1.0,
            data=lambda pts, nrm: 3.0 * pts[:, 0] ** 2 * nrm[:, 0]
            + 3.0 * pts[:, 1] ** 2 * nrm[:, 1]),
        exact=lambda x, y: x**3 + y**3,
        quotient_constants=True,
    )

    robin_annulus = _elliptic_problem(
        annulus_domain(),
        EllipticOperatorSpec(
            second_order={(0, 0): 1.0, (1, 1): 1.0},
            first_order={}, zeroth=None,
            source=lambda x, y: -np.sinh(x) - np.cosh(y)),
        BoundaryConditionSpec(
            trace=1.0, flux=1.0,
            data=lambda pts, nrm: np.sinh(pts[:, 0]) + np.cosh(pts[:, 1])
            + np.cosh(pts[:, 0]) * nrm[:, 0] + np.sinh(pts[:, 1]) * nrm[:, 1]),
        exact=lambda x, y: np.sinh(x) + np.cosh(y),
    )

    laplace3 = EllipticOperatorSpec(
        second_order={(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0},
        first_order={}, zeroth=None,
        source=lambda x, y, z: -2.0 * y * np.sin(z) + x**2 * y * np.sin(z))
    dirichlet_3d = _elliptic_problem(
        star_ball_domain(), laplace3,
        BoundaryConditionSpec(
            trace=1.0, flux=0.0,
            data=lambda pts, nrm: pts[:, 0] ** 2 * pts[:, 1]
            * np.sin(pts[:, 2])),
        exact=lambda x, y, z: x**2 * y * np.sin(z),
    )

    return {
        "dirichlet-disc": dirichlet_disc,
        "neumann-star": neumann_star,
        "robin-annulus": robin_annulus,
        "dirichlet-3d": dirichlet_3d,
        "parabolic-star": _parabolic_problem(),
    }


_PROBLEMS = _build_roster()
PROBLEM_IDS = tuple(sorted(_PROBLEMS))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def fit_convergence_order(rows) -> float:
    """Negated least-squares slope of log(l2_error) against log(m).

    Rows flagged as floored (or failed, or with vanishing error) are
    excluded; at least three distinct grid sizes must remain.
    """
    pts = [(r.m, r.l2_error) for r in rows
           if not r.failed and not r.floored and r.l2_error > 0.0]
    if len({m for m, _ in pts}) < 3:
        raise ValueError(
            f"need at least 3 usable rows with distinct m to fit an "
            f"order, have {len(pts)}"
        )
    logm = np.log([m for m, _ in pts])
    loge = np.log([e for _, e in pts])
    slope = np.polyfit(logm, loge, 1)[0]
    return float(-slope)


# what run_experiment records as a failed row instead of propagating
_SOLVER_FAILURES = (RankDeficientError, np.linalg.LinAlgError, ValueError)


def _solve_built(system, errors, m: int, spec: SmootherSpec):
    """Solve an assembled benchmark instance: (report, row)."""
    report = pinv_solve(system, spec)
    l2, linf = errors(report.solution)
    row = ConvergenceRow(
        m=m,
        n_omega=report.n_omega,
        n_gamma=report.n_gamma,
        p="",
        l2_error=l2,
        linf_error=linf,
        cond=report.cond_estimate,
        seconds=report.seconds,
        residual_linf=report.residual_linf,
        rhs_linf=float(np.max(np.abs(system.rhs))),
    )
    row.mark_floor()
    return report, row


def solve_problem(problem_id: str, m: int, spec: SmootherSpec):
    """Build and solve one benchmark instance.

    Returns (report, row) where row carries the CSV fields plus residual
    diagnostics.
    """
    system, errors = _PROBLEMS[problem_id].build(m)
    return _solve_built(system, errors, m, spec)


def _failed_row(m: int, label: str, exc: Exception) -> ConvergenceRow:
    return ConvergenceRow(m=m, n_omega=0, n_gamma=0, p=label,
                          l2_error=math.nan, linf_error=math.nan,
                          cond=math.nan, seconds=math.nan, failed=True,
                          error=f"{type(exc).__name__}: {exc}")


def run_experiment(config: ExperimentConfig):
    """Sweep the configured problem over (m, smoother) and collect rows.

    Each m is assembled once and solved for every smoother: only the
    multiplier depends on the smoother. Solver failures (rank loss,
    LAPACK errors, rejected input) are recorded as failed rows (NaN
    metrics, the exception in error) and the sweep continues; a failed
    build fails every row of its m. Any other exception propagates.

    The grid sizes are solved one after another, in config order, with
    numpy's bundled OpenBLAS pinned to one thread: the sweep's split QRs
    are small, and on OpenBLAS's default 2-thread pool the second thread
    spins on them and wastes CPU (perfbench's sweep-2d read cpu_s
    0.69-0.71 s unpinned against 0.36-0.39 s pinned, on a 2-core box).
    So a row is the solve of its (m, p) alone on one BLAS thread, bit
    for bit, and its seconds are that solve's own cost. Where solves run
    on SciPy's LAPACK, whose threads are not pinned, the sweep runs on
    its threads as they are.
    """
    specs = config.smoother_specs()
    build = _PROBLEMS[config.problem].build
    rows = []
    with _one_blas_thread():
        for m in config.grids:
            try:
                system, errors = build(m)
            except _SOLVER_FAILURES as exc:
                rows += [_failed_row(m, label, exc) for label, _ in specs]
                continue
            for label, spec in specs:
                try:
                    _, row = _solve_built(system, errors, m, spec)
                    row.p = label
                except _SOLVER_FAILURES as exc:
                    row = _failed_row(m, label, exc)
                rows.append(row)
    return rows
