"""pinv_solve end to end against the dense normal-equation oracle.

Property tests over random small star and annulus domains, random smooth
operator and boundary coefficients, random smooth data and random
smoothness p > d/2: the minimal-selection-norm solution must equal
S^{-1} C^T (C S^{-1} C^T)^{-1} b formed densely from the implicit
constraint operator and a factor of S^{-1} built from the closed-form
Chebyshev Vandermonde matrix (not from the package's transforms, so the
oracle's own rounding does not move with theirs). Mirror-symmetric draws
(a star with phase 0, or the annulus, and coefficients even in y) take
the split solve, one block per parity in y, to the same oracle; with one
boundary sample moved, the interior still splits and the boundary rows
are factored as the border.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssem import geometry
from ssem.assembly import (
    BoundaryConditionSpec,
    EllipticOperatorSpec,
    SmootherSpec,
    apply_smoother_half_inverse,
    assemble_elliptic,
    build_system,
)
from ssem.chebyshev import roots_axis
from ssem.geometry import BoundaryPointSet, DomainSpec, annulus_domain
from ssem.solver import pinv_solve

from oracles import (
    chebyshev_vandermonde,
    dense_from_apply,
    normal_equation_solve,
)
from test_assembly import perturbed_disc_system

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                    database=None)
# The oracle solves the normal equations, so its own error grows like
# eps * cond(C S^{-1} C^T); the QR solve is far more accurate than that.
ABS_FLOOR = 1e-12
COND_TOL = 1e-15

unit = st.floats(-1.0, 1.0, allow_nan=False)


def random_star(r0, amp, lobes, phase) -> DomainSpec:
    """Star r < r0 (1 + amp cos(lobes theta + phase))."""
    rho = lambda t: r0 * (1.0 + amp * np.cos(lobes * t + phase))
    drho = lambda t: -r0 * amp * lobes * np.sin(lobes * t + phase)
    return DomainSpec(
        dim=2,
        inside=lambda x, y: np.hypot(x, y) - rho(np.arctan2(y, x)),
        boundary=(geometry._polar_curve(rho, drho),),
        name="random star",
    )


def smoother_inverse_factor(spec: SmootherSpec, m: int) -> np.ndarray:
    """H with H H^T = S^{-1} = V diag(mu^2) V^{-1} on the m x m roots grid.

    V is the tensor Chebyshev synthesis and mu the S^{-1/2} multiplier.
    By discrete orthogonality V^{-1} = D^{-1} V^T with D = diag(m, m/2,
    ..., m/2) per axis, so H = V diag(mu) D^{-1/2}. Kept as a factor, the
    small multipliers of the high modes scale whole columns, where a
    dense S^{-1} would bury them in the rounding of its large entries.
    """
    vand = chebyshev_vandermonde(m)
    gram = np.full(m, m / 2.0)
    gram[0] = m
    k_squared = np.add.outer(np.arange(m) ** 2, np.arange(m) ** 2)
    mu = spec.half_inverse_multiplier(k_squared.astype(float))
    return np.kron(vand, vand) * (mu / np.sqrt(np.outer(gram, gram))).ravel()


@st.composite
def domains(draw):
    if draw(st.booleans()):
        return annulus_domain(inner_radius=draw(st.floats(0.2, 0.35)))
    return random_star(r0=draw(st.floats(0.6, 0.75)),
                       amp=draw(st.floats(0.0, 0.2)),
                       lobes=draw(st.integers(3, 6)),
                       phase=draw(st.floats(0.0, 2.0 * np.pi)))


@st.composite
def problems(draw):
    """A uniformly elliptic operator and a trace, flux or Robin condition,
    every coefficient and datum smooth and nonconstant in general."""
    a0, a1, b0, b1, c0, f0, f1 = (draw(unit) for _ in range(7))
    op = EllipticOperatorSpec(
        second_order={(0, 0): lambda x, y: 2.0 + 0.5 * a0 * y,
                      (1, 1): lambda x, y: 2.0 + 0.5 * a1 * x},
        first_order={0: lambda x, y: b0 + b1 * x * y},
        zeroth=lambda x, y: 1.0 + 0.5 * c0 * x,
        source=lambda x, y: f0 + f1 * np.sin(x + 2.0 * y))
    g0, g1 = (draw(unit) for _ in range(2))
    data = lambda pts, nrm: 1.0 + g0 * pts[:, 0] ** 2 + g1 * pts[:, 1]
    kind = draw(st.sampled_from(["trace", "flux", "robin"]))
    if kind == "trace":
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=data)
    elif kind == "flux":
        bc = BoundaryConditionSpec(trace=0.0, flux=1.0, data=data)
    else:
        bc = BoundaryConditionSpec(
            trace=lambda pts, nrm: 1.0 + 0.25 * pts[:, 0],
            flux=lambda pts, nrm: 1.0 - 0.25 * pts[:, 1], data=data)
    return op, bc


@st.composite
def mirrored_domains(draw):
    """Domains symmetric in y: the annulus, or a star with phase 0."""
    if draw(st.booleans()):
        return annulus_domain(inner_radius=draw(st.floats(0.2, 0.35)))
    return random_star(r0=draw(st.floats(0.6, 0.75)),
                       amp=draw(st.floats(0.0, 0.2)),
                       lobes=draw(st.integers(3, 6)), phase=0.0)


@st.composite
def mirrored_problems(draw):
    """As problems, with every coefficient even in y, so that y -> -y maps
    the constraints onto themselves; the data stay arbitrary."""
    a0, a1, b0, b1, c0, f0, f1 = (draw(unit) for _ in range(7))
    op = EllipticOperatorSpec(
        second_order={(0, 0): lambda x, y: 2.0 + 0.5 * a0 * y * y,
                      (1, 1): lambda x, y: 2.0 + 0.5 * a1 * x},
        first_order={0: lambda x, y: b0 + b1 * x * y * y},
        zeroth=lambda x, y: 1.0 + 0.5 * c0 * x,
        source=lambda x, y: f0 + f1 * np.sin(x + 2.0 * y))
    g0, g1 = (draw(unit) for _ in range(2))
    data = lambda pts, nrm: 1.0 + g0 * pts[:, 0] ** 2 + g1 * pts[:, 1]
    kind = draw(st.sampled_from(["trace", "flux", "robin"]))
    if kind == "trace":
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=data)
    elif kind == "flux":
        bc = BoundaryConditionSpec(trace=0.0, flux=1.0, data=data)
    else:
        bc = BoundaryConditionSpec(
            trace=lambda pts, nrm: 1.0 + 0.25 * pts[:, 0],
            flux=lambda pts, nrm: 1.0 - 0.25 * pts[:, 1] ** 2, data=data)
    return op, bc


def moved_sample_system(dom, m, problem, index, shift):
    """The drawn problem's system with boundary sample index (mod the
    sample count) moved by shift along both axes, so that it mirrors on
    neither."""
    op, bc = problem
    axes = (roots_axis(m), roots_axis(m))
    interior = geometry.classify_interior(dom, axes)
    boundary = geometry.sample_boundary(dom, m)
    points = boundary.points.copy()
    points[index % boundary.count] += shift
    moved = BoundaryPointSet(points, boundary.normals)
    return build_system(axes, [(interior, op), (moved, bc)], interior, moved,
                        apply_smoother_half_inverse)


def assert_matches_normal_equations(dom, m, problem, p):
    """pinv_solve of the drawn problem against the oracle; returns its
    report."""
    op, bc = problem
    system = assemble_elliptic(dom, (roots_axis(m), roots_axis(m)), op, bc)
    return assert_system_matches_normal_equations(system, m, p)


def assert_system_matches_normal_equations(system, m, p):
    """pinv_solve of a planar system on the m x m roots grid against the
    oracle; returns its report."""
    spec = SmootherSpec("power", p)
    shape = (m, m)
    report = pinv_solve(system, spec)

    c_mat = dense_from_apply(system.apply, shape, system.n_rows)
    # the normal equations in w = H^{-1} u, where the norm is Euclidean
    h = smoother_inverse_factor(spec, m)
    ch = c_mat @ h
    u_ref = h @ normal_equation_solve(ch, np.eye(len(h)), system.rhs)
    gram_cond = np.linalg.cond(ch @ ch.T)
    gap = np.max(np.abs(report.solution.ravel() - u_ref))
    assert gap <= (ABS_FLOOR + COND_TOL * gram_cond) * np.max(np.abs(u_ref))
    return report


@PROPERTY
@given(dom=domains(), m=st.integers(8, 11), problem=problems(),
       p=st.floats(1.25, 6.0))
def test_pinv_solve_matches_normal_equations(dom, m, problem, p):
    assert_matches_normal_equations(dom, m, problem, p)


@PROPERTY
@given(dom=mirrored_domains(), m=st.integers(8, 11),
       problem=mirrored_problems(), p=st.floats(1.25, 6.0))
def test_split_solve_matches_normal_equations(dom, m, problem, p):
    # split in y; in x too where the samples happen to mirror in x
    report = assert_matches_normal_equations(dom, m, problem, p)
    assert len(report.blocks) >= 2


@PROPERTY
@given(dom=mirrored_domains(), m=st.integers(8, 11),
       problem=mirrored_problems(), p=st.floats(1.25, 6.0),
       index=st.integers(0, 10 ** 6), shift=st.floats(1e-6, 1e-2))
def test_bordered_solve_matches_normal_equations(dom, m, problem, p, index,
                                                 shift):
    # the interior is even in y and splits; the moved sample leaves the
    # boundary rows unmirrored, so they are the border
    system = moved_sample_system(dom, m, problem, index, shift)
    assert system.border is not None
    report = assert_system_matches_normal_equations(system, m, p)
    assert report.blocks[-1][1] == len(system.border.rows)


def test_moved_disc_sample_matches_normal_equations():
    # the Dirichlet disc with one sample moved by 1e-9: four blocks of the
    # interior and the border of its boundary rows
    system = perturbed_disc_system(10, move=1e-9)
    report = assert_system_matches_normal_equations(system, 10, 4.0)
    assert len(report.blocks) == 5
