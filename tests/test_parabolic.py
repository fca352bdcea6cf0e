"""Space-time heat solve: time differentiation, smoother, assembly."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import j0

from ssem.assembly import (
    BoundaryConditionSpec,
    SmootherSpec,
    smoother_multiplier_array,
)
from ssem.chebyshev import (
    analysis,
    bary_rows,
    extrema_axis,
    roots_axis,
    synthesis,
)
from ssem.geometry import (
    BoundaryCurve,
    DomainSpec,
    interior_coordinates,
    star_domain,
)
from ssem.solver import pinv_solve
from ssem.parabolic import (
    ParabolicProblem,
    SpaceTimeGrid,
    assemble_parabolic,
    solve_parabolic,
    spacetime_half_inverse,
)

from oracles import (
    chebyshev_vandermonde,
    dense_from_apply,
    dense_operator,
    normal_equation_solve,
)


def exact_heat(x, y, t):
    """Two decaying radial modes of the heat equation on the unit scale."""
    r = np.hypot(x, y)
    return np.exp(-t) * j0(r) - np.exp(-t / 4.0) * j0(r / 2.0)


def spacetime_vandermonde(m, n):
    """Dense tensor synthesis: T_k at the roots nodes, cos(pi j k / n)."""
    v1 = chebyshev_vandermonde(m)
    j = np.arange(n + 1)
    vt = np.cos(np.pi * np.outer(j, j) / n)
    return np.kron(np.kron(v1, v1), vt)


def dirichlet(u):
    """The lateral condition u = g for a solution u(x, y, t)."""
    return BoundaryConditionSpec(trace=1.0, flux=0.0,
                                 data=lambda pts, nrm: u(*pts.T))


STAR_HEAT = ParabolicProblem(
    domain=star_domain(),
    initial=lambda x, y: exact_heat(x, y, 0.0),
    lateral=dirichlet(exact_heat),
)


def star_grid(m, n=10):
    return SpaceTimeGrid(space_axes=(roots_axis(m), roots_axis(m)),
                         time_axis=extrema_axis(n, 0.0, 2.0))


def row_counts(system, n):
    """(heat, initial, lateral) rows of a heat system with n + 1 time
    points: the interior nodes for t > 0, at t = 0, and the boundary
    points for t > 0."""
    return system.n_omega * n, system.n_omega, system.n_gamma * n


class TestInputChecks:
    @pytest.mark.parametrize("field, culprit, value, kind", [
        ("initial", "source", np.nan, "NaN"),
        ("lateral", "boundary data", np.inf, "inf"),
    ])
    def test_non_finite_data_named(self, field, culprit, value, kind):
        def spoil(fn):
            def bad(first, second):
                good = fn(first, second)
                return np.where(np.arange(good.size) % 3 == 0, value, good)
            return bad

        spoiled = {
            "initial": spoil(STAR_HEAT.initial),
            "lateral": dataclasses.replace(
                STAR_HEAT.lateral, data=spoil(STAR_HEAT.lateral.data)),
        }
        problem = dataclasses.replace(STAR_HEAT, **{field: spoiled[field]})
        with pytest.raises(ValueError, match=rf"^{culprit}: {kind} at "):
            assemble_parabolic(problem, star_grid(8, 4))

    @pytest.mark.parametrize("initial, got", [
        (lambda x, y: np.ones((len(x), 2)), r"\(\d+, 2\)"),
        (lambda x, y: np.ones(3), r"\(3,\)")], ids=["n-by-2", "three"])
    def test_wrong_shape_initial_named(self, initial, got):
        # the initial values are the initial rows' source: a result that
        # is neither a scalar nor one value per node is refused by name
        problem = dataclasses.replace(STAR_HEAT, initial=initial)
        with pytest.raises(ValueError, match=rf"^source: expected a scalar "
                                             rf"or \d+ values, got shape "
                                             rf"{got}$"):
            assemble_parabolic(problem, star_grid(8, 4))

    def test_vanishing_lateral_condition_rejected(self):
        # a u + b du/dnu with a = t - 2 and b = 0 vanishes at the last
        # time node only: the lateral rows see the time column
        vanishing = BoundaryConditionSpec(
            trace=lambda pts, nrm: pts[:, 2] - 2.0, flux=0.0, data=0.0)
        problem = dataclasses.replace(STAR_HEAT, lateral=vanishing)
        with pytest.raises(ValueError, match="boundary condition vanishes "
                                             "at a sampled point"):
            assemble_parabolic(problem, star_grid(8, 4))

    def test_callable_lateral_refused_by_type(self):
        problem = dataclasses.replace(
            STAR_HEAT, lateral=lambda points, t: np.zeros(len(points)))
        with pytest.raises(TypeError, match=r"^row group 2: expected an "
                                            r"EllipticOperatorSpec or a "
                                            r"BoundaryConditionSpec, got "
                                            r"function$"):
            assemble_parabolic(problem, star_grid(8, 4))

    def test_boundary_samples_outside_box_rejected(self):
        # the samples come from the boundary curve alone: a small circle
        # beyond x = 1 puts every one outside, and its arclength series is
        # refused before any sample is drawn
        centre = np.array([1.5, 0.0])
        curve = BoundaryCurve(
            param=lambda t: centre + 0.3 * np.stack([np.cos(t), np.sin(t)],
                                                    axis=-1),
            normal=lambda pts: (pts - centre) / 0.3)
        domain = DomainSpec(dim=2, inside=STAR_HEAT.domain.inside,
                            boundary=(curve,))
        problem = ParabolicProblem(domain=domain, initial=STAR_HEAT.initial,
                                   lateral=STAR_HEAT.lateral)
        with pytest.raises(ValueError, match=r"outside \(-1, 1\)\^2"):
            assemble_parabolic(problem, star_grid(8, 4))


class TestTimeDiffMatrix:
    """The extrema axis' differentiation matrix: its barycentric
    derivative rows at its own nodes."""

    def test_constant(self):
        axis = extrema_axis(10, 0.0, 2.0)
        mat = bary_rows(axis, axis.nodes, 1)
        assert np.max(np.abs(mat @ np.ones(11))) < 1e-12

    def test_linear(self):
        axis = extrema_axis(10, 0.0, 2.0)
        mat = bary_rows(axis, axis.nodes, 1)
        assert mat @ axis.nodes == pytest.approx(np.ones(11), abs=1e-12)

    def test_cubic(self):
        axis = extrema_axis(10, 0.0, 2.0)
        mat = bary_rows(axis, axis.nodes, 1)
        assert mat @ axis.nodes ** 3 == pytest.approx(
            3.0 * axis.nodes ** 2, abs=1e-10)

    def test_full_degree(self):
        axis = extrema_axis(8, 0.0, 2.0)
        mat = bary_rows(axis, axis.nodes, 1)
        expect = 8.0 * axis.nodes ** 7
        assert mat @ axis.nodes ** 8 == pytest.approx(
            expect, abs=1e-10 * np.max(np.abs(expect)))


class TestAssembleParabolic:
    def test_row_counts_m10(self):
        system = assemble_parabolic(STAR_HEAT, star_grid(10))
        assert row_counts(system, 10) == (280, 28, 130)
        assert system.n_rows == 438

    def test_row_counts_m12(self):
        system = assemble_parabolic(STAR_HEAT, star_grid(12))
        assert row_counts(system, 10) == (400, 40, 150)

    def test_rhs_stacking(self):
        grid = star_grid(10)
        system = assemble_parabolic(STAR_HEAT, grid)
        nh, ni, _ = row_counts(system, 10)
        assert system.rhs[:nh] == pytest.approx(np.zeros(nh), abs=0.0)
        coords = interior_coordinates(grid.space_axes, system.interior)
        assert system.rhs[nh:nh + ni] == pytest.approx(
            exact_heat(coords[:, 0], coords[:, 1], 0.0), abs=1e-15)
        lat = system.rhs[nh + ni:].reshape(system.boundary.count, 10)
        expect = exact_heat(system.boundary.points[:, 0:1],
                            system.boundary.points[:, 1:2],
                            grid.time_axis.nodes[None, 1:])
        assert lat == pytest.approx(expect, abs=1e-15)

    def test_exact_solution_interior_residual(self):
        grid = star_grid(20)
        system = assemble_parabolic(STAR_HEAT, grid)
        x = grid.space_axes[0].nodes[:, None, None]
        y = grid.space_axes[1].nodes[None, :, None]
        t = grid.time_axis.nodes[None, None, :]
        res = system.residual(exact_heat(x, y, t))
        assert np.max(np.abs(res[:row_counts(system, 10)[0]])) <= 1e-7

    def test_steady_harmonic_state_consistent(self):
        steady = ParabolicProblem(
            domain=star_domain(),
            initial=lambda x, y: x**2 - y**2,
            lateral=dirichlet(lambda x, y, t: x**2 - y**2),
        )
        grid = star_grid(10, n=6)
        system = assemble_parabolic(steady, grid)
        x = grid.space_axes[0].nodes[:, None, None]
        y = grid.space_axes[1].nodes[None, :, None]
        u = np.broadcast_to(x**2 - y**2, (10, 10, 7)).copy()
        assert np.max(np.abs(system.residual(u))) < 1e-10

    def test_adjoint_identity(self):
        system = assemble_parabolic(STAR_HEAT, star_grid(8, n=5))
        rng = np.random.default_rng(21)
        u = rng.standard_normal((8, 8, 6))
        v = rng.standard_normal(system.n_rows)
        lhs = np.dot(system.apply(u), v)
        rhs = np.dot(analysis(u, system.axes).ravel(),
                     system.coefficient_matrix().T @ v)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_transpose_columns_match_apply_transpose(self):
        # column i of A^T is the gradient of c -> (C V c)_i
        system = assemble_parabolic(STAR_HEAT, star_grid(8, n=5))
        dense = dense_from_apply(
            lambda c: system.apply(synthesis(c, system.axes)), (8, 8, 6),
            system.n_rows)
        mat_t = system.coefficient_matrix().T
        rng = np.random.default_rng(22)
        for i in rng.choice(system.n_rows, size=5, replace=False):
            col = dense[i]
            assert np.max(np.abs(mat_t[:, i] - col)) \
                < 1e-10 * np.max(np.abs(col))

    def test_coefficient_rows_match_dense_oracle(self):
        m, n = 8, 5
        system = assemble_parabolic(STAR_HEAT, star_grid(m, n=n))
        dense_c = dense_from_apply(system.apply, (m, m, n + 1),
                                   system.n_rows)
        expect = dense_c @ spacetime_vandermonde(m, n)
        mat = system.coefficient_matrix()
        assert mat.shape == expect.shape
        assert np.max(np.abs(mat - expect)) < 1e-10 * np.max(np.abs(expect))

    def test_built_system_holds_each_node_row_once(self):
        # an interior group keeps each axis' 1-D rows at the nodes and a
        # node index per constraint: gathered per constraint, the heat
        # rows repeated every node's rows once per time node, and this
        # system held 3.2 MiB
        grid = star_grid(24)
        assemble_parabolic(STAR_HEAT, grid)  # fills the per-size caches
        tracemalloc.start()
        try:
            system = assemble_parabolic(STAR_HEAT, grid)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.n_rows == 1994
        assert held < 1 << 20

    def test_coefficient_matrix_recovers_constraints(self):
        grid = star_grid(10, n=6)
        system = assemble_parabolic(STAR_HEAT, grid)
        rng = np.random.default_rng(22)
        u = rng.standard_normal((10, 10, 7))
        via_ops = system.apply(u)
        via_matrix = system.coefficient_matrix() @ analysis(
            u, system.axes).ravel()
        assert np.max(np.abs(via_matrix - via_ops)) \
            < 1e-10 * np.max(np.abs(via_ops))


class TestSpacetimeSmoother:
    def test_constant_unchanged(self):
        u = np.ones((5, 5, 4))
        out = spacetime_half_inverse(u, SmootherSpec("power", 4.0))
        assert out == pytest.approx(u, abs=1e-13)

    def test_spatial_mode_p2(self):
        m, n = 9, 5
        theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
        u = np.broadcast_to(np.cos(3 * theta)[:, None, None],
                            (m, m, n + 1)).copy()
        out = spacetime_half_inverse(u, SmootherSpec("power", 2.0))
        assert out == pytest.approx(u / 10.0, abs=1e-12)

    def test_temporal_mode_p2(self):
        m, n = 6, 7
        coeff = np.zeros(n + 1)
        coeff[2] = 1.0
        u = np.broadcast_to(synthesis(coeff, [extrema_axis(n)]),
                            (m, m, n + 1)).copy()
        out = spacetime_half_inverse(u, SmootherSpec("power", 2.0))
        assert out == pytest.approx(u / 5.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(6, 6), (2, 6, 6, 5), ()])
    def test_array_that_is_not_3d_refused(self, shape):
        # a 6 x 6 array used to come back as a 6 x 6 array
        with pytest.raises(ValueError, match=(
                r"^spacetime_half_inverse: expected a 3-D \(x, y, t\) grid "
                rf"function, got shape {re.escape(str(shape))}$")):
            spacetime_half_inverse(np.ones(shape), SmootherSpec())

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        u = rng.standard_normal((6, 6, 5))
        fwd = spacetime_half_inverse(u, SmootherSpec("power", 4.0))
        back = spacetime_half_inverse(fwd, SmootherSpec("power", -4.0))
        assert back == pytest.approx(u, abs=1e-12)

    def test_spectrum_is_positive_diagonal(self):
        # similar to the diagonal multiplier, so real positive eigenvalues
        for spec in (SmootherSpec("power", 6.0), SmootherSpec("exp")):
            dense = dense_operator(
                lambda w: spacetime_half_inverse(w, spec), (5, 5, 4))
            eigs = np.linalg.eigvals(dense)
            assert np.max(np.abs(eigs.imag)) < 1e-10
            assert np.all(eigs.real > 0)

    def test_adjoint_matches_dense_transpose(self):
        # The solver never forms the adjoint: with V = Q_V R (R from the
        # per-axis Gram factors), H^T = Q_V R^{-T} diag(mu) R^T Q_V^T.
        m, n = 4, 3
        axes = (roots_axis(m), roots_axis(m), extrema_axis(n))
        vand = spacetime_vandermonde(m, n)
        r = np.kron(np.kron(axes[0].basis.gram, axes[1].basis.gram),
                    axes[2].basis.gram)
        q_v = vand @ np.linalg.inv(r)
        assert np.max(np.abs(q_v.T @ q_v - np.eye(len(r)))) < 1e-13
        for spec in (SmootherSpec("power", 4.0), SmootherSpec("exp")):
            fwd = dense_operator(
                lambda w: spacetime_half_inverse(w, spec), (m, m, n + 1))
            mult = smoother_multiplier_array(spec, axes).ravel()
            adj = q_v @ np.linalg.solve(r.T, mult[:, None] * r.T) @ q_v.T
            assert np.max(np.abs(adj - fwd.T)) < 1e-13

    def test_time_factor_breaks_symmetry(self):
        fwd = dense_operator(
            lambda w: spacetime_half_inverse(w, SmootherSpec("power", 4.0)),
            (4, 4, 4))
        assert np.max(np.abs(fwd - fwd.T)) > 1e-6


class TestSolveParabolic:
    def test_matches_normal_equation_oracle(self):
        m, n = 8, 4
        spec = SmootherSpec("power", 4.0)
        grid = star_grid(m, n=n)
        report = solve_parabolic(STAR_HEAT, grid, spec)
        system = assemble_parabolic(STAR_HEAT, grid)
        shape = (m, m, n + 1)
        c_mat = dense_from_apply(system.apply, shape, system.n_rows)
        half = dense_operator(lambda w: spacetime_half_inverse(w, spec),
                              shape)
        u_ref = normal_equation_solve(c_mat, half @ half.T, system.rhs)
        gap = np.max(np.abs(report.solution.ravel() - u_ref))
        assert gap < 1e-8 * np.max(np.abs(u_ref))

    def test_callable_smoother_matches_spec(self):
        spec = SmootherSpec("power", 6.0)
        system = assemble_parabolic(STAR_HEAT, star_grid(8, n=4))
        by_spec = pinv_solve(system, spec)
        by_callable = pinv_solve(
            system, lambda b: spacetime_half_inverse(b, spec))
        scale = np.max(np.abs(by_spec.solution))
        assert np.max(np.abs(by_callable.solution - by_spec.solution)) \
            < 1e-10 * scale

    def test_residual_and_error(self):
        report = solve_parabolic(STAR_HEAT, star_grid(10),
                                 SmootherSpec("power", 4.0))
        system = assemble_parabolic(STAR_HEAT, star_grid(10))
        assert report.residual_l2 <= 1e-7 * np.linalg.norm(system.rhs)
        assert (report.n_omega, report.n_gamma) == (28, 13)
        x = star_grid(10).space_axes[0].nodes
        ii, jj = system.interior.indices.T
        vals = exact_heat(x[ii][:, None], x[jj][:, None],
                          star_grid(10).time_axis.nodes[None, :])
        err = np.sqrt(np.mean((report.solution[ii, jj, :] - vals) ** 2))
        assert err < 1e-3

    def test_zero_data_gives_zero(self):
        quiet = ParabolicProblem(
            domain=star_domain(),
            initial=lambda x, y: np.zeros_like(x),
            lateral=dirichlet(lambda x, y, t: np.zeros_like(x)),
        )
        report = solve_parabolic(quiet, star_grid(8, n=5),
                                 SmootherSpec("power", 4.0))
        assert np.max(np.abs(report.solution)) < 1e-12


def decaying_mode(x, y, t):
    """u = exp(-2t) cos x cos y, a solution of u_t = lap(u)."""
    return np.exp(-2.0 * t) * np.cos(x) * np.cos(y)


def decaying_mode_flux(pts, nrm):
    """du/dnu of decaying_mode at space-time points with normals."""
    x, y, t = pts.T
    return -np.exp(-2.0 * t) * (nrm[:, 0] * np.sin(x) * np.cos(y)
                                + nrm[:, 1] * np.cos(x) * np.sin(y))


class TestLateralConditions:
    """Neumann and Robin lateral data need no code of their own: the
    lateral rows are whatever BoundaryConditionSpec the problem holds.
    On the star, with p = 6 and the time axis of parabolic-star, both
    converge at an order of at least p - 1."""

    @pytest.mark.parametrize("trace, flux", [(0.0, 1.0), (1.0, 1.0)],
                             ids=["neumann", "robin"])
    def test_fitted_order(self, trace, flux):
        def data(pts, nrm):
            return (trace * decaying_mode(*pts.T)
                    + flux * decaying_mode_flux(pts, nrm))

        problem = ParabolicProblem(
            domain=star_domain(),
            initial=lambda x, y: decaying_mode(x, y, 0.0),
            lateral=BoundaryConditionSpec(trace=trace, flux=flux, data=data))
        sizes, errors = [10, 14, 18, 22], []
        for m in sizes:
            grid = star_grid(m)
            system = assemble_parabolic(problem, grid)
            report = pinv_solve(system, SmootherSpec("power", 6.0))
            ii, jj = system.interior.indices.T
            coords = interior_coordinates(grid.space_axes, system.interior)
            exact = decaying_mode(coords[:, 0:1], coords[:, 1:2],
                                  grid.time_axis.nodes[None, :])
            errors.append(np.sqrt(np.mean(
                (report.solution[ii, jj, :] - exact) ** 2)))
        order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert order >= 5.0
