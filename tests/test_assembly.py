"""Constraint assembly: operator rows, boundary rows, smoothers, A = C V."""

import numpy as np
import pytest

from ssem.assembly import (
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
    smoother_multiplier_array,
)
from ssem.chebyshev import (
    analysis,
    forward_cheb,
    gram_factor,
    roots_axis,
    synthesis,
)
from ssem.geometry import (
    classify_interior,
    disc_domain,
    interior_coordinates,
    sample_boundary_2d,
    star_domain,
)

from ssem.solver import pinv_solve

from oracles import chebyshev_vandermonde, dense_from_apply

LAPLACE = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                               first_order={}, zeroth=None, source=0.0)
VARCOEF = EllipticOperatorSpec(
    second_order={(0, 0): lambda x, y: 2.0 + y, (1, 1): lambda x, y: 2.0 - x},
    first_order={}, zeroth=None,
    source=lambda x, y: -12.0 * (x + y))


def disc_setup(m=10):
    axes = (roots_axis(m), roots_axis(m))
    domain = disc_domain()
    interior = classify_interior(domain, axes)
    coords = interior_coordinates(axes, interior)
    return axes, domain, interior, coords


class TestApplyOperator:
    def test_harmonic_polynomial(self):
        axes, _, interior, _ = disc_setup()
        u = axes[0].nodes[:, None] ** 2 - axes[1].nodes[None, :] ** 2
        vals = apply_operator(u, LAPLACE, interior, axes)
        assert np.max(np.abs(vals)) < 1e-10

    def test_variable_coefficients(self):
        m = 12
        axes = (roots_axis(m), roots_axis(m))
        interior = classify_interior(star_domain(), axes)
        coords = interior_coordinates(axes, interior)
        u = axes[0].nodes[:, None] ** 3 + axes[1].nodes[None, :] ** 3
        vals = apply_operator(u, VARCOEF, interior, axes)
        expect = -12.0 * (coords[:, 0] + coords[:, 1])
        assert np.max(np.abs(vals - expect)) < 1e-9

    def test_zeroth_order_is_restriction(self):
        axes, _, interior, coords = disc_setup()
        rng = np.random.default_rng(0)
        u = rng.standard_normal((10, 10))
        spec = EllipticOperatorSpec(second_order={}, first_order={},
                                    zeroth=1.0, source=0.0)
        vals = apply_operator(u, spec, interior, axes)
        assert vals == pytest.approx(u[tuple(interior.indices.T)], abs=0.0)

    def test_first_order_term(self):
        axes, _, interior, coords = disc_setup()
        u = np.broadcast_to(axes[0].nodes[:, None] ** 2, (10, 10)).copy()
        spec = EllipticOperatorSpec(second_order={}, first_order={0: 1.0},
                                    zeroth=None, source=0.0)
        vals = apply_operator(u, spec, interior, axes)
        assert vals == pytest.approx(2.0 * coords[:, 0], abs=1e-11)


class TestBoundaryRow:
    def test_dirichlet_trace(self):
        axes = (roots_axis(10), roots_axis(10))
        u = axes[0].nodes[:, None] ** 2 - axes[1].nodes[None, :] ** 2
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        y = (0.4321, -0.177)
        row = boundary_row(y, (1.0, 0.0), bc, axes)
        assert np.sum(row * u) == pytest.approx(y[0] ** 2 - y[1] ** 2,
                                                abs=1e-11)

    def test_neumann_flux(self):
        axes = (roots_axis(12), roots_axis(12))
        u = axes[0].nodes[:, None] ** 3 + axes[1].nodes[None, :] ** 3
        bc = BoundaryConditionSpec(trace=0.0, flux=1.0, data=0.0)
        y = (0.5, 0.62)
        nu = (0.8, -0.6)
        row = boundary_row(y, nu, bc, axes)
        expect = 3 * y[0] ** 2 * nu[0] + 3 * y[1] ** 2 * nu[1]
        assert np.sum(row * u) == pytest.approx(expect, abs=1e-9)

    def test_robin_on_constant(self):
        axes = (roots_axis(9), roots_axis(9))
        bc = BoundaryConditionSpec(trace=1.0, flux=1.0, data=0.0)
        row = boundary_row((0.3, 0.3), (0.6, 0.8), bc, axes)
        assert np.sum(row * np.ones((9, 9))) == pytest.approx(1.0, abs=1e-11)

    def test_degenerate_coefficients_rejected(self):
        axes = (roots_axis(8), roots_axis(8))
        bc = BoundaryConditionSpec(trace=0.0, flux=0.0, data=0.0)
        with pytest.raises(ValueError):
            assemble_elliptic(disc_domain(), axes, LAPLACE, bc)


class TestBuildRhs:
    def test_zero_source_unit_data(self):
        axes, domain, interior, _ = disc_setup()
        boundary = sample_boundary_2d(domain, 10)
        op = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                                  first_order={}, zeroth=None, source=0.0)
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=1.0)
        b = build_rhs(op, bc, interior, boundary, axes)
        assert b.shape == (interior.count + boundary.count,)
        assert b[:interior.count] == pytest.approx(
            np.zeros(interior.count), abs=0.0)
        assert b[interior.count:] == pytest.approx(
            np.ones(boundary.count), abs=0.0)

    def test_dirichlet_disc_data(self):
        axes, domain, interior, _ = disc_setup()
        boundary = sample_boundary_2d(domain, 10)
        bc = BoundaryConditionSpec(
            trace=1.0, flux=0.0,
            data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2)
        b = build_rhs(LAPLACE, bc, interior, boundary, axes)
        expect = boundary.points[:, 0] ** 2 - boundary.points[:, 1] ** 2
        assert b[interior.count:] == pytest.approx(expect, abs=1e-14)


class TestSmoother:
    def test_constant_unchanged(self):
        u = np.ones((6, 6))
        out = apply_smoother_half_inverse(u, SmootherSpec("power", 4.0))
        assert out == pytest.approx(u, abs=1e-13)

    def test_product_mode_p2(self):
        m = 9
        theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
        u = np.outer(np.cos(3 * theta), np.cos(4 * theta))
        out = apply_smoother_half_inverse(u, SmootherSpec("power", 2.0))
        assert out == pytest.approx(u / 26.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        spec = SmootherSpec("power", 6.0)
        lhs = np.sum(apply_smoother_half_inverse(u, spec) * v)
        rhs = np.sum(u * apply_smoother_half_inverse(v, spec))
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))

    def test_exponential_mode(self):
        m = 8
        theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
        u = np.outer(np.cos(3 * theta), np.cos(4 * theta))
        out = apply_smoother_half_inverse(u, SmootherSpec("exp"))
        assert out == pytest.approx(u * np.exp(-2.5), abs=1e-12)

    def test_forward_inverts_half_inverse(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((7, 7))
        spec = SmootherSpec("power", 4.0)
        back = apply_smoother_half_forward(
            apply_smoother_half_inverse(u, spec), spec)
        assert back == pytest.approx(u, abs=1e-10)

    def test_multiplier_positive(self):
        for spec in (SmootherSpec("power", 8.0), SmootherSpec("exp")):
            k2 = np.arange(64.0).reshape(8, 8) ** 2
            assert np.all(spec.half_inverse_multiplier(k2) > 0)

    def test_batched_leading_axis(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((3, 8, 8))
        spec = SmootherSpec("power", 4.0)
        batched = apply_smoother_half_inverse(u, spec, d=2)
        rows = np.stack([apply_smoother_half_inverse(r, spec) for r in u])
        assert batched == pytest.approx(rows, abs=1e-13)


def dirichlet_disc_system(m=10):
    axes = (roots_axis(m), roots_axis(m))
    bc = BoundaryConditionSpec(
        trace=1.0, flux=0.0,
        data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2)
    return assemble_elliptic(disc_domain(), axes, LAPLACE, bc)


def factored_transpose(system, spec):
    """M' = R_V^{-T} diag(mu) A^T, the matrix pinv_solve factors."""
    r_v = np.kron(*(gram_factor(ax) for ax in system.axes))
    mult = smoother_multiplier_array(spec, system.grid_shape).ravel()
    return np.linalg.solve(r_v.T, mult[:, None]
                           * system.coefficient_matrix().T)


class TestConstraintSystem:
    def test_adjoint_identity_on_builtin(self):
        system = dirichlet_disc_system()
        rng = np.random.default_rng(6)
        c = rng.standard_normal((10, 10))
        v = rng.standard_normal(system.n_rows)
        lhs = np.dot(system.apply(synthesis(c, system.axes)), v)
        rhs = np.dot(c.ravel(), system.coefficient_matrix().T @ v)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_exact_polynomial_residual_disc(self):
        system = dirichlet_disc_system()
        axes = system.axes
        u = axes[0].nodes[:, None] ** 2 - axes[1].nodes[None, :] ** 2
        res = system.residual(u)
        assert np.max(np.abs(res)) < 1e-9 * np.max(np.abs(system.rhs))

    def test_exact_polynomial_residual_star(self):
        m = 10
        axes = (roots_axis(m), roots_axis(m))
        bc = BoundaryConditionSpec(
            trace=0.0, flux=1.0,
            data=lambda pts, nrm: 3.0 * pts[:, 0] ** 2 * nrm[:, 0]
            + 3.0 * pts[:, 1] ** 2 * nrm[:, 1])
        system = assemble_elliptic(star_domain(), axes, VARCOEF, bc)
        u = axes[0].nodes[:, None] ** 3 + axes[1].nodes[None, :] ** 3
        res = system.residual(u)
        assert np.max(np.abs(res)) < 1e-9 * np.max(np.abs(system.rhs))

    def test_row_counts(self):
        system = dirichlet_disc_system()
        assert (system.n_omega, system.n_gamma) == (40, 12)
        assert system.n_rows == 52


class TestMaterialize:
    def test_shape(self):
        mat = dirichlet_disc_system().coefficient_matrix()
        assert mat.shape == (52, 100)

    def test_matrix_recovers_constraints(self):
        system = dirichlet_disc_system()
        mat = system.coefficient_matrix()
        rng = np.random.default_rng(7)
        u = rng.standard_normal((10, 10))
        via_matrix = mat @ forward_cheb(u).ravel()
        via_ops = system.apply(u)
        assert np.max(np.abs(via_matrix - via_ops)) \
            < 1e-10 * np.max(np.abs(via_ops))

    def test_transpose_recovers_constraints(self):
        system = dirichlet_disc_system()
        spec = SmootherSpec("power", 4.0)
        mat = factored_transpose(system, spec)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((10, 10))
        r_v = np.kron(*(gram_factor(ax) for ax in system.axes))
        via_matrix = mat.T @ (r_v @ analysis(u, system.axes).ravel())
        via_ops = system.apply(apply_smoother_half_inverse(u, spec))
        assert np.max(np.abs(via_matrix - via_ops)) \
            < 1e-10 * np.max(np.abs(via_ops))

    def test_random_columns_against_dense_oracle(self):
        # M = S^{-1/2} C^T = Q_V M' with Q_V = V R_V^{-1}, so M' = R_V^{-T} V^T M
        system = dirichlet_disc_system(8)
        spec = SmootherSpec("power", 4.0)
        mat = factored_transpose(system, spec)
        dense_c = dense_from_apply(system.apply, (8, 8), system.n_rows)
        v = np.kron(chebyshev_vandermonde(8), chebyshev_vandermonde(8))
        r_v = np.kron(*(gram_factor(ax) for ax in system.axes))
        rng = np.random.default_rng(8)
        for i in rng.choice(system.n_rows, size=5, replace=False):
            grid_col = apply_smoother_half_inverse(
                dense_c[i].reshape(8, 8), spec).ravel()
            col = np.linalg.solve(r_v.T, v.T @ grid_col)
            assert np.max(np.abs(mat[:, i] - col)) \
                < 1e-10 * np.max(np.abs(col))

    def test_random_rows_against_dense_oracle(self):
        system = dirichlet_disc_system(8)
        mat = system.coefficient_matrix()
        dense_c = dense_from_apply(system.apply, (8, 8), system.n_rows)
        v1 = chebyshev_vandermonde(8)
        rng = np.random.default_rng(8)
        for i in rng.choice(system.n_rows, size=5, replace=False):
            row = (v1.T @ dense_c[i].reshape(8, 8) @ v1).ravel()
            assert np.max(np.abs(mat[i] - row)) < 1e-10 * np.max(np.abs(row))

    def test_fresh_array_per_call(self):
        system = dirichlet_disc_system()
        first = system.coefficient_matrix()
        first[:] = 0.0
        assert np.any(system.coefficient_matrix() != 0.0)

    def test_identity_smoother_single_node_constraint(self):
        axes = (roots_axis(4), roots_axis(4))
        row = np.zeros((4, 4))
        row[1, 2] = 1.0
        v1 = chebyshev_vandermonde(4)
        system = ConstraintSystem(
            axes, interior=None, boundary=None, rhs=np.array([5.0]),
            apply_fn=lambda u: np.array([u[1, 2]]),
            matrix_fn=lambda: np.kron(v1, v1)[[6]],
            n_omega=0, n_gamma=1)
        report = pinv_solve(system, lambda b: b)
        assert report.solution == pytest.approx(5.0 * row, abs=1e-13)

    def test_under_resolved_grid_rejected(self):
        axes = (roots_axis(2), roots_axis(2))
        rhs = np.zeros(5)
        system = ConstraintSystem(
            axes, None, None, rhs,
            apply_fn=lambda u: np.zeros(5),
            matrix_fn=lambda: np.zeros((5, 4)),
            n_omega=5, n_gamma=0)
        with pytest.raises(ValueError, match="under-resolved"):
            pinv_solve(system, SmootherSpec("power", 4.0))
