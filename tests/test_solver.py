"""QR factorization, conditioning, and the minimal-norm constrained solve."""

import numpy as np
import pytest
from scipy.linalg import svdvals
from scipy.sparse.linalg import ArpackNoConvergence

import ssem.solver
from ssem.assembly import (
    BoundaryConditionSpec,
    ConstraintSystem,
    EllipticOperatorSpec,
    SmootherSpec,
    apply_smoother_half_inverse,
    assemble_elliptic,
    smoother_multiplier_array,
)
from ssem.chebyshev import forward_cheb, inverse_cheb, roots_axis
from ssem.geometry import disc_domain
from ssem.solver import (
    RankDeficientError,
    condition_estimate,
    householder_qr,
    pinv_solve,
)

from oracles import chebyshev_vandermonde, dense_from_apply, dense_operator, \
    gram_schmidt_qr, normal_equation_solve

LAPLACE = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                               first_order={}, zeroth=None, source=0.0)
DIRICHLET = BoundaryConditionSpec(
    trace=1.0, flux=0.0,
    data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2)


def half_forward(u, spec):
    """S^{+1/2}: the reciprocal of the S^{-1/2} multiplier."""
    mult = smoother_multiplier_array(spec, np.shape(u))
    return inverse_cheb(forward_cheb(u) / mult)


def disc_system(m):
    axes = (roots_axis(m), roots_axis(m))
    return assemble_elliptic(disc_domain(), axes, LAPLACE, DIRICHLET)


def identity_system(m):
    """C = identity on the full m x m grid."""
    axes = (roots_axis(m), roots_axis(m))
    size = m * m
    vand = chebyshev_vandermonde(m)
    rng = np.random.default_rng(11)
    return ConstraintSystem(
        axes, interior=None, boundary=None,
        rhs=rng.standard_normal(size),
        apply_fn=lambda u: u.ravel(),
        matrix_fn=lambda: np.kron(vand, vand),
        n_omega=size, n_gamma=0)


class TestHouseholderQR:
    def test_identity(self):
        fac = householder_qr(np.eye(7))
        assert fac.apply_q(np.eye(7)) == pytest.approx(np.eye(7), abs=0.0)
        assert fac.r == pytest.approx(np.eye(7), abs=0.0)

    def test_random_tall(self):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((50, 20))
        fac = householder_qr(mat)
        q = fac.apply_q(np.eye(20))
        assert np.max(np.abs(q.T @ q - np.eye(20))) < 1e-12
        assert np.max(np.abs(q @ fac.r - mat)) \
            < 1e-11 * np.max(np.abs(mat))
        assert fac.r == pytest.approx(np.triu(fac.r), abs=0.0)

    def test_matches_gram_schmidt_oracle(self):
        mat = np.array([[2.0, -1.0, 0.5],
                        [1.0, 3.0, -2.0],
                        [0.0, 1.0, 4.0],
                        [-1.0, 0.5, 1.5],
                        [3.0, -2.0, 0.0],
                        [0.5, 1.0, -1.0]])
        fac = householder_qr(mat)
        q_ref, r_ref = gram_schmidt_qr(mat)
        q = fac.apply_q(np.eye(3))
        signs = np.sign(np.sum(q * q_ref, axis=0))
        assert q * signs == pytest.approx(q_ref, abs=1e-12)
        assert signs[:, None] * fac.r == pytest.approx(r_ref, abs=1e-12)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            householder_qr(np.ones((3, 5)))

    def test_rank_deficiency_names_column(self):
        col = np.linspace(0.0, 1.0, 8)
        mat = np.stack([col, col ** 2, col], axis=1)
        with pytest.raises(RankDeficientError) as err:
            householder_qr(mat)
        assert err.value.column == 2
        assert "index 2" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        mat = np.random.default_rng(15).standard_normal((5, 3))
        mat[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            householder_qr(mat)

    @pytest.mark.parametrize("shape", [(40, 40), (120, 31), (300, 150)])
    def test_apply_q_matches_reduced_qr(self, shape):
        rng = np.random.default_rng(16)
        mat = rng.standard_normal(shape)
        n = shape[1]
        fac = householder_qr(mat)
        q_ref, r_ref = np.linalg.qr(mat, mode="reduced")
        signs = np.sign(np.diag(r_ref)) * np.sign(np.diag(fac.r))
        z = rng.standard_normal(n)
        block = rng.standard_normal((n, 4))
        qz = fac.apply_q(z)
        q_block = fac.apply_q(block)
        assert qz.shape == (shape[0],)
        assert q_block.shape == (shape[0], 4)
        assert np.max(np.abs(qz - q_ref @ (signs * z))) < 1e-12
        assert np.max(np.abs(q_block - q_ref @ (signs[:, None] * block))) \
            < 1e-12

    def test_apply_q_rejects_wrong_length(self):
        fac = householder_qr(np.random.default_rng(17).standard_normal((9, 4)))
        with pytest.raises(ValueError, match="apply_q expects"):
            fac.apply_q(np.ones(9))


class TestConditionEstimate:
    def test_orthogonal(self):
        q, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((9, 9)))
        assert condition_estimate(q) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert condition_estimate(np.diag([1.0, 1e-3])) \
            == pytest.approx(1e3, rel=1e-12)

    def test_singular_is_inf(self):
        assert condition_estimate(np.diag([1.0, 0.0])) == np.inf

    @staticmethod
    def graded_r(n=300, seed=18):
        """Upper-triangular R with singular values spread from 1 to 1e10."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mat = (u * np.logspace(0.0, 10.0, n)) @ v.T
        return np.linalg.qr(mat, mode="r")

    def test_lanczos_matches_dense_svd(self):
        r = self.graded_r()
        assert r.shape[0] >= ssem.solver.LANCZOS_MIN_ORDER
        s = svdvals(r)
        assert condition_estimate(r) == pytest.approx(s[0] / s[-1], rel=1e-9)

    def test_repeat_calls_bit_identical(self):
        r = self.graded_r()
        assert condition_estimate(r) == condition_estimate(r)

    def test_arpack_failure_falls_back_to_svd(self, monkeypatch):
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(1)
            raise ArpackNoConvergence("synthetic", np.empty(0),
                                      np.empty((0, 0)))

        monkeypatch.setattr(ssem.solver, "eigsh", no_convergence)
        r = self.graded_r()
        s = np.linalg.svd(r, compute_uv=False)
        assert condition_estimate(r) == s[0] / s[-1]
        assert calls

    def test_zero_diagonal_is_inf_above_cutoff(self):
        r = self.graded_r()
        r[7, 7] = 0.0
        assert condition_estimate(r) == np.inf

    def test_grows_with_resolution(self):
        spec = SmootherSpec("power", 8.0)
        conds = [pinv_solve(disc_system(m), spec).cond_estimate
                 for m in (10, 14, 18, 22)]
        assert all(a < b for a, b in zip(conds, conds[1:]))

    def test_cond_is_that_of_the_grid_matrix(self):
        # cond is read from R of the coefficient-space matrix; it must be
        # the condition number of M = S^{-1/2} C^T on the grid
        system = disc_system(10)
        spec = SmootherSpec("power", 6.0)
        c_mat = dense_from_apply(system.apply, (10, 10), system.n_rows)
        half = dense_operator(
            lambda u: apply_smoother_half_inverse(u, spec), (10, 10))
        s = np.linalg.svd((c_mat @ half).T, compute_uv=False)
        report = pinv_solve(system, spec)
        assert report.cond_estimate == pytest.approx(s[0] / s[-1], rel=1e-8)


class TestPinvSolve:
    def test_identity_constraints(self):
        system = identity_system(5)
        report = pinv_solve(system, lambda b: b)
        assert report.solution == pytest.approx(
            system.rhs.reshape(5, 5), abs=1e-13)
        assert report.residual_linf < 1e-13
        assert (report.n_omega, report.n_gamma) == (25, 0)

    def test_matches_normal_equation_oracle(self):
        system = disc_system(8)
        spec = SmootherSpec("power", 4.0)
        report = pinv_solve(
            system, lambda b: apply_smoother_half_inverse(b, spec, d=2))
        c_mat = dense_from_apply(system.apply, (8, 8), system.n_rows)
        s_inv = dense_operator(
            lambda u: apply_smoother_half_inverse(
                apply_smoother_half_inverse(u, spec), spec), (8, 8))
        u_ref = normal_equation_solve(c_mat, s_inv, system.rhs)
        scale = np.max(np.abs(u_ref))
        assert np.max(np.abs(report.solution.ravel() - u_ref)) < 1e-8 * scale

    def test_dirichlet_disc_residual(self):
        system = disc_system(22)
        spec = SmootherSpec("power", 4.0)
        report = pinv_solve(
            system, lambda b: apply_smoother_half_inverse(b, spec, d=2))
        assert report.residual_linf <= 1e-8 * np.max(np.abs(system.rhs))

    def test_minimal_norm_among_solutions(self):
        system = disc_system(8)
        spec = SmootherSpec("power", 4.0)
        report = pinv_solve(system, spec)
        base = np.linalg.norm(half_forward(report.solution, spec))
        # S^{-1/2} maps the null space of C S^{-1/2} onto that of C
        c_mat = dense_from_apply(system.apply, (8, 8), system.n_rows)
        half = dense_operator(
            lambda u: apply_smoother_half_inverse(u, spec), (8, 8))
        null = np.linalg.svd(c_mat @ half)[2][system.n_rows:].T
        rng = np.random.default_rng(14)
        for _ in range(100):
            proj = null @ rng.standard_normal(null.shape[1])
            w = apply_smoother_half_inverse(proj.reshape(8, 8), spec)
            assert np.max(np.abs(system.apply(w))) < 1e-10
            perturbed = np.linalg.norm(half_forward(report.solution + w,
                                                    spec))
            assert perturbed >= base * (1.0 - 1e-12)

    def test_deterministic(self):
        spec = SmootherSpec("power", 4.0)
        half_inv = lambda b: apply_smoother_half_inverse(b, spec, d=2)
        first = pinv_solve(disc_system(10), half_inv)
        second = pinv_solve(disc_system(10), half_inv)
        assert np.array_equal(first.solution, second.solution)
        assert first.residual_l2 == second.residual_l2
        assert first.residual_linf == second.residual_linf
        assert first.cond_estimate == second.cond_estimate

    def test_rank_deficiency_propagates(self):
        axes = (roots_axis(4), roots_axis(4))
        vand = chebyshev_vandermonde(4)
        system = ConstraintSystem(
            axes, None, None, np.array([1.0, 1.0]),
            apply_fn=lambda u: np.array([u[0, 0], u[0, 0]]),
            matrix_fn=lambda: np.kron(vand, vand)[[0, 0]],
            n_omega=0, n_gamma=2)
        with pytest.raises(RankDeficientError):
            pinv_solve(system, lambda b: b)

    def test_spec_and_callable_agree(self):
        system = disc_system(8)
        spec = SmootherSpec("power", 4.0)
        by_spec = pinv_solve(system, spec)
        by_callable = pinv_solve(
            system, lambda b: apply_smoother_half_inverse(b, spec, d=2))
        scale = np.max(np.abs(by_spec.solution))
        assert np.max(np.abs(by_callable.solution - by_spec.solution)) \
            < 1e-10 * scale
        assert by_callable.cond_estimate == pytest.approx(
            by_spec.cond_estimate, rel=1e-10)

    def test_spec_needs_a_grid_smoother(self):
        with pytest.raises(ValueError, match="no grid smoother"):
            pinv_solve(identity_system(3), SmootherSpec("power", 4.0))

    def test_non_diagonal_smoother_rejected(self):
        system = disc_system(8)
        with pytest.raises(ValueError, match="not diagonal") as err:
            pinv_solve(system, lambda b: np.roll(b, 1, axis=-1))
        assert "relative defect" in str(err.value)

    def test_grid_space_smoother_rejected(self):
        # pointwise grid weights are not a frequency multiplier
        system = disc_system(8)
        weights = 1.0 + np.arange(64.0).reshape(8, 8)
        with pytest.raises(ValueError, match="not diagonal"):
            pinv_solve(system, lambda b: weights * b)
