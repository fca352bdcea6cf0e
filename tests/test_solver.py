"""QR factorization, conditioning, and the minimal-norm constrained solve."""

import ctypes
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import svdvals

import ssem.experiments
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
from ssem.chebyshev import (
    extrema_axis,
    forward_cheb,
    gram_factor,
    inverse_cheb,
    roots_axis,
)
from ssem.geometry import disc_domain, star_domain
from ssem.parabolic import ParabolicProblem, SpaceTimeGrid, assemble_parabolic
from ssem.solver import (
    PHASES,
    RANK_TOL,
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


# the TestHouseholderQR shapes
QR_SHAPES = [(7, 7), (50, 20), (6, 3), (40, 40), (120, 31), (300, 150)]


@pytest.fixture(params=["lapack", "fallback"])
def qr_path(request, monkeypatch):
    """Run a test on numpy's bundled LAPACK through ctypes, and on the
    same routines from SciPy's LAPACK."""
    if request.param == "fallback":
        monkeypatch.setattr(ssem.solver, "_bundled_lapack", lambda: None)
    elif ssem.solver._bundled_lapack() is None:
        pytest.skip("numpy's bundled LAPACK is not available")
    return request.param



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


class TestQRPaths:
    """The ctypes geqrt route and the numpy.linalg.qr fallback."""

    @pytest.mark.parametrize("shape", QR_SHAPES)
    def test_bit_identical_to_numpy_raw(self, qr_path, shape):
        # Both paths run dgeqrt, which rounds differently from numpy's
        # dgeqrf: each is held to numpy's factorization to rounding, and
        # to itself bit for bit on a repeat call.
        mat = np.random.default_rng(19).standard_normal(shape)
        n = shape[1]
        h_ref, _ = np.linalg.qr(mat, mode="raw")
        r_ref = np.triu(h_ref[:, :n].T)
        fac = householder_qr(mat)
        q = fac.apply_q(np.eye(n))
        assert np.max(np.abs(q @ fac.r - mat)) <= 1e-13 * np.max(np.abs(mat))
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
        assert np.max(np.abs(fac.r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
        assert np.array_equal(np.sign(np.diag(fac.r)), np.sign(np.diag(r_ref)))
        # the reflectors' tau: the diagonal of each block reflector's T
        nb = fac.t.shape[0]
        tau = fac.t[np.arange(n) % nb, np.arange(n)]
        assert np.all(((tau >= 1.0) & (tau <= 2.0)) | (tau == 0.0))
        again = householder_qr(mat)
        assert np.array_equal(again.h, fac.h)
        assert np.array_equal(again.t, fac.t)
        assert np.array_equal(again.r, fac.r)

    def test_fallback_matches_bundled(self, monkeypatch):
        # SciPy's dgeqrt/dgemqrt/dtrtrs against numpy's bundled ones on
        # one matrix: the same factorization, Q and back-solve
        if ssem.solver._bundled_lapack() is None:
            pytest.skip("numpy's bundled LAPACK is not available")
        rng = np.random.default_rng(28)
        mat = rng.standard_normal((300, 150))
        z = rng.standard_normal(150)
        runs = []
        for resolver in (ssem.solver._bundled_lapack, lambda: None):
            monkeypatch.setattr(ssem.solver, "_bundled_lapack", resolver)
            fac = householder_qr(mat)
            runs.append((fac.r, fac.apply_q(z),
                         ssem.solver.solve_triangular(fac.r, z)))
        for bundled, fallback in zip(*runs):
            assert np.max(np.abs(fallback - bundled)) \
                <= 1e-13 * np.max(np.abs(bundled))

    def test_bundled_wrappers_refuse_other_layouts(self):
        # they hand raw pointers to LAPACK: a C-ordered or float32 buffer
        # is refused, not read with the wrong strides
        if ssem.solver._bundled_lapack() is None:
            pytest.skip("numpy's bundled LAPACK is not available")
        geqrt, _, trtrs = ssem.solver._bundled_lapack()
        with pytest.raises(ValueError, match="F-contiguous float64"):
            geqrt(4, np.ones((6, 4)), overwrite_a=1)
        with pytest.raises(ValueError, match="F-contiguous float64"):
            trtrs(np.eye(3, dtype=np.float32), np.ones((3, 1)), trans=1)

    def test_c_ordered_argument_unchanged(self, qr_path):
        mat = np.random.default_rng(20).standard_normal((60, 25))
        before = mat.copy()
        householder_qr(mat)
        assert np.array_equal(mat, before)

    def test_f_ordered_argument_factored_in_place(self):
        if ssem.solver._bundled_lapack() is None:
            pytest.skip("numpy's bundled LAPACK is not available")
        mat = np.asfortranarray(
            np.random.default_rng(21).standard_normal((60, 25)))
        ref = householder_qr(mat.copy())
        fac = householder_qr(mat)
        assert np.shares_memory(fac.h, mat)
        assert np.array_equal(mat, fac.h.T)
        assert np.array_equal(fac.h, ref.h)
        assert np.array_equal(fac.t, ref.t)
        assert np.array_equal(fac.r, ref.r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, qr_path, bad):
        mat = np.random.default_rng(15).standard_normal((5, 3))
        mat[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            householder_qr(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_past_first_block_rejected(self, qr_path,
                                                  monkeypatch, bad):
        # in the last column of a square matrix, past dgeqrt's first
        # column block and the norm pass's first 16-column block: its
        # reflector is trivial (tau = 0), so only R carries the NaN
        monkeypatch.setattr(ssem.solver, "BLOCK_BYTES", 8 * 200 * 16)
        mat = np.random.default_rng(22).standard_normal((200, 200))
        mat[40, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            householder_qr(mat)

    @pytest.mark.parametrize("n, block_bytes", [(150, 8 * 150 * 7),
                                                (400, 4 << 20)])
    def test_norm_estimate_matches_two_pass_formula(self, monkeypatch, n,
                                                    block_bytes):
        # the rank threshold's sqrt(||R||_1 ||R||_inf), once from a pass
        # over R's column blocks (7 columns at a time, and one block),
        # against the column and row sums of the whole |R|
        monkeypatch.setattr(ssem.solver, "BLOCK_BYTES", block_bytes)
        fac = householder_qr(
            np.random.default_rng(23).standard_normal((n + 50, n)))
        for r in (fac.r, np.ascontiguousarray(fac.r)):
            want = np.sqrt(np.abs(r).sum(axis=0).max()
                           * np.abs(r).sum(axis=1).max())
            assert ssem.solver._norm_estimate(r) == pytest.approx(
                want, rel=1e-15)

    def test_triangular_solves_on_both_paths(self, qr_path):
        # the back-solve and the Lanczos cond run on the selected binding
        rng = np.random.default_rng(26)
        n = 200
        r = np.asfortranarray(np.triu(rng.standard_normal((n, n)))
                              + np.sqrt(n) * np.eye(n))
        b = rng.standard_normal(n)
        z = ssem.solver.solve_triangular(r, b)
        assert np.max(np.abs(r.T @ z - b)) <= 1e-13 * np.max(np.abs(b))
        graded = TestConditionEstimate.graded_r(n, 4)
        s = svdvals(graded)
        assert condition_estimate(graded) == pytest.approx(s[0] / s[-1],
                                                           rel=1e-9)

    def test_r_is_f_ordered(self, qr_path):
        # LAPACK's triangular solves read R in place
        fac = householder_qr(np.random.default_rng(24).standard_normal((90, 40)))
        assert fac.r.flags.f_contiguous

    def test_bundled_lapack_selected_when_shipped(self):
        # a numpy that still ships scipy-openblas but renames any of the
        # three symbols must fail here, not fall back silently to SciPy
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas64_*.so"))
        if not libs:
            pytest.skip("this numpy does not bundle scipy-openblas")
        exported = [ctypes.CDLL(str(path)) for path in libs]
        for name in ("dgeqrt", "dgemqrt", "dtrtrs"):
            assert any(hasattr(lib, f"scipy_{name}_64_") for lib in exported)
        assert ssem.solver._bundled_lapack() is not None
        assert ssem.solver._lapack() is ssem.solver._bundled_lapack()


class TestRankMargin:
    def test_margin_recomputed_from_r(self, qr_path):
        rng = np.random.default_rng(27)
        mat = rng.standard_normal((90, 40))
        mat[:, 7] = mat[:, 3] + 1e-9 * rng.standard_normal(90)
        fac = householder_qr(mat)
        threshold = RANK_TOL * ssem.solver._norm_estimate(fac.r)
        want = np.min(np.abs(np.diag(fac.r))) / threshold
        assert fac.rank_margin == want
        assert 1.0 < fac.rank_margin < 1e6

    def test_report_carries_the_factorization_margin(self, monkeypatch):
        factored = []
        real = ssem.solver.householder_qr

        def recorded(mat):
            factored.append(real(mat))
            return factored[-1]

        monkeypatch.setattr(ssem.solver, "householder_qr", recorded)
        system = disc_system(12)
        report = pinv_solve(system, SmootherSpec("power", 4.0))
        r = factored[0].r
        threshold = RANK_TOL * ssem.solver._norm_estimate(r)
        assert report.rank_margin == np.min(np.abs(np.diag(r))) / threshold
        assert (report.n_rows, report.grid_size) == (system.n_rows, 144)
        assert report.n_rows == report.n_omega + report.n_gamma
        assert r.shape == (report.n_rows, report.n_rows)


class TestPeakMemory:
    """A warm pinv_solve holds about one matrix (plus R) at its peak."""

    @pytest.mark.parametrize("problem_id, m", [("parabolic-star", 14),
                                               ("dirichlet-3d", 12)])
    def test_peak_within_two_matrices(self, problem_id, m):
        system, _ = ssem.experiments._PROBLEMS[problem_id].build(m)
        spec = SmootherSpec("power", 4.0)
        pinv_solve(system, spec)
        matrix_bytes = 8 * system.n_rows * int(np.prod(system.grid_shape))
        tracemalloc.start()
        try:
            pinv_solve(system, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * matrix_bytes


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

    @pytest.mark.parametrize("n, seed", [(128, 1), (200, 2), (400, 3)])
    @pytest.mark.parametrize("kind", ["graded", "random"])
    def test_lanczos_matches_dense_svd_over_orders(self, n, seed, kind):
        # orders from the dense-SVD cutoff up
        if kind == "graded":
            r = self.graded_r(n, seed)
        else:
            rng = np.random.default_rng(seed)
            r = np.triu(rng.standard_normal((n, n))) + np.sqrt(n) * np.eye(n)
        assert n >= ssem.solver.LANCZOS_MIN_ORDER
        s = svdvals(r)
        assert condition_estimate(r) == pytest.approx(s[0] / s[-1], rel=1e-9)

    def test_repeat_calls_bit_identical(self):
        r = self.graded_r()
        assert condition_estimate(r) == condition_estimate(r)

    def test_step_cap_falls_back_to_svd(self, monkeypatch):
        # two Lanczos steps cannot meet the Ritz residual bound on R of
        # order 300: the run gives up and the dense SVD answers, exactly
        runs = []
        real = ssem.solver._largest_eigenvalue

        def counted(matvec, n):
            runs.append(real(matvec, n))
            return runs[-1]

        monkeypatch.setattr(ssem.solver, "LANCZOS_MAX_STEPS", 2)
        monkeypatch.setattr(ssem.solver, "_largest_eigenvalue", counted)
        r = self.graded_r()
        s = np.linalg.svd(r, compute_uv=False)
        assert condition_estimate(r) == s[0] / s[-1]
        assert runs == [None]

    def test_lanczos_stops_on_the_ritz_residual_bound(self):
        # on a diagonal operator with a known top eigenvalue the run ends
        # well inside the step cap, at that eigenvalue to LANCZOS_TOL
        d = np.linspace(1.0, 2.0, 400)
        d[-1] = 4.0
        steps = []

        def matvec(x):
            steps.append(1)
            return d * x

        top = ssem.solver._largest_eigenvalue(matvec, len(d))
        assert top == pytest.approx(4.0, rel=1e-13)
        assert len(steps) < ssem.solver.LANCZOS_MAX_STEPS

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

    def test_phases_account_for_the_solve(self):
        report = pinv_solve(disc_system(10), SmootherSpec("power", 4.0))
        assert tuple(report.phases) == PHASES
        assert all(t >= 0.0 for t in report.phases.values())
        assert sum(report.phases.values()) <= report.seconds

    def test_rank_deficiency_seen_by_cond(self):
        # A Kahan matrix: every |R_ii| clears the threshold by nine orders
        # of magnitude, but sigma_min shows the dependence (cond ~ 1e17)
        n, m = 100, 12
        c, s = np.cos(1.2), np.sin(1.2)
        kahan = (s ** np.arange(n))[:, None] \
            * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        q, _ = np.linalg.qr(
            np.random.default_rng(25).standard_normal((m * m, n)))
        factored = q @ kahan
        householder_qr(factored)
        # rows of A that the identity smoother and the roots-axis Gram
        # scale turn back into the factored matrix
        gram = np.diag(gram_factor(roots_axis(m)))
        axes = (roots_axis(m), roots_axis(m))
        system = ConstraintSystem(
            axes, None, None, np.ones(n),
            apply_fn=lambda u: np.zeros(n),
            matrix_fn=lambda: factored.T * np.outer(gram, gram).ravel(),
            n_omega=n, n_gamma=0)
        bound = re.escape(f"above bound {1.0 / RANK_TOL:.3e}")
        with pytest.raises(RankDeficientError, match=f"cond = .* {bound}") \
                as err:
            pinv_solve(system, lambda b: b)
        assert err.value.column is None

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


class TestScaleRows:
    def test_matches_dense_product(self, monkeypatch):
        # rows of A diag(mu * scale) kron(I, I, R_t^{-1}) on a space-time
        # system, five rows per block so the last block is partial
        m, n = 6, 3
        problem = ParabolicProblem(domain=star_domain(),
                                   initial=lambda x, y: x * y,
                                   lateral=lambda points, t: points[:, 0] + t)
        grid = SpaceTimeGrid(space_axes=(roots_axis(m), roots_axis(m)),
                             time_axis=extrema_axis(n, 0.0, 1.0))
        system = assemble_parabolic(problem, grid)
        shape = system.grid_shape
        a_mat = system.coefficient_matrix()
        mult = smoother_multiplier_array(SmootherSpec("power", 4.0), shape)
        gram = np.diag(gram_factor(roots_axis(m)))
        scale = np.multiply.outer(1.0 / np.outer(gram, gram), np.ones(n + 1))
        r_t_inv = np.linalg.inv(gram_factor(grid.time_axis))
        want = a_mat @ np.diag((mult * scale).ravel()) \
            @ np.kron(np.eye(m * m), r_t_inv)

        monkeypatch.setattr(ssem.solver, "BLOCK_BYTES", 5 * 8 * a_mat.shape[1])
        assert system.n_rows % 5
        got_scale, inverses = ssem.solver._gram_inverse(system.axes)
        assert got_scale == pytest.approx(scale, rel=1e-15)
        ssem.solver._scale_rows(a_mat.reshape((system.n_rows,) + shape),
                                mult * got_scale, inverses)
        assert np.max(np.abs(a_mat - want)) <= 1e-14 * np.max(np.abs(want))
