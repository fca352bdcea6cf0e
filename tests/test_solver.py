"""QR factorization, conditioning, and the minimal-norm constrained solve."""

import ctypes
import re
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

import ssem.assembly
import ssem.experiments
import ssem.solver
from ssem.assembly import (
    BoundaryConditionSpec,
    ConstraintSystem,
    EllipticOperatorSpec,
    SmootherSpec,
    apply_smoother_half_inverse,
    assemble_elliptic,
    build_system,
    smoother_multiplier_array,
)
from ssem.chebyshev import (
    extrema_axis,
    forward_cheb,
    inverse_cheb,
    roots_axis,
)
from ssem.geometry import (
    BoundaryPointSet,
    InteriorIndexSet,
    disc_domain,
    star_domain,
)
from ssem.parabolic import ParabolicProblem, SpaceTimeGrid, assemble_parabolic
from ssem.solver import (
    PHASES,
    RANK_TOL,
    RankDeficientError,
    condition_estimate,
    householder_qr,
    pinv_solve,
)

from conftest import traced_peak
from oracles import chebyshev_vandermonde, dense_from_apply, dense_operator, \
    gram_schmidt_qr, normal_equation_solve

LAPLACE = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                               first_order={}, zeroth=None, source=0.0)
DIRICHLET = BoundaryConditionSpec(
    trace=1.0, flux=0.0,
    data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2)


def half_forward(u, spec):
    """S^{+1/2}: the reciprocal of the S^{-1/2} multiplier."""
    axes = [roots_axis(m) for m in np.shape(u)]
    mult = smoother_multiplier_array(spec, axes)
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
        assert np.triu(fac.upper) == pytest.approx(np.eye(7), abs=0.0)

    def test_random_tall(self):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((50, 20))
        fac = householder_qr(mat)
        q = fac.apply_q(np.eye(20))
        assert np.max(np.abs(q.T @ q - np.eye(20))) < 1e-12
        assert np.max(np.abs(q @ np.triu(fac.upper) - mat)) \
            < 1e-11 * np.max(np.abs(mat))

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
        assert signs[:, None] * np.triu(fac.upper) == pytest.approx(
            r_ref, abs=1e-12)

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

    def test_rank_deficiency_names_the_first_column(self):
        # columns 1 and 2 both repeat column 0: the first of them is named
        col = np.linspace(1.0, 2.0, 8)
        with pytest.raises(RankDeficientError) as err:
            householder_qr(np.stack([col, col, col], axis=1))
        assert err.value.column == 1
        assert "index 1" in str(err.value)

    @pytest.mark.parametrize("mat", [np.zeros((4, 2)),
                                     np.array([[0.0, 1.0], [0.0, 0.0],
                                               [0.0, 0.0]])],
                             ids=["zero", "zero-diagonal"])
    def test_all_zero_diagonal_names_the_first_column(self, mat):
        # max |R_ii| = 0 scales the threshold to 0: a zero |R_ii| is still
        # refused (sigma_min = 0), not passed with a 0 / 0 margin
        with pytest.raises(RankDeficientError) as err:
            householder_qr(mat)
        assert err.value.column == 0

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
        signs = np.sign(np.diag(r_ref)) * np.sign(np.diag(fac.upper))
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
        r = np.triu(fac.upper)
        q = fac.apply_q(np.eye(n))
        assert np.max(np.abs(q @ r - mat)) <= 1e-13 * np.max(np.abs(mat))
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
        assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
        assert np.array_equal(np.sign(np.diag(r)), np.sign(np.diag(r_ref)))
        # the reflectors' tau: the diagonal of each block reflector's T
        nb = fac.t.shape[0]
        tau = fac.t[np.arange(n) % nb, np.arange(n)]
        assert np.all(((tau >= 1.0) & (tau <= 2.0)) | (tau == 0.0))
        again = householder_qr(mat)
        assert np.array_equal(again.a, fac.a)
        assert np.array_equal(again.t, fac.t)
        assert np.array_equal(np.triu(again.upper), np.triu(fac.upper))

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
            runs.append((np.triu(fac.upper), fac.apply_q(z),
                         ssem.solver.solve_triangular(fac.upper, z)))
        for bundled, fallback in zip(*runs):
            assert np.max(np.abs(fallback - bundled)) \
                <= 1e-13 * np.max(np.abs(bundled))

    def test_bundled_wrappers_refuse_other_layouts(self):
        # they hand raw pointers to LAPACK: a C-ordered, float32 or
        # row-strided matrix is refused, not read with the wrong strides
        if ssem.solver._bundled_lapack() is None:
            pytest.skip("numpy's bundled LAPACK is not available")
        geqrt, gemqrt, kernels = ssem.solver._bundled_lapack()
        refused = "float64 matrices with unit row stride"
        every_other_row = np.asfortranarray(np.eye(6))[::2, :3]
        with pytest.raises(ValueError, match=refused):
            geqrt(4, np.ones((6, 4)), overwrite_a=1)
        x = np.zeros(3)
        with pytest.raises(ValueError, match=refused):
            kernels(np.eye(3, dtype=np.float32), x)
        with pytest.raises(ValueError, match=refused):
            kernels(every_other_row, x)
        with pytest.raises(ValueError, match=refused):
            kernels(np.ones((3, 3)), x)
        with pytest.raises(ValueError, match=refused):
            gemqrt(np.asfortranarray(np.eye(6, 3)),
                   np.asfortranarray(np.eye(3)), np.ones((6, 2)))

    def test_overlapping_columns_refused(self):
        # a view whose column stride (2) is below its row count (4) has no
        # LDA: it is copied before LAPACK sees it, never read in place
        buf = np.arange(12.0)
        view = np.lib.stride_tricks.as_strided(buf, shape=(4, 3),
                                               strides=(8, 16))
        assert ssem.solver._leading_dimension(view) is None
        with pytest.raises(ValueError, match="unit row stride"):
            ssem.solver._leading_dimensions(view)
        copy = ssem.solver._readable(view)
        assert not np.shares_memory(copy, buf)
        assert np.array_equal(copy, view)

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
        assert np.shares_memory(fac.a, mat)
        assert np.array_equal(mat, fac.a)
        assert np.array_equal(fac.a, ref.a)
        assert np.array_equal(fac.t, ref.t)
        assert np.array_equal(np.triu(fac.upper), np.triu(ref.upper))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, qr_path, bad):
        mat = np.random.default_rng(15).standard_normal((5, 3))
        mat[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            householder_qr(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_past_first_block_rejected(self, qr_path, bad):
        # in the last column of a square matrix, past dgeqrt's first
        # column block: its reflector is trivial (tau = 0), so only R
        # carries the NaN, and only the finiteness check of R can see it
        mat = np.random.default_rng(22).standard_normal((200, 200))
        mat[40, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            householder_qr(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(7, 7), (50, 20), (300, 150)])
    def test_non_finite_anywhere_rejected(self, qr_path, shape, bad):
        # the four corners, the end of the diagonal, the top of the first
        # column past dgeqrt's first block (the last column if there is
        # none) and random entries: wherever the NaN or inf sits, it
        # reaches R, which the finiteness check reads, so the check needs
        # nothing from T
        big, n = shape
        rng = np.random.default_rng(24)
        base = rng.standard_normal(shape)
        fixed = [(0, 0), (0, n - 1), (big - 1, 0), (big - 1, n - 1),
                 (n - 1, n - 1), (0, min(n - 1, ssem.solver.QR_BLOCK))]
        drawn = zip(rng.integers(big, size=8), rng.integers(n, size=8))
        for pos in [*fixed, *drawn]:
            mat = base.copy()
            mat[pos] = bad
            with pytest.raises(ValueError, match="non-finite"):
                householder_qr(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [7, 150])
    def test_non_finite_in_triangular_input_rejected(self, qr_path, n, bad):
        # an input that is already upper triangular has trivial reflectors
        # (tau = 0): a NaN or inf on the diagonal stays alone in R, and
        # one above it reaches the diagonal only if LAPACK applies those
        # reflectors anyway (this OpenBLAS's blocked update does); the
        # check reads all of R, so it sees either
        rng = np.random.default_rng(32)
        tri = np.triu(rng.standard_normal((n + 5, n))) + 3.0 * np.eye(n + 5, n)
        for pos in [(0, 0), (n - 1, n - 1), (0, n - 1), (0, 1),
                    (n // 2, n - 1), (n - 2, n - 1)]:
            mat = tri.copy()
            mat[pos] = bad
            with pytest.raises(ValueError, match="non-finite"):
                householder_qr(mat)

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

    def test_r_read_in_place(self, qr_path):
        # pinv_solve reads R from the factored buffer itself: bit for bit
        # the same back-solve and cond (Lanczos at this order) as from a
        # copy of R with zeros below the diagonal
        rng = np.random.default_rng(29)
        fac = householder_qr(rng.standard_normal((600, 300)))
        b = rng.standard_normal(300)
        r = np.triu(fac.upper)
        assert np.shares_memory(fac.upper, fac.a)
        assert np.array_equal(ssem.solver.solve_triangular(fac.upper, b),
                              ssem.solver.solve_triangular(r, b))
        assert condition_estimate(fac.upper) == condition_estimate(r)

    def test_bundled_lapack_selected_when_shipped(self):
        # a numpy that still ships scipy-openblas but renames any of the
        # four symbols must fail here, not fall back silently to SciPy
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas64_*.so"))
        if not libs:
            pytest.skip("this numpy does not bundle scipy-openblas")
        exported = [ctypes.CDLL(str(path)) for path in libs]
        for name in ("dgeqrt", "dgemqrt", "dtrtrs", "dtrmv"):
            assert any(hasattr(lib, f"scipy_{name}_64_") for lib in exported)
        assert ssem.solver._bundled_lapack() is not None
        assert ssem.solver._lapack() is ssem.solver._bundled_lapack()


class TestRankMargin:
    def test_margin_recomputed_from_r(self, qr_path):
        rng = np.random.default_rng(27)
        mat = rng.standard_normal((90, 40))
        mat[:, 7] = mat[:, 3] + 1e-9 * rng.standard_normal(90)
        fac = householder_qr(mat)
        diag = np.abs(np.diag(fac.upper))
        want = np.min(diag) / (RANK_TOL * np.max(diag))
        assert fac.rank_margin == want
        assert 1.0 < fac.rank_margin < 1e6

    def test_report_carries_the_factorization_margin(self, monkeypatch):
        # disc_system(12) splits on y into two blocks: the margin is the
        # smallest |R_ii| of either over RANK_TOL times the largest of both
        factored = []
        real = ssem.solver.householder_qr

        def recorded(mat):
            factored.append(real(mat))
            return factored[-1]

        monkeypatch.setattr(ssem.solver, "householder_qr", recorded)
        system = disc_system(12)
        report = pinv_solve(system, SmootherSpec("power", 4.0))
        assert report.blocks == tuple(fac.a.shape for fac in factored)
        assert len(report.blocks) == 2
        diag = np.abs(np.concatenate([np.diag(fac.upper)
                                      for fac in factored]))
        assert report.rank_margin == np.min(diag) / (RANK_TOL * np.max(diag))
        assert report.rank_margin < min(fac.rank_margin for fac in factored)
        assert (report.n_rows, report.grid_size) == (system.n_rows, 144)
        assert report.n_rows == report.n_omega + report.n_gamma
        assert sum(n for _, n in report.blocks) == report.n_rows
        assert sum(big for big, _ in report.blocks) == report.grid_size


class TestRankVerdict:
    """The QR's |R_ii| check is the early form of the cond bound: it
    refuses only matrices whose cond exceeds 1 / RANK_TOL."""

    def test_cond_below_bound_is_factored(self, qr_path):
        # the last column is a combination of the others plus 1e-11 times
        # a unit vector orthogonal to them, so |R_nn| = 1e-11: below
        # RANK_TOL * sqrt(||R||_1 ||R||_inf) = 3.5e-11, a threshold that
        # can exceed sigma_max by up to sqrt(n), although the SVD cond,
        # 5.8e12, is under 1 / RANK_TOL. Such a matrix is factored, and
        # its cond is the SVD's to the SVD's own accuracy, eps * cond
        rng = np.random.default_rng(7)
        head = rng.standard_normal((450, 399))
        w = rng.standard_normal(450)
        w -= head @ np.linalg.lstsq(head, w, rcond=None)[0]
        last = head @ rng.standard_normal(399) / np.sqrt(399) \
            + 1e-11 * w / np.linalg.norm(w)
        mat = np.column_stack([head, last])
        s = svdvals(mat)
        want = s[0] / s[-1]
        assert 1e12 < want < 1.0 / RANK_TOL
        fac = householder_qr(mat)
        r = np.triu(fac.upper)
        norms = np.abs(r).sum(axis=0).max() * np.abs(r).sum(axis=1).max()
        assert abs(r[-1, -1]) < RANK_TOL * np.sqrt(norms)
        assert fac.rank_margin > 1.0
        assert condition_estimate(fac.upper) == pytest.approx(
            want, rel=np.finfo(float).eps * want)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(2, 40), extra=st.integers(0, 20),
           dependent=st.integers(0, 39), delta=st.floats(-18.0, -8.0),
           spread=st.floats(0.0, 14.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_named_column_implies_cond_above_bound(self, n, extra,
                                                   dependent, delta,
                                                   spread, seed):
        # columns scaled over up to 14 decades, one of them a combination
        # of those before it plus 10^delta noise: whenever the QR names a
        # column, the SVD cond is above the bound pinv_solve applies
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n + extra, n)) \
            * 10.0 ** rng.uniform(-spread, 0.0, n)
        j = dependent % n
        mat[:, j] = mat[:, :j] @ rng.standard_normal(j) \
            + 10.0 ** delta * rng.standard_normal(n + extra)
        try:
            householder_qr(mat)
        except RankDeficientError as err:
            assert err.column is not None
            s = svdvals(mat)
            assert s[-1] == 0.0 or s[0] / s[-1] > 1.0 / RANK_TOL


class TestPeakMemory:
    """A warm pinv_solve holds about one matrix at its peak: R is read in
    place from the factored buffer, not copied."""

    @staticmethod
    def warm_peak(problem_id, m):
        """tracemalloc peak of a warm pinv_solve over the bytes of M'."""
        system, _ = ssem.experiments._PROBLEMS[problem_id].build(m)
        spec = SmootherSpec("power", 4.0)
        pinv_solve(system, spec)
        matrix_bytes = 8 * system.n_rows * int(np.prod(system.grid_shape))
        return traced_peak(lambda: pinv_solve(system, spec)) / matrix_bytes

    @pytest.mark.parametrize("problem_id, m", [("parabolic-star", 14),
                                               ("dirichlet-3d", 12)])
    def test_peak_within_two_matrices(self, problem_id, m):
        assert self.warm_peak(problem_id, m) <= 2.0

    def test_peak_holds_no_copy_of_r(self):
        # M' is 3564 x 1176 here, so a copy of R alone is a third of it
        assert self.warm_peak("parabolic-star", 18) <= 1.25

    def test_each_block_freed_before_the_next_is_built(self, monkeypatch):
        # a border-free solve is a group per block: when a block is built,
        # no earlier block's buffer (dgeqrt's, in place) is still held by
        # a name that outlived its group
        system, _ = ssem.experiments._PROBLEMS["parabolic-star"].build(10)
        assert system.border is None and len(system.parity_blocks()) == 2
        built, alive = [], []
        real = system.block_matrix

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in built))
            mat = real(*args)
            built.append(weakref.ref(mat))
            return mat

        monkeypatch.setattr(system, "block_matrix", tracked)
        pinv_solve(system, SmootherSpec("power", 4.0))
        assert alive == [0, 0]

    def test_factor_allocates_no_square_temporary(self):
        # in place on an F-ordered buffer the QR allocates T and dgeqrt's
        # workspace (QR_BLOCK x n each) and a few vectors: the finiteness
        # and rank checks read R in place, with no n x n temporary
        if ssem.solver._bundled_lapack() is None:
            pytest.skip("numpy's bundled LAPACK is not available")
        n = 1000
        mat = np.asfortranarray(
            np.random.default_rng(33).standard_normal((n + 500, n)))
        assert traced_peak(lambda: householder_qr(mat)) < 8 * n * n / 2


class TestConditionEstimate:
    def test_orthogonal(self):
        # only R, the upper triangle, is read: garbage below it (the
        # reflectors, in place) changes nothing, by dense SVD (n = 9) and
        # by Lanczos; a +-1 diagonal is orthogonal, cond 1
        rng = np.random.default_rng(13)
        for n in (9, ssem.solver.LANCZOS_MIN_ORDER + 22):
            garbage = np.tril(rng.standard_normal((n, n)), -1)
            clean = self.graded_r(n, n)
            assert condition_estimate(clean + garbage) \
                == condition_estimate(clean)
            signs = np.diag(rng.choice([-1.0, 1.0], n))
            assert condition_estimate(signs + garbage) \
                == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert condition_estimate(np.diag([1.0, 1e-3])) \
            == pytest.approx(1e3, rel=1e-12)

    def test_singular_is_inf(self):
        assert condition_estimate(np.diag([1.0, 0.0])) == np.inf

    def test_empty_is_one(self):
        assert condition_estimate(np.zeros((0, 0))) == 1.0

    @pytest.mark.parametrize("diag", [
        [1.0, 1e-310],
        [1e300, 1e-10],
        # the inverse run leaves the double range, so this takes the
        # dense path from Lanczos
        np.r_[1e300, 1e-10,
              np.linspace(1.0, 2.0, ssem.solver.LANCZOS_MIN_ORDER + 18)],
    ], ids=["subnormal", "dense", "lanczos"])
    def test_ratio_beyond_double_range_is_inf(self, diag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert condition_estimate(np.diag(diag)) == np.inf

    @staticmethod
    def r_with_singular_values(s, seed):
        """Upper-triangular R with singular values s, from random U and V."""
        rng = np.random.default_rng(seed)
        n = len(s)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return np.linalg.qr((u * s) @ v.T, mode="r")

    @classmethod
    def graded_r(cls, n=300, seed=18):
        """Upper-triangular R with singular values spread from 1 to 1e10."""
        return cls.r_with_singular_values(np.logspace(0.0, 10.0, n), seed)

    @classmethod
    def bordered_r(cls, sizes, seed):
        """(blocks, coupling, border, dense R) of a block upper-triangular
        R = [[diag(R_1, ..., R_k), T], [0, R_B]] with graded blocks and
        garbage below each triangle, which only the dense R leaves out."""
        rng = np.random.default_rng(seed)
        *blocks, border = [cls.graded_r(n, seed + n)
                           + np.tril(rng.standard_normal((n, n)), -1)
                           for n in sizes]
        head = sum(sizes[:-1])
        coupling = np.asfortranarray(rng.standard_normal((head, sizes[-1])))
        dense = np.zeros((sum(sizes),) * 2)
        lo = 0
        for r in (*blocks, border):
            dense[lo:lo + len(r), lo:lo + len(r)] = np.triu(r)
            lo += len(r)
        dense[:head, head:] = coupling
        return blocks, coupling, border, dense

    @pytest.mark.parametrize("sizes", [(40, 50, 30), (12, 9, 20)],
                             ids=["lanczos", "dense"])
    def test_bordered_matches_dense_svd(self, qr_path, sizes):
        blocks, coupling, border, dense = self.bordered_r(sizes, 5)
        s = svdvals(dense)
        found = condition_estimate(border, extremes=True, blocks=blocks,
                                   coupling=coupling)
        assert found == pytest.approx((s[0] / s[-1], s[0], s[-1]),
                                      rel=1e-9)

    def test_bordered_kernels_apply_r(self, qr_path):
        # each kernel reads a segment before the coupling changes it:
        # R x, R^T x, R^{-1} x and R^{-T} x against the dense R
        blocks, coupling, border, dense = self.bordered_r((6, 4, 5), 7)
        x, product, solve = ssem.solver._BlockTriangular(
            blocks, coupling, border).kernels()
        v = np.random.default_rng(8).standard_normal(len(dense))
        for kernel, trans, want in (
                (product, b"N", dense @ v), (product, b"T", dense.T @ v),
                (solve, b"N", np.linalg.solve(dense, v)),
                (solve, b"T", np.linalg.solve(dense.T, v))):
            x[:] = v
            kernel(trans)
            assert x == pytest.approx(want, rel=1e-10, abs=1e-10)

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
        # two Lanczos steps cannot meet either stopping test on R of
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
        # well inside the step cap, at that eigenvalue to rounding, once
        # its Ritz residual (and the error bound built from it) is small
        d = np.linspace(1.0, 2.0, 400)
        d[-1] = 4.0
        steps = []

        def matvec(x):
            steps.append(1)
            return d * x

        top = ssem.solver._largest_eigenvalue(matvec, len(d))
        assert top == pytest.approx(4.0, rel=1e-13)
        assert len(steps) < ssem.solver.LANCZOS_MAX_STEPS

    @staticmethod
    def alternating_top(n):
        """matvec of a symmetric n x n operator whose top eigenvector
        (eigenvalue 10) alternates in sign and whose second (9) is
        constant; the rest of its spectrum lies in [1, 2]."""
        alt = (-1.0) ** np.arange(n) / np.sqrt(n)
        flat = np.full(n, 1.0 / np.sqrt(n))
        rest = np.linspace(1.0, 2.0, n)

        def matvec(x):
            a, c = alt @ x, flat @ x
            y = rest * (x - a * alt - c * flat)
            y -= (alt @ y) * alt + (flat @ y) * flat
            return y + 10.0 * a * alt + 9.0 * c * flat
        return matvec

    def test_start_vector_sees_an_alternating_top(self, monkeypatch):
        n = 200
        top = ssem.solver._largest_eigenvalue(self.alternating_top(n), n)
        assert top == pytest.approx(10.0, rel=1e-13)
        # the operator tells starts apart: from a constant start, which
        # is the second eigenvector, the run stops at once, at 9
        monkeypatch.setattr(ssem.solver, "_hashed", np.ones)
        wrong = ssem.solver._largest_eigenvalue(self.alternating_top(n), n)
        assert wrong == pytest.approx(9.0, rel=1e-13)

    def test_start_vector_same_across_calls_and_threads(self):
        n = 200
        first = ssem.solver._hashed(n)
        assert np.all((np.abs(first) < 1.0) & (first != 0.0))
        with ssem.solver._one_blas_thread():
            solo = ssem.solver._largest_eigenvalue(self.alternating_top(n), n)
            with ThreadPoolExecutor(max_workers=2) as pool:
                vectors = list(pool.map(ssem.solver._hashed, [n] * 4))
                tops = list(pool.map(
                    lambda _: ssem.solver._largest_eigenvalue(
                        self.alternating_top(n), n), range(4)))
        for v in vectors + [ssem.solver._hashed(n)]:
            assert np.array_equal(v, first)
        assert tops == [solo] * 4

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("pair", ["top", "bottom"])
    def test_close_pair_keeps_accuracy(self, pair, seed):
        # two singular values 1e-8 apart (relative) at either end: a run
        # that has not yet told them apart sees a Ritz gap that is not
        # theirs; without the LANCZOS_CLUSTER_TOL guard, cond was off by
        # about 1e-8 for the top pair at seeds 4, 5 and 6
        s = np.logspace(0.0, 10.0, 200)
        if pair == "top":
            s[-2] = s[-1] * (1.0 - 1e-8)
        else:
            s[1] = s[0] * (1.0 + 1e-8)
        r = self.r_with_singular_values(s, seed)
        ref = svdvals(r)
        assert condition_estimate(r) == pytest.approx(ref[0] / ref[-1],
                                                      rel=1e-9)

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(ssem.solver.LANCZOS_MIN_ORDER,
                         ssem.solver.LANCZOS_MIN_ORDER + 150),
           decades=st.floats(0.5, 12.0), seed=st.integers(0, 2 ** 32 - 1),
           spacing=st.sampled_from(["even", "random"]))
    def test_lanczos_matches_dense_svd_property(self, n, decades, seed,
                                                spacing):
        # graded R of any order the runs see: singular values from 1 to
        # 10^decades, evenly or randomly spaced in the exponent
        if spacing == "even":
            exponents = np.linspace(0.0, decades, n)
        else:
            exponents = np.sort(np.random.default_rng(seed)
                                .uniform(0.0, decades, n))
        r = self.r_with_singular_values(10.0 ** exponents, seed)
        ref = svdvals(r)
        assert condition_estimate(r) == pytest.approx(ref[0] / ref[-1],
                                                      rel=1e-9)

    def test_error_bound_never_takes_more_steps(self, monkeypatch):
        # count each run's steps under the full rule and under the
        # residual test alone (a cluster tolerance of 0 turns the error
        # bound off): never more, and fewer in all
        real = ssem.solver._largest_eigenvalue

        def steps_per_run(r, cluster_tol):
            monkeypatch.setattr(ssem.solver, "LANCZOS_CLUSTER_TOL",
                                cluster_tol)
            counts = []

            def counted(matvec, n):
                counts.append(0)

                def step(v):
                    counts[-1] += 1
                    return matvec(v)
                return real(step, n)

            monkeypatch.setattr(ssem.solver, "_largest_eigenvalue", counted)
            condition_estimate(r)
            return counts

        rng = np.random.default_rng(30)
        mats = [self.graded_r(n, seed) for n, seed in
                [(128, 1), (200, 2), (300, 18), (400, 3)]]
        mats.append(np.triu(rng.standard_normal((250, 250)))
                    + np.sqrt(250) * np.eye(250))
        new, old = [], []
        for r in mats:
            new += steps_per_run(r, ssem.solver.LANCZOS_CLUSTER_TOL)
            old += steps_per_run(r, 0.0)
        assert len(new) == len(old) == 2 * len(mats)
        assert all(a <= b for a, b in zip(new, old))
        assert sum(new) < sum(old)

    @pytest.mark.parametrize("power", [-600, 600])
    def test_power_of_two_scale_is_bit_identical(self, qr_path, power):
        # the runs see R scaled by a power of two near 1 / max |R_ii|, so
        # 2^k R is the same operator to them bit for bit, on either
        # provider, also where (2^k R)^T (2^k R) itself leaves the double
        # range (k = +-600)
        r = self.graded_r(200, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert condition_estimate(np.ldexp(r, power)) \
                == condition_estimate(r)

    @pytest.mark.parametrize("outlier", [1e200, 1e-200])
    def test_cond_squared_out_of_range_takes_the_svd(self, outlier):
        # cond^2 = 1e400 leaves the double range whatever the scale of
        # the runs: one of them overflows, and the dense SVD answers
        r = np.diag(np.r_[outlier, np.linspace(1.0, 2.0, 119)])
        assert len(r) >= ssem.solver.LANCZOS_MIN_ORDER
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert condition_estimate(r) == ssem.solver._dense_cond(r)[0]

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

    def test_empty_system_refused(self):
        # no interior nodes and no boundary points: no rows to solve for
        axes = (roots_axis(6), roots_axis(6))
        interior = InteriorIndexSet(np.zeros((0, 2), dtype=int))
        boundary = BoundaryPointSet(np.zeros((0, 2)), np.zeros((0, 2)))
        system = build_system(axes, [(interior, LAPLACE),
                                     (boundary, DIRICHLET)],
                              interior, boundary, apply_smoother_half_inverse)
        assert system.n_rows == 0
        with pytest.raises(ValueError, match="^empty constraint system"):
            pinv_solve(system, SmootherSpec("power", 4.0))

    def test_phases_account_for_the_solve(self):
        report = pinv_solve(disc_system(10), SmootherSpec("power", 4.0))
        assert tuple(report.phases) == PHASES
        assert all(t >= 0.0 for t in report.phases.values())
        assert sum(report.phases.values()) <= report.seconds

    def test_bordered_solve_counts_every_qr_under_factor(self, monkeypatch):
        # dirichlet-3d at m=10 is eight blocks and a border, nine QRs, each
        # slowed by 20 ms: a QR whose time closed with the next block's
        # build would count under build, not factor
        system, _ = ssem.experiments._PROBLEMS["dirichlet-3d"].build(10)
        real, slept = ssem.solver.householder_qr, []

        def slowed(mat):
            time.sleep(0.02)
            slept.append(0.02)
            return real(mat)

        monkeypatch.setattr(ssem.solver, "householder_qr", slowed)
        report = pinv_solve(system, SmootherSpec("power", 4.0))
        assert len(slept) == len(report.blocks) == 9
        assert report.phases["factor"] >= sum(slept)
        assert report.phases["build"] < sum(slept) / 2

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
        gram = np.diag(roots_axis(m).basis.gram)
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

    def test_residual_linf_is_the_largest_magnitude(self):
        # C = I, but the recheck's operator adds an offset to C u, so the
        # residual is that offset; its largest entry in size is negative
        m = 4
        vand = chebyshev_vandermonde(m)
        offset = np.zeros(m * m)
        offset[3], offset[9] = -2.0, 0.5
        system = ConstraintSystem(
            (roots_axis(m), roots_axis(m)), None, None,
            rhs=np.random.default_rng(31).standard_normal(m * m),
            apply_fn=lambda u: u.ravel() + offset,
            matrix_fn=lambda: np.kron(vand, vand),
            n_omega=m * m, n_gamma=0)
        report = pinv_solve(system, lambda b: b)
        assert report.residual_linf == pytest.approx(2.0, abs=1e-12)
        assert report.residual_l2 == pytest.approx(np.sqrt(4.25), abs=1e-12)

    def test_timed_helpers_called_once_by_name(self, monkeypatch):
        # the benchmark times the factor, cond and the back-solve by
        # wrapping these names in ssem.solver: pinv_solve must call the QR
        # once per factored block and once more for a border, and cond and
        # the back-solve once per group of blocks (one group per block
        # without a border, one in all with one), through the module, or a
        # metric reads 0 or a traced run cannot find its helper
        calls = []
        for name in ("householder_qr", "condition_estimate",
                     "solve_triangular"):
            real = getattr(ssem.solver, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(ssem.solver, name, counted)
        report = pinv_solve(disc_system(10), SmootherSpec("power", 4.0))
        assert len(report.blocks) == 4
        assert calls == ["householder_qr", "condition_estimate",
                         "solve_triangular"] * 4
        # dirichlet-3d is bordered: eight blocks and the border, one group
        calls.clear()
        system, _ = ssem.experiments._PROBLEMS["dirichlet-3d"].build(8)
        report = pinv_solve(system, SmootherSpec("power", 4.0))
        assert system.border is not None and len(report.blocks) == 9
        assert calls == ["householder_qr"] * 9 + ["condition_estimate",
                                                  "solve_triangular"]

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

    @staticmethod
    def scaled_disc_system(m, factor):
        """disc_system(m) with the operator, the trace and the data all
        times factor."""
        op = EllipticOperatorSpec(
            second_order={(0, 0): factor, (1, 1): factor},
            first_order={}, zeroth=None, source=0.0)
        bc = BoundaryConditionSpec(
            trace=factor, flux=0.0,
            data=lambda pts, nrm: factor * DIRICHLET.data(pts, nrm))
        axes = (roots_axis(m), roots_axis(m))
        return assemble_elliptic(disc_domain(), axes, op, bc)

    def test_scaled_problem_solves_alike(self):
        # R's entries pass 1e150, so R^T R alone would overflow: cond is
        # scale-free, and so is u
        spec = SmootherSpec("power", 4.0)
        plain = pinv_solve(disc_system(18), spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = pinv_solve(self.scaled_disc_system(18, 1e150), spec)
        assert plain.cond_estimate == pytest.approx(5814.27, rel=1e-6)
        assert scaled.cond_estimate == pytest.approx(plain.cond_estimate,
                                                     rel=1e-12)
        assert np.max(np.abs(scaled.solution - plain.solution)) \
            < 1e-12 * np.max(np.abs(plain.solution))

    def test_huge_diagonal_smoother_accepted(self):
        # a multiplier near 1e200: the diagonality defect's norms would
        # overflow unscaled, and so would R^T R
        system = disc_system(18)
        spec = SmootherSpec("power", 4.0)
        plain = pinv_solve(
            system, lambda b: apply_smoother_half_inverse(b, spec, d=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = pinv_solve(
                system,
                lambda b: 1e200 * apply_smoother_half_inverse(b, spec, d=2))
        assert huge.cond_estimate == pytest.approx(plain.cond_estimate,
                                                   rel=1e-12)
        assert np.max(np.abs(huge.solution - plain.solution)) \
            < 1e-12 * np.max(np.abs(plain.solution))

    def test_spec_needs_a_grid_smoother(self):
        with pytest.raises(ValueError, match="no grid smoother"):
            pinv_solve(identity_system(3), SmootherSpec("power", 4.0))

    def test_non_diagonal_smoother_rejected(self):
        system = disc_system(8)
        with pytest.raises(ValueError, match="not diagonal") as err:
            pinv_solve(system, lambda b: np.roll(b, 1, axis=-1))
        assert "relative defect" in str(err.value)

    def test_slightly_non_diagonal_smoother_rejected(self):
        # a relative defect of about 1e-8 is far above DIAGONAL_TOL
        system = disc_system(8)
        spec = SmootherSpec("power", 4.0)

        def smoother(b):
            u = apply_smoother_half_inverse(b, spec, d=2)
            return u + 1e-8 * np.roll(u, 1, axis=-1)

        with pytest.raises(ValueError, match="not diagonal") as err:
            pinv_solve(system, smoother)
        defect = float(re.search(r"relative defect (\S+) ",
                                 str(err.value)).group(1))
        assert 1e-9 < defect < 1e-7

    @pytest.mark.parametrize("smoother, what", [
        (lambda b: 1.0, r"has shape \(\), not the grid shape \(8, 8\)"),
        (lambda b: b[:, :-1], r"has shape \(8, 7\), not the grid shape"),
        (lambda b: b.ravel(), r"has shape \(64,\), not the grid shape"),
        (lambda b: np.full_like(b, np.nan), "has non-finite entries"),
        (lambda b: b + np.where(np.arange(8) == 3, np.nan, 0.0),
         "has non-finite entries"),
        (lambda b: b * np.inf, "has non-finite entries"),
        (lambda b: 0.0 * b, "is zero on the probe"),
    ], ids=["scalar", "shape", "flat", "nan", "nan-column", "inf", "zero"])
    def test_malformed_smoother_result_named(self, smoother, what):
        # refused by name before the diagonality test, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^smoother result {what}"):
                pinv_solve(disc_system(8), smoother)

    def test_smoother_vanishing_on_some_modes_accepted(self):
        # a multiplier that is zero on the top two modes of each axis is a
        # valid smoother (the data is quadratic): the solution has no
        # coefficients there
        system = disc_system(10)
        mult = smoother_multiplier_array(SmootherSpec("power", 4.0),
                                         system.axes)
        mult[-2:, :] = mult[:, -2:] = 0.0
        report = pinv_solve(
            system, lambda b: inverse_cheb(forward_cheb(b) * mult))
        assert report.residual_linf < 1e-12
        coef = np.abs(forward_cheb(report.solution))
        assert coef[mult == 0.0].max() < 1e-14 * coef.max()

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
        lateral = BoundaryConditionSpec(
            trace=1.0, flux=0.0, data=lambda pts, nrm: pts[:, 0] + pts[:, 2])
        problem = ParabolicProblem(domain=star_domain(),
                                   initial=lambda x, y: x * y,
                                   lateral=lateral)
        grid = SpaceTimeGrid(space_axes=(roots_axis(m), roots_axis(m)),
                             time_axis=extrema_axis(n, 0.0, 1.0))
        system = assemble_parabolic(problem, grid)
        shape = system.grid_shape
        a_mat = system.coefficient_matrix()
        mult = smoother_multiplier_array(SmootherSpec("power", 4.0),
                                         system.axes)
        gram = np.diag(roots_axis(m).basis.gram)
        scale = np.multiply.outer(1.0 / np.outer(gram, gram), np.ones(n + 1))
        r_t_inv = np.linalg.inv(grid.time_axis.basis.gram)
        want = a_mat @ np.diag((mult * scale).ravel()) \
            @ np.kron(np.eye(m * m), r_t_inv)

        monkeypatch.setattr(ssem.solver, "SCALE_SCRATCH_BYTES",
                            5 * 8 * a_mat.shape[1])
        assert system.n_rows % 5
        got_scale, inverses = ssem.solver._gram_inverse(system.axes)
        assert got_scale == pytest.approx(scale, rel=1e-15)
        ssem.solver._scale_rows(a_mat.reshape((system.n_rows,) + shape),
                                mult * got_scale, inverses)
        assert np.max(np.abs(a_mat - want)) <= 1e-14 * np.max(np.abs(want))

    def test_heat_block_scaled_in_place(self):
        # parabolic-star's first parity block at m=18, 593 rows of 14 KiB:
        # the time-axis R_t^{-1} goes through the fixed scratch buffer, so
        # the peak stays far below the 4 MiB product of one BLOCK_BYTES
        # block of rows, and every row gets the bits of one matmul of the
        # whole block
        system, _ = ssem.experiments._PROBLEMS["parabolic-star"].build(18)
        block = system.parity_blocks()[0]
        mult, _ = ssem.solver._smoother(system, SmootherSpec("power", 4.0))
        scale, inverses = ssem.solver._gram_inverse(system.axes)
        assert [a for a, _ in inverses] == [len(system.grid_shape) - 1]
        weight = (mult * scale)[block.columns]
        rows = system.block_matrix(block, block.parity).reshape(
            (len(block.rows),) + block.coefficient_shape(system.grid_shape))
        inv = inverses[0][1]
        want = np.matmul((rows * weight).reshape(len(rows), -1, len(inv)),
                         inv).reshape(rows.shape)
        ssem.solver._scale_rows(rows.copy(), weight, inverses)  # warm
        assert rows.nbytes > ssem.assembly.BLOCK_BYTES
        peak = traced_peak(
            lambda: ssem.solver._scale_rows(rows, weight, inverses))
        assert peak < ssem.assembly.BLOCK_BYTES // 8
        assert np.array_equal(rows, want)

    @pytest.mark.parametrize("axes, scratch_rows", [((1,), 0),
                                                    ((0, 2), 2)])
    def test_inverse_on_any_axis(self, monkeypatch, axes, scratch_rows):
        # R_a^{-1} on a non-last axis, alone or with the last, against
        # einsum; a sub-chunk of one row when the scratch is smaller than
        # a row, and a partial last sub-chunk
        rng = np.random.default_rng(34)
        rows = rng.standard_normal((7, 4, 5, 3))
        weight = rng.standard_normal(rows.shape[1:])
        inverses = [(a, rng.standard_normal((rows.shape[a + 1],) * 2))
                    for a in axes]
        want = rows * weight
        for a, inv in inverses:
            src = "rijk"
            dst = src.replace(src[a + 1], src[a + 1].upper())
            want = np.einsum(f"{src},{src[a + 1]}{dst[a + 1]}->{dst}",
                             want, inv)
        monkeypatch.setattr(ssem.solver, "SCALE_SCRATCH_BYTES",
                            scratch_rows * 8 * weight.size)
        ssem.solver._scale_rows(rows, weight, inverses)
        assert np.max(np.abs(rows - want)) <= 1e-14 * np.max(np.abs(want))


def one_block(monkeypatch, build):
    """The system build() makes, built without its mirror data: one block,
    the whole of M'."""
    with monkeypatch.context() as patch:
        patch.setattr(ssem.assembly, "_reflections",
                      lambda axes, groups: ((), ()))
        return build()


class TestParityBlocks:
    """A solve factors one block of M' per parity pattern of the
    reflections that map its constraints onto themselves."""

    # a split solve differs from the one-block solve by rounding only:
    # within C_SPLIT * eps * cond, C_SPLIT fixed before any run
    C_SPLIT = 100.0

    @pytest.mark.parametrize("problem_id, m, count", [
        ("parabolic-star", 12, 2), ("dirichlet-disc", 10, 4),
        ("dirichlet-disc", 14, 2), ("robin-annulus", 12, 2),
        ("neumann-star", 12, 1), ("dirichlet-3d", 10, 8),
        ("dirichlet-3d", 11, 8), ("dirichlet-3d", 14, 8)])
    def test_block_counts(self, problem_id, m, count):
        # dirichlet-3d's samples mirror on no axis: its boundary rows are
        # the border, after the interior's eight blocks
        system, _ = ssem.experiments._PROBLEMS[problem_id].build(m)
        report = pinv_solve(system, SmootherSpec("power", 4.0))
        bordered = problem_id == "dirichlet-3d"
        assert (system.border is not None) == bordered
        assert len(report.blocks) == count + bordered
        # each block holds its share of the rows and of the coefficients,
        # and the border its rows on the coefficients left below the
        # blocks' R
        blocks = report.blocks[:count]
        assert sum(n for _, n in report.blocks) == system.n_rows
        assert sum(big for big, _ in blocks) == report.grid_size
        if bordered:
            assert report.blocks[-1] == (
                report.grid_size - sum(n for _, n in blocks),
                len(system.border.rows))

    @pytest.mark.parametrize("p", [4.0, 8.0])
    @pytest.mark.parametrize("problem_id, m", [
        ("dirichlet-disc", 10), ("dirichlet-disc", 14),
        ("robin-annulus", 12), ("neumann-star", 10),
        ("dirichlet-3d", 10), ("dirichlet-3d", 11), ("parabolic-star", 12)])
    def test_split_solve_matches_one_block(self, monkeypatch, problem_id, m,
                                           p):
        build = ssem.experiments._PROBLEMS[problem_id].build
        spec = SmootherSpec("power", p)
        system = build(m)[0]
        split = pinv_solve(system, spec)
        whole = pinv_solve(one_block(monkeypatch, lambda: build(m)[0]), spec)
        assert len(whole.blocks) == 1
        eps = np.finfo(float).eps
        bound = self.C_SPLIT * eps * whole.cond_estimate
        assert abs(split.cond_estimate / whole.cond_estimate - 1.0) <= bound
        assert np.max(np.abs(split.solution - whole.solution)) \
            <= bound * np.max(np.abs(whole.solution))
        # backward stable: a residual at rounding level
        assert split.residual_linf \
            <= 1e-9 * max(1.0, np.abs(system.rhs).max())

    def test_one_block_reports_its_own_cond_and_margin(self, monkeypatch):
        # an unsplit system's cond and margin are those of its one R, bit
        # for bit, not a ratio of its extreme singular values
        factored = []
        real = ssem.solver.householder_qr

        def recorded(mat):
            factored.append(real(mat))
            return factored[-1]

        monkeypatch.setattr(ssem.solver, "householder_qr", recorded)
        for problem_id, m, p in (("neumann-star", 10, 4.0),
                                 ("neumann-star", 18, 8.0),
                                 ("dirichlet-3d", 8, 2.0),
                                 ("dirichlet-3d", 10, 4.0)):
            build = ssem.experiments._PROBLEMS[problem_id].build
            system = one_block(monkeypatch, lambda: build(m)[0])
            report = pinv_solve(system, SmootherSpec("power", p))
            fac = factored[-1]
            assert report.blocks == (fac.a.shape,)
            assert report.cond_estimate == condition_estimate(fac.upper)
            assert report.rank_margin == fac.rank_margin

    @staticmethod
    def heavy_axis_system():
        """Boundary rows at mirror pairs (x, +-y) and one row on y = 0,
        whose weight of 1e15 sets the largest |R_ii| of the even block:
        the odd block is well conditioned alone, far below that scale."""
        pairs = np.array([[0.6, 0.3], [-0.5, 0.7], [0.1, 0.45], [-0.8, 0.2],
                          [0.3, 0.85]])
        points = np.concatenate([[[0.9, 0.0]], pairs, pairs * [1.0, -1.0]])
        points = points[[0, 1, 6, 2, 7, 3, 8, 4, 9, 5, 10]]
        where = BoundaryPointSet(points, np.zeros_like(points))
        bc = BoundaryConditionSpec(
            trace=lambda pts, nrm: np.where(pts[:, 1] == 0.0, 1e15, 1.0),
            flux=0.0, data=1.0)
        axes = (roots_axis(6), roots_axis(6))
        no_interior = InteriorIndexSet(np.zeros((0, 2), dtype=int))
        return build_system(axes, [(no_interior, LAPLACE), (where, bc)],
                            no_interior, where, apply_smoother_half_inverse)

    def test_rank_threshold_spans_the_blocks(self, monkeypatch):
        # the odd block passes its own |R_ii| check; against the largest
        # |R_jj| of both blocks its first column fails, and the error names
        # its representative row, 1, as the one-block QR names a column
        system = self.heavy_axis_system()
        assert len(system.parity_blocks()) == 2
        with pytest.raises(RankDeficientError) as split:
            pinv_solve(system, SmootherSpec("power", 2.0))
        assert split.value.column == 1
        with pytest.raises(RankDeficientError) as whole:
            pinv_solve(one_block(monkeypatch, self.heavy_axis_system),
                       SmootherSpec("power", 2.0))
        assert whole.value.column is not None

    def test_block_wider_than_tall_is_rank_deficient(self, monkeypatch):
        # three points on y = 0 of a 2 x 2 grid: their rows have no odd-k_y
        # part, and the even block has two coefficients for three rows
        axes = (roots_axis(2), roots_axis(2))
        pts = np.array([[-0.5, 0.0], [0.2, 0.0], [0.7, 0.0]])
        where = BoundaryPointSet(pts, np.zeros_like(pts))
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=1.0)

        def build():
            return build_system(axes, [(where, bc)], where, where, None)

        assert [a for a, _ in build()._reflections] == [1]
        for system in (build(), one_block(monkeypatch, build)):
            with pytest.raises(RankDeficientError) as err:
                pinv_solve(system, lambda b: b)
            assert err.value.column == 2
        # no QR ran on the split block, so no |R_ii| is named
        with pytest.raises(RankDeficientError) as err:
            pinv_solve(build(), lambda b: b)
        assert str(err.value) == (
            "rank-deficient constraint matrix: a parity block has 3 "
            "constraints on 2 coefficients, more constraints than "
            "coefficients, so constraint index 2 (the first past that "
            "width) is numerically dependent on its predecessors")
        assert err.value.value is None and err.value.threshold is None

    def test_dependent_row_named_by_its_constraint_row(self, monkeypatch):
        # two groups of point rows at the mirror pair of nodes (1, 1) and
        # (1, 2): rows 0, 1 and their repeats 2, 3. The even block holds
        # rows 0 and 2, one row twice, and its QR names its second column:
        # constraint row 2, as the one-block QR does
        axes = (roots_axis(4), roots_axis(4))
        nodes = InteriorIndexSet(np.array([[1, 1], [1, 2]]))
        op = EllipticOperatorSpec({}, {}, zeroth=1.0, source=1.0)

        def build():
            return build_system(axes, [(nodes, op), (nodes, op)], nodes,
                                nodes, None)

        system = build()
        assert [a for a, _ in system._reflections] == [1]
        for solved in (system, one_block(monkeypatch, build)):
            with pytest.raises(RankDeficientError) as err:
                pinv_solve(solved, lambda b: b)
            assert err.value.column == 2


class TestBorder:
    """Boundary rows that a kept reflection does not map are factored as
    one border after the parity blocks: R is [[diag(R_chi), T], [0, R_B]]
    and a refusal names a border row as the one-block QR names it."""

    @staticmethod
    def mirrored_nodes_and_points(points, m=4, repeat=(), weight=1.0):
        """Point rows at the nodes (i, j) and their mirrors on an m x m
        grid, every one but (1, 1)'s orbit when m = 4, plus point rows of
        weight at points (repeat: indices of points listed again at the
        end)."""
        axes = (roots_axis(m), roots_axis(m))
        pairs = [(i, j) for i in range(m // 2) for j in range(m // 2)]
        nodes = InteriorIndexSet(np.array(
            [(i, j) for i0, j0 in pairs[1:] for i in (i0, m - 1 - i0)
             for j in (j0, m - 1 - j0)]))
        op = EllipticOperatorSpec({}, {}, zeroth=1.0, source=1.0)
        points = np.concatenate([points, points[list(repeat)]])
        where = BoundaryPointSet(points, np.zeros_like(points))
        bc = BoundaryConditionSpec(trace=weight, flux=0.0,
                                   data=lambda pts, nrm: pts[:, 0])
        return build_system(axes, [(nodes, op), (where, bc)], nodes, where,
                            None)

    POINTS = np.array([[0.31, 0.22], [-0.47, 0.13], [0.05, -0.61],
                       [0.72, 0.44]])

    def test_border_of_unmirrored_points(self):
        system = self.mirrored_nodes_and_points(self.POINTS)
        assert [a for a, _ in system._reflections] == [0, 1]
        assert np.array_equal(system.border.rows, np.arange(12, 16))
        assert system.border.parity == (None, None)
        report = pinv_solve(system, lambda b: b)
        assert report.blocks == ((4, 3),) * 4 + ((4, 4),)
        assert report.residual_linf <= 1e-12

    @pytest.mark.parametrize("m, nodes", [
        (3, [(1, 1)]), (5, [(i, 2) for i in range(5)]),
        (3, [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if (i, j, k).count(1) == 1])])
    def test_parity_pattern_without_rows_is_one_block(self, monkeypatch, m,
                                                      nodes):
        # interior nodes on the mirror plane y = 0 (the centre alone, or
        # the middle row): the reflection in y fixes every interior row,
        # so no row has odd parity in y and no block's Q^T would take the
        # border's rows at odd k_y; the system is one block and solves as
        # the one-block system does. In 3-D, the nodes on exactly one
        # mirror plane: every parity pattern but the one odd on all three
        # axes has rows, 7 of 8
        dim = len(nodes[0])
        pts = np.column_stack([self.POINTS,
                               [0.17, -0.29, 0.38, -0.53]])[:, :dim]

        def build():
            axes = (roots_axis(m),) * dim
            where = InteriorIndexSet(np.array(nodes))
            op = EllipticOperatorSpec({}, {}, zeroth=1.0, source=1.0)
            points = BoundaryPointSet(pts, np.zeros_like(pts))
            bc = BoundaryConditionSpec(trace=1.0, flux=0.0,
                                       data=lambda pts, nrm: pts[:, 0])
            return build_system(axes, [(where, op), (points, bc)], where,
                                points, None)

        system = build()
        assert system._reflections == () and system.border is None
        assert len(system.parity_blocks()) == 1
        report = pinv_solve(system, lambda b: b)
        whole = pinv_solve(one_block(monkeypatch, build), lambda b: b)
        assert report.blocks == whole.blocks == ((m ** dim, len(nodes) + 4),)
        assert np.array_equal(report.solution, whole.solution)
        assert report.residual_linf <= 1e-12

    def test_border_of_every_row_is_one_block(self, monkeypatch):
        # no interior rows and six points that mirror on no axis: both
        # reflections map the empty interior group, so every row would be
        # the border and no parity pattern has rows; the system is one
        # block and solves as the one-block system does
        points = np.concatenate([self.POINTS, [[-0.2, -0.8], [0.6, -0.35]]])

        def build():
            axes = (roots_axis(6), roots_axis(6))
            no_interior = InteriorIndexSet(np.zeros((0, 2), dtype=int))
            where = BoundaryPointSet(points, np.zeros_like(points))
            return build_system(axes, [(no_interior, LAPLACE),
                                       (where, DIRICHLET)],
                                no_interior, where,
                                apply_smoother_half_inverse)

        system = build()
        assert system._reflections == () and system.border is None
        spec = SmootherSpec("power", 4.0)
        report = pinv_solve(system, spec)
        whole = pinv_solve(one_block(monkeypatch, build), spec)
        assert report.blocks == whole.blocks == ((36, 6),)
        assert np.array_equal(report.solution, whole.solution)
        assert report.residual_linf <= 1e-12

    def test_border_wider_than_the_rows_left_is_under_resolved(self):
        # n_D + n_B = n_rows: a border wider than the size - n_D rows
        # below the blocks' R is a system with more rows than grid points
        system = self.mirrored_nodes_and_points(
            np.concatenate([self.POINTS, [[0.1, 0.9]]]))
        assert len(system.border.rows) == 5
        assert system.grid_shape == (4, 4) and system.n_rows == 17
        with pytest.raises(ValueError, match="under-resolved"):
            pinv_solve(system, lambda b: b)

    def test_dependent_border_row_named_by_its_constraint_row(self,
                                                              monkeypatch):
        # border point 1 listed again as row 15: R_B's last column fails,
        # and the error names row 15, as the one-block QR does
        def build():
            return self.mirrored_nodes_and_points(self.POINTS[:3], repeat=[1])

        system = build()
        assert np.array_equal(system.border.rows, np.arange(12, 16))
        for solved in (system, one_block(monkeypatch, build)):
            with pytest.raises(RankDeficientError) as err:
                pinv_solve(solved, lambda b: b)
            assert err.value.column == 15

    def test_rank_threshold_spans_the_border(self):
        # border rows of weight 1e15 set the largest |R_jj|, in R_B: each
        # block passes its own |R_ii| check, and against R_B's scale the
        # first block's first column fails, named by its row, 0
        system = self.mirrored_nodes_and_points(self.POINTS, weight=1e15)
        with pytest.raises(RankDeficientError) as err:
            pinv_solve(system, lambda b: b)
        assert err.value.column == 0
        assert err.value.value == pytest.approx(1.0)
        assert err.value.threshold > 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_border_row_refused(self, monkeypatch, bad):
        # a NaN or inf in one border row of A, at the even-k_x parities:
        # the coupling T carries it and the solve refuses it, as the
        # one-block QR refuses it in R
        def build():
            return ssem.experiments._PROBLEMS["dirichlet-3d"].build(8)[0]

        for system, match in ((build(), r"coupling T .* non-finite"),
                              (one_block(monkeypatch, build),
                               r"non-finite .* R factor")):
            real, row = system._block_fn, system.n_rows - 3

            def poisoned(block, parity, real=real, row=row):
                mat = real(block, parity)
                at = np.flatnonzero(block.rows == row)
                if at.size and parity[0] != 1:
                    mat[at[0], 4] = bad
                return mat

            monkeypatch.setattr(system, "_block_fn", poisoned)
            with pytest.raises(ValueError, match=match):
                pinv_solve(system, SmootherSpec("power", 4.0))


class TestSystemInputs:
    """A hand-built system's right-hand side and constraint operator are
    checked before any matrix is built."""

    @staticmethod
    def system(rhs, apply_fn, built):
        vand = chebyshev_vandermonde(4)

        def matrix_fn():
            built.append(True)
            return np.kron(vand, vand)[:3]

        return ConstraintSystem((roots_axis(4), roots_axis(4)), None, None,
                                rhs=np.asarray(rhs, dtype=float),
                                apply_fn=apply_fn, matrix_fn=matrix_fn,
                                n_omega=0, n_gamma=3)

    @pytest.mark.parametrize("bad, kind", [(np.nan, "NaN"), (np.inf, "inf")])
    def test_non_finite_rhs_refused(self, bad, kind):
        built = []
        with pytest.raises(ValueError, match=f"^rhs: {kind} at 1 of 3 rows"):
            pinv_solve(self.system([1.0, bad, 2.0],
                                   lambda u: u.ravel()[:3], built),
                       lambda b: b)
        assert not built

    def test_apply_with_one_value_for_three_rows_refused(self):
        built = []
        with pytest.raises(ValueError, match=r"^apply_fn: expected 3 "
                                             r"constraint values, got shape"):
            pinv_solve(self.system([1.0, 0.0, 2.0],
                                   lambda u: np.array([5.0]), built),
                       lambda b: b)
        assert not built
