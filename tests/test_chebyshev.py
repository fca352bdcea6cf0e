"""Spectral core: transforms, derivatives, multipliers, interpolation."""

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

from ssem.assembly import SmootherSpec, apply_smoother_half_inverse
from ssem.chebyshev import (
    NODE_MATCH_TOL,
    analysis,
    apply_sturm_liouville,
    bary_interp_row,
    bary_rows,
    basis_values,
    diff1,
    diff2,
    extrema_axis,
    forward_cheb,
    forward_extrema,
    gram_factor,
    inverse_cheb,
    inverse_extrema,
    roots_axis,
    synthesis,
    tensor_rows,
)

from oracles import (
    chebyshev_vandermonde,
    dense_operator,
    diff_matrix,
    forward_cheb_direct,
    forward_extrema_direct,
    inverse_cheb_direct,
    roots_nodes,
)


def t_samples(j, m):
    """Samples of T_j on the m-point roots grid."""
    theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
    return np.cos(j * theta)


def deriv_row(axes, y, direction):
    """Directional-derivative weights at y: the derivative rows of
    bary_rows tensored with the value rows, one term per axis."""
    out = 0.0
    for j, nu_j in enumerate(direction):
        rows = [bary_rows(ax, yi, int(a == j))[0]
                for a, (ax, yi) in enumerate(zip(axes, y))]
        term = rows[0]
        for r in rows[1:]:
            term = np.multiply.outer(term, r)
        out = out + nu_j * term
    return out


class TestAxes:
    def test_single_node(self):
        ax = roots_axis(1)
        assert ax.nodes == pytest.approx([0.0], abs=1e-15)

    def test_two_nodes(self):
        ax = roots_axis(2)
        s = np.sqrt(2.0) / 2.0
        assert ax.nodes == pytest.approx([s, -s], abs=1e-15)

    def test_four_nodes(self):
        ax = roots_axis(4)
        expect = [0.9238795325112867, 0.3826834323650898,
                  -0.3826834323650898, -0.9238795325112867]
        assert ax.nodes == pytest.approx(expect, abs=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            roots_axis(0)

    def test_extrema_endpoints_exact(self):
        ax = extrema_axis(10, 0.0, 2.0)
        assert ax.nodes[0] == 0.0
        assert ax.nodes[-1] == 2.0
        assert np.all(np.diff(ax.nodes) > 0)


class TestTransforms:
    def test_constant_is_mode_zero(self):
        c = forward_cheb(np.ones(7))
        expect = np.zeros(7)
        expect[0] = 1.0
        assert c == pytest.approx(expect, abs=1e-14)

    def test_t2_mode(self):
        c = forward_cheb(t_samples(2, 4))
        assert c == pytest.approx([0, 0, 1, 0], abs=1e-14)

    def test_forward_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(8)
        c = forward_cheb(u)
        ref = forward_cheb_direct(u)
        assert np.max(np.abs(c - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_inverse_mode_zero(self):
        c = np.zeros(9)
        c[0] = 1.0
        assert inverse_cheb(c) == pytest.approx(np.ones(9), abs=1e-14)

    def test_inverse_mode_three(self):
        c = np.zeros(8)
        c[3] = 1.0
        assert inverse_cheb(c) == pytest.approx(t_samples(3, 8), abs=1e-14)

    def test_inverse_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((6, 5))
        assert inverse_cheb(c) == pytest.approx(inverse_cheb_direct(c),
                                                abs=1e-13)

    @pytest.mark.parametrize("shape", [(17,), (9, 12), (5, 6, 7)])
    def test_roundtrip(self, shape):
        rng = np.random.default_rng(sum(shape))
        u = rng.standard_normal(shape)
        back = inverse_cheb(forward_cheb(u))
        assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))

    def test_partial_axes(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((4, 8))
        c = forward_cheb(u, axes=(1,))
        ref = np.stack([forward_cheb_direct(row) for row in u])
        assert c == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 8, 17, 32, 64])
    def test_discrete_orthogonality(self, m):
        V = np.cos(np.outer(np.pi * (2 * np.arange(m) + 1) / (2 * m),
                            np.arange(m)))
        gram = V.T @ V
        expect = np.diag(np.full(m, m / 2.0))
        expect[0, 0] = m
        assert np.max(np.abs(gram - expect)) < 1e-10


class TestTransformMatrices:
    """The cached transform and derivative matrices, applied along each
    axis of a 3-D batch, against the defining sums (roots and extrema
    grids) and the barycentric differentiation matrix."""

    @staticmethod
    def batch(m, axis):
        shape = [3, 4, 5]
        shape[axis] = m
        return np.random.default_rng(m + axis).standard_normal(shape)

    @staticmethod
    def along(mat, u, axis):
        return np.moveaxis(np.tensordot(mat, u, axes=([1], [axis])), 0, axis)

    @staticmethod
    def rel_err(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("m", [6, 7, 16, 33, 64])
    def test_roots_grid(self, m, axis):
        u = self.batch(m, axis)
        one = (axis,)
        assert self.rel_err(forward_cheb(u, axes=one),
                            forward_cheb_direct(u, axes=one)) < 1e-13
        assert self.rel_err(inverse_cheb(u, axes=one),
                            inverse_cheb_direct(u, axes=one)) < 1e-12
        d = diff_matrix(m)
        assert self.rel_err(diff1(u, axis), self.along(d, u, axis)) < 1e-12
        assert self.rel_err(diff2(u, axis, axis),
                            self.along(d @ d, u, axis)) < 1e-12

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("n", [6, 7, 16, 33, 64])
    def test_extrema_grid(self, n, axis):
        # the oracle's nodes ascend, -cos(pi j / n); the axis basis is
        # cos(pi j k / n) at node j, so the oracle sees u reversed
        u = self.batch(n + 1, axis)
        moved = np.moveaxis(u, axis, 0)
        want = forward_extrema_direct(moved[::-1].reshape(n + 1, -1))
        want = np.moveaxis(want.reshape(moved.shape), 0, axis)
        assert self.rel_err(forward_extrema(u, axis), want) < 1e-12
        assert self.rel_err(inverse_extrema(want, axis), u) < 1e-12


class TestExtremaTransform:
    def test_modes(self):
        n = 8
        j = np.arange(n + 1)
        for k in (0, 1, 3, n):
            c = forward_extrema(np.cos(k * np.pi * j / n))
            expect = np.zeros(n + 1)
            expect[k] = 1.0
            assert c == pytest.approx(expect, abs=1e-13)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((4, 11))
        back = inverse_extrema(forward_extrema(u, axis=-1), axis=-1)
        assert np.max(np.abs(back - u)) < 1e-12


class TestDerivatives:
    def test_linear(self):
        ax = roots_axis(9)
        assert diff1(ax.nodes, 0) == pytest.approx(np.ones(9), abs=1e-13)

    def test_constant(self):
        assert diff1(np.ones(8), 0) == pytest.approx(np.zeros(8), abs=1e-13)

    def test_t3(self):
        m = 8
        theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
        expect = 3.0 * np.sin(3 * theta) / np.sin(theta)
        assert diff1(t_samples(3, m), 0) == pytest.approx(expect, abs=1e-12)

    def test_second_derivative_of_square(self):
        x = roots_nodes(10)
        out = diff2(x**2, 0, 0)
        assert out == pytest.approx(np.full(10, 2.0), abs=1e-11)

    def test_mixed_derivative(self):
        x = roots_nodes(7)
        y = roots_nodes(9)
        u = np.outer(x, y)
        out = diff2(u, 0, 1)
        assert out == pytest.approx(np.ones((7, 9)), abs=1e-11)

    def test_t4_second_derivative(self):
        m = 12
        x = roots_nodes(m)
        out = diff2(t_samples(4, m), 0, 0)
        assert np.max(np.abs(out - (96 * x**2 - 16))) < 1e-10

    def test_diff1_twice_is_diff2(self):
        m = 14
        x = roots_nodes(m)
        u = 2 * x**5 - x**3 + 0.25 * x**2 - 3 * x + 1  # degree <= m-3
        once = diff1(diff1(u, 0), 0)
        twice = diff2(u, 0, 0)
        assert np.max(np.abs(once - twice)) < 1e-9 * np.max(np.abs(twice))

    def test_diff1_matches_differentiation_matrix(self):
        m = 11
        dense = dense_operator(lambda u: diff1(u, 0), (m,))
        assert np.max(np.abs(dense - diff_matrix(m))) < 1e-11

    def test_diff1_on_batched_axis(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((3, 10))
        rows = np.stack([diff1(r, 0) for r in u])
        assert diff1(u, 1) == pytest.approx(rows, abs=1e-12)


class TestCoefficientSpace:
    def test_basis_values_at_nodes_is_vandermonde(self):
        m = 13
        axis = roots_axis(m)
        assert basis_values(axis, axis.nodes) == pytest.approx(
            chebyshev_vandermonde(m), abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_basis_derivatives_match_numpy_series(self, order):
        m = 11
        axis = roots_axis(m)
        x = np.array([-0.999, -0.4, 0.0, 0.31, 0.9995])
        got = basis_values(axis, x, order)
        for k in range(m):
            coef = np.zeros(k + 1)
            coef[k] = 1.0
            expect = ncheb.chebval(x, ncheb.chebder(coef, order))
            scale = max(1.0, np.max(np.abs(expect)))
            assert np.max(np.abs(got[:, k] - expect)) < 1e-12 * scale

    def test_derivative_rows_match_differentiation_matrix(self):
        m = 10
        axis = roots_axis(m)
        vand = chebyshev_vandermonde(m)
        assert basis_values(axis, axis.nodes, 1) == pytest.approx(
            diff_matrix(m) @ vand, abs=1e-10)

    def test_extrema_basis_at_nodes(self):
        n = 7
        axis = extrema_axis(n, 0.0, 2.0)
        j = np.arange(n + 1)
        expect = np.cos(np.pi * np.outer(j, j) / n)
        assert basis_values(axis, axis.nodes) == pytest.approx(expect,
                                                               abs=1e-13)

    def test_extrema_time_derivative(self):
        # d/dt of the degree-k basis on [1, 4]: s = 1 - 2 (t - 1) / 3
        axis = extrema_axis(6, 1.0, 4.0)
        t = np.linspace(1.0, 4.0, 9)
        s = 1.0 - 2.0 * (t - 1.0) / 3.0
        got = basis_values(axis, t, 1)
        for k in range(7):
            coef = np.zeros(k + 1)
            coef[k] = 1.0
            expect = -2.0 / 3.0 * ncheb.chebval(s, ncheb.chebder(coef))
            assert got[:, k] == pytest.approx(expect, abs=1e-12)

    def test_derivative_order_beyond_degree_is_zero(self):
        axis = roots_axis(2)
        assert np.all(basis_values(axis, axis.nodes, 2) == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 7, 16])
    def test_gram_factor_roots(self, m):
        r = gram_factor(roots_axis(m))
        vand = chebyshev_vandermonde(m)
        assert np.count_nonzero(r - np.diag(np.diag(r))) == 0
        assert r.T @ r == pytest.approx(vand.T @ vand, abs=1e-12 * m)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_gram_factor_extrema(self, n):
        axis = extrema_axis(n)
        r = gram_factor(axis)
        vand = dense_operator(inverse_extrema, (n + 1,))
        assert r == pytest.approx(np.triu(r), abs=0.0)
        assert r.T @ r == pytest.approx(vand.T @ vand, abs=1e-12 * n)

    def test_bary_rows_are_the_point_row_factors(self):
        axes = (roots_axis(9), roots_axis(7))
        pts = np.array([[0.3, -0.8], [axes[0].nodes[2], 0.999]])
        nrm = np.array([[0.6, 0.8], [1.0, 0.0]])
        values = [bary_rows(ax, pts[:, j]) for j, ax in enumerate(axes)]
        slopes = [bary_rows(ax, pts[:, j], 1) for j, ax in enumerate(axes)]
        u = np.random.default_rng(35).standard_normal((9, 7))
        for r in range(2):
            interp = bary_interp_row(axes, pts[r])
            assert np.outer(values[0][r], values[1][r]) == pytest.approx(
                interp, abs=1e-15)
            # the slope of the interpolant is the interpolant of the
            # spectral derivative (both exact on degree m-1)
            deriv = (nrm[r, 0] * np.outer(slopes[0][r], values[1][r])
                     + nrm[r, 1] * np.outer(values[0][r], slopes[1][r]))
            grad = nrm[r, 0] * diff1(u, 0) + nrm[r, 1] * diff1(u, 1)
            assert np.sum(deriv * u) == pytest.approx(
                np.sum(interp * grad), rel=1e-10, abs=1e-10)

    def test_tensor_rows_are_rowwise_kron(self):
        rng = np.random.default_rng(31)
        factors = [rng.standard_normal((4, s)) for s in (3, 2, 5)]
        rows = tensor_rows(factors)
        for r in range(4):
            expect = np.kron(np.kron(factors[0][r], factors[1][r]),
                             factors[2][r])
            assert rows[r] == pytest.approx(expect, abs=1e-15)

    def test_tensor_rows_of_one_factor(self):
        rng = np.random.default_rng(32)
        factor = rng.standard_normal((3, 4))
        assert tensor_rows([factor]) == pytest.approx(factor, abs=0.0)

    def test_synthesis_matches_direct_sum(self):
        rng = np.random.default_rng(33)
        c = rng.standard_normal((6, 5))
        axes = (roots_axis(6), roots_axis(5))
        assert synthesis(c, axes) == pytest.approx(inverse_cheb_direct(c),
                                                   abs=1e-12)

    def test_analysis_inverts_synthesis_on_mixed_axes(self):
        rng = np.random.default_rng(34)
        axes = (roots_axis(5), roots_axis(4), extrema_axis(3))
        c = rng.standard_normal((5, 4, 4))
        u = synthesis(c, axes)
        t_vals = np.cos(np.pi * np.outer(np.arange(4), np.arange(4)) / 3)
        direct = np.einsum("ia,jb,tc,abc->ijt", chebyshev_vandermonde(5),
                           chebyshev_vandermonde(4), t_vals, c)
        assert u == pytest.approx(direct, abs=1e-12)
        assert analysis(u, axes) == pytest.approx(c, abs=1e-12)


class TestEigenIdentity:
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_sturm_liouville_eigenvalues(self, m):
        # columns are the sampled T_j; the operator acts along axis 0
        theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
        V = np.cos(np.outer(theta, np.arange(m)))
        out = apply_sturm_liouville(V, 0)
        expect = V * np.arange(m) ** 2
        assert np.max(np.abs(out - expect)) <= 1e-8 * m**2


class TestMultipliers:
    def test_identity_multiplier(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((6, 6))
        out = apply_smoother_half_inverse(u, SmootherSpec("power", 0.0))
        assert out == pytest.approx(u, abs=1e-12)

    def test_product_mode(self):
        m = 8
        u = np.multiply.outer(np.outer(t_samples(3, m), t_samples(4, m)),
                              t_samples(1, m))
        out = apply_smoother_half_inverse(u, SmootherSpec("power", 2.0))
        assert out == pytest.approx(u / 27.0, abs=1e-12)

    def test_inverse_multiplier_roundtrip(self):
        # a negative exponent gives the reciprocal multiplier
        rng = np.random.default_rng(10)
        u = rng.standard_normal((7, 5))
        out = apply_smoother_half_inverse(
            apply_smoother_half_inverse(u, SmootherSpec("power", 4.0)),
            SmootherSpec("power", -4.0))
        assert out == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("p", [2, 4])
    def test_multiplier_matches_operator(self, p):
        # (1 - sum_i D_i^2)^{p/2} on tensor eigenfunctions vs the smoother
        # multiplier (1 + |k|^2)^{p/2}, which the exponent -p gives
        m = 12
        u = np.outer(t_samples(5, m), t_samples(2, m))

        def op_once(w):
            return (w + apply_sturm_liouville(w, 0)
                    + apply_sturm_liouville(w, 1))

        out = u
        for _ in range(p // 2):
            out = op_once(out)
        ref = apply_smoother_half_inverse(u, SmootherSpec("power", -p))
        assert np.max(np.abs(out - ref)) < 1e-9 * np.max(np.abs(ref))


class TestInterpolation:
    def test_partition_of_unity(self):
        axes = (roots_axis(9), roots_axis(7))
        row = bary_interp_row(axes, (0.123, -0.456))
        assert np.sum(row) == pytest.approx(1.0, abs=1e-13)

    def test_node_coincidence(self):
        ax = roots_axis(8)
        row = bary_interp_row((ax,), (ax.nodes[3],))
        expect = np.zeros(8)
        expect[3] = 1.0
        assert row == pytest.approx(expect, abs=0.0)

    def test_near_node_within_tolerance(self):
        ax = roots_axis(8)
        row = bary_interp_row((ax,), (ax.nodes[2] + NODE_MATCH_TOL / 10,))
        assert row[2] == 1.0

    def test_cubic_sum_value(self):
        axes = (roots_axis(10), roots_axis(10))
        u = (axes[0].nodes[:, None] ** 3) + (axes[1].nodes[None, :] ** 3)
        row = bary_interp_row(axes, (0.3, -0.7))
        assert np.sum(row * u) == pytest.approx(-0.316, abs=1e-12)

    def test_polynomial_exactness(self):
        m = 9
        rng = np.random.default_rng(11)
        coef = rng.standard_normal((m, m))
        axes = (roots_axis(m), roots_axis(m))
        u = ncheb.chebgrid2d(axes[0].nodes, axes[1].nodes, coef)
        for y in [(0.9, 0.2), (-0.33, 0.77), (0.0, 0.0)]:
            row = bary_interp_row(axes, y)
            ref = ncheb.chebval2d(y[0], y[1], coef)
            assert np.sum(row * u) == pytest.approx(ref, rel=1e-11)

    def test_derivative_of_constant(self):
        axes = (roots_axis(8), roots_axis(8))
        row = deriv_row(axes, (0.4, 0.1), (0.6, 0.8))
        assert abs(np.sum(row * np.ones((8, 8)))) < 1e-12

    def test_derivative_of_linear(self):
        ax = roots_axis(9)
        row = deriv_row((ax,), (0.37,), (1.0,))
        assert np.sum(row * ax.nodes) == pytest.approx(1.0, abs=1e-12)

    def test_derivative_of_truncated_series(self):
        # degree-5 truncations of sinh and cosh, derivative along x
        m = 10
        xs = np.linspace(-1, 1, 201)
        a = ncheb.chebfit(xs, np.sinh(xs), 5)
        b = ncheb.chebfit(xs, np.cosh(xs), 5)
        axes = (roots_axis(m), roots_axis(m))
        u = (ncheb.chebval(axes[0].nodes, a)[:, None]
             + ncheb.chebval(axes[1].nodes, b)[None, :])
        row = deriv_row(axes, (0.5, 0.2), (1.0, 0.0))
        ref = ncheb.chebval(0.5, ncheb.chebder(a))
        assert np.sum(row * u) == pytest.approx(ref, rel=1e-10)

    def test_derivative_row_at_node_is_matrix_row(self):
        ax = roots_axis(9)
        row = deriv_row((ax,), (ax.nodes[4],), (1.0,))
        assert row == pytest.approx(diff_matrix(9)[4], abs=1e-11)

    def test_derivative_direction_combination(self):
        axes = (roots_axis(8), roots_axis(8))
        x = axes[0].nodes[:, None]
        y = axes[1].nodes[None, :]
        u = x**2 * y  # du/dx = 2xy, du/dy = x^2
        nu = (0.6, 0.8)
        row = deriv_row(axes, (0.5, -0.25), nu)
        ref = nu[0] * (2 * 0.5 * -0.25) + nu[1] * 0.25
        assert np.sum(row * u) == pytest.approx(ref, abs=1e-11)
