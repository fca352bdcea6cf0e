"""Spectral core: transforms, derivatives, multipliers, interpolation."""

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

from ssem.assembly import (
    SmootherSpec,
    apply_smoother_half_inverse,
    smoother_multiplier_array,
)
from ssem.chebyshev import (
    NODE_MATCH_TOL,
    _chebder_matrix,
    _extrema_basis,
    _roots_basis,
    analysis,
    apply_sturm_liouville,
    bary_interp_row,
    bary_rows,
    basis_values,
    extrema_axis,
    forward_cheb,
    inverse_cheb,
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


def loop_bary_row(ax, y, order):
    """One barycentric value or derivative row at the point y, formed on
    its own: the per-point reference for the vectorized bary_rows."""
    w, d = ax.basis.weights, y - ax.nodes
    hit = np.argmin(np.abs(d))
    row = np.zeros(len(ax.nodes))
    if abs(d[hit]) < NODE_MATCH_TOL:
        if order == 0:
            row[hit] = 1.0
        else:  # the differentiation-matrix row at the node
            others = np.arange(len(ax.nodes)) != hit
            row[others] = (w[others] / w[hit]) \
                / (ax.nodes[hit] - ax.nodes[others])
            row[hit] = -row[others].sum()
        return row
    t = w / d
    if order == 0:
        return t / t.sum()
    q, qp = t.sum(), (t / d).sum()
    return -t / d / q + t * (qp / q**2)


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

    @pytest.mark.parametrize("m", [5.5, 4.0, "6", True])
    def test_roots_axis_needs_an_integer(self, m):
        # np.arange(5.5) has 6 entries: a fractional m made a 6-node axis
        with pytest.raises(ValueError, match="roots axis m must be an "
                                             "integer"):
            roots_axis(m)

    def test_extrema_axis_zero_rejected(self):
        with pytest.raises(ValueError, match="extrema axis needs n >= 1, "
                                             "got 0"):
            extrema_axis(0)

    def test_extrema_axis_needs_an_integer(self):
        # True is an int to operator.index: it made a 2-node axis
        for n in (4.5, True):
            with pytest.raises(ValueError, match="extrema axis n must be an "
                                                 "integer"):
                extrema_axis(n, 0, 1)

    @pytest.mark.parametrize("t_lo, t_hi", [(0.0, np.nan), (np.nan, 1.0),
                                            (-np.inf, 1.0), (0.0, np.inf)])
    def test_extrema_axis_needs_finite_bounds(self, t_lo, t_hi):
        with pytest.raises(ValueError, match="finite t_lo < t_hi"):
            extrema_axis(4, t_lo, t_hi)

    @pytest.mark.parametrize("t_lo, t_hi", [(1.0, 1.0), (2.0, 0.0)])
    def test_extrema_axis_needs_increasing_bounds(self, t_lo, t_hi):
        # equal bounds gave five equal nodes, on which the barycentric
        # and basis rows divide by zero
        with pytest.raises(ValueError, match="finite t_lo < t_hi"):
            extrema_axis(4, t_lo, t_hi)

    def test_numpy_integers_accepted(self):
        assert roots_axis(np.int64(5)).nodes.shape == (5,)
        assert extrema_axis(np.int32(4), 0, 2).nodes.shape == (5,)

    def test_extrema_endpoints_exact(self):
        # 0.7 + (2.9 - 0.7) rounds to 2.9000000000000004
        for t_lo, t_hi in ((0.0, 2.0), (0.7, 2.9)):
            ax = extrema_axis(10, t_lo, t_hi)
            assert ax.nodes[0] == t_lo
            assert ax.nodes[-1] == t_hi
            assert np.all(np.diff(ax.nodes) > 0)


# Each axis kind's axis of `size` nodes on [lo, hi] (a roots axis has
# no interval): a further kind joins here and must pass the contract.
AXIS_KINDS = {
    "roots": lambda size, lo, hi: roots_axis(size),
    "extrema": lambda size, lo, hi: extrema_axis(size - 1, lo, hi),
}


class TestAxisContract:
    @pytest.mark.parametrize("size", [2, 5, 16, 33])
    @pytest.mark.parametrize("kind", sorted(AXIS_KINDS))
    def test_axis_contract(self, kind, size):
        ax = AXIS_KINDS[kind](size, 0.0, 2.0)
        basis, eye = ax.basis, np.eye(size)
        v, r = basis.synthesis, basis.gram
        assert np.max(np.abs(basis.analysis @ v - eye)) < 1e-13
        assert basis_values(ax, ax.nodes) == pytest.approx(v, abs=1e-12)
        assert np.array_equal(r, np.triu(r))
        assert r.T @ r == pytest.approx(v.T @ v, abs=1e-12 * size)
        assert np.array_equal(bary_rows(ax, ax.nodes, 0), eye)
        assert not any(mat.flags.writeable for mat in basis)
        # one frequency per coefficient, read-only with the matrices
        # above: the degree k of its T_k, which the multiplier squares
        assert np.array_equal(basis.frequencies, np.arange(size))
        spec = SmootherSpec("power", 3.0)
        assert np.array_equal(smoother_multiplier_array(spec, [ax]),
                              (1.0 + np.arange(size) ** 2.0) ** -1.5)
        # one record per kind and size, whatever the interval
        assert AXIS_KINDS[kind](size, -0.7, 2.9).basis is basis


def test_multiplier_on_mixed_axes():
    # |k|^2 sums each axis' squared frequencies: roots (3 coefficients)
    # by extrema (5), in the order of the axes
    spec = SmootherSpec("power", 2.0)
    got = smoother_multiplier_array(spec, (roots_axis(3), extrema_axis(4)))
    k_squared = np.arange(3.0)[:, None] ** 2 + np.arange(5.0)[None, :] ** 2
    assert np.array_equal(got, 1.0 / (1.0 + k_squared))


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
        ax = roots_axis(m)
        assert self.rel_err(self.along(bary_rows(ax, ax.nodes, 1), u, axis),
                            self.along(d, u, axis)) < 1e-12
        d2 = bary_rows(ax, ax.nodes, 2)
        assert self.rel_err(self.along(d2, u, axis),
                            self.along(d @ d, u, axis)) < 1e-12

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("n", [6, 7, 16, 33, 64])
    def test_extrema_grid(self, n, axis):
        # the oracle's nodes ascend, -cos(pi j / n); the axis basis is
        # cos(pi j k / n) at node j, so the oracle sees u reversed
        # analysis and synthesis act on trailing axes, so the batch is
        # turned to put the extrema axis last
        u = np.moveaxis(self.batch(n + 1, axis), axis, -1)
        time = [extrema_axis(n)]
        want = forward_extrema_direct(u.reshape(-1, n + 1)[:, ::-1].T)
        want = want.T.reshape(u.shape)
        assert self.rel_err(analysis(u, time), want) < 1e-12
        assert self.rel_err(synthesis(want, time), u) < 1e-12


class TestExtremaTransform:
    def test_modes(self):
        n = 8
        j = np.arange(n + 1)
        for k in (0, 1, 3, n):
            c = analysis(np.cos(k * np.pi * j / n), [extrema_axis(n)])
            expect = np.zeros(n + 1)
            expect[k] = 1.0
            assert c == pytest.approx(expect, abs=1e-13)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((4, 11))
        time = [extrema_axis(10)]
        back = synthesis(analysis(u, time), time)
        assert np.max(np.abs(back - u)) < 1e-12


class TestDerivatives:
    @staticmethod
    def d(m):
        """The barycentric differentiation matrix D on m roots nodes."""
        ax = roots_axis(m)
        return bary_rows(ax, ax.nodes, 1)

    def test_linear(self):
        ax = roots_axis(9)
        assert self.d(9) @ ax.nodes == pytest.approx(np.ones(9), abs=1e-13)

    def test_constant(self):
        assert self.d(8) @ np.ones(8) == pytest.approx(np.zeros(8), abs=1e-13)

    def test_t3(self):
        m = 8
        theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
        expect = 3.0 * np.sin(3 * theta) / np.sin(theta)
        assert self.d(m) @ t_samples(3, m) == pytest.approx(expect, abs=1e-12)

    def test_second_derivative_of_square(self):
        ax = roots_axis(10)
        out = bary_rows(ax, ax.nodes, 2) @ roots_nodes(10)**2
        assert out == pytest.approx(np.full(10, 2.0), abs=1e-11)

    def test_t4_second_derivative(self):
        m = 12
        x, ax = roots_nodes(m), roots_axis(m)
        out = bary_rows(ax, ax.nodes, 2) @ t_samples(4, m)
        assert np.max(np.abs(out - (96 * x**2 - 16))) < 1e-10

    def test_diff1_twice_is_diff2(self):
        m = 14
        x = roots_nodes(m)
        u = 2 * x**5 - x**3 + 0.25 * x**2 - 3 * x + 1  # degree <= m-3
        once = self.d(m) @ (self.d(m) @ u)
        ax = roots_axis(m)
        twice = bary_rows(ax, ax.nodes, 2) @ u
        assert np.max(np.abs(once - twice)) < 1e-9 * np.max(np.abs(twice))

    @pytest.mark.parametrize("ax, domain", [
        (roots_axis(9), (-1.0, 1.0)),
        (extrema_axis(8, 0.0, 2.0), (0.0, 2.0)),
        (extrema_axis(5, -0.5, 1.5), (-0.5, 1.5)),
    ], ids=["roots", "extrema", "extrema-shifted"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_node_diff_matrix_exact_on_full_degree(self, ax, domain, order):
        # a polynomial of the full degree len(nodes) - 1, differentiated
        # from its node values at the nodes and at points between them
        poly = np.polynomial.Chebyshev(
            np.random.default_rng(14).standard_normal(len(ax.nodes)),
            domain=domain)
        for x in (ax.nodes, np.linspace(*domain, 14)[1:-1]):
            got = bary_rows(ax, x, order) @ poly(ax.nodes)
            want = poly.deriv(order)(x)
            assert np.max(np.abs(got - want)) \
                <= 1e-11 * np.max(np.abs(want)) * len(ax.nodes) ** order

    @pytest.mark.parametrize("order", [3, -1])
    def test_bary_rows_refuses_other_orders(self, order):
        # an unknown order must not fall through to first-derivative rows
        with pytest.raises(ValueError, match=f"no derivative of order "
                                             f"{order};"):
            bary_rows(roots_axis(6), np.array([0.1, 0.4]), order)

    def test_diff1_matches_differentiation_matrix(self):
        m = 11
        assert np.max(np.abs(self.d(m) - diff_matrix(m))) < 1e-11


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

    def test_extrema_second_time_derivative(self):
        # the map's slope enters squared: no built-in problem takes a
        # second time derivative, so only this pins the power
        axis = extrema_axis(6, 1.0, 4.0)
        t = np.linspace(1.0, 4.0, 9)
        s = 1.0 - 2.0 * (t - 1.0) / 3.0
        got = basis_values(axis, t, 2)
        for k in range(7):
            coef = np.zeros(k + 1)
            coef[k] = 1.0
            expect = 4.0 / 9.0 * ncheb.chebval(s, ncheb.chebder(coef, 2))
            assert got[:, k] == pytest.approx(expect, abs=1e-11)

    def test_derivative_order_beyond_degree_is_zero(self):
        axis = roots_axis(2)
        assert np.all(basis_values(axis, axis.nodes, 2) == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 7, 16])
    def test_gram_factor_roots(self, m):
        # exactly diagonal: the solver folds it into its scale tensor
        r = roots_axis(m).basis.gram
        vand = chebyshev_vandermonde(m)
        assert np.count_nonzero(r - np.diag(np.diag(r))) == 0
        assert r.T @ r == pytest.approx(vand.T @ vand, abs=1e-12 * m)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_gram_factor_extrema(self, n):
        r = extrema_axis(n).basis.gram
        vand = dense_operator(lambda c: synthesis(c, [extrema_axis(n)]),
                              (n + 1,))
        assert r == pytest.approx(np.triu(r), abs=0.0)
        assert r.T @ r == pytest.approx(vand.T @ vand, abs=1e-12 * n)

    def test_bary_rows_are_the_point_row_factors(self):
        axes = (roots_axis(9), roots_axis(7))
        pts = np.array([[0.3, -0.8], [axes[0].nodes[2], 0.999]])
        nrm = np.array([[0.6, 0.8], [1.0, 0.0]])
        values = [bary_rows(ax, pts[:, j]) for j, ax in enumerate(axes)]
        slopes = [bary_rows(ax, pts[:, j], 1) for j, ax in enumerate(axes)]
        slopes_at_nodes = [bary_rows(ax, ax.nodes, 1) for ax in axes]
        u = np.random.default_rng(35).standard_normal((9, 7))
        for r in range(2):
            interp = bary_interp_row(axes, pts[r])
            assert np.outer(values[0][r], values[1][r]) == pytest.approx(
                interp, abs=1e-15)
            # the slope of the interpolant is the interpolant of the
            # spectral derivative (both exact on degree m-1)
            deriv = (nrm[r, 0] * np.outer(slopes[0][r], values[1][r])
                     + nrm[r, 1] * np.outer(values[0][r], slopes[1][r]))
            grad = (nrm[r, 0] * slopes_at_nodes[0] @ u
                    + nrm[r, 1] * u @ slopes_at_nodes[1].T)
            assert np.sum(deriv * u) == pytest.approx(
                np.sum(interp * grad), rel=1e-10, abs=1e-10)

    def test_cached_matrices_are_read_only(self):
        # every build, and every thread of a pooled sweep, shares them
        for mat in (*_roots_basis(7), *_extrema_basis(6),
                    _chebder_matrix(7, 2)):
            assert not mat.flags.writeable

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

    @pytest.mark.parametrize("ax, domain", [
        (roots_axis(9), (-1.0, 1.0)),
        (extrema_axis(8, 0.0, 2.0), (0.0, 2.0)),
    ], ids=["roots", "extrema"])
    def test_points_just_off_a_node_are_not_snapped(self, ax, domain):
        # 1e-12 from a node the rows are still the interpolant's: the
        # node's own row there would be off by about 1e-12 |p'|
        poly = np.polynomial.Chebyshev(
            np.random.default_rng(15).standard_normal(len(ax.nodes)),
            domain=domain)
        x = np.concatenate([ax.nodes - 1e-12, ax.nodes + 1e-12])
        got = bary_rows(ax, x) @ poly(ax.nodes)
        assert np.max(np.abs(got - poly(x))) < 1e-13 * np.max(np.abs(poly(x)))

    @pytest.mark.parametrize("ax, domain", [
        (roots_axis(9), (-1.0, 1.0)),
        (extrema_axis(8, 0.0, 2.0), (0.0, 2.0)),
        (extrema_axis(5, -0.5, 1.5), (-0.5, 1.5)),
    ], ids=["roots", "extrema", "extrema-shifted"])
    def test_rows_exact_off_nodes(self, ax, domain):
        # a polynomial of the full degree len(nodes) - 1, and its derivative
        rng = np.random.default_rng(12)
        poly = np.polynomial.Chebyshev(rng.standard_normal(len(ax.nodes)),
                                       domain=domain)
        x = np.linspace(*domain, 14)[1:-1]
        assert np.min(np.abs(x[:, None] - ax.nodes)) > 1e-3
        samples = poly(ax.nodes)
        assert bary_rows(ax, x) @ samples == pytest.approx(
            poly(x), rel=1e-12, abs=1e-12)
        assert bary_rows(ax, x, 1) @ samples == pytest.approx(
            poly.deriv()(x), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("ax", [
        roots_axis(1), roots_axis(5), roots_axis(24),
        extrema_axis(1, 0.0, 2.0), extrema_axis(10, 0.0, 2.0),
    ], ids=["roots-1", "roots-5", "roots-24", "extrema-1", "extrema-10"])
    @pytest.mark.parametrize("order", [0, 1])
    def test_rows_equal_per_point_rows(self, ax, order):
        # same arithmetic, one point at a time: equal to the last bit
        lo, hi = ax.nodes.min(), ax.nodes.max()
        x = np.concatenate([
            np.random.default_rng(13).uniform(lo - 0.1, hi + 0.1, 40),
            ax.nodes, ax.nodes + NODE_MATCH_TOL / 10,
            ax.nodes + 100 * NODE_MATCH_TOL])
        expect = np.array([loop_bary_row(ax, y, order) for y in x])
        assert np.array_equal(bary_rows(ax, x, order), expect)

    def test_extrema_rows_at_nodes(self):
        ax = extrema_axis(7, 0.0, 2.0)
        near = ax.nodes + np.where(np.arange(8) % 2, 1.0, -1.0) \
            * NODE_MATCH_TOL / 10
        for x in (ax.nodes, near):
            assert bary_rows(ax, x) == pytest.approx(np.eye(8), abs=0.0)
            assert bary_rows(ax, x, 1) == pytest.approx(
                bary_rows(ax, ax.nodes, 1), abs=0.0)

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
