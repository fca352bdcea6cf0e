"""Constraint assembly: operator rows, boundary rows, smoothers, A = C V."""

import functools
import re

import numpy as np
import pytest

import ssem.assembly
import ssem.experiments
from ssem.assembly import (
    BoundaryConditionSpec,
    ConstraintSystem,
    EllipticOperatorSpec,
    SmootherSpec,
    _half_inverse,
    apply_smoother_half_inverse,
    assemble_elliptic,
    build_system,
    smoother_multiplier_array,
)
from ssem.chebyshev import (
    analysis,
    extrema_axis,
    forward_cheb,
    inverse_cheb,
    roots_axis,
    synthesis,
)
from ssem.geometry import (
    BoundaryPointSet,
    DomainSpec,
    InteriorIndexSet,
    StarSurface,
    annulus_domain,
    classify_interior,
    disc_domain,
    interior_coordinates,
    sample_boundary,
    star_ball_domain,
    star_domain,
)

from ssem.parabolic import spacetime_half_inverse
from ssem.solver import RankDeficientError, pinv_solve

from oracles import chebyshev_vandermonde, dense_from_apply, \
    forward_extrema_direct

LAPLACE = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                               first_order={}, zeroth=None, source=0.0)
VARCOEF = EllipticOperatorSpec(
    second_order={(0, 0): lambda x, y: 2.0 + y, (1, 1): lambda x, y: 2.0 - x},
    first_order={}, zeroth=None,
    source=lambda x, y: -12.0 * (x + y))


def half_forward(u, spec):
    """S^{+1/2}: the reciprocal of the S^{-1/2} multiplier."""
    axes = [roots_axis(m) for m in np.shape(u)]
    mult = smoother_multiplier_array(spec, axes)
    return inverse_cheb(forward_cheb(u) / mult)


def boundary_values(domain, m, bc, u_fn):
    """(boundary rows of C applied to u = u_fn on the grid, the points,
    the normals) of an assembled system."""
    axes = (roots_axis(m), roots_axis(m))
    system = assemble_elliptic(domain, axes, LAPLACE, bc)
    u = np.broadcast_to(u_fn(axes[0].nodes[:, None], axes[1].nodes[None, :]),
                        (m, m))
    vals = system.apply(u)[system.n_omega:]
    return vals, system.boundary.points, system.boundary.normals


def interior_values(u, op, interior, axes):
    """The interior rows of C, for op collocated at interior, applied to
    the grid function u: a system of that one group."""
    d = len(axes)
    no_boundary = BoundaryPointSet(np.empty((0, d)), np.empty((0, d)))
    return build_system(axes, [(interior, op)], interior, no_boundary,
                        None).apply(u)


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
        vals = interior_values(u, LAPLACE, interior, axes)
        assert np.max(np.abs(vals)) < 1e-10

    def test_variable_coefficients(self):
        m = 12
        axes = (roots_axis(m), roots_axis(m))
        interior = classify_interior(star_domain(), axes)
        coords = interior_coordinates(axes, interior)
        u = axes[0].nodes[:, None] ** 3 + axes[1].nodes[None, :] ** 3
        vals = interior_values(u, VARCOEF, interior, axes)
        expect = -12.0 * (coords[:, 0] + coords[:, 1])
        assert np.max(np.abs(vals - expect)) < 1e-9

    def test_zeroth_order_is_restriction(self):
        axes, _, interior, coords = disc_setup()
        rng = np.random.default_rng(0)
        u = rng.standard_normal((10, 10))
        spec = EllipticOperatorSpec(second_order={}, first_order={},
                                    zeroth=1.0, source=0.0)
        vals = interior_values(u, spec, interior, axes)
        assert vals == pytest.approx(u[tuple(interior.indices.T)], abs=0.0)

    def test_first_order_term(self):
        axes, _, interior, coords = disc_setup()
        u = np.broadcast_to(axes[0].nodes[:, None] ** 2, (10, 10)).copy()
        spec = EllipticOperatorSpec(second_order={}, first_order={0: 1.0},
                                    zeroth=None, source=0.0)
        vals = interior_values(u, spec, interior, axes)
        assert vals == pytest.approx(2.0 * coords[:, 0], abs=1e-11)


class TestBoundaryRow:
    def test_dirichlet_trace(self):
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        vals, pts, _ = boundary_values(disc_domain(), 10, bc,
                                       lambda x, y: x**2 - y**2)
        assert vals == pytest.approx(pts[:, 0] ** 2 - pts[:, 1] ** 2,
                                     abs=1e-11)

    def test_neumann_flux(self):
        bc = BoundaryConditionSpec(trace=0.0, flux=1.0, data=0.0)
        vals, pts, nrm = boundary_values(star_domain(), 12, bc,
                                         lambda x, y: x**3 + y**3)
        expect = 3 * (pts[:, 0] ** 2 * nrm[:, 0] + pts[:, 1] ** 2 * nrm[:, 1])
        assert vals == pytest.approx(expect, abs=1e-9)

    def test_robin_on_constant(self):
        bc = BoundaryConditionSpec(trace=1.0, flux=1.0, data=0.0)
        vals, _, _ = boundary_values(annulus_domain(), 9, bc,
                                     lambda x, y: 1.0)
        assert vals == pytest.approx(np.ones(vals.size), abs=1e-11)

    def test_degenerate_coefficients_rejected(self):
        axes = (roots_axis(8), roots_axis(8))
        bc = BoundaryConditionSpec(trace=0.0, flux=0.0, data=0.0)
        with pytest.raises(ValueError):
            assemble_elliptic(disc_domain(), axes, LAPLACE, bc)


def bad_inputs(spoil):
    """culprit -> (operator fields, boundary fields) that make that one
    input of a Dirichlet Laplace problem return spoil(x > 0) at its nodes
    or points."""
    nodes = lambda x, y: spoil(x > 0.0)
    points = lambda pts, nrm: spoil(pts[:, 0] > 0.0)
    return {
        "operator coefficient a[1, 1]":
            ({"second_order": {(0, 0): 1.0, (1, 1): nodes}}, {}),
        "operator coefficient b[0]": ({"first_order": {0: nodes}}, {}),
        "operator coefficient c": ({"zeroth": nodes}, {}),
        "source": ({"source": nodes}, {}),
        "boundary trace coefficient": ({}, {"trace": points}),
        "boundary flux coefficient": ({}, {"flux": points}),
        "boundary data": ({}, {"data": points}),
    }


class TestInputChecks:
    """Assembly names the culprit of non-finite input before any matrix
    is built; without the checks NaN data surfaced only after the QR."""

    @pytest.mark.parametrize("value, kind", [(np.nan, "NaN"),
                                             (np.inf, "inf")])
    @pytest.mark.parametrize("culprit", list(bad_inputs(None)))
    def test_non_finite_culprit_named(self, culprit, value, kind):
        spoil = lambda mask: np.where(mask, value, 1.0)
        with pytest.raises(ValueError, match=rf"^{re.escape(culprit)}: "
                                             rf"{kind} at \d+ of \d+ points"):
            self.assemble(*bad_inputs(spoil)[culprit])

    @pytest.mark.parametrize("spoil, got", [
        (lambda mask: np.ones((len(mask), 2)), r"\(\d+, 2\)"),
        (lambda mask: np.ones(3), r"\(3,\)")], ids=["n-by-2", "three"])
    @pytest.mark.parametrize("culprit", list(bad_inputs(None)))
    def test_wrong_shape_culprit_named(self, culprit, spoil, got):
        # numpy's broadcast error named nothing: "operands could not be
        # broadcast together", "input operand has more dimensions"
        with pytest.raises(ValueError, match=rf"^{re.escape(culprit)}: "
                                             rf"expected a scalar or \d+ "
                                             rf"values, got shape {got}$"):
            self.assemble(*bad_inputs(spoil)[culprit])

    @staticmethod
    def assemble(op_fields, bc_fields):
        """A Dirichlet Laplace problem on the disc, with the given fields."""
        op = EllipticOperatorSpec(**{
            "second_order": {(0, 0): 1.0, (1, 1): 1.0}, "first_order": {},
            **op_fields})
        bc = BoundaryConditionSpec(**{"trace": 1.0, "flux": 0.0, "data": 0.0,
                                      **bc_fields})
        axes = (roots_axis(10), roots_axis(10))
        return assemble_elliptic(disc_domain(), axes, op, bc)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("field, key", [
        ("second_order", (3, 3)), ("second_order", (-1, -1)),
        ("second_order", (0, 3)), ("second_order", 0),
        ("second_order", (0, 0, 0)), ("first_order", 3),
        ("first_order", -1), ("first_order", (0,)), ("first_order", 0.0)])
    def test_operator_axis_out_of_range_rejected(self, d, field, key):
        # axis i was taken as i % d, so (3, 3) on a 2-D grid solved the
        # Laplacian
        calls = []

        def coeff(*coords):
            calls.append(1)
            return 1.0

        spec = {"second_order": {}, "first_order": {}}
        spec[field] = {key: coeff}
        op = EllipticOperatorSpec(**spec)
        axes = (roots_axis(6),) * d
        domain = disc_domain() if d == 2 else star_ball_domain()
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        order = 2 if field == "second_order" else 1
        with pytest.raises(ValueError, match=re.escape(
                f"operator order-{order} key {key!r}: expected")):
            assemble_elliptic(domain, axes, op, bc)
        assert not calls  # refused before any coefficient is evaluated

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_axis_in_range_accepted(self, d):
        # the last axis, e.g. the heat operator's u_t on (x, y, t)
        op = EllipticOperatorSpec(
            second_order={(d - 1, d - 1): 1.0, (0, d - 1): 0.5,
                          (d - 1, 0): 0.5},
            first_order={d - 1: 1.0}, zeroth=1.0)
        axes = (roots_axis(6),) * d
        domain = disc_domain() if d == 2 else star_ball_domain()
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        system = assemble_elliptic(domain, axes, op, bc)
        assert system.coefficient_matrix().shape == (system.n_rows, 6 ** d)

    def test_boundary_samples_outside_box_rejected(self):
        # a ball of radius 1.2: its Fibonacci samples leave (-1, 1)^3
        ball = DomainSpec(
            dim=3, inside=lambda x, y, z: np.sqrt(x * x + y * y + z * z) - 1.2,
            boundary=StarSurface(
                radius=lambda polar, azim: np.full_like(polar, 1.2),
                normal=lambda pts: pts / np.linalg.norm(pts, axis=-1,
                                                        keepdims=True),
                max_radius=1.2))
        laplace3 = EllipticOperatorSpec(
            second_order={(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0},
            first_order={})
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        axes = (roots_axis(6),) * 3
        with pytest.raises(ValueError, match=r"outside \(-1, 1\)\^3"):
            assemble_elliptic(ball, axes, laplace3, bc)


class TestBuildRhs:
    """The right-hand side: source at interior nodes, boundary data after."""

    def test_zero_source_unit_data(self):
        axes, domain, _, _ = disc_setup()
        op = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                                  first_order={}, zeroth=None, source=0.0)
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=1.0)
        system = assemble_elliptic(domain, axes, op, bc)
        interior, boundary, b = system.interior, system.boundary, system.rhs
        assert b.shape == (interior.count + boundary.count,)
        assert b[:interior.count] == pytest.approx(
            np.zeros(interior.count), abs=0.0)
        assert b[interior.count:] == pytest.approx(
            np.ones(boundary.count), abs=0.0)

    def test_dirichlet_disc_data(self):
        axes, domain, _, _ = disc_setup()
        bc = BoundaryConditionSpec(
            trace=1.0, flux=0.0,
            data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2)
        system = assemble_elliptic(domain, axes, LAPLACE, bc)
        interior, boundary, b = system.interior, system.boundary, system.rhs
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
        back = half_forward(apply_smoother_half_inverse(u, spec), spec)
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

    @pytest.mark.parametrize("d", [3, 0, -1])
    def test_grid_axis_count_outside_the_array_refused(self, d):
        # d = 3 of a 6 x 6 array used to give a tensor, d = 0 and d = -1
        # returned u unchanged
        with pytest.raises(ValueError, match=(
                rf"^apply_smoother_half_inverse: d = {d} grid axes of an "
                rf"array of 2; d must be in 1\.\.2$")):
            apply_smoother_half_inverse(np.ones((6, 6)), SmootherSpec(), d)

    @pytest.mark.parametrize("d", [1.5, True])
    def test_grid_axis_count_not_an_integer_refused(self, d):
        # d = 1.5 failed slicing u.shape with a TypeError; d = True was
        # taken as 1
        with pytest.raises(ValueError, match=(
                rf"^apply_smoother_half_inverse: d must be an integer, "
                rf"got {d}$")):
            apply_smoother_half_inverse(np.ones((6, 6)), SmootherSpec(), d)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown smoother kind 'gauss'"):
            SmootherSpec("gauss", 4.0)

    @pytest.mark.parametrize("p", [None, np.nan, np.inf, -np.inf])
    def test_power_needs_a_finite_exponent(self, p):
        with pytest.raises(ValueError, match="finite exponent"):
            SmootherSpec("power", p)

    @pytest.mark.parametrize("p", [0.0, -4.0])
    def test_zero_and_negative_exponents_allowed(self, p):
        # S^0 is the identity and a negative p gives S^{+1/2}
        k2 = np.arange(5.0) ** 2
        assert SmootherSpec("power", p).half_inverse_multiplier(k2) \
            == pytest.approx((1.0 + k2) ** (-p / 2.0), rel=1e-15)


def dirichlet_disc_system(m=10):
    axes = (roots_axis(m), roots_axis(m))
    bc = BoundaryConditionSpec(
        trace=1.0, flux=0.0,
        data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2)
    return assemble_elliptic(disc_domain(), axes, LAPLACE, bc)


def factored_transpose(system, spec):
    """M' = R_V^{-T} diag(mu) A^T, the matrix pinv_solve factors."""
    r_v = np.kron(*(ax.basis.gram for ax in system.axes))
    mult = smoother_multiplier_array(spec, system.axes).ravel()
    return np.linalg.solve(r_v.T, mult[:, None]
                           * system.coefficient_matrix().T)


def dense_half_inverse(spec, vands):
    """V diag(mu) V^{-1} as a dense matrix, for V the Kronecker product of
    the per-axis synthesis matrices vands and mu spec's multiplier of
    |k|^2, k = 0..size-1 on each axis."""
    k_squared = functools.reduce(np.add.outer, [
        np.arange(len(v), dtype=float) ** 2 for v in vands]).ravel()
    mu = ((1.0 + k_squared) ** (-spec.p / 2.0) if spec.kind == "power"
          else np.exp(-np.sqrt(k_squared) / 2.0))
    vand = functools.reduce(np.kron, vands)
    return vand @ np.diag(mu) @ np.linalg.inv(vand)


class TestHalfInverseBody:
    """The one S^{-1/2} on grid functions, against the dense
    V diag(mu) V^{-1} of the oracles' synthesis matrices."""

    @staticmethod
    def time_vandermonde(n):
        # the oracle's nodes ascend; the extrema axis' descend in its
        # reference variable, so V_t^{-1} is the oracle on reversed rows
        return np.linalg.inv(forward_extrema_direct(np.eye(n + 1)[::-1]))

    @pytest.mark.parametrize("spec", [SmootherSpec("power", 4.0),
                                      SmootherSpec("exp")])
    def test_roots_grid(self, spec):
        axes = (roots_axis(5), roots_axis(6))
        u = np.random.default_rng(51).standard_normal((5, 6))
        want = dense_half_inverse(
            spec, [chebyshev_vandermonde(5), chebyshev_vandermonde(6)])
        got = _half_inverse(u, spec, axes)
        assert np.max(np.abs(got.ravel() - want @ u.ravel())) < 1e-13
        assert np.array_equal(apply_smoother_half_inverse(u, spec), got)

    @pytest.mark.parametrize("spec", [SmootherSpec("power", 4.0),
                                      SmootherSpec("exp")])
    def test_spacetime_grid(self, spec):
        axes = (roots_axis(4), roots_axis(5), extrema_axis(3, 0.0, 2.0))
        u = np.random.default_rng(52).standard_normal((4, 5, 4))
        want = dense_half_inverse(spec, [
            chebyshev_vandermonde(4), chebyshev_vandermonde(5),
            self.time_vandermonde(3)])
        got = _half_inverse(u, spec, axes)
        assert np.max(np.abs(got.ravel() - want @ u.ravel())) < 1e-13
        assert np.array_equal(spacetime_half_inverse(u, spec), got)

    def test_batched_roots_input(self):
        # leading axes are a batch: each (5, 6) slice on its own
        spec = SmootherSpec("power", 6.0)
        u = np.random.default_rng(53).standard_normal((2, 3, 5, 6))
        want = dense_half_inverse(
            spec, [chebyshev_vandermonde(5), chebyshev_vandermonde(6)])
        got = _half_inverse(u, spec, (roots_axis(5), roots_axis(6)))
        flat = u.reshape(6, 30) @ want.T
        assert np.max(np.abs(got - flat.reshape(u.shape))) < 1e-13
        assert np.array_equal(apply_smoother_half_inverse(u, spec, d=2), got)


class TestEquivariance:
    """A problem solved in coordinates z = L x, for L a signed permutation
    (the reflection x -> -x, or the swap of the axes), gives the solution
    mapped by L: u'(L x) = u(x) on the grid, to rounding times cond.

    With H and grad u the Hessian and gradient in x, u' has L H L^T and
    L grad u, so the operator -a:H + b.grad u + c u = f becomes a' =
    L a L^T, b' = L b, with c and f unchanged, all at x = L^T z; a
    boundary point z = L x takes the normal L nu, and trace, flux and
    data stay those at (x, nu). Roots node k of an axis maps to node
    m - 1 - k under the reflection; the index sets, points and normals
    are mapped by hand, in their original order, since sampling the
    mapped domain would start its arclength elsewhere."""

    SECOND = {(0, 0): lambda x, y: 2.0 + 0.3 * x + 0.1 * y,
              (1, 1): lambda x, y: 1.5 - 0.2 * x * y,
              (0, 1): lambda x, y: 0.2 + 0.1 * x,
              (1, 0): lambda x, y: 0.2 + 0.1 * x}
    FIRST = {0: lambda x, y: 0.5 + x, 1: lambda x, y: 0.2 * x - 0.3 * y}

    @classmethod
    def mapped_problem(cls, lin):
        """(operator, condition) of the test problem in z = lin x."""
        def at_x(fn):
            return lambda z0, z1: fn(*(lin.T @ np.stack([z0, z1])))

        def second(i, j):
            return lambda *z: sum(lin[i, k] * lin[j, l] * at_x(a)(*z)
                                  for (k, l), a in cls.SECOND.items())

        def first(i):
            return lambda *z: sum(lin[i, k] * at_x(b)(*z)
                                  for k, b in cls.FIRST.items())

        def on_boundary(fn):
            return lambda pts, nrm: fn(pts @ lin, nrm @ lin)

        op = EllipticOperatorSpec(
            second_order={key: second(*key) for key in cls.SECOND},
            first_order={i: first(i) for i in cls.FIRST},
            zeroth=at_x(lambda x, y: 1.0 + 0.5 * x * x + 0.2 * y),
            source=at_x(lambda x, y: np.exp(x) * np.sin(2.0 * y + 0.3) + x))
        bc = BoundaryConditionSpec(
            trace=on_boundary(lambda p, n: 1.0 + 0.2 * p[:, 0]),
            flux=on_boundary(lambda p, n: 0.3 + 0.1 * n[:, 1]
                             + 0.05 * p[:, 1]),
            data=on_boundary(lambda p, n: np.cos(p[:, 0] + 2.0 * p[:, 1])
                             + n[:, 0]))
        return op, bc

    @staticmethod
    def mapped_indices(lin, idx, m):
        """Grid multi-indices (k, 2) of the nodes L x for the nodes x."""
        src = np.argmax(np.abs(lin), axis=1)
        return np.stack([idx[:, s] if lin[a, s] > 0 else m - 1 - idx[:, s]
                         for a, s in enumerate(src)], axis=1)

    @pytest.mark.parametrize("m, p", [(12, 6.0), (16, 4.0), (20, 6.0)])
    @pytest.mark.parametrize("lin", [np.diag([-1.0, 1.0]),
                                     np.array([[0.0, 1.0], [1.0, 0.0]])],
                             ids=["reflect", "swap"])
    def test_mapped_problem_gives_mapped_solution(self, lin, m, p):
        axes = (roots_axis(m), roots_axis(m))
        interior = classify_interior(star_domain(), axes)
        boundary = sample_boundary(star_domain(), m)
        grid = np.indices((m, m)).reshape(2, -1).T
        solves = []
        for lmap in (np.eye(2), lin):
            mapped = InteriorIndexSet(
                self.mapped_indices(lmap, interior.indices, m))
            points = BoundaryPointSet(boundary.points @ lmap.T,
                                      boundary.normals @ lmap.T)
            op, bc = self.mapped_problem(lmap)
            system = build_system(axes, [(mapped, op), (points, bc)],
                                  mapped, points, apply_smoother_half_inverse)
            report = pinv_solve(system, SmootherSpec("power", p))
            at_x = self.mapped_indices(lmap, grid, m)
            solves.append((report.solution[tuple(at_x.T)].reshape(m, m),
                           report.cond_estimate))
        (u, cond), (u_mapped, cond_mapped) = solves
        eps = np.finfo(float).eps
        assert cond > 1e3
        assert abs(cond_mapped / cond - 1.0) <= eps * cond
        assert np.max(np.abs(u_mapped - u)) <= eps * cond * np.max(np.abs(u))


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

    def test_coefficients_evaluated_once_per_build(self):
        calls = []

        def a11(x, y):
            calls.append(len(x))
            return 2.0 - x

        op = EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): a11},
                                  first_order={}, zeroth=None, source=0.0)
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        axes = (roots_axis(10), roots_axis(10))
        system = assemble_elliptic(disc_domain(), axes, op, bc)
        built = len(calls)
        u = np.random.default_rng(9).standard_normal((10, 10))
        for _ in range(3):
            system.residual(u)
        assert built >= 1
        assert len(calls) == built

    def test_coefficient_arrays_are_copied_at_build(self):
        # a callable may return an array it keeps; changing that array
        # after the build must not change the built constraints
        kept = {}

        def trace(pts, nrm):
            kept["a"] = 1.0 + pts[:, 0] ** 2
            return kept["a"]

        bc = BoundaryConditionSpec(trace=trace, flux=0.5, data=0.0)
        axes = (roots_axis(10), roots_axis(10))
        system = assemble_elliptic(disc_domain(), axes, LAPLACE, bc)
        u = np.random.default_rng(10).standard_normal((10, 10))
        before, mat = system.apply(u), system.coefficient_matrix()
        kept["a"][:] = -7.0
        assert np.array_equal(system.apply(u), before)
        assert np.array_equal(system.coefficient_matrix(), mat)


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
        r_v = np.kron(*(ax.basis.gram for ax in system.axes))
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
        r_v = np.kron(*(ax.basis.gram for ax in system.axes))
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

    def test_all_zero_operator_is_rank_deficient(self):
        # every term of the operator is dropped, so its rows of A are
        # zero, and the first of them is the first column of the factored
        # matrix
        zero = EllipticOperatorSpec(second_order={(0, 0): 0.0, (1, 1): 0.0},
                                    first_order={1: 0.0}, zeroth=0.0,
                                    source=0.0)
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=1.0)
        system = assemble_elliptic(disc_domain(), (roots_axis(10),) * 2,
                                   zero, bc)
        mat = system.coefficient_matrix()
        assert not mat[:system.n_omega].any()
        assert mat[system.n_omega:].any()
        assert not system.apply(np.ones((10, 10)))[:system.n_omega].any()
        with pytest.raises(RankDeficientError) as info:
            pinv_solve(system, SmootherSpec("power", 4.0))
        assert info.value.column == 0

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


def mirror_blocks_as_rows(system):
    """(B, b_B): every ParityBlock's rows put back at their coefficients of
    the full grid, stacked, then the border's, and the blocks' right-hand
    sides."""
    rows, rhs = [], []
    border = [] if system.border is None else [system.border]
    for block in system.parity_blocks() + border:
        mat = system.block_matrix(block)
        full = np.zeros((len(mat),) + system.grid_shape)
        full[(slice(None),) + block.columns] = mat.reshape(
            (len(mat),) + block.coefficient_shape(system.grid_shape))
        rows.append(full.reshape(len(mat), -1))
        rhs.append(block.rhs)
    return np.concatenate(rows), np.concatenate(rhs)


def perturbed_disc_system(m, move=0.0, bump=0.0):
    """The Dirichlet disc system with boundary point 3 moved by move along
    x, and the zeroth-order coefficient raised by bump at one node."""
    axes = (roots_axis(m), roots_axis(m))
    interior = classify_interior(disc_domain(), axes)
    boundary = sample_boundary(disc_domain(), m)
    points = boundary.points.copy()
    points[3, 0] += move
    moved = BoundaryPointSet(points, boundary.normals)
    x0, y0 = axes[0].nodes[3], axes[1].nodes[4]
    op = EllipticOperatorSpec(
        second_order={(0, 0): 1.0, (1, 1): 1.0}, first_order={},
        zeroth=lambda x, y: 1.0 + bump * ((x == x0) & (y == y0)),
        source=0.0)
    bc = BoundaryConditionSpec(trace=1.0, flux=0.0,
                               data=lambda pts, nrm: pts[:, 0])
    return build_system(axes, [(interior, op), (moved, bc)], interior, moved,
                        apply_smoother_half_inverse)


class TestMirrorSplit:
    """Each reflection x_a -> -x_a that maps a system's rows onto
    themselves splits A into parity blocks: an orthogonal recombination of
    its rows, so the blocks B put back at their coefficients have B^T B =
    A^T A and B^T b_B = A^T b, and the minimal-norm solution is A's.
    Where no reflection maps every group, those that map the interior
    rows split them, and the boundary rows they do not map are the
    border, at full width."""

    @staticmethod
    def built(problem_id, m):
        return ssem.experiments._PROBLEMS[problem_id].build(m)[0]

    @pytest.mark.parametrize("problem_id, m, axes", [
        ("dirichlet-disc", 10, (0, 1)), ("dirichlet-disc", 12, (1,)),
        ("robin-annulus", 12, (1,)), ("parabolic-star", 10, (1,)),
        ("neumann-star", 10, ()), ("dirichlet-3d", 10, (0, 1, 2))])
    def test_reflections_found(self, problem_id, m, axes):
        system = self.built(problem_id, m)
        assert tuple(a for a, _ in system._reflections) == axes
        assert len(system.parity_blocks()) == 2 ** len(axes)
        # the 3-D samples mirror on no axis: the boundary rows are the
        # border, which every reflection fixes
        if problem_id == "dirichlet-3d":
            border = np.arange(system.interior.count, system.n_rows)
            assert np.array_equal(system.border.rows, border)
            for _, mirror in system._reflections:
                assert np.array_equal(mirror[border], border)
        else:
            assert system.border is None

    @pytest.mark.parametrize("problem_id, m", [
        ("dirichlet-disc", 10), ("dirichlet-disc", 14),
        ("robin-annulus", 12), ("parabolic-star", 10), ("dirichlet-3d", 8)])
    def test_blocks_recombine_the_rows_orthogonally(self, problem_id, m):
        system = self.built(problem_id, m)
        mat = system.coefficient_matrix()
        blocks, rhs = mirror_blocks_as_rows(system)
        assert blocks.shape == mat.shape
        scale = np.abs(mat).max() ** 2 * len(mat)
        assert np.max(np.abs(blocks.T @ blocks - mat.T @ mat)) \
            <= 1e-14 * scale
        assert np.max(np.abs(blocks.T @ rhs - mat.T @ system.rhs)) \
            <= 1e-14 * scale * np.abs(system.rhs).max()

    def test_self_mirrored_rows_sit_in_the_even_block(self):
        # the boundary points on y = 0 are their own mirrors: their rows
        # have no odd-k_y part, so only the even block holds them
        system = self.built("parabolic-star", 10)
        (_, mirror), = system._reflections
        own = np.flatnonzero(mirror == np.arange(system.n_rows))
        even, odd = system.parity_blocks()
        assert own.size and np.isin(own, even.rows).all()
        assert not np.isin(own, odd.rows).any()
        assert np.all(even.root[np.isin(even.rows, own)] == 1.0)
        assert len(even.rows) - len(odd.rows) == own.size

    def test_unsplit_block_is_the_whole_matrix(self):
        system = self.built("neumann-star", 10)
        block, = system.parity_blocks()
        assert np.array_equal(block.rows, np.arange(system.n_rows))
        assert np.array_equal(block.rhs, system.rhs)
        assert np.array_equal(system.block_matrix(block),
                              system.coefficient_matrix())

    def test_uneven_coefficients_do_not_split(self):
        # neumann-star's samples mirror in y, but 2 + y and 2 - x are not
        # even in y
        system = self.built("neumann-star", 12)
        points = system.boundary.points
        assert ssem.assembly._match(points, points * [1.0, -1.0]) is not None
        assert system._reflections == ()

    def test_moved_boundary_point_goes_to_the_border(self):
        # the interior still mirrors on both axes and splits; the boundary
        # group no longer does, so its rows are the border
        assert len(perturbed_disc_system(10)._reflections) == 2
        assert perturbed_disc_system(10).border is None
        system = perturbed_disc_system(10, move=1e-9)
        assert [a for a, _ in system._reflections] == [0, 1]
        assert np.array_equal(system.border.rows,
                              np.arange(system.interior.count, system.n_rows))
        assert np.array_equal(system.border.rhs,
                              system.rhs[system.interior.count:])
        assert len(system.parity_blocks()) == 4

    def test_one_changed_coefficient_does_not_split(self):
        assert perturbed_disc_system(10, bump=0.5)._reflections == ()

    def test_repeated_row_does_not_split(self):
        # a node or point listed twice in one group: its mirror has no
        # one partner, so no pairing is a bijection
        axes = (roots_axis(6), roots_axis(6))
        op = EllipticOperatorSpec({}, {}, zeroth=1.0, source=0.0)
        nodes = InteriorIndexSet(np.array([[1, 1], [1, 4], [1, 1]]))
        assert build_system(axes, [(nodes, op)], nodes, nodes,
                            None)._reflections == ()
        bc = BoundaryConditionSpec(trace=1.0, flux=0.0, data=0.0)
        pts = np.array([[0.5, 0.3], [0.5, -0.3], [0.5, 0.3]])
        where = BoundaryPointSet(pts, np.zeros_like(pts))
        assert build_system(axes, [(where, bc)], where, where,
                            None)._reflections == ()
        where = BoundaryPointSet(pts[:2], np.zeros((2, 2)))
        assert [a for a, _ in build_system(axes, [(where, bc)], where, where,
                                           None)._reflections] == [1]

    def test_mirrored_sample_within_tolerance_splits(self):
        # a point moved well inside MIRROR_TOL still pairs with its mirror
        tol = ssem.assembly.MIRROR_TOL
        assert len(perturbed_disc_system(10, move=tol / 4)._reflections) == 2
