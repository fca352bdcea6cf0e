"""Coefficient-space constraint rows A = C V against the implicit operators.

Property tests over random operators (variable, mixed, first- and
zeroth-order terms), boundary conditions (trace, flux, Robin) and domains
(disc, star, annulus, 3-D ball, space-time star): A applied to the
Chebyshev coefficients of u must give C u, and A must equal the dense
C (materialized column by column through system.apply) times the dense
tensor Vandermonde V.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssem.assembly
from ssem.assembly import (
    BoundaryConditionSpec,
    EllipticOperatorSpec,
    _fill_rows,
    assemble_elliptic,
)
from ssem.chebyshev import extrema_axis, forward_cheb, roots_axis, tensor_rows
from ssem.geometry import (
    annulus_domain,
    disc_domain,
    star_ball_domain,
    star_domain,
)
from ssem.parabolic import ParabolicProblem, SpaceTimeGrid, assemble_parabolic

from oracles import chebyshev_vandermonde, dense_from_apply

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
# Both realizations are exact on the degree-(m-1) tensor polynomials; what
# separates them is rounding in the DCT derivatives and barycentric rows.
REL_TOL = 1e-10

# the 2-D domains are built once: their arclength tables are cached
DOMAINS_2D = {"disc": disc_domain(), "star": star_domain(),
              "annulus": annulus_domain()}
BALL = star_ball_domain()

coefficient = st.floats(-1.0, 1.0, allow_nan=False)


def tensor_vandermonde(m, d):
    vand = chebyshev_vandermonde(m)
    out = vand
    for _ in range(d - 1):
        out = np.kron(out, vand)
    return out


@st.composite
def operators(draw, d):
    """Uniformly elliptic operators with optional lower-order terms."""
    def varying(base, axis, scale):
        # base + scale * x_axis: a callable of the unpacked coordinates
        return lambda *x: base + scale * x[axis]

    second = {}
    for i in range(d):
        scale = draw(coefficient) * 0.5
        if draw(st.booleans()):
            second[(i, i)] = varying(2.0, (i + 1) % d, scale)
        else:
            second[(i, i)] = 2.0 + scale
    if draw(st.booleans()):
        mixed = draw(coefficient) * 0.5
        second[(0, 1)] = mixed
        second[(1, 0)] = mixed
    first = {}
    for i in range(d):
        if draw(st.booleans()):
            first[i] = varying(draw(coefficient), i, draw(coefficient))
    zeroth = None
    if draw(st.booleans()):
        zeroth = varying(1.0, 0, draw(coefficient) * 0.5)
    return EllipticOperatorSpec(second_order=second, first_order=first,
                                zeroth=zeroth, source=0.0)


@st.composite
def boundary_conditions(draw):
    kind = draw(st.sampled_from(["trace", "flux", "robin"]))
    a = 1.0 + 0.5 * draw(coefficient)
    b = 1.0 + 0.5 * draw(coefficient)
    if kind == "trace":
        return BoundaryConditionSpec(trace=a, flux=0.0, data=0.0)
    if kind == "flux":
        return BoundaryConditionSpec(trace=0.0, flux=b, data=0.0)
    # variable Robin weights, nonvanishing on the box
    return BoundaryConditionSpec(
        trace=lambda pts, nrm: a + 0.25 * pts[:, 0],
        flux=lambda pts, nrm: b - 0.25 * pts[:, 1], data=0.0)


def check_rows(system, shape, vand, seed):
    mat = system.coefficient_matrix()
    assert mat.shape == (system.n_rows, int(np.prod(shape)))
    scale = np.max(np.abs(mat))

    u = np.random.default_rng(seed).standard_normal(shape)
    coef = forward_cheb(u) if vand is None else np.linalg.solve(
        vand, u.ravel())
    gap = np.abs(mat @ coef.ravel() - system.apply(u))
    assert np.all(gap < REL_TOL * (np.abs(mat) @ np.abs(coef.ravel())))

    dense_c = dense_from_apply(system.apply, shape, system.n_rows)
    expect = dense_c @ (tensor_vandermonde(shape[0], len(shape))
                        if vand is None else vand)
    assert np.max(np.abs(mat - expect)) < REL_TOL * scale


@PROPERTY
@given(name=st.sampled_from(sorted(DOMAINS_2D)), m=st.integers(6, 12),
       op=operators(2), bc=boundary_conditions(),
       seed=st.integers(0, 2**16))
def test_planar_rows(name, m, op, bc, seed):
    axes = (roots_axis(m), roots_axis(m))
    system = assemble_elliptic(DOMAINS_2D[name], axes, op, bc)
    check_rows(system, (m, m), None, seed)


@settings(PROPERTY, max_examples=6)
@given(m=st.integers(6, 8), op=operators(3), bc=boundary_conditions(),
       seed=st.integers(0, 2**16))
def test_ball_rows(m, op, bc, seed):
    axes = tuple(roots_axis(m) for _ in range(3))
    system = assemble_elliptic(BALL, axes, op, bc)
    check_rows(system, (m, m, m), None, seed)


@settings(PROPERTY, max_examples=6)
@given(m=st.integers(6, 9), n=st.integers(2, 5),
       t_hi=st.floats(0.5, 3.0), seed=st.integers(0, 2**16))
def test_spacetime_rows(m, n, t_hi, seed):
    problem = ParabolicProblem(
        domain=DOMAINS_2D["star"],
        initial=lambda x, y: x * y,
        lateral=BoundaryConditionSpec(
            trace=1.0, flux=0.0, data=lambda pts, nrm: pts[:, 0] + pts[:, 2]))
    grid = SpaceTimeGrid(space_axes=(roots_axis(m), roots_axis(m)),
                         time_axis=extrema_axis(n, 0.0, t_hi))
    system = assemble_parabolic(problem, grid)
    j = np.arange(n + 1)
    vand_t = np.cos(np.pi * np.outer(j, j) / n)
    vand = np.kron(tensor_vandermonde(m, 2), vand_t)
    check_rows(system, (m, m, n + 1), vand, seed)


@st.composite
def row_terms(draw, n_rows, widths):
    """(w, factors) terms over n_rows rows: per-row or scalar weights,
    some of them zero, and (table, index) factors of the given widths.
    In an interior group each axis has a random, repeated node index per
    row, which every factor along that axis shares, into tables of node
    rows; a boundary group's tables have one row per row and no index."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    nodes = rng.integers(1, 6, len(widths))
    index = [None] * len(widths) if draw(st.booleans()) else [
        rng.integers(0, n, n_rows) for n in nodes]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["rows", "scalar", "zero"]))
        w = {"rows": rng.standard_normal(n_rows),
             "scalar": float(rng.standard_normal()),
             "zero": np.zeros(n_rows)}[kind]
        terms.append((w, [
            (rng.standard_normal((n_rows if i is None else n, k)), i)
            for n, k, i in zip(nodes, widths, index)]))
    return terms


def gathered(factor):
    """A factor's 1-D rows, one per row of the group."""
    table, index = factor
    return table if index is None else table[index]


@settings(PROPERTY, max_examples=40)
@given(data=st.data(), d=st.sampled_from([2, 3]),
       n_rows=st.integers(1, 40), block_rows=st.integers(1, 7))
def test_fill_rows_matches_per_term_sum(data, d, n_rows, block_rows):
    # the batched per-block fill, which gathers each block's factor rows
    # itself, against the sum over terms of each term's tensor_rows
    # product of the gathered rows, on blocks of block_rows rows
    widths = data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    terms = data.draw(row_terms(n_rows, widths))
    size = int(np.prod(widths))
    products = []
    for w, factors in terms:
        first, *rest = map(gathered, factors)
        products.append(tensor_rows([np.reshape(w, (-1, 1)) * first, *rest]))
    want = sum(products)
    bound = sum(np.abs(p) for p in products)
    out = np.full((n_rows, size), np.nan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssem.assembly, "BLOCK_BYTES", 8 * size * block_rows)
        _fill_rows(out, terms)
    assert np.all(np.abs(out - want) <= 1e-15 * bound)
