"""Constraint assembly: interior operator rows, boundary rows, smoothers.

The solve selects, among all grid functions satisfying the constraints
C u = b, the one of minimal smoothness norm. C stacks groups of rows:
operator rows (a differential operator collocated at a set of grid
nodes) and boundary rows (point evaluation / directional derivative at
sampled points); the smoother is a positive multiplier of |k|^2, k
read from each axis' frequencies. S^{-1/2} on grid functions is one
body on any mix of axes, analysis, times the multiplier, synthesis,
entered through apply_smoother_half_inverse (roots grids) or
parabolic.spacetime_half_inverse.

Each group's rows are one list of terms, a weight per row times a
product of 1-D derivative rows, one per axis, and both realizations of
the constraints come from it. On tensor Chebyshev coefficients it is
the dense matrix A = C V handed to the solver, with 1-D evaluations of
T_k, T_k' and T_k'' as factors. On grid functions it is C u, used for
residual checks, with the barycentric derivative rows of the
interpolant as factors, at interior nodes and boundary points alike.
An interior group holds those 1-D rows once per grid node, with a node
index per row, and gathers a block of rows only while it uses them; the
heat rows, say, sit at each interior node once per time node.

build_system evaluates and checks every coefficient, source and data
item once per build, through one evaluator that names what it refuses.
Interior ones are callables of the unpacked node coordinates, boundary
ones of (points, normals) arrays, or constants. build_system stacks
groups of rows in order: an elliptic problem's interior rows, then its
boundary rows; the heat problem's three groups (parabolic.py).

build_system also finds the reflections x_a -> -x_a of roots axes that
map the constraints onto themselves (_reflections): each row's mirror,
its node i_a -> m_a - 1 - i_a or its point p_a -> -p_a, is a row of the
same group, and each term's weight has the parity (-1)^orders[a] of its
derivative order along a. Since T_k(-x) = (-1)^k T_k(x), the mirror row
of A is the row times (-1)^{k_a}, so sums and differences of mirror rows
live on the even and the odd k_a alone. Over the group the passing
reflections generate, an orthogonal recombination of the rows makes A
block-diagonal: one ParityBlock per parity pattern of the split axes
(ConstraintSystem.parity_blocks), built from the orbits' lowest rows
with the 1-D tables cut to that parity (block_matrix). A system with no
such reflection is one block, the whole of A. Where no reflection maps
every group, those that map every interior group still split the
interior rows, and the boundary rows they do not map are the border
(ConstraintSystem.border), kept whole for the solver to factor after
the blocks. A system computes its blocks and border once.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .chebyshev import (
    RootsAxis,
    _node_count,
    analysis,
    bary_rows,
    basis_values,
    roots_axis,
    synthesis,
    tensor_rows,
)
from .geometry import (
    BoundaryPointSet,
    DomainSpec,
    InteriorIndexSet,
    classify_interior,
    interior_coordinates,
    sample_boundary,
)

__all__ = [
    "EllipticOperatorSpec",
    "BoundaryConditionSpec",
    "SmootherSpec",
    "ConstraintSystem",
    "smoother_multiplier_array",
    "apply_smoother_half_inverse",
    "assemble_elliptic",
]

# Work on the N x n constraint matrix (filling its rows, scaling them and
# applying R_V^{-1}) goes through blocks of about this size, so that no
# temporary approaches the size of the matrix.
BLOCK_BYTES = 4 << 20
# A mirrored sample matches a sample, and a weight its mirror's, to this
# tolerance (relative to the box [-1, 1] for points, to the largest
# weight of the term for weights). The planar samplers place the mirror
# of every sample within 14 eps of another, and its normal within 69 eps
# (m = 6..64), so a few hundred eps keeps those pairs with room to spare,
# while a point moved by 1e-9 is far outside it.
MIRROR_TOL = 256 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class EllipticOperatorSpec:
    """Second-order operator -a_ij d_ij u + b_i d_i u + c u with source f.

    second_order maps axis pairs (i, j) to coefficients a_ij (note the
    leading minus in the operator); first_order maps axes to b_i; zeroth
    is c (or None); source is f. Supply symmetric pairs explicitly when
    mixed derivatives are present.
    """

    second_order: dict
    first_order: dict
    zeroth: object = None
    source: object = 0.0


@dataclass(frozen=True, eq=False)
class BoundaryConditionSpec:
    """Boundary operator a(y) u(y) + b(y) grad(u)(y) . nu with data g.

    trace is a, flux is b; (a, b) must not both vanish at any sampled
    point. data, trace and flux may be constants or callables of
    (points, normals).
    """

    trace: object
    flux: object
    data: object


@dataclass(frozen=True, eq=False)
class SmootherSpec:
    """Positive frequency multiplier defining the selection norm.

    kind "power" uses (1 + |k|^2)^(-p/2); kind "exp" uses exp(-|k|/2)
    with the Euclidean norm of the integer frequency vector.
    """

    kind: str = "power"
    p: float | None = 4.0

    def __post_init__(self):
        if self.kind not in ("power", "exp"):
            raise ValueError(f"unknown smoother kind {self.kind!r}")
        if self.kind == "power" and (self.p is None
                                     or not np.isfinite(self.p)):
            raise ValueError(f"the power smoother needs a finite exponent, "
                             f"got p = {self.p!r}")

    def half_inverse_multiplier(self, k_squared: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return (1.0 + k_squared) ** (-self.p / 2.0)
        return np.exp(-np.sqrt(k_squared) / 2.0)


# ---------------------------------------------------------------------------
# input checks: assembly names the culprit of what would otherwise surface
# as an unnamed numpy error, or as a non-finite factor after the full QR
# ---------------------------------------------------------------------------

def _values(coeff, what: str, *args) -> np.ndarray:
    """coeff at len(args[0]) points as a new array: coeff(*args) if it is
    callable (of node coordinates, or of boundary points and normals),
    else the constant. A ValueError names what if a callable gives neither
    a scalar nor one value per point, or if a value is NaN or inf."""
    n = len(args[0])
    vals = np.asarray(coeff(*args) if callable(coeff) else float(coeff),
                      dtype=float)
    if vals.shape not in ((), (n,)):
        raise ValueError(f"{what}: expected a scalar or {n} values, got "
                         f"shape {vals.shape}")
    vals = np.broadcast_to(vals, (n,)).copy()
    bad = ~np.isfinite(vals)
    if bad.any():
        kinds = [kind for kind, test in (("NaN", np.isnan), ("inf", np.isinf))
                 if test(vals).any()]
        raise ValueError(f"{what}: {' and '.join(kinds)} at "
                         f"{np.count_nonzero(bad)} of {n} points")
    return vals


# ---------------------------------------------------------------------------
# rows as sums of terms (w, orders): a weight (per row, or a scalar) times
# the product over the axes of 1-D rows of the orders[a]-th derivative.
# One term list gives both realizations of a group's rows; only the 1-D
# factors differ (_realize).
# ---------------------------------------------------------------------------

def _operator_terms(op: EllipticOperatorSpec, coords: np.ndarray) -> list:
    """Interior rows: the operator's terms, with its coefficients at the
    node coordinates coords (one row per axis). Every key of the operator
    is checked before any coefficient is evaluated: a ValueError names a
    second-order key that is not a pair of axes in 0..d-1, or a
    first-order key that is not one such axis."""
    d = len(coords)

    def weight(coeff, name):
        return _values(coeff, f"operator coefficient {name}", *coords)

    def orders(key, order):
        diff_axes = key if order == 2 else (key,)
        try:
            valid = len(diff_axes) == order and all(
                0 <= operator.index(i) < d for i in diff_axes)
        except TypeError:
            valid = False
        if not valid:
            kind = "a pair of axes" if order == 2 else "an axis"
            raise ValueError(f"operator order-{order} key {key!r}: expected "
                             f"{kind} in 0..{d - 1}")
        return [sum(i == a for i in diff_axes) for a in range(d)]

    second = {key: orders(key, 2) for key in op.second_order}
    first = {key: orders(key, 1) for key in op.first_order}
    terms = [(-weight(a, "a[{}, {}]".format(*key)), second[key])
             for key, a in op.second_order.items()]
    terms += [(weight(b, f"b[{key}]"), first[key])
              for key, b in op.first_order.items()]
    if op.zeroth is not None:
        terms.append((weight(op.zeroth, "c"), [0] * d))
    return terms


def _boundary_terms(bc: BoundaryConditionSpec,
                    boundary: BoundaryPointSet) -> list:
    """Boundary rows: a u + b grad(u) . nu at the sampled points."""
    pts, nrm = boundary.points, boundary.normals
    a = _values(bc.trace, "boundary trace coefficient", pts, nrm)
    b = _values(bc.flux, "boundary flux coefficient", pts, nrm)
    if np.any((a == 0.0) & (b == 0.0)):
        raise ValueError("boundary condition vanishes at a sampled point")
    d = pts.shape[1]
    terms = [(a, [0] * d)]
    for j in range(d):
        terms.append((b * nrm[:, j], [int(i == j) for i in range(d)]))
    return terms


def _realize(terms, where, axes):
    """The (w, orders) terms of a group as (w, factors) terms, once for A
    and once for C: factors[a] holds the 1-D rows of the orders[a]-th
    derivative along axis a at the group's nodes or points, as a pair
    (table, index) that _gather reads. For A they are of the basis
    (basis_values); for C, of the interpolant of a grid function
    (bary_rows), at interior nodes and boundary points alike. C keeps its
    own arithmetic, so the residual checks A.

    An interior group's table is the rows at the axis' own nodes, one
    m_a x m_a matrix per axis and order, and index the group's node
    index along axis a, one array per axis that all its factors share:
    a node's rows are held once however many rows of the group sit at
    it. A boundary group's table has one row per point, and index is
    None. A term whose weight is zero on every row is dropped before its
    factors are built."""
    terms = [(w, orders) for w, orders in terms if np.any(w)]
    if isinstance(where, InteriorIndexSet):
        # one contiguous index per axis, which take reads fastest
        index = np.ascontiguousarray(where.indices.T)

        def factor(rows_of, a, k):
            ax = axes[a]
            return rows_of(ax, ax.nodes, k), index[a]
    else:
        def factor(rows_of, a, k):
            return rows_of(axes[a], where.points[:, a], k), None
    factor = functools.cache(factor)
    return [[(w, [factor(rows_of, a, k) for a, k in enumerate(orders)])
             for w, orders in terms]
            for rows_of in (basis_values, bary_rows)]


def _gather(factor, rows=slice(None)) -> np.ndarray:
    """The 1-D rows of a (table, index) factor at the group's rows `rows`:
    table[index[rows]], or table[rows] where index is None."""
    table, index = factor
    if index is None:
        return table[rows]
    return table.take(index[rows], axis=0)


def _apply_terms(terms, u: np.ndarray, n_rows: int) -> np.ndarray:
    """The n_rows rows of the (w, factors) terms applied to a grid
    function, one axis at a time. Each factor is gathered to one row per
    constraint just before its axis is contracted, and dropped after:
    the residual runs after the QR, whose freed heap its temporaries
    would otherwise grow for the next solve."""
    out, flat = np.zeros(n_rows), u.reshape(len(u), -1)
    for w, factors in terms:
        vals = _gather(factors[0]) @ flat
        for f in map(_gather, factors[1:]):
            vals = f[:, None] @ vals.reshape(n_rows, f.shape[1], -1)
        out += w * vals.reshape(n_rows)
    return out


def _fill_rows(out: np.ndarray, terms) -> None:
    """Write the sum of the (w, factors) terms into the rows of out.

    Row r of out, viewed as a (lead, last) matrix with last the width of
    the last grid axis, is sum_k lead_k[r] (outer) last_k[r]: lead_k is
    the tensor_rows product of term k's weight and other factors. For a
    block of rows of about BLOCK_BYTES that sum is one batched matmul of
    the stacked leads (rows, lead, K) with the stacked last-axis factors
    (rows, K, last), written straight into out. The factors' rows are
    gathered (_gather) a block at a time, just before the block is
    written; the last-axis factors, which share one index, in one gather
    from their stacked tables. Each row of out is written once, and the
    leads of a block go into one reused buffer, so no temporary
    approaches the size of out.
    """
    n_rows = len(out)
    terms = [(np.broadcast_to(np.reshape(w, (-1, 1)), (n_rows, 1)), f)
             for w, f in terms]
    if not terms:
        out[:] = 0.0
        return
    (inner, _), (_, index) = terms[0][1][-2:]
    lasts_of = (np.stack([f[-1][0] for _, f in terms], axis=1), index)
    width = lasts_of[0].shape[2]
    lead_width = out.shape[1] // width
    step = max(1, BLOCK_BYTES // max(1, out.shape[1] * out.itemsize))
    # lead k, split at its last factor, is written in place as the outer
    # product of the rest with that factor
    lead_buf = np.empty((min(step, n_rows), lead_width // inner.shape[1],
                         inner.shape[1], len(terms)))
    for i in range(0, n_rows, step):
        rows = slice(i, i + step)
        block = out[rows].reshape(-1, lead_width, width)
        leads = lead_buf[:len(block)]
        for k, (w, factors) in enumerate(terms):
            *head, tail = w[rows], *(_gather(f, rows) for f in factors[:-1])
            np.multiply(tensor_rows(head)[:, :, None], tail[:, None, :],
                        out=leads[..., k])
        np.matmul(leads.reshape(len(block), lead_width, -1),
                  _gather(lasts_of, rows), out=block)


# ---------------------------------------------------------------------------
# mirror symmetry: reflections x_a -> -x_a that map the constraints onto
# themselves split A into parity blocks
# ---------------------------------------------------------------------------

def _match(points: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """For each target, the index of a point within MIRROR_TOL of it in
    every coordinate, or None where a target has none. The points are
    sorted along a fixed generic direction, and each target takes the
    first point whose key could be within reach: one sort and one binary
    search, not a table of distances. Where two points lie that close,
    two targets take the same point, which _mirror_rows refuses as no
    bijection."""
    direction = np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    keys = points @ direction
    order = np.argsort(keys)
    first = np.searchsorted(keys[order], targets @ direction
                            - MIRROR_TOL * direction.sum())
    if np.any(first == len(keys)):
        return None
    pairs = order[first]
    if np.any(np.abs(points[pairs] - targets) > MIRROR_TOL):
        return None
    return pairs


def _mirror_rows(where, terms, shape, a: int) -> np.ndarray | None:
    """The mirror of each of a group's rows under x_a -> -x_a, as an index
    into the group, or None unless the reflection maps the group's rows
    onto themselves: interior rows pair by node index (i_a -> m_a - 1 - i_a,
    the other indices equal), boundary rows by point (p_a -> -p_a, to
    MIRROR_TOL); the pairing must be a bijection, and every term's weight
    w must satisfy w[mirror] = (-1)^orders[a] w to MIRROR_TOL times its
    largest |w|."""
    if isinstance(where, InteriorIndexSet):
        idx = where.indices
        if idx.size and (idx.min() < 0 or np.any(idx.max(axis=0) >= shape)):
            return None
        lookup = np.full(int(np.prod(shape)), -1)
        lookup[np.ravel_multi_index(idx.T, shape)] = np.arange(len(idx))
        flipped = idx.copy()
        flipped[:, a] = shape[a] - 1 - idx[:, a]
        pairs = lookup[np.ravel_multi_index(flipped.T, shape)]
    else:
        flipped = where.points.copy()
        flipped[:, a] = -flipped[:, a]
        pairs = _match(where.points, flipped)
    if pairs is None or np.any(pairs < 0) \
            or np.any(pairs[pairs] != np.arange(len(pairs))):
        return None
    for w, orders in terms:
        w = np.broadcast_to(w, pairs.shape)
        sign = -1.0 if orders[a] % 2 else 1.0
        if np.any(np.abs(w[pairs] - sign * w)
                  > MIRROR_TOL * np.abs(w).max(initial=0.0)):
            return None
    return pairs


def _reflections(axes, groups) -> tuple:
    """(reflections, border) of groups, (where, terms) pairs in row order.

    reflections holds (a, mirror) for each kept roots axis a, mirror the
    row permutation over the stacked groups. The axes whose reflection
    maps every group onto itself are kept, with no border. Where there is
    none, the axes that map every interior group (InteriorIndexSet) are
    kept instead, and border is the ascending rows of the boundary groups
    that some kept reflection does not map; mirror fixes them, and the
    solver factors them apart from the parity blocks (pinv_solve). (On
    the planar problems, whose samples mirror in y, a border that also
    splits x was no faster than the split in y alone, and the 3-D samples
    mirror on no axis.) Roots nodes are symmetric about 0,
    x_{m-1-i} = -x_i; an extrema time axis is never a candidate (its
    initial rows sit at one end)."""
    shape = tuple(len(ax.nodes) for ax in axes)
    starts = np.cumsum([0] + [where.count for where, _ in groups])
    kept = []
    for a, ax in enumerate(axes):
        if not isinstance(ax, RootsAxis):
            continue
        pairs = [_mirror_rows(where, terms, shape, a)
                 for where, terms in groups]
        if not any(p is None and isinstance(where, InteriorIndexSet)
                   for p, (where, _) in zip(pairs, groups)):
            kept.append((a, pairs))
    unmapped = {i for _, pairs in kept for i, p in enumerate(pairs)
                if p is None}
    full = [(a, pairs) for a, pairs in kept
            if all(p is not None for p in pairs)]
    if full:
        kept, unmapped = full, set()
    reflections = tuple(
        (a, np.concatenate([np.arange(lo, hi) if i in unmapped else p + lo
                            for i, (p, lo, hi) in enumerate(
                                zip(pairs, starts, starts[1:]))]
                           ).astype(np.intp))
        for a, pairs in kept)
    border = np.flatnonzero(np.repeat([i in unmapped
                                       for i in range(len(groups))],
                                      np.diff(starts)))
    return reflections, border


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """One diagonal block of A under a system's reflections.

    parity[a] is 0 or 1 on a split axis, whose coefficients in the block
    are those with k_a of that parity, and None on every other axis. rows
    are the representative constraint rows, ascending: the lowest row of
    each orbit of rows whose stabilizer the parity pattern is trivial on.
    The block's row for r is root[r] = sqrt(|orbit|) times row r of A,
    restricted to the block's coefficients, and its right-hand side is
    rhs = (1 / sqrt|orbit|) sum over the orbit of chi(g) b_{g r}, chi(g)
    the sign the parity pattern gives the reflections g that map r there.
    A system's border (ConstraintSystem.border) is a ParityBlock too: its
    rows at root 1 on every coefficient, parity None on each axis.
    """

    parity: tuple
    rows: np.ndarray
    root: np.ndarray
    rhs: np.ndarray

    @property
    def columns(self) -> tuple:
        """The block's coefficients as one index per grid axis."""
        return _columns(self.parity)

    def coefficient_shape(self, grid_shape) -> tuple:
        """The shape of the block's coefficients on a grid of grid_shape."""
        return _coefficient_shape(grid_shape, self.parity)


def _columns(parity) -> tuple:
    """The coefficients of a parity pattern as one index per grid axis:
    every other one from k_a = parity[a], or all where it is None."""
    return tuple(slice(None) if p is None else slice(p, None, 2)
                 for p in parity)


def _coefficient_shape(grid_shape, parity) -> tuple:
    """The shape of parity's coefficients on a grid of grid_shape."""
    return tuple(len(range(n)[c]) for n, c in zip(grid_shape,
                                                   _columns(parity)))


def _parity_split(reflections, border: np.ndarray, rhs: np.ndarray,
                  ndim: int) -> tuple:
    """(reflections, blocks, border block) of a system's reflections: the
    non-empty ParityBlocks of the rows outside border, parity patterns in
    lexicographic order (all even first), and border's rows as one
    ParityBlock of every coefficient (parity None on each axis, root 1),
    or None where border is empty. Each reflection is an involution and
    they commute, so every element g of the group they generate is a set
    of them, and row r's orbit is {g r}. A border needs a block of every
    parity pattern, whose Q^T takes the border's rows of that parity;
    where a pattern has no rows (each row outside the border fixed by a
    reflection its sign is odd on, or no such row), the split is made
    with no reflections: () and one block of every row."""
    count = len(reflections)
    # a mask, not np.setdiff1d, whose np.unique loads numpy.ma on first use
    outside = np.ones(len(rhs), dtype=bool)
    outside[border] = False
    rows = np.flatnonzero(outside)
    images = []
    for g in itertools.product((0, 1), repeat=count):
        image = rows
        for use, (_, mirror) in zip(g, reflections):
            if use:
                image = mirror[image]
        images.append(image)
    images = np.array(images)
    fixed = images == rows
    lowest = images.min(axis=0) == rows
    orbit = len(images) / fixed.sum(axis=0)
    blocks = []
    for chi in itertools.product((0, 1), repeat=count):
        # chi(g) = (-1)^(the number of g's reflections with odd parity)
        sign = np.array([(-1.0) ** np.dot(chi, g) for g in
                         itertools.product((0, 1), repeat=count)])
        keep = np.flatnonzero(lowest & ~np.any(fixed & (sign < 0)[:, None],
                                               axis=0))
        if not keep.size:
            continue
        root = np.sqrt(orbit[keep])
        # (1 / sqrt|orbit|) sum over the orbit = (sqrt|orbit| / |G|)
        # sum over G, each orbit row counted |stabilizer| times
        total = sign @ rhs[images[:, keep]]
        parity = [None] * ndim
        for (a, _), p in zip(reflections, chi):
            parity[a] = p
        blocks.append(ParityBlock(tuple(parity), rows[keep], root,
                                  root / len(images) * total))
    if not len(border):
        return reflections, blocks, None
    if len(blocks) < 2 ** count:
        return _parity_split((), border[:0], rhs, ndim)
    return reflections, blocks, ParityBlock(
        (None,) * ndim, border, np.ones(len(border)), rhs[border])


def _restricted(terms, rows: np.ndarray, root: np.ndarray, columns) -> list:
    """The (w, factors) terms of a group (weights one per row, as
    _operator_terms and _boundary_terms give them) at its rows `rows`,
    each weight times root, each factor's table cut to the columns of its
    axis (a view) and indexed at those rows: a ParityBlock's share of the
    group, for _fill_rows. Cut to all of a group's rows and columns with
    root 1, they give _fill_rows the terms' own values."""
    def cut(factor, a):
        table, index = factor
        return table[:, columns[a]], rows if index is None else index[rows]

    return [(w[rows] * root, [cut(f, a) for a, f in enumerate(factors)])
            for w, factors in terms]


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------

def smoother_multiplier_array(spec: SmootherSpec, axes) -> np.ndarray:
    """The S^{-1/2} multiplier on the coefficient grid of axes: spec's
    multiplier of |k|^2, k the frequencies of each axis' coefficients."""
    return spec.half_inverse_multiplier(functools.reduce(
        np.add.outer, [ax.basis.frequencies ** 2 for ax in axes]))


def _half_inverse(u: np.ndarray, spec: SmootherSpec, axes) -> np.ndarray:
    """S^{-1/2} = V diag(mu) V^{-1} on grid functions of axes, the
    trailing axes of u; leading axes are a batch."""
    return synthesis(analysis(u, axes) * smoother_multiplier_array(spec, axes),
                     axes)


def apply_smoother_half_inverse(u: np.ndarray, spec: SmootherSpec,
                                d: int | None = None) -> np.ndarray:
    """Apply S^{-1/2} on roots grids; the trailing d axes of u (default
    all) are the grid axes, any others a batch. A d that is not an
    integer, or outside 1..u.ndim, is a ValueError."""
    u = np.asarray(u, dtype=float)
    if d is None:
        d = u.ndim
    d = _node_count(d, "apply_smoother_half_inverse: d")
    if not 1 <= d <= u.ndim:
        raise ValueError(f"apply_smoother_half_inverse: d = {d} grid axes "
                         f"of an array of {u.ndim}; d must be in "
                         f"1..{u.ndim}")
    return _half_inverse(u, spec, [roots_axis(m) for m in u.shape[-d:]])


# ---------------------------------------------------------------------------
# constraint system
# ---------------------------------------------------------------------------

class ConstraintSystem:
    """The linear constraints C u = b of one discrete problem.

    apply realizes C on grid functions; coefficient_matrix builds A = C V,
    the same constraints on the coefficients c of u = V c, from the same
    terms with other 1-D factors. The solver factors A block by block
    (parity_blocks, border, block_matrix) and rechecks its answer through
    apply. grid_smoother is S^{-1/2} of a SmootherSpec on this grid
    (systems built by hand may leave out half_inverse_fn and solve with a
    smoother callable).

    rhs must be finite, one value per row, and apply must give one value
    per row: a ValueError names either before any matrix is built (a
    system built by hand has apply_fn run once, on zeros, here). mirror
    is build_system's (reflections, border rows, block_fn); a system
    without it, as one built by hand, is one block. border is the
    ParityBlock of the boundary rows that the reflections do not map, or
    None. _parity_split computes the blocks and the border once, here
    (rhs and the reflections never change), and keeps the reflections
    only where every parity pattern has a block.
    """

    def __init__(self, axes, interior, boundary, rhs, apply_fn, matrix_fn,
                 n_omega, n_gamma, half_inverse_fn=None, mirror=None):
        self.axes = tuple(axes)
        self.grid_shape = tuple(len(ax.nodes) for ax in axes)
        self.interior = interior
        self.boundary = boundary
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 1:
            raise ValueError(f"rhs: expected one value per constraint row, "
                             f"got shape {rhs.shape}")
        for kind, test in (("NaN", np.isnan), ("inf", np.isinf)):
            if test(rhs).any():
                raise ValueError(f"rhs: {kind} at "
                                 f"{np.count_nonzero(test(rhs))} of "
                                 f"{len(rhs)} rows")
        self.rhs = rhs
        self.n_rows = rhs.shape[0]
        self.n_omega = n_omega
        self.n_gamma = n_gamma
        self._apply = apply_fn
        self._matrix = matrix_fn
        self._half_inverse = half_inverse_fn
        if mirror is None:
            self.apply(np.zeros(self.grid_shape))
            mirror = (), (), lambda block, parity: matrix_fn()
        reflections, border, self._block_fn = mirror
        self._reflections, self._blocks, self.border = _parity_split(
            reflections, np.asarray(border, dtype=np.intp), rhs,
            len(self.grid_shape))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """C u: all constraint values for a grid function."""
        out = self._apply(np.asarray(u, dtype=float))
        if np.shape(out) != (self.n_rows,):
            raise ValueError(f"apply_fn: expected {self.n_rows} constraint "
                             f"values, got shape {np.shape(out)}")
        return out

    def coefficient_matrix(self) -> np.ndarray:
        """A = C V as a new (n_rows, grid size) array the caller owns:
        A @ analysis(u).ravel() equals apply(u) (C-order coefficients)."""
        return self._matrix()

    def parity_blocks(self) -> list:
        """The ParityBlocks of this system's reflections, outside the
        border: one, with every row, when it has none."""
        return list(self._blocks)

    def block_matrix(self, block: ParityBlock, parity=None) -> np.ndarray:
        """The block's rows of A, restricted to the coefficients of parity
        (by default the block's own), as a new (len(block.rows), size)
        array the caller owns; the one block of a system without
        reflections is coefficient_matrix(). The solver reads the border's
        rows at each block's parity this way."""
        return self._block_fn(block,
                              block.parity if parity is None else parity)

    def grid_smoother(self, spec: SmootherSpec):
        """S^{-1/2} of spec as an operator on this system's grid functions."""
        if self._half_inverse is None:
            raise ValueError("this constraint system has no grid smoother; "
                             "solve it with a smoother callable")
        return lambda u: self._half_inverse(np.asarray(u, dtype=float), spec)

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u) - self.rhs


def build_system(axes, groups, interior, boundary,
                 half_inverse_fn) -> ConstraintSystem:
    """The constraint system of row groups on the tensor grid of axes.

    A group (InteriorIndexSet, EllipticOperatorSpec) collocates the
    operator at those nodes, (BoundaryPointSet, BoundaryConditionSpec)
    imposes the condition at those points, each with its source or data
    as right-hand side; a spec of any other type is a TypeError naming
    the group. Rows follow the group order. n_omega and n_gamma count
    the given interior and boundary sets. The system carries the
    reflections that map its interior rows onto themselves and the border
    of boundary rows they do not map (_reflections), and builds each
    ParityBlock of them straight from the terms.
    """
    rhs, located, realized = [], [], []
    for i, (where, spec) in enumerate(groups):
        if isinstance(spec, EllipticOperatorSpec):
            coords = interior_coordinates(axes, where).T
            rhs.append(_values(spec.source, "source", *coords))
            terms = _operator_terms(spec, coords)
        elif isinstance(spec, BoundaryConditionSpec):
            rhs.append(_values(spec.data, "boundary data", where.points,
                               where.normals))
            terms = _boundary_terms(spec, where)
        else:
            raise TypeError(f"row group {i}: expected an EllipticOperatorSpec "
                            f"or a BoundaryConditionSpec, got "
                            f"{type(spec).__name__}")
        located.append((where, terms))
        realized.append(_realize(terms, where, axes))
    matrix_terms, grid_terms = zip(*realized)
    starts = np.cumsum([0] + [len(b) for b in rhs])
    rhs = np.concatenate(rhs)
    shape = tuple(len(ax.nodes) for ax in axes)

    def apply_fn(u):
        return np.concatenate([_apply_terms(terms, u, hi - lo) for lo, hi,
                               terms in zip(starts, starts[1:], grid_terms)])

    def block_fn(block, parity):
        columns = _columns(parity)
        mat = np.empty((len(block.rows),
                        int(np.prod(_coefficient_shape(shape, parity)))))
        cuts = np.searchsorted(block.rows, starts)
        for lo, i, j, terms in zip(starts, cuts, cuts[1:], matrix_terms):
            _fill_rows(mat[i:j], _restricted(terms, block.rows[i:j] - lo,
                                             block.root[i:j], columns))
        return mat

    whole = ParityBlock((None,) * len(axes), np.arange(len(rhs)),
                        np.ones(len(rhs)), rhs)
    return ConstraintSystem(axes, interior, boundary, rhs, apply_fn,
                            lambda: block_fn(whole, whole.parity),
                            n_omega=interior.count, n_gamma=boundary.count,
                            half_inverse_fn=half_inverse_fn,
                            mirror=(*_reflections(axes, located), block_fn))


def assemble_elliptic(domain: DomainSpec, axes, op: EllipticOperatorSpec,
                      bc: BoundaryConditionSpec) -> ConstraintSystem:
    """Classify, sample, and wire up the constraint system of a BVP."""
    interior = classify_interior(domain, axes)
    boundary = sample_boundary(domain, axes[0].m)
    return build_system(axes, [(interior, op), (boundary, bc)], interior,
                        boundary, apply_smoother_half_inverse)
