"""Implicit domains, interior classification, and boundary sampling.

A domain lives inside the embedding box (-1, 1)^d and is described by a
signed level function (negative inside) together with an explicit
parametrization of each boundary component. Interior grid points are the
tensor-grid nodes strictly inside; boundary points are sampled directly
on the parametrized boundary and need not be grid points.

Boundary density follows the grid's own angular geometry: mapping the
box through arccos componentwise turns the tensor roots grid into a
uniform grid of spacing pi/m on [0, pi)^d, so curves are sampled
equally spaced in arccos-image arclength at m/2 points per pi of image
length. The cumulative image-arclength table behind that rule depends
only on the curve, so each BoundaryCurve computes it on first use and
keeps it, read-only, for as long as the curve lives (up to 2^20 + 1
floats, 8 MiB, per curve): build a domain once and reuse it across grid
sizes. For star-shaped surfaces in 3D a Fibonacci lattice on the unit
sphere is projected radially onto the boundary, sized to m^2 points per
(4 pi) of circumscribed-sphere area.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundaryCurve",
    "StarSurface",
    "DomainSpec",
    "InteriorIndexSet",
    "BoundaryPointSet",
    "classify_interior",
    "interior_coordinates",
    "sample_boundary_2d",
    "sample_boundary_3d",
    "sample_boundary",
    "disc_domain",
    "star_domain",
    "annulus_domain",
    "star_ball_domain",
    "TOL_INSIDE",
]

TOL_INSIDE = 1e-12
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """One closed boundary component of a planar domain.

    param maps angles in [0, 2 pi) to points (n, 2); normal maps boundary
    points (n, 2) to outward unit normals (n, 2).
    """

    param: callable
    normal: callable

    @functools.cached_property
    def image_arclength(self) -> np.ndarray:
        """Cumulative arccos-image arclength at theta = linspace(0, 2 pi, size).

        Computed on first use and kept, read-only, with the curve.
        """
        cum = _image_arclength(self)
        cum.flags.writeable = False
        return cum


@dataclass(frozen=True, eq=False)
class StarSurface:
    """A star-shaped boundary surface r = rho(polar, azimuth) in 3D.

    radius maps (polar, azimuth) arrays to radii; normal maps boundary
    points (n, 3) to outward unit normals. max_radius, when known
    analytically, fixes the circumscribed-sphere radius used by the
    sampling density rule (otherwise it is found numerically).
    """

    radius: callable
    normal: callable
    max_radius: float | None = None


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Implicit domain with parametrized boundary.

    inside is the signed level function phi(*coords), negative strictly
    inside; boundary is a tuple of BoundaryCurve (d=2) or a single
    StarSurface (d=3).
    """

    dim: int
    inside: callable
    boundary: tuple
    name: str = ""


@dataclass(frozen=True, eq=False)
class InteriorIndexSet:
    """Grid multi-indices of the interior nodes, in lexicographic order."""

    indices: np.ndarray  # (count, d) integer array
    count: int


@dataclass(frozen=True, eq=False)
class BoundaryPointSet:
    """Sampled boundary points with their outward unit normals."""

    points: np.ndarray   # (count, d)
    normals: np.ndarray  # (count, d)
    count: int


def classify_interior(domain: DomainSpec, axes) -> InteriorIndexSet:
    """Return the grid nodes strictly inside the domain (phi < -1e-12).

    Nodes on or within 1e-12 of the boundary are excluded so interior
    constraints never duplicate boundary rows.
    """
    if len(axes) != domain.dim:
        raise ValueError(
            f"domain dimension {domain.dim} != grid dimension {len(axes)}"
        )
    grids = np.meshgrid(*[ax.nodes for ax in axes], indexing="ij")
    phi = domain.inside(*grids)
    mask = phi < -TOL_INSIDE
    if not mask.any():
        raise ValueError(
            f"domain {domain.name or '<anonymous>'} contains no interior "
            f"grid points at this resolution"
        )
    idx = np.argwhere(mask)
    return InteriorIndexSet(indices=idx, count=idx.shape[0])


def interior_coordinates(axes, interior: InteriorIndexSet) -> np.ndarray:
    """Coordinates (count, d) of the interior nodes."""
    cols = [axes[j].nodes[interior.indices[:, j]] for j in range(len(axes))]
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

_MAX_SEGMENTS = 1 << 20
_CHUNK = 1 << 16  # param evaluations per block of the arclength table


def _table_angles(index: np.ndarray, nseg: int) -> np.ndarray:
    """theta_i = 2 pi i / nseg at the given table indices, exactly as
    linspace(0, 2 pi, nseg + 1) has them (the last node is 2 pi)."""
    theta = index * (2.0 * np.pi / nseg)
    theta[index == nseg] = 2.0 * np.pi
    return theta


def _cumulative_image_length(curve: BoundaryCurve, nseg: int) -> np.ndarray:
    """Cumulative arccos-image arclength at theta_i = 2 pi i / nseg.

    Evaluated in blocks of _CHUNK segments, with the running sum carried
    into each block's sequential cumsum, so the result equals the one-shot
    computation bit for bit. The table outlives the call; had it been
    built from full-size temporaries, it would keep the heap they freed
    from being returned to the system.

    Raises ValueError when a block has curve points outside (-1, 1)^2,
    where arccos is not defined.
    """
    cum = np.empty(nseg + 1)
    cum[0] = 0.0
    for lo in range(0, nseg, _CHUNK):
        hi = min(lo + _CHUNK, nseg)
        theta = _table_angles(np.arange(lo, hi + 1), nseg)
        pts = curve.param(theta)
        if not np.abs(pts).max() < 1.0:  # one pass; NaN fails it too
            outside = np.flatnonzero(~np.all(np.abs(pts) < 1.0, axis=1))
            k = outside[0]
            raise ValueError(
                f"{outside.size} of {theta.size} boundary curve samples lie "
                f"outside (-1, 1)^2; the first is at angle "
                f"{float(theta[k])!r}, point {pts[k].tolist()}"
            )
        img = np.arccos(pts)
        seg = np.sqrt(np.sum(np.diff(img, axis=0) ** 2, axis=1))
        seg[0] += cum[lo]
        np.cumsum(seg, out=cum[lo + 1:hi + 1])
    return cum


def _image_arclength(curve: BoundaryCurve) -> np.ndarray:
    """Arccos-image arclength table of a closed curve, refined until stable.

    Returns the cumulative arclength of the curve mapped componentwise
    through arccos, at nseg + 1 equally spaced angles, with nseg doubled
    from 4096 until the total length changes by less than 1e-9. Warns if
    the _MAX_SEGMENTS cap is reached first.
    """
    nseg, prev = 4096, None
    while True:
        cum = _cumulative_image_length(curve, nseg)
        length = cum[-1]
        if prev is not None and abs(length - prev) < 1e-9:
            return cum
        if nseg >= _MAX_SEGMENTS:
            warnings.warn(
                f"boundary arclength did not converge at the segment cap: "
                f"{nseg} segments, last length change {abs(length - prev):.3g}",
                RuntimeWarning, stacklevel=2)
            return cum
        prev = length
        nseg *= 2


def sample_boundary_2d(domain: DomainSpec, m: int) -> BoundaryPointSet:
    """Sample every boundary component equally spaced in arccos-image arclength.

    Each closed component gets ceil((m/2) * length / pi) points, i.e.
    m/2 points per pi of image length, which keeps consecutive boundary
    points at most two grid cells apart in the image geometry without
    ever packing them closer than the grid can resolve.
    """
    if domain.dim != 2:
        raise ValueError("sample_boundary_2d requires a planar domain")
    all_pts, all_nrm = [], []
    for curve in domain.boundary:
        cum = curve.image_arclength
        length = cum[-1]
        n_pts = int(np.ceil(m / 2.0 * length / np.pi))
        targets = np.arange(n_pts) * (length / n_pts)
        # np.interp(targets, cum, linspace(0, 2 pi, cum.size)), without
        # the linspace: j brackets each target, cum[j] <= t < cum[j + 1]
        j = np.searchsorted(cum, targets, side="right") - 1
        lo = _table_angles(j, cum.size - 1)
        hi = _table_angles(j + 1, cum.size - 1)
        slope = (hi - lo) / (cum[j + 1] - cum[j])
        theta_i = slope * (targets - cum[j]) + lo
        pts = curve.param(theta_i)
        all_pts.append(pts)
        all_nrm.append(curve.normal(pts))
    points = np.concatenate(all_pts, axis=0)
    normals = np.concatenate(all_nrm, axis=0)
    return BoundaryPointSet(points=points, normals=normals, count=points.shape[0])


def _max_radius(surface: StarSurface) -> float:
    if surface.max_radius is not None:
        return float(surface.max_radius)
    # coarse grid, then two rounds of local refinement around the best cell
    lo_p, hi_p, lo_a, hi_a = 0.0, np.pi, 0.0, 2.0 * np.pi
    best = -np.inf
    for _ in range(3):
        p = np.linspace(lo_p, hi_p, 513)
        a = np.linspace(lo_a, hi_a, 1025)
        P, A = np.meshgrid(p, a, indexing="ij")
        R = surface.radius(P, A)
        i, j = np.unravel_index(np.argmax(R), R.shape)
        best = max(best, float(R[i, j]))
        dp, da = p[1] - p[0], a[1] - a[0]
        lo_p, hi_p = p[i] - dp, p[i] + dp
        lo_a, hi_a = a[j] - da, a[j] + da
    return best


def sample_boundary_3d(domain: DomainSpec, m: int) -> BoundaryPointSet:
    """Project a unit-sphere Fibonacci lattice radially onto the boundary.

    The lattice size is floor(m^2 rho_max^2), i.e. m^2 points per (4 pi)
    of area of the circumscribed sphere of radius rho_max; a small guard
    keeps exact products from falling to the next integer in floating
    point.
    """
    if domain.dim != 3:
        raise ValueError("sample_boundary_3d requires a 3-d domain")
    surface = domain.boundary
    if not isinstance(surface, StarSurface):
        raise ValueError(
            f"domain {domain.name or '<anonymous>'} has no star-shaped "
            f"boundary surface; 3-d sampling is unsupported"
        )
    rmax = _max_radius(surface)
    n_pts = int(np.floor(m * m * rmax * rmax + 1e-6))
    i = np.arange(n_pts)
    z = 1.0 - 2.0 * (i + 0.5) / n_pts
    polar = np.arccos(z)
    azim = GOLDEN_ANGLE * i
    sin_p = np.sqrt(1.0 - z * z)
    unit = np.stack([sin_p * np.cos(azim), sin_p * np.sin(azim), z], axis=-1)
    points = unit * surface.radius(polar, azim)[:, None]
    normals = surface.normal(points)
    return BoundaryPointSet(points=points, normals=normals, count=n_pts)


def sample_boundary(domain: DomainSpec, m: int) -> BoundaryPointSet:
    """Dimension-dispatching boundary sampler."""
    if domain.dim == 2:
        return sample_boundary_2d(domain, m)
    if domain.dim == 3:
        return sample_boundary_3d(domain, m)
    raise ValueError(
        f"boundary sampling supports 2-d and 3-d domains, got dim={domain.dim}"
    )


# ---------------------------------------------------------------------------
# built-in domains
# ---------------------------------------------------------------------------

def _polar_curve(rho, drho, orientation=1.0) -> BoundaryCurve:
    """Closed curve r = rho(theta) with outward normal along grad(r - rho).

    orientation -1 flips the normal, for components that bound the domain
    from the inside (holes).
    """

    def param(theta):
        r = rho(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def normal(points):
        x, y = points[..., 0], points[..., 1]
        theta = np.arctan2(y, x)
        rr = drho(theta) / np.hypot(x, y)
        nx = np.cos(theta) + rr * np.sin(theta)
        ny = np.sin(theta) - rr * np.cos(theta)
        n = orientation * np.stack([nx, ny], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    return BoundaryCurve(param=param, normal=normal)


def disc_domain(radius: float = 0.95) -> DomainSpec:
    """Disc of the given radius centred at the origin."""
    rho = lambda theta: np.full_like(np.asarray(theta, dtype=float), radius)
    return DomainSpec(
        dim=2,
        inside=lambda x, y: np.hypot(x, y) - radius,
        boundary=(_polar_curve(rho, lambda theta: np.zeros_like(theta)),),
        name="disc",
    )


def _star_rho(theta):
    return 0.8 * (1.0 + 0.2 * np.cos(5.0 * theta))


def _star_drho(theta):
    return -0.8 * np.sin(5.0 * theta)


def star_domain() -> DomainSpec:
    """Five-pointed star r < 0.8 (1 + 0.2 cos 5 theta)."""

    def inside(x, y):
        return np.hypot(x, y) - _star_rho(np.arctan2(y, x))

    return DomainSpec(
        dim=2,
        inside=inside,
        boundary=(_polar_curve(_star_rho, _star_drho),),
        name="star",
    )


def annulus_domain(inner_radius: float = 0.3) -> DomainSpec:
    """Star-shaped annulus: inner_radius < r < 0.8 (1 + 0.2 cos 5 theta).

    The boundary has two components (outer star, inner circle), each
    sampled with the same density rule; the inner normal points into the
    hole.
    """

    def inside(x, y):
        r = np.hypot(x, y)
        return np.maximum(inner_radius - r, r - _star_rho(np.arctan2(y, x)))

    inner_rho = lambda theta: np.full_like(np.asarray(theta, dtype=float),
                                           inner_radius)
    return DomainSpec(
        dim=2,
        inside=inside,
        boundary=(
            _polar_curve(_star_rho, _star_drho),
            _polar_curve(inner_rho, lambda theta: np.zeros_like(theta),
                         orientation=-1.0),
        ),
        name="annulus",
    )


def star_ball_domain() -> DomainSpec:
    """Perturbed ball r < 0.85 + 0.1 sin(polar) cos(4 azimuth)."""

    def rho(polar, azim):
        return 0.85 + 0.1 * np.sin(polar) * np.cos(4.0 * azim)

    def inside(x, y, z):
        r = np.sqrt(x * x + y * y + z * z)
        polar = np.arccos(np.clip(np.divide(z, r, out=np.zeros_like(r),
                                            where=r > 0), -1.0, 1.0))
        azim = np.arctan2(y, x)
        return r - rho(polar, azim)

    def normal(points):
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        r = np.sqrt(x * x + y * y + z * z)
        polar = np.arccos(np.clip(z / r, -1.0, 1.0))
        azim = np.arctan2(y, x)
        sp, cp = np.sin(polar), np.cos(polar)
        sa, ca = np.sin(azim), np.cos(azim)
        rhat = np.stack([sp * ca, sp * sa, cp], axis=-1)
        phat = np.stack([cp * ca, cp * sa, -sp], axis=-1)
        ahat = np.stack([-sa, ca, np.zeros_like(sa)], axis=-1)
        d_polar = 0.1 * cp * np.cos(4.0 * azim)
        d_azim_over_sp = -0.4 * np.sin(4.0 * azim)  # (d rho / d azim) / sin(polar)
        g = (rhat - (d_polar / r)[..., None] * phat
             - (d_azim_over_sp / r)[..., None] * ahat)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    return DomainSpec(
        dim=3,
        inside=inside,
        boundary=StarSurface(radius=rho, normal=normal, max_radius=0.95),
        name="star3d",
    )
