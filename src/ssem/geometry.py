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
length. The image speed is smooth and periodic, so its Fourier series
gives that arclength to rounding from a few hundred curve samples. The
cumulative arclength and speed behind the rule depend only on the curve,
so each BoundaryCurve computes them on first use and keeps them,
read-only, for as long as the curve lives (16 (8 n + 1) bytes for an
n-sample series: 128 KiB for the built-in star): build a domain once and
reuse it across grid sizes. For star-shaped surfaces in 3D a Fibonacci
lattice on the unit sphere is projected radially onto the boundary, sized
to m^2 points per (4 pi) of circumscribed-sphere area.
"""

from __future__ import annotations

import threading
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
# The samplers refuse a boundary normal whose length is further from 1.
UNIT_NORMAL_TOL = 1e-12
# Guards the first computation of each curve's image-arclength tables.
_TABLES_LOCK = threading.Lock()
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """One closed boundary component of a planar domain.

    param maps angles in [0, 2 pi) to points (n, 2); normal maps boundary
    points (n, 2) to outward unit normals (n, 2), unit to UNIT_NORMAL_TOL.
    """

    param: callable
    normal: callable

    @property
    def image_arclength(self) -> tuple:
        """(cum, speed): cumulative arccos-image arclength and image speed
        at theta = linspace(0, 2 pi, cum.size).

        Computed once, on first use, and kept, read-only, with the curve.
        Threads can ask for it at once: the first computes it under
        _TABLES_LOCK, and the others wait for it.
        """
        with _TABLES_LOCK:
            if "_tables" not in self.__dict__:
                tables = _image_arclength(self)
                for table in tables:
                    table.flags.writeable = False
                object.__setattr__(self, "_tables", tables)
            return self._tables


@dataclass(frozen=True, eq=False)
class StarSurface:
    """A star-shaped boundary surface r = rho(polar, azimuth) in 3D.

    radius maps (polar, azimuth) arrays (n,) to radii (n,); normal maps
    boundary points (n, 3) to outward unit normals (n, 3), unit to
    UNIT_NORMAL_TOL. max_radius, the maximum of
    radius, fixes the circumscribed-sphere radius used by the sampling
    density rule.
    """

    radius: callable
    normal: callable
    max_radius: float


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

    @property
    def count(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class BoundaryPointSet:
    """Sampled boundary points with their outward unit normals."""

    points: np.ndarray   # (count, d)
    normals: np.ndarray  # (count, d)

    @property
    def count(self) -> int:
        return len(self.points)


def classify_interior(domain: DomainSpec, axes) -> InteriorIndexSet:
    """Return the grid nodes strictly inside the domain (phi < -1e-12).

    Nodes on or within 1e-12 of the boundary are excluded so interior
    constraints never duplicate boundary rows. A level function that
    does not return a finite array of the grid's shape is a ValueError
    naming the domain.
    """
    if len(axes) != domain.dim:
        raise ValueError(
            f"domain dimension {domain.dim} != grid dimension {len(axes)}"
        )
    grids = np.meshgrid(*[ax.nodes for ax in axes], indexing="ij")
    phi = _component_values(domain.inside(*grids), grids[0].shape,
                            f"{_label(domain)}: level function")
    mask = phi < -TOL_INSIDE
    if not mask.any():
        raise ValueError(
            f"{_label(domain)} contains no interior grid points at this "
            f"resolution"
        )
    idx = np.argwhere(mask)
    return InteriorIndexSet(indices=idx)


def interior_coordinates(axes, interior: InteriorIndexSet) -> np.ndarray:
    """Coordinates (count, d) of the interior nodes."""
    cols = [axes[j].nodes[interior.indices[:, j]] for j in range(len(axes))]
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# input checks: a domain's callables are checked where they are called,
# and a refusal names the domain and the component
# ---------------------------------------------------------------------------

def _label(domain: DomainSpec) -> str:
    return f"domain {domain.name or '<anonymous>'}"


class _ComponentError(ValueError):
    """A domain callable's result refused by _component_values; a caller
    that knows only the callable lets its sampler add the component's
    name."""


def _component_values(values, shape: tuple, what: str) -> np.ndarray:
    """values as a float array, or a _ComponentError naming what if it is
    not a finite array of the given shape."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != shape:
        raise _ComponentError(f"{what} returned shape {vals.shape}, "
                              f"expected {shape}")
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise _ComponentError(f"{what} returned {bad} non-finite values "
                              f"(NaN or inf) of {vals.size}")
    return vals


def _unit_normals(values, shape: tuple, what: str) -> np.ndarray:
    """_component_values of normals, which must also have unit length to
    UNIT_NORMAL_TOL (a flux condition's rows scale with it)."""
    normals = _component_values(values, shape, what)
    off = np.abs(np.sqrt(np.sum(normals * normals, axis=1)) - 1.0)
    bad = np.count_nonzero(off > UNIT_NORMAL_TOL)
    if bad:
        raise ValueError(f"{what} returned {bad} of {len(off)} normals that "
                         f"are not unit length to {UNIT_NORMAL_TOL:g} (off "
                         f"by up to {off.max():.3g})")
    return normals


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

_MAX_SAMPLES = 1 << 16


def _require_in_box(points: np.ndarray, theta=None) -> np.ndarray:
    """points, unless some lie outside (-1, 1)^d, where arccos, the Chebyshev
    basis and the barycentric rows are undefined: then a ValueError naming
    the first, by its curve angle when theta is given. NaN counts as outside.
    """
    outside = np.flatnonzero(~np.all(np.abs(points) < 1.0, axis=1))
    if outside.size:
        k = outside[0]
        first = (f"sample {k} at" if theta is None
                 else f"at angle {float(theta[k])!r}, point")
        raise ValueError(
            f"{outside.size} of {len(points)} boundary samples lie outside "
            f"(-1, 1)^{points.shape[1]}; the first is {first} "
            f"{points[k].tolist()}"
        )
    return points


def _image_speed(curve: BoundaryCurve, n: int) -> np.ndarray:
    """|d arccos(param(theta)) / d theta| at theta_k = 2 pi k / n, k < n,
    with param differentiated spectrally."""
    theta = np.arange(n) * (2.0 * np.pi / n)
    pts = _require_in_box(_component_values(curve.param(theta), (n, 2),
                                            "param"), theta)
    deriv = 1j * np.arange(n // 2 + 1)
    deriv[-1] = 0.0  # the Nyquist mode's derivative vanishes at the nodes
    dpts = np.fft.irfft(deriv[:, None] * np.fft.rfft(pts, axis=0), n, axis=0)
    return np.sqrt(np.sum(dpts * dpts / (1.0 - pts * pts), axis=1))


def _image_arclength(curve: BoundaryCurve):
    """Cumulative arccos-image arclength and image speed of a closed curve.

    The image speed is smooth and periodic, so its trapezoid sum (the
    mean of its Fourier series) converges exponentially in the number of
    samples n (Trefethen & Weideman, SIAM Review 56, 2014). n doubles
    from 256 until the length changes by less than 1e-12 relative, with a
    warning if the _MAX_SAMPLES cap is reached first (a kink or a
    cusp). Returns (cum, speed) at theta_i = 2 pi i / (8 n), i = 0..8 n,
    read off the speed's series and its term-by-term integral by
    zero-padded irfft. param must be regular: the speed never vanishes.
    """
    n, prev = 256, None
    while True:
        speed = _image_speed(curve, n)
        length = 2.0 * np.pi * speed.mean()
        if prev is not None and abs(length - prev) < 1e-12 * length:
            break
        if n >= _MAX_SAMPLES:
            change = ("no earlier level to compare" if prev is None else
                      f"last relative length change "
                      f"{abs(length - prev) / length:.3g}")
            warnings.warn(
                f"boundary arclength did not converge at the sample cap: "
                f"{n} samples, {change}", RuntimeWarning, stacklevel=2)
            break
        prev, n = length, 2 * n
    coef = np.fft.rfft(speed)
    coef[-1] *= 0.5  # cos(n theta / 2): zero padding would count it twice
    fine = 8 * n  # fine enough for cubic Hermite to invert cum to rounding
    integral = np.zeros_like(coef)
    integral[1:] = coef[1:] / (1j * np.arange(1, coef.size))
    periodic = np.fft.irfft(integral, fine) * (fine / n)
    theta = np.arange(fine + 1) * (2.0 * np.pi / fine)
    cum = coef[0].real / n * theta + np.append(periodic, periodic[0]) - periodic[0]
    speed = np.fft.irfft(coef, fine) * (fine / n)
    return cum, np.append(speed, speed[0])


def sample_boundary_2d(domain: DomainSpec, m: int) -> BoundaryPointSet:
    """Sample every boundary component equally spaced in arccos-image arclength.

    Each closed component gets ceil((m/2) * length / pi) points, i.e.
    m/2 points per pi of image length, which keeps consecutive boundary
    points at most two grid cells apart in the image geometry without
    ever packing them closer than the grid can resolve. A component whose
    param or normal does not return a finite (k, 2) array, or whose
    normals are not unit length to UNIT_NORMAL_TOL, is a ValueError
    naming it. Before any sampling, a boundary that is not a tuple (or
    list), such as one bare BoundaryCurve, and a component that is not a
    BoundaryCurve are ValueErrors naming the domain, the component and
    its type.
    """
    if domain.dim != 2:
        raise ValueError("sample_boundary_2d requires a planar domain")
    if not isinstance(domain.boundary, (tuple, list)):
        raise ValueError(f"{_label(domain)} has one "
                         f"{type(domain.boundary).__name__} as its boundary; "
                         f"a planar boundary is a tuple of BoundaryCurve")
    names = [f"{_label(domain)}, boundary component {i}"
             for i in range(len(domain.boundary))]
    for name, curve in zip(names, domain.boundary):
        if not isinstance(curve, BoundaryCurve):
            raise ValueError(f"{name} has type {type(curve).__name__}, "
                             f"not BoundaryCurve")
    all_pts = []
    for name, curve in zip(names, domain.boundary):
        try:
            cum, speed = curve.image_arclength
        except _ComponentError as exc:
            raise ValueError(f"{name}: {exc}") from None
        length = cum[-1]
        n_pts = int(np.ceil(m / 2.0 * length / np.pi))
        targets = np.arange(n_pts) * (length / n_pts)
        # j brackets each target, cum[j] <= s < cum[j + 1]; theta(s) is the
        # cubic Hermite interpolant there, with d theta / ds = 1 / speed
        j = np.searchsorted(cum, targets, side="right") - 1
        h = cum[j + 1] - cum[j]
        t = (targets - cum[j]) / h
        theta_i = (2.0 * np.pi / (cum.size - 1)) * (j + t * t * (3.0 - 2.0 * t))
        theta_i += h * t * (1.0 - t) * ((1.0 - t) / speed[j] - t / speed[j + 1])
        all_pts.append(_component_values(curve.param(theta_i), (n_pts, 2),
                                         f"{name}: param"))
    points = _require_in_box(np.concatenate(all_pts, axis=0))
    normals = np.concatenate([
        _unit_normals(curve.normal(pts), pts.shape, f"{name}: normal")
        for name, curve, pts in zip(names, domain.boundary, all_pts)])
    return BoundaryPointSet(points=points, normals=normals)


def sample_boundary_3d(domain: DomainSpec, m: int) -> BoundaryPointSet:
    """Project a unit-sphere Fibonacci lattice radially onto the boundary.

    The lattice size is floor(m^2 rho_max^2), i.e. m^2 points per (4 pi)
    of area of the circumscribed sphere of radius rho_max; a small guard
    keeps exact products from falling to the next integer in floating
    point. A surface whose radius does not return a finite (k,) array,
    or whose normal does not return a finite (k, 3) array of unit
    vectors (to UNIT_NORMAL_TOL), is a ValueError naming it.
    """
    if domain.dim != 3:
        raise ValueError("sample_boundary_3d requires a 3-d domain")
    surface = domain.boundary
    if not isinstance(surface, StarSurface):
        raise ValueError(
            f"{_label(domain)} has no star-shaped boundary surface; 3-d "
            f"sampling is unsupported"
        )
    rmax = surface.max_radius
    n_pts = int(np.floor(m * m * rmax * rmax + 1e-6))
    i = np.arange(n_pts)
    z = 1.0 - 2.0 * (i + 0.5) / n_pts
    polar = np.arccos(z)
    azim = GOLDEN_ANGLE * i
    sin_p = np.sqrt(1.0 - z * z)
    unit = np.stack([sin_p * np.cos(azim), sin_p * np.sin(azim), z], axis=-1)
    name = f"{_label(domain)}, boundary surface"
    radius = _component_values(surface.radius(polar, azim), (n_pts,),
                               f"{name}: radius")
    points = _require_in_box(unit * radius[:, None])
    normals = _unit_normals(surface.normal(points), points.shape,
                            f"{name}: normal")
    return BoundaryPointSet(points=points, normals=normals)


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
