"""Domains, interior classification, boundary sampling."""

import sys
import time
import warnings

import numpy as np
import pytest

import ssem.experiments
from ssem import geometry
from ssem.assembly import (
    BoundaryConditionSpec,
    EllipticOperatorSpec,
    SmootherSpec,
)
from ssem.chebyshev import roots_axis
from ssem.experiments import ExperimentConfig, run_experiment, solve_problem
from ssem.geometry import (
    DomainSpec,
    StarSurface,
    annulus_domain,
    classify_interior,
    disc_domain,
    interior_coordinates,
    sample_boundary,
    sample_boundary_2d,
    sample_boundary_3d,
    star_ball_domain,
    star_domain,
)

# (m -> (n_interior, n_boundary)) anchors from the reproduced studies
DISC_COUNTS = {10: (40, 12), 14: (76, 17), 18: (136, 22), 22: (204, 26),
               26: (280, 31), 30: (372, 36), 34: (464, 40), 38: (580, 45)}
STAR_COUNTS = {10: (28, 13), 14: (50, 18), 18: (86, 23), 22: (134, 28),
               26: (182, 33), 30: (242, 37), 34: (308, 42), 38: (384, 47)}
STAR_EVEN_COUNTS = {10: (28, 13), 12: (40, 15), 14: (50, 18), 16: (72, 20),
                    18: (86, 23), 20: (106, 25), 22: (134, 28), 24: (154, 30)}
ANNULUS_COUNTS = {10: (24, 17), 14: (46, 23), 18: (74, 29), 22: (122, 35),
                  26: (166, 41), 30: (218, 47), 34: (276, 53), 38: (340, 59)}
BALL_COUNTS = {10: (128, 90), 12: (192, 129), 14: (296, 176),
               16: (472, 231), 18: (672, 292), 20: (896, 361)}


def axes_2d(m):
    return (roots_axis(m), roots_axis(m))


def axes_3d(m):
    return (roots_axis(m), roots_axis(m), roots_axis(m))


class TestClassifyInterior:
    @pytest.mark.parametrize("m", sorted(DISC_COUNTS))
    def test_disc_counts(self, m):
        assert classify_interior(disc_domain(), axes_2d(m)).count \
            == DISC_COUNTS[m][0]

    @pytest.mark.parametrize("m", sorted(STAR_EVEN_COUNTS))
    def test_star_counts(self, m):
        assert classify_interior(star_domain(), axes_2d(m)).count \
            == STAR_EVEN_COUNTS[m][0]

    @pytest.mark.parametrize("m", sorted(ANNULUS_COUNTS))
    def test_annulus_counts(self, m):
        assert classify_interior(annulus_domain(), axes_2d(m)).count \
            == ANNULUS_COUNTS[m][0]

    @pytest.mark.parametrize("m", sorted(BALL_COUNTS))
    def test_ball_counts(self, m):
        assert classify_interior(star_ball_domain(), axes_3d(m)).count \
            == BALL_COUNTS[m][0]

    def test_full_box(self):
        whole = DomainSpec(dim=2, inside=lambda x, y: -np.ones_like(x),
                           boundary=(), name="box")
        assert classify_interior(whole, axes_2d(7)).count == 49

    @pytest.mark.parametrize("dom_fn, axes", [(disc_domain, axes_3d(6)),
                                              (star_ball_domain, axes_2d(6))])
    def test_grid_of_another_dimension_rejected(self, dom_fn, axes):
        dom = dom_fn()
        with pytest.raises(ValueError, match=(
                rf"^domain dimension {dom.dim} != grid dimension "
                rf"{len(axes)}$")):
            classify_interior(dom, axes)

    def test_nodes_on_or_near_the_boundary_excluded(self):
        # phi = 0 on node column 3 and -1e-13 on column 4: neither is
        # inside by more than TOL_INSIDE, so neither column is interior
        axes = axes_2d(8)
        near = {axes[0].nodes[3]: 0.0, axes[0].nodes[4]: -1e-13}
        level = lambda x, y: np.vectorize(lambda v: near.get(v, -1.0))(x)
        domain = DomainSpec(dim=2, inside=level, boundary=(), name="strip")
        interior = classify_interior(domain, axes)
        assert interior.count == 6 * 8
        assert not np.isin(interior.indices[:, 0], [3, 4]).any()

    def test_empty_interior_raises(self):
        empty = DomainSpec(dim=2, inside=lambda x, y: np.ones_like(x),
                           boundary=(), name="void")
        with pytest.raises(ValueError):
            classify_interior(empty, axes_2d(6))

    def test_indices_unique_and_inside(self):
        dom = star_domain()
        axes = axes_2d(18)
        interior = classify_interior(dom, axes)
        assert len({tuple(ix) for ix in interior.indices}) == interior.count
        coords = interior_coordinates(axes, interior)
        assert np.all(dom.inside(coords[:, 0], coords[:, 1]) < 0)

    def test_monotone_in_domain(self):
        axes = axes_2d(16)
        small = {tuple(ix) for ix in
                 classify_interior(disc_domain(0.5), axes).indices}
        large = {tuple(ix) for ix in
                 classify_interior(disc_domain(0.95), axes).indices}
        assert small <= large


class TestLevelFunctionChecked:
    """A level function must give a finite value at every grid node."""

    @staticmethod
    def disc_with(inside):
        return DomainSpec(dim=2, inside=inside, boundary=(), name="disc")

    def test_nan_level_refused(self):
        # NaN for x > 0.5 used to drop 12 of the 60 interior nodes of the
        # m = 12 disc, and the solve went on
        level = lambda x, y: np.where(x > 0.5, np.nan, np.hypot(x, y) - 0.95)
        with pytest.raises(ValueError, match=(
                r"^domain disc: level function returned 48 non-finite "
                r"values \(NaN or inf\) of 144$")):
            classify_interior(self.disc_with(level), axes_2d(12))

    def test_infinite_level_refused(self):
        level = lambda x, y: np.where(x > 0.5, np.inf, np.hypot(x, y) - 0.95)
        with pytest.raises(ValueError, match=(
                r"^domain disc: level function returned 48 non-finite")):
            classify_interior(self.disc_with(level), axes_2d(12))

    def test_scalar_level_refused(self):
        # a scalar used to raise AttributeError: 'bool' object has no
        # attribute 'any'
        with pytest.raises(ValueError, match=(
                r"^domain disc: level function returned shape \(\), "
                r"expected \(12, 12\)$")):
            classify_interior(self.disc_with(lambda x, y: -1.0), axes_2d(12))

    def test_flattened_level_refused(self):
        # a flattened array used to give (k, 1) indices, and an IndexError
        # inside the assembly
        level = lambda x, y: (np.hypot(x, y) - 0.95).ravel()
        with pytest.raises(ValueError, match=(
                r"^domain disc: level function returned shape \(144,\), "
                r"expected \(12, 12\)$")):
            classify_interior(self.disc_with(level), axes_2d(12))


class TestBoundary2D:
    @pytest.mark.parametrize("dom_fn,counts", [
        (disc_domain, DISC_COUNTS),
        (star_domain, STAR_COUNTS),
        (annulus_domain, ANNULUS_COUNTS),
    ])
    def test_counts_within_one(self, dom_fn, counts):
        dom = dom_fn()
        for m, (_, n_gamma) in counts.items():
            got = sample_boundary_2d(dom, m).count
            assert abs(got - n_gamma) <= 1, (m, got, n_gamma)

    def test_counts_exact_on_tables(self):
        # the calibrated rule reproduces every tabulated value exactly
        for dom_fn, counts in [(disc_domain, DISC_COUNTS),
                               (star_domain, STAR_EVEN_COUNTS),
                               (annulus_domain, ANNULUS_COUNTS)]:
            dom = dom_fn()
            for m, (_, n_gamma) in counts.items():
                assert sample_boundary_2d(dom, m).count == n_gamma

    def test_points_on_boundary(self):
        for dom_fn in (disc_domain, star_domain, annulus_domain):
            dom = dom_fn()
            pts = sample_boundary_2d(dom, 22).points
            phi = dom.inside(pts[:, 0], pts[:, 1])
            assert np.max(np.abs(phi)) < 1e-10

    def test_points_strictly_inside_box(self):
        pts = sample_boundary_2d(star_domain(), 38).points
        assert np.max(np.abs(pts)) < 1.0

    def test_normals_unit_and_outward(self):
        for dom_fn in (disc_domain, star_domain, annulus_domain):
            dom = dom_fn()
            bset = sample_boundary_2d(dom, 26)
            norms = np.linalg.norm(bset.normals, axis=1)
            assert norms == pytest.approx(np.ones(bset.count), abs=1e-12)
            eps = 1e-6
            stepped = bset.points + eps * bset.normals
            assert np.all(dom.inside(stepped[:, 0], stepped[:, 1]) > 0)

    def test_normals_match_level_gradient(self):
        dom = star_domain()
        bset = sample_boundary_2d(dom, 18)
        h = 1e-7
        gx = (dom.inside(bset.points[:, 0] + h, bset.points[:, 1])
              - dom.inside(bset.points[:, 0] - h, bset.points[:, 1]))
        gy = (dom.inside(bset.points[:, 0], bset.points[:, 1] + h)
              - dom.inside(bset.points[:, 0], bset.points[:, 1] - h))
        grad = np.stack([gx, gy], axis=1)
        grad /= np.linalg.norm(grad, axis=1, keepdims=True)
        assert np.max(np.abs(grad - bset.normals)) < 1e-6

    def test_equal_spacing_in_mapped_arclength(self):
        # consecutive gaps of the arccos image deviate < 1% from uniform
        dom = disc_domain()
        pts = sample_boundary_2d(dom, 30).points
        mapped = np.arccos(np.clip(pts, -1.0, 1.0))
        gaps = np.linalg.norm(np.diff(mapped, axis=0), axis=1)
        closing = np.linalg.norm(mapped[0] - mapped[-1])
        gaps = np.append(gaps, closing)
        assert gaps.std() / gaps.mean() < 0.01

    def test_annulus_samples_both_components(self):
        bset = sample_boundary_2d(annulus_domain(), 22)
        r = np.hypot(bset.points[:, 0], bset.points[:, 1])
        assert np.any(np.abs(r - 0.3) < 1e-9)
        assert np.any(r > 0.6)

    def test_annulus_inner_normals_point_inward(self):
        bset = sample_boundary_2d(annulus_domain(), 22)
        on_inner = np.hypot(bset.points[:, 0], bset.points[:, 1]) < 0.31
        radial = bset.points[on_inner] / 0.3
        # outward from the annulus = toward the origin on the inner circle
        dots = np.sum(bset.normals[on_inner] * radial, axis=1)
        assert np.all(dots < -0.99)


def one_shot_image_arclength(curve, nseg=4096):
    """The refinement loop with each level computed in one piece."""
    prev = None
    while True:
        theta = np.linspace(0.0, 2.0 * np.pi, nseg + 1)
        pts = curve.param(theta)
        img = np.arccos(np.clip(pts, -1.0, 1.0))
        seg = np.sqrt(np.sum(np.diff(img, axis=0) ** 2, axis=1))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        length = cum[-1]
        if prev is not None and abs(length - prev) < 1e-9:
            return cum
        if nseg >= 1 << 20:
            return cum
        prev = length
        nseg *= 2


@pytest.fixture
def table_builds(monkeypatch):
    """Curves whose arclength table gets computed, in call order."""
    calls = []
    real = geometry._image_arclength

    def counted(curve):
        calls.append(curve)
        return real(curve)

    monkeypatch.setattr(geometry, "_image_arclength", counted)
    return calls


def image_angles(points):
    """Angles in [0, 2 pi) of points on a _polar_curve."""
    return np.arctan2(points[:, 1], points[:, 0]) % (2.0 * np.pi)


def seven_lobe_star():
    return geometry._polar_curve(lambda t: 0.8 * (1.0 + 0.2 * np.cos(7 * t)),
                                 lambda t: -1.12 * np.sin(7 * t))


def two_hundred_wiggles():
    return geometry._polar_curve(lambda t: 0.5 + 0.05 * np.cos(200 * t),
                                 lambda t: -10.0 * np.sin(200 * t))


def turned_star_domain():
    """The star turned by 0.3 rad: not symmetric about angle 0, where the
    cumulative arclength starts."""
    curve = geometry._polar_curve(
        lambda t: 0.8 * (1.0 + 0.2 * np.cos(5.0 * t + 0.3)),
        lambda t: -0.8 * np.sin(5.0 * t + 0.3))
    return DomainSpec(dim=2, inside=None, boundary=(curve,), name="turned")


class TestImageArclength:
    @pytest.mark.parametrize("dom_fn,component", [
        (disc_domain, 0), (star_domain, 0),
        (annulus_domain, 0), (annulus_domain, 1), (turned_star_domain, 0),
    ])
    def test_table_matches_one_shot(self, dom_fn, component):
        # the series' cumulative length against 2^20 chords, on the
        # chord table's nodes that the series grid shares
        curve = dom_fn().boundary[component]
        cum, _ = curve.image_arclength
        brute = one_shot_image_arclength(curve, nseg=1 << 20)
        stride = (brute.size - 1) // (cum.size - 1)
        assert np.max(np.abs(cum - brute[::stride])) < 1e-9

    def test_table_is_read_only(self):
        for table in disc_domain().boundary[0].image_arclength:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[1] = 0.0

    @pytest.mark.parametrize("dom_fn", [disc_domain, star_domain,
                                        annulus_domain])
    def test_built_in_tables_fit_in_a_quarter_mib(self, dom_fn):
        for curve in dom_fn().boundary:
            assert sum(t.nbytes for t in curve.image_arclength) <= 1 << 18

    def test_computed_once_per_curve(self, table_builds):
        dom = annulus_domain()
        grids = range(10, 39, 4)
        reused = [sample_boundary_2d(dom, m) for m in grids]
        assert [id(c) for c in table_builds] == [id(c) for c in dom.boundary]
        for m, bset in zip(grids, reused):
            fresh = sample_boundary_2d(annulus_domain(), m)
            assert np.array_equal(bset.points, fresh.points)
            assert np.array_equal(bset.normals, fresh.normals)

    def test_sweep_reuses_the_roster_tables(self, table_builds):
        solve_problem("dirichlet-disc", 10, SmootherSpec(p=4.0))
        table_builds.clear()
        rows = run_experiment(ExperimentConfig(
            problem="dirichlet-disc", grids=(10, 14), p_list=(4.0, 6.0)))
        assert [r.failed for r in rows] == [False] * 4
        assert table_builds == []

    def test_pooled_sweep_builds_each_table_once(self, table_builds,
                                                 monkeypatch):
        # four workers (more than the cores) build grid sizes side by
        # side on one fresh annulus, switching often, so several can ask
        # for a curve's tables before any has them
        dom = annulus_domain()
        problem = ssem.experiments._elliptic_problem(
            dom,
            EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                                 first_order={}, zeroth=None, source=0.0),
            BoundaryConditionSpec(
                trace=1.0, flux=0.0,
                data=lambda pts, nrm: pts[:, 0] ** 2 - pts[:, 1] ** 2),
            exact=lambda x, y: x**2 - y**2)
        monkeypatch.setitem(ssem.experiments._PROBLEMS, "robin-annulus",
                            problem)
        monkeypatch.setattr(ssem.experiments, "_usable_cpus", lambda: 4)
        counted = geometry._image_arclength

        def slow(curve):  # time for the other workers to ask as well
            time.sleep(0.2)
            return counted(curve)

        monkeypatch.setattr(geometry, "_image_arclength", slow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = run_experiment(ExperimentConfig(
                problem="robin-annulus", grids=(22, 10, 18, 14),
                p_list=(4.0, 6.0)))
        finally:
            sys.setswitchinterval(interval)
        assert [r.failed for r in rows] == [False] * 8
        assert sorted(map(id, table_builds)) == sorted(map(id, dom.boundary))

    @pytest.mark.parametrize("dom_fn", [disc_domain, star_domain,
                                        annulus_domain])
    def test_sampling_matches_interp_on_the_table(self, dom_fn):
        # each sample's arclength, interpolated on the 2^20-chord table,
        # is i / n of the curve's length: the samples are equally spaced
        dom = dom_fn()
        tables = [one_shot_image_arclength(c, nseg=1 << 20)
                  for c in dom.boundary]
        for m in range(10, 39, 4):
            pts = sample_boundary_2d(dom, m).points
            for brute in tables:
                n_pts = int(np.ceil(m / 2.0 * brute[-1] / np.pi))
                arc = np.interp(image_angles(pts[:n_pts]),
                                np.linspace(0.0, 2.0 * np.pi, brute.size),
                                brute)
                want = np.arange(n_pts) * (brute[-1] / n_pts)
                assert np.max(np.abs(arc - want)) < 1e-9, m
                pts = pts[n_pts:]
            assert pts.size == 0, m

    def test_curve_leaving_the_box_rejected(self):
        # named at the first series level, before any refinement
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"^188 of 256 boundary samples lie outside "
                    r"\(-1, 1\)\^2; the first is at angle 0\.0, point "
                    r"\[1\.2, 0\.0\]$")):
                sample_boundary(disc_domain(radius=1.2), 10)

    def test_curve_touching_the_box_rejected(self):
        # x = 1 exactly at angle 0, where the image speed 1/sqrt(1 - x^2)
        # is infinite: the box is open
        centre = np.array([0.5, 0.0])
        curve = geometry.BoundaryCurve(
            param=lambda t: centre + 0.5 * np.stack([np.cos(t), np.sin(t)],
                                                    axis=-1),
            normal=lambda pts: (pts - centre) / 0.5)
        dom = DomainSpec(dim=2, inside=None, boundary=(curve,))
        with pytest.raises(ValueError, match=(
                r"^1 of 256 boundary samples lie outside \(-1, 1\)\^2; the "
                r"first is at angle 0\.0, point \[1\.0, 0\.0\]$")):
            sample_boundary_2d(dom, 10)

    def test_samples_outside_the_box_rejected(self):
        # a circle of radius 0.5 at every angle 2 pi k / 65536, which holds
        # every table node, and of radius 1.5 between them: the tables see
        # only the circle, and the samples themselves are checked
        def param(t):
            r = np.where(np.abs(np.sin(32768.0 * t)) < 1e-6, 0.5, 1.5)
            return r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)

        curve = geometry.BoundaryCurve(param=param, normal=lambda pts: pts)
        dom = DomainSpec(dim=2, inside=None, boundary=(curve,))
        with pytest.raises(ValueError, match=(
                r"^4 of 6 boundary samples lie outside \(-1, 1\)\^2; the "
                r"first is sample 1 at \[")):
            sample_boundary_2d(dom, 10)

    def test_unconverged_tables_interpolate_their_samples(self, monkeypatch):
        # the speed table, read off the series on the fine grid, equals
        # the speed samples at the series' own nodes; the 512-sample series
        # of 200 wiggles has not converged, so its Nyquist mode is large
        # and must count once
        monkeypatch.setattr(geometry, "_MAX_SAMPLES", 512)
        curve = two_hundred_wiggles()
        with pytest.warns(RuntimeWarning, match="did not converge"):
            cum, speed = curve.image_arclength
        samples = geometry._image_speed(curve, 512)
        assert np.max(np.abs(speed[:-1:8] - samples)) < 1e-12 * samples.max()
        assert cum[-1] == pytest.approx(2.0 * np.pi * samples.mean(),
                                        rel=1e-14)

    def test_warns_when_the_first_level_is_the_cap(self, monkeypatch):
        # with the cap at the first level (256 samples) there is no earlier
        # length to compare: the cap still warns, and sampling goes on
        monkeypatch.setattr(geometry, "_MAX_SAMPLES", 256)
        dom = DomainSpec(dim=2, inside=None, boundary=(two_hundred_wiggles(),))
        with pytest.warns(RuntimeWarning, match=(
                r"did not converge at the sample cap: 256 samples, "
                r"no earlier level")):
            bset = sample_boundary_2d(dom, 10)
        assert bset.count > 0

    @pytest.mark.parametrize("curve_fn", [seven_lobe_star,
                                          two_hundred_wiggles])
    def test_fine_features_converge_without_warning(self, curve_fn):
        curve = curve_fn()
        dom = DomainSpec(dim=2, inside=None, boundary=(curve,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bset = sample_boundary_2d(dom, 24)
        cum, _ = curve.image_arclength
        assert bset.count == int(np.ceil(12.0 * cum[-1] / np.pi))
        on_curve = curve.param(image_angles(bset.points))
        assert np.max(np.abs(bset.points - on_curve)) < 1e-12

    def test_warns_at_sample_cap_on_a_kink(self):
        # r = 0.5 + 0.1 |sin t| has corners at t = 0 and pi: the series
        # converges only algebraically there
        curve = geometry._polar_curve(
            lambda t: 0.5 + 0.1 * np.abs(np.sin(t)),
            lambda t: 0.1 * np.sign(np.sin(t)) * np.cos(t))
        with pytest.warns(RuntimeWarning, match=(
                r"did not converge at the sample cap: 65536 samples")):
            cum, _ = curve.image_arclength
        assert cum.size == 8 * 65536 + 1


class TestBoundaryCallablesChecked:
    """Each sampler refuses a component whose param, radius or normal does
    not give finite values of the expected shape, or whose normals are
    not unit length, and names it."""

    @staticmethod
    def disc_with(param=None, normal=None):
        base = disc_domain().boundary[0]
        curve = geometry.BoundaryCurve(param=param or base.param,
                                       normal=normal or base.normal)
        return DomainSpec(dim=2, inside=disc_domain().inside,
                          boundary=(curve,), name="disc")

    @staticmethod
    def ball_with(radius=None, normal=None):
        base = star_ball_domain().boundary
        surface = StarSurface(radius=radius or base.radius,
                              normal=normal or base.normal,
                              max_radius=base.max_radius)
        return DomainSpec(dim=3, inside=star_ball_domain().inside,
                          boundary=surface, name="ball")

    def test_nan_normals_refused(self):
        # with flux 0 they used to pass sampling and assembly, and surface
        # only as non-finite entries of the QR
        dom = self.disc_with(normal=lambda pts: np.full(pts.shape, np.nan))
        with pytest.raises(ValueError, match=(
                r"^domain disc, boundary component 0: normal returned 30 "
                r"non-finite values \(NaN or inf\) of 30$")):
            sample_boundary_2d(dom, 12)

    def test_normals_of_one_column_refused(self):
        # used to raise an IndexError
        base = disc_domain().boundary[0].normal
        dom = self.disc_with(normal=lambda pts: base(pts)[:, :1])
        with pytest.raises(ValueError, match=(
                r"^domain disc, boundary component 0: normal returned "
                r"shape \(15, 1\), expected \(15, 2\)$")):
            sample_boundary_2d(dom, 12)

    def test_normals_not_of_unit_length_refused(self):
        # used to scale a flux condition's data threefold
        base = disc_domain().boundary[0].normal
        dom = self.disc_with(normal=lambda pts: 3.0 * base(pts))
        with pytest.raises(ValueError, match=(
                r"^domain disc, boundary component 0: normal returned 15 of "
                r"15 normals that are not unit length to 1e-12 \(off by up "
                r"to 2\)$")):
            sample_boundary_2d(dom, 12)

    def test_normals_within_the_tolerance_accepted(self):
        base = disc_domain().boundary[0].normal
        dom = self.disc_with(normal=lambda pts: (1.0 + 5e-13) * base(pts))
        assert sample_boundary_2d(dom, 12).count == 15

    def test_normals_just_beyond_the_tolerance_refused(self):
        base = disc_domain().boundary[0].normal
        dom = self.disc_with(normal=lambda pts: (1.0 + 2e-12) * base(pts))
        with pytest.raises(ValueError, match="not unit length to 1e-12"):
            sample_boundary_2d(dom, 12)

    def test_one_dimensional_param_refused(self):
        # used to raise numpy's AxisError from the arclength tables
        dom = self.disc_with(param=lambda t: 0.5 * np.cos(t))
        with pytest.raises(ValueError, match=(
                r"^domain disc, boundary component 0: param returned shape "
                r"\(256,\), expected \(256, 2\)$")):
            sample_boundary_2d(dom, 12)

    def test_nan_param_between_table_nodes_refused(self):
        # NaN off every table node (2 pi k / 65536), so the tables see the
        # circle and the samples themselves are NaN
        base = disc_domain().boundary[0].param

        def param(t):
            pts = base(t)
            pts[np.abs(np.sin(32768.0 * t)) > 1e-6] = np.nan
            return pts

        with pytest.raises(ValueError, match=(
                r"^domain disc, boundary component 0: param returned \d+ "
                r"non-finite values")):
            sample_boundary_2d(self.disc_with(param=param), 12)

    def test_refusal_names_the_component(self):
        outer, inner = annulus_domain().boundary
        hole = geometry.BoundaryCurve(param=inner.param,
                                      normal=lambda pts: 2.0 * inner.normal(pts))
        dom = DomainSpec(dim=2, inside=annulus_domain().inside,
                         boundary=(outer, hole))
        with pytest.raises(ValueError, match=(
                r"^domain <anonymous>, boundary component 1: normal")):
            sample_boundary_2d(dom, 12)

    @pytest.mark.parametrize("radius, message", [
        (lambda polar, azim: np.where(azim > 3.0, np.nan, 0.8),
         r"radius returned \d+ non-finite values"),
        (lambda polar, azim: 0.8, r"radius returned shape \(\), expected "
                                  r"\(129,\)"),
    ])
    def test_3d_radius_refused(self, radius, message):
        with pytest.raises(ValueError, match=(
                r"^domain ball, boundary surface: " + message)):
            sample_boundary_3d(self.ball_with(radius=radius), 12)

    @pytest.mark.parametrize("scale, columns, message", [
        (np.nan, 3, r"normal returned 387 non-finite values"),
        (1.0, 2, r"normal returned shape \(129, 2\), expected \(129, 3\)"),
        (1.1, 3, r"normal returned 129 of 129 normals that are not unit"),
    ])
    def test_3d_normals_refused(self, scale, columns, message):
        base = star_ball_domain().boundary.normal
        dom = self.ball_with(
            normal=lambda pts: scale * base(pts)[:, :columns])
        with pytest.raises(ValueError, match=(
                r"^domain ball, boundary surface: " + message)):
            sample_boundary_3d(dom, 12)


class TestBoundary3D:
    @pytest.mark.parametrize("m", sorted(BALL_COUNTS))
    def test_counts_within_two(self, m):
        got = sample_boundary_3d(star_ball_domain(), m).count
        assert abs(got - BALL_COUNTS[m][1]) <= 2

    def test_counts_exact_on_tables(self):
        for m, (_, n_gamma) in BALL_COUNTS.items():
            assert sample_boundary_3d(star_ball_domain(), m).count == n_gamma

    def test_points_on_boundary_with_unit_outward_normals(self):
        dom = star_ball_domain()
        bset = sample_boundary_3d(dom, 12)
        phi = dom.inside(*bset.points.T)
        assert np.max(np.abs(phi)) < 1e-10
        assert np.linalg.norm(bset.normals, axis=1) == pytest.approx(
            np.ones(bset.count), abs=1e-12)
        stepped = bset.points + 1e-6 * bset.normals
        assert np.all(dom.inside(*stepped.T) > 0)

    def test_unit_sphere_projection(self):
        sphere = DomainSpec(
            dim=3, inside=lambda x, y, z: np.sqrt(x * x + y * y + z * z) - 1.0,
            boundary=StarSurface(
                radius=lambda polar, azim: np.ones_like(polar),
                normal=lambda pts: pts / np.linalg.norm(pts, axis=-1,
                                                        keepdims=True),
                max_radius=1.0),
            name="sphere")
        bset = sample_boundary_3d(sphere, 10)
        radii = np.linalg.norm(bset.points, axis=1)
        assert radii == pytest.approx(np.ones(bset.count), abs=1e-12)

    def test_count_guard_on_an_inexact_product(self):
        # m^2 rho_max^2 = 48 for m = 8, rho_max = sqrt(3) / 2, but the
        # floating-point product is 47.99999999999999
        rho = np.sqrt(3.0) / 2.0
        sphere = DomainSpec(
            dim=3, inside=lambda x, y, z: np.sqrt(x * x + y * y + z * z) - rho,
            boundary=StarSurface(
                radius=lambda polar, azim: np.full_like(polar, rho),
                normal=lambda pts: pts / np.linalg.norm(pts, axis=-1,
                                                        keepdims=True),
                max_radius=rho))
        assert 8 * 8 * rho * rho < 48.0
        assert sample_boundary_3d(sphere, 8).count == 48

    def test_normals_match_level_gradient(self):
        dom = star_ball_domain()
        bset = sample_boundary_3d(dom, 10)
        h = 1e-7
        grad = np.stack([
            dom.inside(*(bset.points + h * np.eye(3)[i]).T)
            - dom.inside(*(bset.points - h * np.eye(3)[i]).T)
            for i in range(3)
        ], axis=1)
        grad /= np.linalg.norm(grad, axis=1, keepdims=True)
        assert np.max(np.abs(grad - bset.normals)) < 1e-6


class TestDispatch:
    def test_dispatcher_matches_dimension(self):
        assert sample_boundary(disc_domain(), 10).count == \
            sample_boundary_2d(disc_domain(), 10).count
        assert sample_boundary(star_ball_domain(), 10).count == \
            sample_boundary_3d(star_ball_domain(), 10).count

    def test_planar_sampler_refuses_a_3d_domain(self):
        with pytest.raises(ValueError, match="requires a planar domain"):
            sample_boundary_2d(star_ball_domain(), 10)

    def test_3d_sampler_refuses_a_planar_domain(self):
        with pytest.raises(ValueError, match="requires a 3-d domain"):
            sample_boundary_3d(disc_domain(), 10)

    def test_3d_sampler_needs_a_star_surface(self):
        cube = DomainSpec(dim=3, inside=lambda x, y, z: np.maximum(
            np.maximum(abs(x), abs(y)), abs(z)) - 0.5, boundary=(),
            name="cube")
        with pytest.raises(ValueError, match="domain cube has no "
                                             "star-shaped boundary surface"):
            sample_boundary_3d(cube, 10)

    def test_unsupported_dimension_rejected(self):
        segment = DomainSpec(dim=1, inside=lambda x: np.abs(x) - 0.5,
                             boundary=(), name="segment")
        with pytest.raises(ValueError, match="dim=1"):
            sample_boundary(segment, 10)
