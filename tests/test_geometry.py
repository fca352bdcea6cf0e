"""Domains, interior classification, boundary sampling."""

import numpy as np
import pytest

from ssem import geometry
from ssem.assembly import SmootherSpec
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


class TestImageArclength:
    @pytest.mark.parametrize("dom_fn,component", [
        (disc_domain, 0), (star_domain, 0),
        (annulus_domain, 0), (annulus_domain, 1),
    ])
    def test_chunked_table_matches_one_shot(self, dom_fn, component):
        curve = dom_fn().boundary[component]
        assert np.array_equal(geometry._image_arclength(curve),
                              one_shot_image_arclength(curve))

    def test_table_is_read_only(self):
        cum = disc_domain().boundary[0].image_arclength
        assert not cum.flags.writeable
        with pytest.raises(ValueError):
            cum[1] = 0.0

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

    def test_warns_at_segment_cap(self):
        # 200 wiggles: the image length still moves by ~8e-6 at 2^20 segments
        curve = geometry._polar_curve(lambda t: 0.5 + 0.05 * np.cos(200 * t),
                                      lambda t: -10.0 * np.sin(200 * t))
        with pytest.warns(RuntimeWarning, match="1048576 segments"):
            cum = curve.image_arclength
        assert cum.size == (1 << 20) + 1


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

    def test_unsupported_dimension_rejected(self):
        segment = DomainSpec(dim=1, inside=lambda x: np.abs(x) - 0.5,
                             boundary=(), name="segment")
        with pytest.raises(ValueError, match="dim=1"):
            sample_boundary(segment, 10)
