import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from assemblyforge import geometry

from . import oracles


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [0.5, 1.5]]
        hull = geometry.convex_hull_2d(pts)
        assert len(hull.vertices) == 4
        x, y = hull.vertices[:, 0], hull.vertices[:, 1]
        # the shoelace sum is twice the area, positive for a CCW loop
        assert np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) == 8.0
        assert hull.perimeter() == 8.0

    def test_single_point(self):
        hull = geometry.convex_hull_2d([[1.0, 2.0]])
        assert hull.is_point
        assert hull.perimeter() == 0.0

    def test_collinear_collapses_to_segment(self):
        hull = geometry.convex_hull_2d([[0, 0], [1, 1], [2, 2], [3, 3]])
        assert hull.is_segment
        assert np.allclose(sorted(map(tuple, hull.vertices)), [[0, 0], [3, 3]])

    def test_duplicates_removed(self):
        hull = geometry.convex_hull_2d([[0, 0], [0, 0], [1, 0], [1, 0], [0, 1]])
        assert len(hull.vertices) == 3

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=1, max_size=30))
    def test_hull_contains_all_points(self, pts):
        hull = geometry.convex_hull_2d(pts)
        v = hull.vertices
        # every hull vertex is an input point
        arr = np.asarray(pts, float)
        for row in v:
            assert any(np.allclose(row, p) for p in arr)
        if len(v) < 3:
            return
        # every input point lies left of (or on) every CCW edge
        for p in arr:
            for i in range(len(v)):
                a, b = v[i], v[(i + 1) % len(v)]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                assert cross >= -1e-7

    def test_rejects_empty(self):
        with pytest.raises(geometry.GeometryError):
            geometry.convex_hull_2d(np.zeros((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(geometry.GeometryError):
            geometry.convex_hull_2d([[0, 0], [math.nan, 1]])


class TestMinEnclosingCircle:
    def test_two_point_diameter(self):
        c = geometry.min_enclosing_circle([[0, 0], [2, 0]])
        assert np.allclose(c.center, [1, 0])
        assert c.radius == pytest.approx(1.0, abs=1e-12)

    def test_obtuse_triangle_uses_longest_side(self):
        # (0,0), (4,0), (1, 0.5): circumcircle excluded, diameter (0,0)-(4,0)
        c = geometry.min_enclosing_circle([[0, 0], [4, 0], [1, 0.5]])
        assert np.allclose(c.center, [2, 0], atol=1e-9)
        assert c.radius == pytest.approx(2.0, abs=1e-9)

    def test_equilateral_triangle_circumcircle(self):
        s = 2.0
        pts = [[0, 0], [s, 0], [s / 2, s * math.sqrt(3) / 2]]
        c = geometry.min_enclosing_circle(pts)
        assert c.radius == pytest.approx(s / math.sqrt(3), abs=1e-9)

    def test_seed_invariant(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, (25, 2))
        r0 = geometry.min_enclosing_circle(pts, seed=0).radius
        r1 = geometry.min_enclosing_circle(pts, seed=99).radius
        assert r0 == pytest.approx(r1, abs=1e-9)


class TestMinEnclosingSphere:
    def test_cube_corners(self):
        pts = [[sx, sy, sz] for sx in (0, 1) for sy in (0, 1) for sz in (0, 1)]
        s = geometry.min_enclosing_sphere(pts)
        assert np.allclose(s.center, [0.5, 0.5, 0.5], atol=1e-9)
        assert s.radius == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_contains_all(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        s = geometry.min_enclosing_sphere(pts)
        for p in pts:
            assert np.linalg.norm(p - s.center) <= s.radius + 1e-9


class TestBoundingShapes:
    def test_cylinder_spans_z_and_contains(self):
        pts = np.array([[0, 0, -1.0], [2, 0, 3.0], [1, 1, 0.0]])
        cyl = geometry.bounding_cylinder(pts)
        assert cyl.z_min == -1.0 and cyl.z_max == 3.0
        for p in pts:
            assert oracles.cylinder_contains(cyl, p)

    def test_octagonal_prism_contains_and_face_widths(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-2, 2, (50, 3))
        prism = geometry.bounding_octagonal_prism(pts, min_face_width=0.1)
        for p in pts:
            assert oracles.prism_contains(prism, p)
        assert np.all(geometry.face_widths(prism.offsets) >= 0.1 - 1e-9)

    def test_octagon_of_unit_square(self):
        pts = np.array([[sx, sy, 0.0] for sx in (0, 1) for sy in (0, 1)])
        prism = geometry.bounding_octagonal_prism(pts, min_face_width=1e-6)
        # axis-aligned supports at 1, diagonal supports at sqrt(2)/2 * 2 corners
        assert prism.offsets[0] == pytest.approx(1.0, abs=1e-5)
        assert prism.offsets[2] == pytest.approx(1.0, abs=1e-5)
        assert prism.offsets[1] == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_min_face_width_validation(self):
        with pytest.raises(geometry.GeometryError):
            geometry.bounding_octagonal_prism(np.zeros((1, 3)), min_face_width=0.0)


class TestSingularExtents:
    def test_rectangle(self):
        poly = geometry.Polygon2D(np.array([[-2, -1], [2, -1], [2, 1], [-2, 1]], float))
        l, w = geometry.singular_extents(poly)
        assert l == pytest.approx(4.0)
        assert w == pytest.approx(2.0)

    def test_rotation_invariant(self):
        base = np.array([[-2, -1], [2, -1], [2, 1], [-2, 1]], float)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        l, w = geometry.singular_extents(geometry.Polygon2D(base @ rot.T))
        assert l == pytest.approx(4.0)
        assert w == pytest.approx(2.0)

    def test_segment_has_zero_width(self):
        poly = geometry.Polygon2D(np.array([[0, 0], [3, 0]], float))
        l, w = geometry.singular_extents(poly)
        assert l == pytest.approx(1.5 * math.sqrt(2))
        assert w == pytest.approx(0.0, abs=1e-12)


def _same_circle(got, want) -> bool:
    return (got.center.tobytes() == want.center.tobytes()
            and np.float64(got.radius).tobytes() == np.float64(want.radius).tobytes())


class TestMinEnclosingCircleScan:
    """The array scans give the circles of `_within` tested point by point,
    kept as `oracles.min_enclosing_circle_reference`: every center and
    radius bit for bit."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_random_sets(self, scale):
        rng = np.random.default_rng(31)
        for trial in range(150):
            pts = rng.uniform(-5, 5, (int(rng.integers(1, 80)), 2)) * scale
            for seed in (0, trial):
                assert _same_circle(geometry.min_enclosing_circle(pts, seed),
                                    oracles.min_enclosing_circle_reference(pts, seed))

    def test_duplicated_and_cocircular_brick_corners(self):
        # the corners of bricks on a grid: shared corners repeat, and the four
        # corners of each brick (and of the whole grid) are co-circular
        rng = np.random.default_rng(32)
        corners = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.25], [0.0, 0.25]])
        for trial in range(60):
            cells = rng.integers(0, 4, (int(rng.integers(1, 12)), 2)) * [0.5, 0.25]
            pts = (cells[:, None, :] + corners).reshape(-1, 2)
            if trial % 2:
                pts = np.vstack([pts, pts])
            assert _same_circle(geometry.min_enclosing_circle(pts, trial),
                                oracles.min_enclosing_circle_reference(pts, trial))

    @pytest.mark.parametrize("direction", [-math.inf, 0.0, math.inf],
                             ids=["ulp-in", "on", "ulp-out"])
    def test_points_on_the_circle_and_one_ulp_off(self, direction):
        rng = np.random.default_rng(33)
        for trial in range(60):
            base = rng.uniform(-3, 3, (int(rng.integers(2, 30)), 2))
            c = geometry.min_enclosing_circle(base, trial)
            angles = rng.uniform(0, 2 * math.pi, 8)
            ring = c.center + c.radius * np.c_[np.cos(angles), np.sin(angles)]
            if direction:  # one ulp away from the center, in x
                ring[:, 0] = np.nextafter(ring[:, 0], np.copysign(
                    direction, ring[:, 0] - c.center[0]))
            pts = np.vstack([base, ring])
            assert _same_circle(geometry.min_enclosing_circle(pts, trial),
                                oracles.min_enclosing_circle_reference(pts, trial))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_to_three_points(self, n):
        rng = np.random.default_rng(34)
        for trial in range(100):
            pts = rng.integers(-2, 3, (n, 2)).astype(float) if trial % 2 else (
                rng.uniform(-1, 1, (n, 2)))
            assert _same_circle(geometry.min_enclosing_circle(pts, trial),
                                oracles.min_enclosing_circle_reference(pts, trial))

    def test_points_at_the_slack_bound(self):
        # a point whose |d| is exactly the containment slack bound is held,
        # one ulp further out is not
        rng = np.random.default_rng(35)
        held = 0
        for trial in range(60):
            base = rng.uniform(-3, 3, (int(rng.integers(2, 30)), 2))
            c = geometry.min_enclosing_circle(base, trial)
            bound = c.radius * (1 + 1e-12) + 1e-12
            x = c.center[0] + bound
            while math.sqrt((x - c.center[0]) ** 2) > bound:
                x = math.nextafter(x, -math.inf)
            while math.sqrt((math.nextafter(x, math.inf) - c.center[0]) ** 2) <= bound:
                x = math.nextafter(x, math.inf)
            held += math.sqrt((x - c.center[0]) ** 2) == bound
            for px in (x, math.nextafter(x, math.inf)):
                pts = np.vstack([base, [[px, c.center[1]]]])
                for seed in (trial, trial + 1):
                    assert _same_circle(geometry.min_enclosing_circle(pts, seed),
                                        oracles.min_enclosing_circle_reference(pts, seed))
        assert held  # some points sit exactly on the bound
