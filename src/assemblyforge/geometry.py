"""2D/3D geometric kernels: hulls, enclosing circles/spheres, bounding prisms.

All shapes returned here over-approximate their input point sets so that the
planner can reason about clearances with cheap distance checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

OCTAGON_ANGLES = tuple(k * math.pi / 4 for k in range(8))
OCTAGON_NORMALS = np.array(
    [[math.cos(a), math.sin(a)] for a in OCTAGON_ANGLES]
)


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Polygon2D:
    """CCW vertex loop. One vertex = point, two = segment (degenerate forms)."""

    vertices: np.ndarray  # (k, 2)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) == 0:
            raise GeometryError("polygon needs a (k, 2) vertex array, k >= 1")
        object.__setattr__(self, "vertices", v)

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2

    def perimeter(self) -> float:
        if self.is_point:
            return 0.0
        diffs = np.diff(np.vstack([self.vertices, self.vertices[:1]]), axis=0)
        return float(np.linalg.norm(diffs, axis=1).sum())

    def edge_lengths(self) -> np.ndarray:
        if self.is_point:
            return np.zeros(0)
        if self.is_segment:
            return np.array([np.linalg.norm(self.vertices[1] - self.vertices[0])])
        diffs = np.diff(np.vstack([self.vertices, self.vertices[:1]]), axis=0)
        return np.linalg.norm(diffs, axis=1)


@dataclass(frozen=True)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class VerticalCylinder:
    center: np.ndarray  # (2,)
    radius: float
    z_min: float
    z_max: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.z_min > self.z_max:
            raise GeometryError("cylinder requires z_min <= z_max")


@dataclass(frozen=True)
class OctagonalPrism:
    """Intersection of 8 half-planes with outward normals at k*45 degrees."""

    offsets: np.ndarray  # (8,) support offsets along OCTAGON_NORMALS
    z_min: float
    z_max: float

    def __post_init__(self):
        h = np.asarray(self.offsets, dtype=float)
        if h.shape != (8,):
            raise GeometryError("octagonal prism needs 8 face offsets")
        object.__setattr__(self, "offsets", h)


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise GeometryError("empty point set")
    pts = pts.reshape(-1, pts.shape[-1])
    if pts.shape[1] != dim:
        raise GeometryError(f"expected {dim}-D points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("non-finite coordinates")
    return pts


def convex_hull_2d(points) -> Polygon2D:
    """Minimal CCW hull via Andrew's monotone chain; collinear points dropped."""
    pts = _as_points(points, 2)
    uniq = np.unique(pts, axis=0)
    if len(uniq) == 1:
        return Polygon2D(uniq)
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    uniq = uniq[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in uniq[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear collapse to the two extremes
        hull = [uniq[0], uniq[-1]]
    if len(hull) == 2 and np.allclose(hull[0], hull[1]):
        hull = hull[:1]
    return Polygon2D(np.array(hull))


# -- minimum enclosing circle / sphere (Welzl, seeded shuffle) ---------------


def _circle_two(p, q) -> Circle:
    c = (p + q) / 2.0
    return Circle(c, float(np.linalg.norm(p - c)))


def _circumcircle(a, b, c) -> Circle | None:
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    center = np.array([ux, uy])
    return Circle(center, float(np.linalg.norm(a - center)))


def _within(d, radius: float) -> bool:
    """|d| <= radius, with Welzl's containment slack. |d| is `sqrt(d @ d)`,
    the float that `np.linalg.norm` returns for a 1-D vector, without its
    call overhead."""
    return math.sqrt(d @ d) <= radius * (1 + 1e-12) + 1e-12


def _first_outside(pts: np.ndarray, start: int, stop: int, c: Circle) -> int:
    """The first row of pts[start:stop] that `_within` rejects for circle c,
    or `stop` if there is none. One array test of the same floats: a row's
    |d| is `sqrt(vecdot(d, d))`, and NaN counts as outside."""
    if start >= stop:
        return stop
    d = pts[start:stop] - c.center
    outside = ~(np.sqrt(np.vecdot(d, d)) <= c.radius * (1 + 1e-12) + 1e-12)
    first = int(outside.argmax())
    return start + first if outside[first] else stop


def min_enclosing_circle(points, seed: int = 0) -> Circle:
    """Smallest circle containing all points (Welzl's incremental method).

    Each loop skips, by one array scan, to the next point the current circle
    does not hold, so the circles are those of testing point by point."""
    pts = _as_points(points, 2)
    order = list(range(len(pts)))
    random.Random(seed).shuffle(order)  # the permutation of shuffling the rows
    pts = pts[order]

    n = len(pts)
    c = Circle(pts[0], 0.0)  # holds the first point, so its inner loops do nothing
    i = _first_outside(pts, 1, n, c)
    while i < n:
        p = pts[i]
        c = Circle(p, 0.0)
        j = _first_outside(pts, 0, i + 1, c)
        while j <= i:
            q = pts[j]
            c = _circle_two(p, q)
            k = _first_outside(pts, 0, j + 1, c)
            while k <= j:
                cc = _circumcircle(p, q, pts[k])
                if cc is not None:
                    c = cc
                k = _first_outside(pts, k + 1, j + 1, c)
            j = _first_outside(pts, j + 1, i + 1, c)
        i = _first_outside(pts, i + 1, n, c)
    return c


def _sphere_from(support: list[np.ndarray]) -> Sphere:
    m = len(support)
    if m == 0:
        return Sphere(np.zeros(3), 0.0)
    if m == 1:
        return Sphere(support[0], 0.0)
    if m == 2:
        c = (support[0] + support[1]) / 2.0
        return Sphere(c, float(np.linalg.norm(support[0] - c)))
    # solve |x - p0|^2 = |x - pi|^2 restricted to the affine hull of support
    p0 = support[0]
    a = np.array([2.0 * (p - p0) for p in support[1:]])
    b = np.array([np.dot(p, p) - np.dot(p0, p0) for p in support[1:]])
    center, *_ = np.linalg.lstsq(a, b, rcond=None)
    return Sphere(center, float(np.linalg.norm(p0 - center)))


def min_enclosing_sphere(points, seed: int = 0) -> Sphere:
    """Smallest sphere containing all 3D points (move-to-front Welzl)."""
    pts = [np.array(p, float) for p in _as_points(points, 3)]
    rng = random.Random(seed)
    rng.shuffle(pts)

    s = _sphere_from([])
    for i, p in enumerate(pts):
        if _within(p - s.center, s.radius):
            continue
        s = Sphere(p, 0.0)
        for j, q in enumerate(pts[:i]):
            if _within(q - s.center, s.radius):
                continue
            s = _sphere_from([p, q])
            for k, t in enumerate(pts[:j]):
                if _within(t - s.center, s.radius):
                    continue
                s = _sphere_from([p, q, t])
                for u in pts[:k]:
                    if _within(u - s.center, s.radius):
                        continue
                    s = _sphere_from([p, q, t, u])
    return s


def bounding_cylinder(points3d, seed: int = 0) -> VerticalCylinder:
    pts = _as_points(points3d, 3)
    circle = min_enclosing_circle(pts[:, :2], seed=seed)
    return VerticalCylinder(
        circle.center, circle.radius, float(pts[:, 2].min()), float(pts[:, 2].max())
    )


def face_widths(offsets: np.ndarray) -> np.ndarray:
    """Width of each face of the octagon with support `offsets`."""
    s = math.sin(math.pi / 4)
    c = math.cos(math.pi / 4)
    return (np.roll(offsets, 1) + np.roll(offsets, -1) - 2 * c * offsets) / s


def bounding_octagonal_prism(points3d, min_face_width: float) -> OctagonalPrism:
    """Tight octagonal prism; faces narrower than min_face_width are relaxed
    by pushing the two adjacent offsets outward equally until every face opens.
    """
    if min_face_width <= 0:
        raise GeometryError("min_face_width must be positive")
    pts = _as_points(points3d, 3)
    xy = pts[:, :2]
    h = np.max(OCTAGON_NORMALS @ xy.T, axis=1)
    s = math.sin(math.pi / 4)
    for _ in range(10_000):
        deficits = min_face_width - face_widths(h)
        worst = float(deficits.max())
        if worst <= 1e-12:
            break
        grow = np.zeros(8)
        for k in np.nonzero(deficits > 1e-12)[0]:
            delta = deficits[k] * s / 2.0
            grow[(k - 1) % 8] = max(grow[(k - 1) % 8], delta)
            grow[(k + 1) % 8] = max(grow[(k + 1) % 8], delta)
        h = h + grow
    return OctagonalPrism(h, float(pts[:, 2].min()), float(pts[:, 2].max()))


def singular_extents(polygon: Polygon2D) -> tuple[float, float]:
    """Length/width of a polygon as the singular values of its centered
    2 x k vertex matrix."""
    v = polygon.vertices
    centered = (v - v.mean(axis=0)).T  # 2 x k
    sv = np.linalg.svd(centered, compute_uv=False)
    l = float(sv[0]) if len(sv) > 0 else 0.0
    w = float(sv[1]) if len(sv) > 1 else 0.0
    return l, w
