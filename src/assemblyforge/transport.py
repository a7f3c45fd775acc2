"""Transport team sizing, carrying positions, and payload speed limits.

Team sizes come from a perimeter heuristic over the payload footprint; the
carrying positions are hull vertices chosen by seeded hill climbing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .geometry import Circle, OctagonalPrism, Polygon2D, VerticalCylinder
from .model import ProjectSpec, RobotFleet, Transform

ROBOT_HEIGHT_FACTOR = 2.0  # robot cylinder height = factor * radius
CARRY_RESTARTS = 5


class TransportConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FootprintStats:
    hull: Polygon2D
    l: float
    w: float
    perimeter: float
    short_edges: int  # edges shorter than 2r
    disk_lower_bound: int  # floor(p / (pi * r))


@dataclass(frozen=True)
class TransportUnitConfig:
    payload_id: str
    n: int
    carry_positions: np.ndarray  # (n, 2), payload frame
    speed_limit: float
    bounding_circle: Circle  # payload + robots, XY
    bounding_cylinder: VerticalCylinder
    bounding_prism: OctagonalPrism

    def __post_init__(self):
        object.__setattr__(
            self, "carry_positions", np.asarray(self.carry_positions, float).reshape(-1, 2)
        )


def footprint_stats(points3d, robot_radius: float) -> FootprintStats:
    pts = np.asarray(points3d, float).reshape(-1, 3)
    hull = geometry.convex_hull_2d(pts[:, :2])
    l, w = geometry.singular_extents(hull)
    p = hull.perimeter()
    short = int(np.sum(hull.edge_lengths() < 2 * robot_radius))
    n_lb = int(p // (math.pi * robot_radius)) if robot_radius > 0 else 0
    return FootprintStats(hull, l, w, p, short, n_lb)


def team_size(stats: FootprintStats, robot_radius: float) -> int:
    """Number of robots for a payload with the given footprint."""
    n_lb = stats.disk_lower_bound
    if stats.w >= 2 * robot_radius:
        cap = min(len(stats.hull.vertices) - stats.short_edges,
                  min(n_lb, 2 * math.sqrt(n_lb)))
        return max(1, math.floor(cap))
    return max(1, min(n_lb, 2))


def carry_score(pts) -> float | np.ndarray:
    """Spread-out score: min/sum of cyclic-consecutive distances plus the
    minimum pairwise distance, with 1/m and 1/m^2 weights.

    `pts` is one (m, 2) point set, scored to a float, or a (k, m, 2) batch
    of k sets, scored to a (k,) array. Each pairwise distance is
    `sqrt(vecdot(d, d))`: that is the same fused dot product as the scalar
    `np.linalg.norm(d)` of a 2-vector, so a set scores bit-for-bit the same
    alone, in any batch, and as under a loop over its pairs."""
    pts = np.asarray(pts, float)
    batch = pts if pts.ndim == 3 else pts.reshape(1, -1, 2)
    m = batch.shape[1]
    if m < 2:
        raise TransportConfigError("carry_score needs at least 2 points")
    consecutive = np.linalg.norm(batch - np.roll(batch, -1, axis=1), axis=2)
    i, j = np.triu_indices(m, 1)
    d = batch[:, i] - batch[:, j]
    c1 = consecutive.min(axis=1)
    c2 = consecutive.sum(axis=1)
    c3 = np.sqrt(np.vecdot(d, d)).min(axis=1)
    scores = c1 + (0.5 / m) * c2 + (0.1 / m**2) * c3
    return scores if pts.ndim == 3 else float(scores[0])


def _neighbors(idxs: tuple[int, ...], m: int) -> np.ndarray:
    """The other sorted index sets a +/-1 move away from `idxs` on a cycle of
    m, as a (k, n) array in lexicographic order."""
    n = len(idxs)
    if n <= 8:
        shifts = np.indices((3,) * n).reshape(n, -1).T - 1
    else:
        # coordinate-wise moves keep the neighborhood tractable for big teams
        shifts = np.vstack([np.eye(n, dtype=int), -np.eye(n, dtype=int)])
    cands = np.sort((np.array(idxs) + shifts) % m, axis=1)
    cands = np.unique(cands[np.all(cands[:, 1:] != cands[:, :-1], axis=1)], axis=0)
    return cands[np.any(cands != np.sort(idxs), axis=1)]


def select_carry_positions(hull_vertices, n: int, seed: int = 0) -> np.ndarray:
    """Choose n carrying positions from the hull vertices by hill climbing
    over the +/-1-index neighborhood, best of several seeded restarts.

    Each sweep scores all neighbours of the current set in one batch and
    moves to the first `argmax` if it beats the current score strictly.
    That is the set a one-at-a-time scan of the same neighbour list ends
    on when it moves to every candidate that beats the best score so far."""
    verts = np.asarray(hull_vertices, float).reshape(-1, 2)
    m = len(verts)
    if not (1 <= n <= m):
        raise TransportConfigError(f"cannot place {n} robots on {m} hull vertices")
    if n == m:
        return verts.copy()
    if n == 1:
        raise TransportConfigError("single-robot placement uses the payload sphere center")

    rng = random.Random(seed)
    best_overall: tuple[float, tuple[int, ...]] | None = None
    for _ in range(CARRY_RESTARTS):
        idxs = tuple(sorted(rng.sample(range(m), n)))
        score = carry_score(verts[list(idxs)])
        while len(cands := _neighbors(idxs, m)):
            scores = carry_score(verts[cands])
            best = int(np.argmax(scores))
            if not scores[best] > score:
                break
            idxs, score = tuple(cands[best].tolist()), float(scores[best])
        if best_overall is None or score > best_overall[0]:
            best_overall = (score, idxs)
    assert best_overall is not None
    return verts[list(best_overall[1])]


def speed_limit(rect_volume: float, fleet: RobotFleet) -> float:
    """Payload-dependent speed: v_max shrinks linearly with enclosure volume."""
    if rect_volume < 0:
        raise TransportConfigError("rect_volume must be non-negative")
    return max(fleet.v_max - rect_volume * fleet.v_factor, fleet.v_min)


def payload_points(project: ProjectSpec, component_id: str) -> np.ndarray:
    """All leaf part vertices of a component, in meters, in its own frame."""
    if project.is_part(component_id):
        return project.parts_catalog[component_id].vertices_m

    out: list[np.ndarray] = []

    def visit(aid: str, tf: Transform):
        asm = project.assemblies[aid]
        for cid, child_tf in asm.components:
            world = tf.compose(child_tf)
            if project.is_part(cid):
                out.append(world.apply(project.parts_catalog[cid].vertices_m))
            else:
                visit(cid, world)

    visit(component_id, Transform.identity())
    if not out:
        raise TransportConfigError(f"component {component_id} has no part geometry")
    return np.vstack(out)


def _robot_points(centers2d: np.ndarray, radius: float) -> np.ndarray:
    """Sampled extreme points of the robot cylinders for bounding shapes."""
    angles = np.arange(8) * math.pi / 4
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius
    height = ROBOT_HEIGHT_FACTOR * radius
    pts = []
    for c in centers2d:
        for z in (0.0, height):
            pts.append(np.column_stack([ring + c, np.full(8, z)]))
    return np.vstack(pts)


def configure_transport_unit(
    project: ProjectSpec, component_id: str, fleet: RobotFleet, seed: int = 0
) -> TransportUnitConfig:
    pts = payload_points(project, component_id)
    r = fleet.radius
    stats = footprint_stats(pts, r)
    n = team_size(stats, r)

    if n == 1:
        sphere = geometry.min_enclosing_sphere(pts, seed=seed)
        carry = sphere.center[:2].reshape(1, 2)
    else:
        carry = select_carry_positions(stats.hull.vertices, n, seed=seed)

    # payload rides on top of the robot deck
    lift = ROBOT_HEIGHT_FACTOR * r
    carried = pts.copy()
    carried[:, 2] += lift - pts[:, 2].min()
    combined = np.vstack([carried, _robot_points(carry, r)])

    lo, hi = combined.min(axis=0), combined.max(axis=0)
    rect_volume = float(np.prod(hi - lo))
    # the cylinder `geometry.bounding_cylinder` would build, on the same circle
    circle = geometry.min_enclosing_circle(combined[:, :2], seed=seed)
    return TransportUnitConfig(
        payload_id=component_id,
        n=n,
        carry_positions=carry,
        speed_limit=speed_limit(rect_volume, fleet),
        bounding_circle=circle,
        bounding_cylinder=geometry.VerticalCylinder(
            circle.center, circle.radius, float(lo[2]), float(hi[2])),
        bounding_prism=geometry.bounding_octagonal_prism(combined, min_face_width=0.05 * r),
    )


def transport_config_to_jsonable(cfg: TransportUnitConfig) -> dict:
    return {
        "payload_id": cfg.payload_id,
        "n": cfg.n,
        "carry_positions": cfg.carry_positions.tolist(),
        "speed_limit": cfg.speed_limit,
        "bounding_circle": {
            "center": cfg.bounding_circle.center.tolist(),
            "radius": cfg.bounding_circle.radius,
        },
        "bounding_cylinder": {
            "center": cfg.bounding_cylinder.center.tolist(),
            "radius": cfg.bounding_cylinder.radius,
            "z_min": cfg.bounding_cylinder.z_min,
            "z_max": cfg.bounding_cylinder.z_max,
        },
        "bounding_prism": {
            "offsets": cfg.bounding_prism.offsets.tolist(),
            "z_min": cfg.bounding_prism.z_min,
            "z_max": cfg.bounding_prism.z_max,
        },
    }


def transport_config_from_jsonable(d: dict) -> TransportUnitConfig:
    return TransportUnitConfig(
        payload_id=d["payload_id"],
        n=d["n"],
        carry_positions=np.array(d["carry_positions"]),
        speed_limit=d["speed_limit"],
        bounding_circle=Circle(np.array(d["bounding_circle"]["center"]),
                               d["bounding_circle"]["radius"]),
        bounding_cylinder=VerticalCylinder(
            np.array(d["bounding_cylinder"]["center"]),
            d["bounding_cylinder"]["radius"],
            d["bounding_cylinder"]["z_min"], d["bounding_cylinder"]["z_max"]),
        bounding_prism=OctagonalPrism(
            np.array(d["bounding_prism"]["offsets"]),
            d["bounding_prism"]["z_min"], d["bounding_prism"]["z_max"]),
    )


def configure_all_transport_units(
    project: ProjectSpec, fleet: RobotFleet, seed: int = 0
) -> dict[str, TransportUnitConfig]:
    """One transport unit config per non-root component (parts and
    subassemblies); the root assembly is never transported.

    A config depends on the component only through its payload points, so
    components whose points are equal byte for byte share one computation."""
    configs: dict[str, TransportUnitConfig] = {}
    by_points: dict[tuple[tuple[int, ...], bytes], TransportUnitConfig] = {}
    for aid, asm in sorted(project.assemblies.items()):
        for cid, _ in asm.components:
            pts = payload_points(project, cid)
            key = (pts.shape, pts.tobytes())
            if key not in by_points:
                by_points[key] = configure_transport_unit(project, cid, fleet, seed=seed)
            configs[cid] = replace(by_points[key], payload_id=cid)
    return configs
