"""Transport team sizing, carrying positions, and payload speed limits.

Team sizes come from a perimeter heuristic over the payload footprint; the
carrying positions are hull vertices chosen by seeded hill climbing.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Circle, OctagonalPrism, Polygon2D, VerticalCylinder
from .model import (ARRAY, COUNT, NUMBER, POSITIVE, ProjectSpec, RobotFleet, Transform,
                    reading_artifact, to_jsonable)

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


def carry_tables(points) -> tuple[np.ndarray, np.ndarray]:
    """The two (m, m) distance tables of the points (m, 2) that
    `carry_score` reads: each entry is the distance of points a and b as
    the coordinate scorer computes it, `np.linalg.norm(..., axis=-1)` for a
    cyclic-consecutive pair and `sqrt(vecdot(d, d))` for any pair."""
    pts = np.asarray(points, float).reshape(-1, 2)
    d = pts[:, None, :] - pts[None, :, :]
    return np.linalg.norm(d, axis=2), np.sqrt(np.vecdot(d, d))


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a set of n points: each position's cyclic successor, and the
    (i, j) positions of its pairs i < j in row-major order."""
    succ = np.roll(np.arange(n), -1)
    i, j = np.triu_indices(n, 1)
    for a in (succ, i, j):
        a.flags.writeable = False
    return succ, i, j


def carry_score(tables: tuple[np.ndarray, np.ndarray], idx) -> float | np.ndarray:
    """Spread-out score of the points `idx` of the point set `tables` was
    built from (`carry_tables`): min/sum of cyclic-consecutive distances
    plus the minimum pairwise distance, with 1/n and 1/n^2 weights.

    `idx` is one index set (n,), scored to a float, or a (k, n) batch of k
    sets, scored to a (k,) array. Scoring reads distances from the tables,
    each with the bits of the coordinate scorer's (kept in
    `tests/oracles.py`), and sums and reduces them in its order, so a set
    scores bit for bit the same alone, in any batch, and as the
    coordinates would."""
    consecutive, pairwise = tables
    idx = np.asarray(idx, np.intp)
    batch = idx if idx.ndim == 2 else idx.reshape(1, -1)
    n = batch.shape[1]
    if n < 2:
        raise TransportConfigError("carry_score needs at least 2 points")
    succ, i, j = _pairs(n)
    cons = consecutive[batch, batch[:, succ]]
    c3 = pairwise[batch[:, i], batch[:, j]].min(axis=1)
    scores = cons.min(axis=1) + (0.5 / n) * cons.sum(axis=1) + (0.1 / n**2) * c3
    return scores if idx.ndim == 2 else float(scores[0])


@functools.cache
def _shifts(n: int) -> np.ndarray:
    """The +/-1 moves of a sorted index set of size n, one row each: every
    combination for n <= 8, coordinate-wise moves beyond."""
    if n <= 8:
        shifts = np.indices((3,) * n).reshape(n, -1).T - 1
    else:
        # coordinate-wise moves keep the neighborhood tractable for big teams
        shifts = np.vstack([np.eye(n, dtype=int), -np.eye(n, dtype=int)])
    shifts.flags.writeable = False
    return shifts


def _neighbors(idxs: tuple[int, ...], m: int) -> np.ndarray:
    """The other sorted index sets a +/-1 move away from `idxs` on a cycle of
    m, as a (k, n) array in lexicographic order."""
    cands = np.sort((np.array(idxs) + _shifts(len(idxs))) % m, axis=1)
    cands = cands[np.all(cands[:, 1:] != cands[:, :-1], axis=1)]
    # rows in lexicographic order (the last key of lexsort is the primary
    # one), then the first of each run of equal rows
    cands = cands[np.lexsort(cands.T[::-1])]
    first = np.ones(len(cands), bool)
    first[1:] = np.any(cands[1:] != cands[:-1], axis=1)
    cands = cands[first]
    return cands[np.any(cands != np.sort(idxs), axis=1)]


def select_carry_positions(hull_vertices, n: int, seed: int = 0) -> np.ndarray:
    """Choose n carrying positions from the hull vertices by hill climbing
    over the +/-1-index neighborhood, best of several seeded restarts.

    Each sweep scores all neighbours of the current set in one batch and
    moves to the first `argmax` if it beats the current score strictly.
    That is the set a one-at-a-time scan of the same neighbour list ends
    on when it moves to every candidate that beats the best score so far.
    The hull's distance tables are built once per call, so scoring a batch
    only gathers from them."""
    verts = np.asarray(hull_vertices, float).reshape(-1, 2)
    m = len(verts)
    if not (1 <= n <= m):
        raise TransportConfigError(f"cannot place {n} robots on {m} hull vertices")
    if n == m:
        return verts.copy()
    if n == 1:
        raise TransportConfigError("single-robot placement uses the payload sphere center")

    tables = carry_tables(verts)
    rng = random.Random(seed)
    best_overall: tuple[float, tuple[int, ...]] | None = None
    for _ in range(CARRY_RESTARTS):
        idxs = tuple(sorted(rng.sample(range(m), n)))
        score = carry_score(tables, idxs)
        while len(cands := _neighbors(idxs, m)):
            scores = carry_score(tables, cands)
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

    rect_volume = float(np.prod(combined.max(axis=0) - combined.min(axis=0)))
    cylinder = geometry.bounding_cylinder(combined, seed=seed)
    return TransportUnitConfig(
        n=n,
        carry_positions=carry,
        speed_limit=speed_limit(rect_volume, fleet),
        bounding_circle=Circle(cylinder.center, cylinder.radius),
        bounding_cylinder=cylinder,
        bounding_prism=geometry.bounding_octagonal_prism(combined, min_face_width=0.05 * r),
    )


UNIT = {
    "n": COUNT,
    "carry_positions": ARRAY,
    "speed_limit": POSITIVE,
    "bounding_circle": {"center": ARRAY, "radius": POSITIVE},
    "bounding_cylinder": {"center": ARRAY, "radius": NUMBER, "z_min": NUMBER, "z_max": NUMBER},
    "bounding_prism": {"offsets": ARRAY, "z_min": NUMBER, "z_max": NUMBER},
}


def transport_config_to_jsonable(cfg: TransportUnitConfig) -> dict:
    return to_jsonable(cfg, UNIT)


@reading_artifact("transport unit JSON", UNIT)
def transport_config_from_jsonable(d: dict) -> TransportUnitConfig:
    return TransportUnitConfig(
        d["n"], d["carry_positions"], d["speed_limit"], Circle(**d["bounding_circle"]),
        VerticalCylinder(**d["bounding_cylinder"]), OctagonalPrism(**d["bounding_prism"]))


def configure_all_transport_units(
    project: ProjectSpec, fleet: RobotFleet, seed: int = 0
) -> dict[str, TransportUnitConfig]:
    """One transport unit config per non-root component (parts and
    subassemblies); the root assembly is never transported.

    A config depends on the component only through its payload points, so
    components whose points are equal byte for byte share one config."""
    configs: dict[str, TransportUnitConfig] = {}
    by_points: dict[tuple[tuple[int, ...], bytes], TransportUnitConfig] = {}
    for aid, asm in sorted(project.assemblies.items()):
        for cid, _ in asm.components:
            pts = payload_points(project, cid)
            key = (pts.shape, pts.tobytes())
            if key not in by_points:
                by_points[key] = configure_transport_unit(project, cid, fleet, seed=seed)
            configs[cid] = by_points[key]
    return configs
