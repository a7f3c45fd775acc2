"""Staging layout: radial dropoff placement, tiered growth, tree placement.

The core solver places angular coordinates around a hub to minimize squared
deviation from desired angles subject to pairwise separation constraints and
a wrap-around closure. The same solver lays out dropoff zones within a build
phase and sibling staging areas around a parent assembly. The assembly tree
takes one bottom-up layout pass, each assembly in its own frame, and one
top-down placement into the world frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .model import (ARRAY, LENGTH, NUMBER, POINT, WHOLE, ListOf, MapOf, PlanParams,
                    ProjectSpec, reading_artifact, to_jsonable)
from .transport import TransportUnitConfig, payload_points


class StagingError(ValueError):
    pass


@dataclass(frozen=True)
class RadialLayoutProblem:
    desired_angles: np.ndarray  # radians, ascending
    body_radii: np.ndarray  # component circle radii rho_i
    hub_radius: float

    def __post_init__(self):
        th = np.asarray(self.desired_angles, float)
        rho = np.asarray(self.body_radii, float)
        if len(th) != len(rho) or len(th) == 0:
            raise StagingError("need matching, non-empty angle and radius arrays")
        if np.any(rho <= 0):
            raise StagingError("body radii must be positive")
        if self.hub_radius < 0:
            raise StagingError("hub radius must be non-negative")
        if np.any(np.diff(th) < -1e-12):
            raise StagingError("desired angles must be sorted ascending")
        object.__setattr__(self, "desired_angles", th)
        object.__setattr__(self, "body_radii", rho)

    @property
    def half_widths(self) -> np.ndarray:
        rho = self.body_radii
        return np.arcsin(rho / (rho + self.hub_radius))

    def is_feasible(self) -> bool:
        return float(2 * self.half_widths.sum()) <= 2 * math.pi + 1e-12


@dataclass(frozen=True)
class RadialLayoutResult:
    feasible: bool
    angles: np.ndarray | None
    objective: float


def _pava(y: np.ndarray) -> np.ndarray:
    """Isotonic regression (nondecreasing, unit weights) by pool-adjacent-
    violators."""
    # blocks as (mean, size) merged right-to-left; a block weighs its size
    vals: list[float] = []
    counts: list[int] = []
    for v in y.astype(float).tolist():
        c = 1
        while vals and vals[-1] > v:
            pv, pc = vals.pop(), counts.pop()
            v = (v * c + pv * pc) / (c + pc)
            c += pc
        vals.append(v)
        counts.append(c)
    return np.repeat(np.array(vals), counts)


def solve_radial_layout(problem: RadialLayoutProblem) -> RadialLayoutResult:
    """Least-squares angular placement with separation and wrap-around
    constraints, via a substitution to bounded isotonic regression."""
    theta_hat = problem.desired_angles
    delta = problem.half_widths
    n = len(theta_hat)
    if not problem.is_feasible():
        return RadialLayoutResult(False, None, math.inf)
    if n == 1:
        return RadialLayoutResult(True, theta_hat.copy(), 0.0)

    sep = delta + np.roll(delta, -1)  # sep[i] between component i and i+1 (cyclic)
    cum = np.concatenate([[0.0], np.cumsum(sep[:-1])])
    u_hat = theta_hat - cum
    gap = 2 * math.pi - float(sep.sum())  # admissible spread of u

    u0 = _pava(u_hat)

    def cost(u: np.ndarray) -> float:
        return float(np.sum((u - u_hat) ** 2))

    if u0[-1] - u0[0] <= gap + 1e-15:
        u = u0
    else:
        # range constraint binds: clip the isotonic fit into a width-`gap`
        # band and line-search the band position (convex in the offset).
        # A pass that leaves (lo, hi) as they were is a fixed point: every
        # later pass would compute the same m1, m2 and comparison.
        def band_cost(t: float) -> float:
            return cost(np.clip(u0, t, t + gap))

        lo = float(u_hat.min()) - gap - 1.0
        hi = float(u_hat.max()) + 1.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if band_cost(m1) <= band_cost(m2):
                if hi == m2:
                    break
                hi = m2
            else:
                if lo == m1:
                    break
                lo = m1
        t = (lo + hi) / 2
        u = np.clip(u0, t, t + gap)

    theta = u + cum
    return RadialLayoutResult(True, theta, cost(u))


@dataclass(frozen=True)
class DropoffZone:
    phase: int
    position: np.ndarray  # world frame (2,), center of the transport unit circle
    radius: float  # transport unit bounding circle radius
    angle: float  # placement angle relative to the staging center
    tier: int

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, float).reshape(2))


@dataclass(frozen=True)
class AssemblyStaging:
    center: np.ndarray  # world frame (2,)
    hub_center_local: np.ndarray  # bounding cylinder center in assembly frame
    final_radius: float  # assembly bounding cylinder radius
    phase_radii: list[float]  # staging radius after each phase layout
    dropoffs: dict[str, DropoffZone]

    @property
    def staging_radius(self) -> float:
        return self.phase_radii[-1] if self.phase_radii else self.final_radius


@dataclass(frozen=True)
class StagingPlan:
    assemblies: dict[str, AssemblyStaging]
    part_sources: dict[str, np.ndarray]  # payload-frame origin positions, world
    buffer_radius: float

    def staging_circle(self, assembly_id: str, phase: int) -> tuple[np.ndarray, float]:
        st = self.assemblies[assembly_id]
        return st.center, st.phase_radii[phase - 1]


def layout_phase(
    desired: list[tuple[str, float, float]],  # (component id, desired angle, rho)
    hub_radius: float,
    prev_radius: float,
    phase: int,
) -> tuple[dict[str, DropoffZone], float]:
    """Place one build phase's dropoff zones, tiering outward when a single
    ring cannot hold every component. Returns each component's zone
    (position relative to the staging center), in placement order, and the
    resulting phase staging radius."""
    remaining = list(desired)
    # spatial priority: larger bodies first, stable on input order
    remaining.sort(key=lambda item: (-item[2], item[0]))
    zones: dict[str, DropoffZone] = {}
    hub = hub_radius
    tier = 0
    while remaining:
        tier += 1
        prefix: list[tuple[str, float, float]] = []
        total = 0.0
        for item in remaining:
            rho = item[2]
            half = math.asin(rho / (rho + hub)) if hub > 0 or rho > 0 else 0.0
            if prefix and total + 2 * half > 2 * math.pi + 1e-12:
                continue
            total += 2 * half
            prefix.append(item)
        prefix.sort(key=lambda item: item[1])  # solver wants ascending angles
        problem = RadialLayoutProblem(
            desired_angles=np.array([a for _, a, _ in prefix]),
            body_radii=np.array([r for _, _, r in prefix]),
            hub_radius=hub,
        )
        result = solve_radial_layout(problem)
        if not result.feasible:  # pragma: no cover - prefix chosen feasible
            raise StagingError("infeasible tier despite prefix selection")
        for (cid, _, rho), angle in zip(prefix, result.angles):
            ring = hub + rho
            pos = np.array([ring * math.cos(angle), ring * math.sin(angle)])
            zones[cid] = DropoffZone(phase, pos, rho, float(angle), tier)
        hub = hub + 2 * max(r for _, _, r in prefix)
        remaining = [item for item in remaining if item[0] not in zones]
    reach = max((float(np.linalg.norm(z.position)) + z.radius) for z in zones.values())
    radius = max(prev_radius, hub_radius, reach)
    return zones, radius


def build_staging_plan(
    project: ProjectSpec,
    transport_configs: dict[str, TransportUnitConfig],
    params: PlanParams,
) -> StagingPlan:
    """Lay out every assembly's per-phase dropoff zones and its children's
    staging areas in one bottom-up pass, then place the tree top-down, root
    centered at the origin."""
    buffer = params.buffer_radius
    local: dict[str, AssemblyStaging] = {}  # in its own frame until placed
    child_offsets: dict[str, dict[str, np.ndarray]] = {}  # parent -> child -> offset

    def layout(aid: str) -> float:
        """Lay out `aid` and its subtree, children first, and return the
        radius enclosing the whole subtree, so a child placed at one level
        can never land inside an ancestor's staging circle."""
        asm = project.assemblies[aid]
        cyl = geometry.bounding_cylinder(payload_points(project, aid))
        reach = {cid: layout(cid) for cid, _ in asm.components if project.is_assembly(cid)}

        dropoffs: dict[str, DropoffZone] = {}
        phase_radii: list[float] = []
        radius = 0.0
        hub = 0.0  # farthest point of the earlier phases' members from the hub center
        order = {cid: i for i, (cid, _) in enumerate(asm.components)}
        for phase in asm.build_phases:
            desired = []
            for cid in sorted(phase.member_ids, key=order.__getitem__):
                tgt = asm.transform_of(cid).translation[:2] - cyl.center
                angle = math.atan2(tgt[1], tgt[0]) if np.linalg.norm(tgt) > 1e-12 else 0.0
                angle %= 2 * math.pi
                rho = transport_configs[cid].bounding_circle.radius
                desired.append((cid, angle, rho))
            zones, radius = layout_phase(desired, hub, radius, phase.index)
            radius = max(radius, cyl.radius)
            dropoffs.update(zones)
            phase_radii.append(radius)
            for cid in phase.member_ids:
                pts = asm.transform_of(cid).apply(payload_points(project, cid))
                hub = max(hub, float(np.max(np.linalg.norm(pts[:, :2] - cyl.center, axis=1))))

        st = local[aid] = AssemblyStaging(np.zeros(2), cyl.center, cyl.radius, phase_radii,
                                          dropoffs)
        # the children's staging areas ring this one, each at its dropoff angle
        offsets = child_offsets[aid] = {}
        radius = st.staging_radius
        if reach:
            desired = [(cid, dropoffs[cid].angle, r + buffer) for cid, r in reach.items()]
            zones, _ = layout_phase(desired, st.staging_radius + buffer, 0.0, 0)
            for cid, z in zones.items():
                offsets[cid] = z.position
                radius = max(radius, float(np.linalg.norm(z.position)) + reach[cid])
        return radius

    layout(project.root)

    # top-down: rebuild each record at its world-frame center
    def place(aid: str, center: np.ndarray) -> None:
        st = local[aid]
        local[aid] = replace(st, center=center, dropoffs={
            cid: replace(z, position=center + z.position) for cid, z in st.dropoffs.items()})
        for cid, offset in child_offsets[aid].items():
            place(cid, center + offset)

    place(project.root, np.zeros(2))

    part_sources = _place_part_sources(project, local, transport_configs, params)
    return StagingPlan(assemblies=local, part_sources=part_sources, buffer_radius=buffer)


def _place_part_sources(
    project: ProjectSpec,
    staged: dict[str, AssemblyStaging],
    configs: dict[str, TransportUnitConfig],
    params: PlanParams,
) -> dict[str, np.ndarray]:
    """Raw material source locations: spaced on a ring outside every staging
    circle, deterministic in the seed."""
    site = max(
        float(np.linalg.norm(st.center)) + st.staging_radius + params.buffer_radius
        for st in staged.values()
    )
    part_ids = sorted(project.parts_catalog)
    rng = np.random.default_rng(params.seed)
    start_angle = float(rng.uniform(0, 2 * math.pi))
    sources: dict[str, np.ndarray] = {}
    angle = start_angle
    ring = site + 2 * max(configs[p].bounding_circle.radius for p in part_ids)
    prev_rho = 0.0
    for pid in part_ids:
        cfg = configs[pid]
        rho = cfg.bounding_circle.radius
        if prev_rho > 0:
            angle += 2 * math.asin(min(1.0, (prev_rho + rho) * 1.1 / (2 * ring)))
        # origin of the payload frame so the unit circle sits on the ring
        center = np.array([ring * math.cos(angle), ring * math.sin(angle)])
        sources[pid] = center - cfg.bounding_circle.center[:2]
        prev_rho = rho
        if angle - start_angle > 2 * math.pi - 0.3:  # start a wider ring
            ring += 4 * max(configs[p].bounding_circle.radius for p in part_ids)
            start_angle = angle = angle + 0.3
            prev_rho = 0.0
    return sources


# -- export ------------------------------------------------------------------


_ZONE = {"phase": WHOLE, "position": ARRAY, "radius": LENGTH, "angle": NUMBER, "tier": WHOLE}
STAGING = {
    "buffer_radius": LENGTH,
    "assemblies": MapOf({
        "center": POINT, "hub_center_local": ARRAY, "final_radius": LENGTH,
        "phase_radii": ListOf(LENGTH), "dropoffs": MapOf(_ZONE, label="dropoff"),
    }, label="assembly"),
    "part_sources": MapOf(ARRAY),
}


def staging_plan_to_jsonable(plan: StagingPlan) -> dict:
    return to_jsonable(plan, STAGING)


@reading_artifact("staging JSON", STAGING)
def staging_plan_from_jsonable(data: dict) -> StagingPlan:
    return StagingPlan(
        assemblies={
            aid: AssemblyStaging(
                center=np.array(body["center"], float),
                hub_center_local=np.array(body["hub_center_local"], float),
                final_radius=body["final_radius"],
                phase_radii=list(body["phase_radii"]),
                dropoffs={
                    cid: DropoffZone(z["phase"], z["position"], z["radius"], z["angle"], z["tier"])
                    for cid, z in body["dropoffs"].items()
                },
            )
            for aid, body in data["assemblies"].items()
        },
        part_sources={pid: np.array(p, float) for pid, p in data["part_sources"].items()},
        buffer_radius=data["buffer_radius"],
    )


def staging_plan_to_svg(plan: StagingPlan) -> str:
    """Render staging circles (red), final bounding cylinders (blue), and
    dropoff zones (green) to a standalone SVG document."""
    elements: list[str] = []
    xs: list[float] = []
    ys: list[float] = []

    def circle(cx, cy, r, color, width=0.01, dash=""):
        xs.extend([cx - r, cx + r])
        ys.extend([cy - r, cy + r])
        d = f' stroke-dasharray="{dash}"' if dash else ""
        elements.append(
            f'<circle cx="{cx:.4f}" cy="{-cy:.4f}" r="{r:.4f}" fill="none" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    for st in plan.assemblies.values():
        cx, cy = st.center
        for radius in st.phase_radii:
            circle(cx, cy, radius, "red")
        circle(cx, cy, st.final_radius, "blue")
        if plan.buffer_radius > 0:
            circle(cx, cy, st.staging_radius + plan.buffer_radius, "gray", dash="0.05,0.05")
        for z in st.dropoffs.values():
            circle(z.position[0], z.position[1], z.radius, "green")
    for pos in plan.part_sources.values():
        circle(pos[0], pos[1], 0.05, "black")

    pad = 0.5
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.3f} {-y1:.3f} '
        f'{x1 - x0:.3f} {y1 - y0:.3f}">\n' + "\n".join(elements) + "\n</svg>\n"
    )
