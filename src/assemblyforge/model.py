"""Canonical in-memory representation of a manufacturing project.

A project is an assembly tree (parts and subassemblies with rigid transforms,
grouped into ordered build phases), a robot fleet, and the planning
parameters shared by the downstream planning and simulation stages.
All values are immutable after construction; canonical length unit is meters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np


class ProjectError(ValueError):
    pass


@dataclass(frozen=True)
class Transform:
    """Rigid transform: x_parent = rotation @ x_child + translation."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, float).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, float).reshape(3))

    @staticmethod
    def identity() -> "Transform":
        return Transform(np.eye(3), np.zeros(3))

    @staticmethod
    def translate(x: float, y: float, z: float) -> "Transform":
        return Transform(np.eye(3), np.array([x, y, z]))

    def compose(self, child: "Transform") -> "Transform":
        return Transform(
            self.rotation @ child.rotation,
            self.rotation @ child.translation + self.translation,
        )

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, float)
        return pts @ self.rotation.T + self.translation

    def is_rigid(self, tol: float = 1e-6) -> bool:
        r = self.rotation
        ortho = np.allclose(r @ r.T, np.eye(3), atol=tol)
        return ortho and abs(np.linalg.det(r) - 1.0) <= tol

    def to_jsonable(self) -> dict:
        return {"rotation": self.rotation.tolist(), "translation": self.translation.tolist()}

    @staticmethod
    def from_jsonable(d: dict) -> "Transform":
        return Transform(np.array(d["rotation"]), np.array(d["translation"]))


@dataclass(frozen=True)
class PartGeometry:
    """Point-set geometry of a part in model units (converted via scale)."""

    vertices: np.ndarray  # (k, 3), model units
    units_per_meter: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.vertices, float).reshape(-1, 3)
        object.__setattr__(self, "vertices", v)

    @property
    def vertices_m(self) -> np.ndarray:
        return self.vertices / self.units_per_meter


@dataclass(frozen=True)
class BuildPhase:
    index: int  # 1-based
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class Assembly:
    id: str
    components: tuple[tuple[str, Transform], ...]
    build_phases: tuple[BuildPhase, ...]

    def component_ids(self) -> list[str]:
        return [cid for cid, _ in self.components]

    def transform_of(self, child_id: str) -> Transform:
        for cid, tf in self.components:
            if cid == child_id:
                return tf
        raise KeyError(child_id)


@dataclass(frozen=True)
class ProjectSpec:
    assemblies: dict[str, Assembly]
    root: str
    parts_catalog: dict[str, PartGeometry]

    def is_assembly(self, cid: str) -> bool:
        return cid in self.assemblies

    def is_part(self, cid: str) -> bool:
        return cid in self.parts_catalog


@dataclass(frozen=True)
class RobotFleet:
    count: int
    radius: float
    v_max: float
    v_min: float
    v_factor: float
    initial_positions: np.ndarray  # (count, 2), meters

    def __post_init__(self):
        object.__setattr__(
            self, "initial_positions", np.asarray(self.initial_positions, float).reshape(-1, 2)
        )
        for name in ("radius", "v_max", "v_min", "v_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ProjectError(f"fleet {name} must be finite, got {getattr(self, name)}")
        if not np.all(np.isfinite(self.initial_positions)):
            raise ProjectError("initial positions must be finite")
        if not (0 < self.v_min <= self.v_max):
            raise ProjectError("fleet requires 0 < v_min <= v_max")
        if self.radius <= 0:
            raise ProjectError("robot radius must be positive")
        if self.count < 1:
            raise ProjectError(f"robot count must be at least 1, got {self.count}")
        if self.count != len(self.initial_positions):
            raise ProjectError("count must equal number of initial positions")
        pos = self.initial_positions
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                if np.linalg.norm(pos[i] - pos[j]) < 2 * self.radius - 1e-9:
                    raise ProjectError(f"initial positions {i} and {j} closer than 2r")


@dataclass(frozen=True)
class PlanParams:
    buffer_radius: float = 0.0
    planning_radius: float = 2.0
    boundary_tol: float = 0.02
    dt_sim: float = 0.05
    duration_form: float = 1.0
    duration_deposit: float = 1.0
    duration_lift: float = 1.0
    dispersion_r_max: float = 0.625  # 2.5 * default robot radius
    dispersion_c: float = 0.25  # robot radius
    blend_a: float = 1.0
    blend_b: float = 1.0
    stop_range_factor: float = 4.0  # sit-and-wait radius in robot radii
    stuck_time: float = 2.0
    stuck_speed_factor: float = 0.1
    rvo_horizon: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ProjectError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.dt_sim <= 0:
            raise ProjectError("dt_sim must be positive")
        if min(self.duration_form, self.duration_deposit, self.duration_lift) < 0:
            raise ProjectError("task durations must be non-negative")
        if self.dispersion_r_max < 0 or self.buffer_radius < 0:
            raise ProjectError("radii must be non-negative")


@dataclass(frozen=True)
class Violation:
    subject: str
    rule: str
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class FlatComponent:
    component_id: str
    parent_id: str
    phase_index: int
    world_transform: Transform


def validate_project(spec: ProjectSpec) -> list[Violation]:
    """Check every ProjectSpec invariant; returns one violation per breach."""
    out: list[Violation] = []
    if spec.root not in spec.assemblies:
        out.append(Violation(spec.root, "root-exists", "root assembly not defined"))
        return out

    parents: dict[str, list[str]] = {}
    for aid, asm in spec.assemblies.items():
        if aid != asm.id:
            out.append(Violation(aid, "id-consistent", "assembly keyed under a different id"))
        seen: set[str] = set()
        for cid, tf in asm.components:
            if cid in seen:
                out.append(Violation(cid, "unique-child", f"listed twice in assembly {aid}"))
            seen.add(cid)
            parents.setdefault(cid, []).append(aid)
            if not spec.is_part(cid) and not spec.is_assembly(cid):
                out.append(Violation(cid, "child-exists", f"referenced by {aid} but undefined"))
            if not tf.is_rigid():
                out.append(Violation(cid, "rigid-transform", f"non-rigid transform in {aid}"))
        if not asm.build_phases:
            out.append(Violation(aid, "has-phase", "assembly has no build phases"))
        indices = [p.index for p in asm.build_phases]
        if indices != list(range(1, len(indices) + 1)):
            out.append(Violation(aid, "phase-order", f"phase indices {indices} not contiguous from 1"))
        phase_members: list[str] = []
        for phase in asm.build_phases:
            if not phase.member_ids:
                out.append(Violation(aid, "phase-nonempty", f"phase {phase.index} is empty"))
            phase_members.extend(phase.member_ids)
        if sorted(phase_members) != sorted(seen):
            for cid in seen:
                if phase_members.count(cid) == 0:
                    out.append(Violation(cid, "phase-partition", f"not in any build phase of {aid}"))
            for cid in set(phase_members):
                if phase_members.count(cid) > 1:
                    out.append(Violation(cid, "phase-partition", f"in multiple build phases of {aid}"))
            for cid in phase_members:
                if cid not in seen:
                    out.append(Violation(cid, "phase-partition", f"phase member not a component of {aid}"))

    for cid, ps in parents.items():
        if len(ps) > 1:
            out.append(Violation(cid, "single-parent", f"has parents {sorted(ps)}"))
    if spec.root in parents:
        out.append(Violation(spec.root, "root-is-root", "root appears as a component"))

    # unreachable assemblies / cycles
    reachable: set[str] = set()
    stack = [spec.root]
    while stack:
        aid = stack.pop()
        if aid in reachable:
            out.append(Violation(aid, "acyclic", "assembly reachable along two paths or a cycle"))
            continue
        reachable.add(aid)
        asm = spec.assemblies.get(aid)
        if asm:
            stack.extend(c for c in asm.component_ids() if spec.is_assembly(c))
    for aid in spec.assemblies:
        if aid not in reachable:
            out.append(Violation(aid, "reachable", "assembly not reachable from root"))

    for pid, geom in spec.parts_catalog.items():
        if geom.vertices.size == 0:
            out.append(Violation(pid, "geometry-nonempty", "part has no vertices"))
        elif not np.all(np.isfinite(geom.vertices)):
            out.append(Violation(pid, "geometry-finite", "part has non-finite vertices"))
        if geom.units_per_meter <= 0:
            out.append(Violation(pid, "geometry-scale", "units_per_meter must be positive"))
    return out


def flatten_components(spec: ProjectSpec) -> list[FlatComponent]:
    """One entry per non-root tree node, with its composed world transform.

    Order: preorder on the assembly tree, then phase index, then the parent's
    component order within each phase.
    """
    violations = validate_project(spec)
    if violations:
        raise ProjectError("invalid project: " + "; ".join(map(str, violations[:5])))

    out: list[FlatComponent] = []

    def visit(aid: str, world: Transform):
        asm = spec.assemblies[aid]
        order = {cid: i for i, (cid, _) in enumerate(asm.components)}
        for phase in asm.build_phases:
            for cid in sorted(phase.member_ids, key=order.__getitem__):
                tf = world.compose(asm.transform_of(cid))
                out.append(FlatComponent(cid, aid, phase.index, tf))
                if spec.is_assembly(cid):
                    visit(cid, tf)

    visit(spec.root, Transform.identity())
    return out


def sample_grid_positions(count: int, spacing: float, seed: int, origin=(0.0, 0.0)) -> np.ndarray:
    """Draw robot start positions from a uniform grid around the origin."""
    rng = np.random.default_rng(seed)
    side = max(3, math.ceil(math.sqrt(count * 3)))
    cells = [(i, j) for i in range(side) for j in range(side)]
    chosen = rng.choice(len(cells), size=count, replace=False)
    half = (side - 1) / 2.0
    pos = np.array([
        [(cells[k][0] - half) * spacing + origin[0], (cells[k][1] - half) * spacing + origin[1]]
        for k in chosen
    ])
    return pos


# -- native project JSON -----------------------------------------------------


def project_to_jsonable(spec: ProjectSpec, fleet: RobotFleet | None = None,
                        params: PlanParams | None = None) -> dict:
    doc: dict = {
        "root": spec.root,
        "assemblies": {
            aid: {
                "components": [
                    {"id": cid, "transform": tf.to_jsonable()} for cid, tf in asm.components
                ],
                "build_phases": [
                    {"index": p.index, "members": list(p.member_ids)} for p in asm.build_phases
                ],
            }
            for aid, asm in spec.assemblies.items()
        },
        "parts": {
            pid: {
                "vertices": geom.vertices.tolist(),
                "units_per_meter": geom.units_per_meter,
            }
            for pid, geom in spec.parts_catalog.items()
        },
    }
    if fleet is not None:
        doc["fleet"] = {
            "count": fleet.count,
            "radius": fleet.radius,
            "v_max": fleet.v_max,
            "v_min": fleet.v_min,
            "v_factor": fleet.v_factor,
            "initial_positions": fleet.initial_positions.tolist(),
        }
    if params is not None:
        doc["params"] = {k: getattr(params, k) for k in PlanParams.__dataclass_fields__}
    return doc


def project_from_jsonable(doc: dict) -> tuple[ProjectSpec, RobotFleet | None, PlanParams | None]:
    """Project, fleet and parameters from a native project JSON document;
    raises ProjectError when a required key is missing."""
    try:
        assemblies = {
            aid: Assembly(
                id=aid,
                components=tuple(
                    (c["id"], Transform.from_jsonable(c["transform"])) for c in body["components"]
                ),
                build_phases=tuple(
                    BuildPhase(p["index"], tuple(p["members"])) for p in body["build_phases"]
                ),
            )
            for aid, body in doc["assemblies"].items()
        }
        parts = {
            pid: PartGeometry(np.array(body["vertices"]), body["units_per_meter"])
            for pid, body in doc["parts"].items()
        }
        spec = ProjectSpec(assemblies=assemblies, root=doc["root"], parts_catalog=parts)
        fleet = None
        if "fleet" in doc:
            f = doc["fleet"]
            fleet = RobotFleet(
                count=f["count"], radius=f["radius"], v_max=f["v_max"], v_min=f["v_min"],
                v_factor=f["v_factor"], initial_positions=np.array(f["initial_positions"]),
            )
        params = None
        if "params" in doc:
            params = PlanParams(**doc["params"])
        return spec, fleet, params
    except KeyError as exc:
        raise ProjectError(f"project JSON is missing key {exc}") from None


def save_project(path, spec: ProjectSpec, fleet: RobotFleet | None = None,
                 params: PlanParams | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(project_to_jsonable(spec, fleet, params), fh, indent=2, sort_keys=True)


def load_project(path) -> tuple[ProjectSpec, RobotFleet | None, PlanParams | None]:
    with open(path, encoding="utf-8") as fh:
        return project_from_jsonable(json.load(fh))
