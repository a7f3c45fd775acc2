"""Canonical in-memory representation of a manufacturing project.

A project is an assembly tree (parts and subassemblies with rigid transforms,
grouped into ordered build phases), a robot fleet, and the planning
parameters shared by the downstream planning and simulation stages.
All values are immutable after construction; canonical length unit is meters.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np


# The largest part coordinate, component translation (composed from the root),
# buffer radius, robot radius and robot start coordinate, in meters, that a
# project may have. Welzl's circumcircle multiplies a squared coordinate by a
# coordinate difference, so the cube of this bound must stay well below the
# float range (about 1.8e308).
MAX_COORDINATE_M = 1e100

# The largest coordinate or length, in meters, that an artifact passed between
# the stages may hold. A plan of a project within MAX_COORDINATE_M stays far
# below it, and the square of the difference of two such coordinates, which
# allocation computes, stays within the float range.
MAX_ARTIFACT_M = 1e150

# The largest int that converts to a float. JSON allows any integer, and
# `json.loads` returns a longer one as an int that no float arithmetic takes.
_MAX_FLOAT_INT = int(sys.float_info.max)


class ProjectError(ValueError):
    pass


class ArtifactError(ValueError):
    """A pipeline artifact whose document does not have the expected structure."""


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
        with np.errstate(over="ignore", invalid="ignore"):  # a huge or NaN entry: not rigid
            ortho = np.allclose(r @ r.T, np.eye(3), atol=tol)
        return ortho and abs(np.linalg.det(r) - 1.0) <= tol

    def to_jsonable(self) -> dict:
        return {"rotation": self.rotation.tolist(), "translation": self.translation.tolist()}

    @staticmethod
    def from_jsonable(d: dict) -> "Transform":
        return Transform(float_array(d["rotation"], "rotation"),
                         float_array(d["translation"], "translation"))


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
        if self.radius > MAX_COORDINATE_M:
            raise ProjectError(f"robot radius must be at most {MAX_COORDINATE_M:g} m")
        if self.v_max > MAX_COORDINATE_M:
            raise ProjectError(f"v_max must be at most {MAX_COORDINATE_M:g} m/s")
        if not np.all(np.isfinite(self.initial_positions)):
            raise ProjectError("initial positions must be finite")
        if np.any(np.abs(self.initial_positions) > MAX_COORDINATE_M):
            raise ProjectError(
                f"initial position coordinates must be at most {MAX_COORDINATE_M:g} m")
        if not (0 < self.v_min <= self.v_max):
            raise ProjectError("fleet requires 0 < v_min <= v_max")
        if self.radius <= 0:
            raise ProjectError("robot radius must be positive")
        if self.count < 1:
            raise ProjectError(f"robot count must be at least 1, got {self.count}")
        if self.count != len(self.initial_positions):
            raise ProjectError("count must equal number of initial positions")
        close = _first_close_pair(self.initial_positions, 2 * self.radius - 1e-9)
        if close is not None:
            raise ProjectError("initial positions %d and %d closer than 2r" % close)


def _first_close_pair(pos: np.ndarray, limit: float) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row-major order, of rows of `pos`
    (n, 2) closer than `limit`, or None. Each block of rows is compared with
    every later row in one array pass; a distance is `sqrt(vecdot(d, d))`,
    the float `np.linalg.norm(pos[i] - pos[j])` gives."""
    n = len(pos)
    block = max(1, (1 << 20) // max(n, 1))  # about a million pairs per pass
    for lo in range(0, n - 1, block):
        hi = min(lo + block, n - 1)
        d = pos[lo:hi, None, :] - pos[None, lo:, :]
        close = np.sqrt(np.vecdot(d, d)) < limit
        close &= np.arange(lo, n) > np.arange(lo, hi)[:, None]  # later rows only
        if close.any():
            i, j = divmod(int(close.argmax()), n - lo)
            return lo + i, lo + j
    return None


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
        if type(self.seed) is not int or self.seed < 0:  # numpy's generators take no other
            raise ProjectError(f"seed must be a whole number >= 0, got {self.seed!r}")
        for f in fields(self):
            if f.name != "seed" and not math.isfinite(getattr(self, f.name)):
                raise ProjectError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.dt_sim <= 0:
            raise ProjectError("dt_sim must be positive")
        if self.dt_sim > MAX_COORDINATE_M:
            raise ProjectError(f"dt_sim must be at most {MAX_COORDINATE_M:g} s")
        if self.rvo_horizon <= 0:  # the ORCA cut-off divides by it
            raise ProjectError("rvo_horizon must be positive")
        if self.boundary_tol < 0:  # the tangent bug's boundary mode could never fire
            raise ProjectError("boundary_tol must be non-negative")
        if min(self.duration_form, self.duration_deposit, self.duration_lift) < 0:
            raise ProjectError("task durations must be non-negative")
        if self.dispersion_r_max < 0 or self.buffer_radius < 0:
            raise ProjectError("radii must be non-negative")
        if self.buffer_radius > MAX_COORDINATE_M:
            raise ProjectError(f"buffer_radius must be at most {MAX_COORDINATE_M:g} m")


@dataclass(frozen=True)
class Violation:
    subject: str
    rule: str
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.subject}: {self.message}"


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

    # unreachable assemblies / cycles, and components placed too far out: each
    # assembly comes with its transform from the root, or None below a
    # component already flagged
    reachable: set[str] = set()
    stack: list[tuple[str, Transform | None]] = [(spec.root, Transform.identity())]
    while stack:
        aid, placed = stack.pop()
        if aid in reachable:
            out.append(Violation(aid, "acyclic", "assembly reachable along two paths or a cycle"))
            continue
        reachable.add(aid)
        for cid, tf in spec.assemblies[aid].components:  # only assemblies are pushed
            child = None
            if placed is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    child = placed.compose(tf)
                if not np.max(np.abs(child.translation)) <= MAX_COORDINATE_M:  # or NaN
                    out.append(Violation(cid, "transform-bounded",
                                         f"placed beyond {MAX_COORDINATE_M:g} m by {aid}"))
                    child = None
            if spec.is_assembly(cid):
                stack.append((cid, child))
    for aid in spec.assemblies:
        if aid not in reachable:
            out.append(Violation(aid, "reachable", "assembly not reachable from root"))

    for pid, geom in spec.parts_catalog.items():
        if pid in spec.assemblies:
            out.append(Violation(pid, "part-or-assembly", "names both a part and an assembly"))
        if geom.vertices.size == 0:
            out.append(Violation(pid, "geometry-nonempty", "part has no vertices"))
        elif not math.isfinite(far := float(np.max(np.abs(geom.vertices)))):
            out.append(Violation(pid, "geometry-finite", "part has non-finite vertices"))
        elif geom.units_per_meter > 0 and far / geom.units_per_meter > MAX_COORDINATE_M:
            out.append(Violation(pid, "geometry-finite",
                                 f"part has a vertex beyond {MAX_COORDINATE_M:g} m"))
        if geom.units_per_meter <= 0:
            out.append(Violation(pid, "geometry-scale", "units_per_meter must be positive"))
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
        "parts": to_jsonable(spec.parts_catalog, PROJECT["parts"]),
    }
    if fleet is not None:
        doc["fleet"] = to_jsonable(fleet, FLEET)
    if params is not None:
        doc["params"] = to_jsonable(params, PARAMS)
    return doc


def is_a(value, kind: type) -> bool:
    """Whether the JSON value `value` is a `kind`: a float may be an int
    within the float range, but not a longer one, and a bool is neither."""
    if isinstance(value, bool):
        return False
    if kind is float and isinstance(value, int):
        return abs(value) <= _MAX_FLOAT_INT
    return isinstance(value, (int, float) if kind is float else kind)


def is_finite(value) -> bool:
    """Whether the JSON value `value` is a finite number; an int beyond the
    float range is not (see `is_a`)."""
    if type(value) is float:  # the common case, without `is_a`
        return math.isfinite(value)
    return is_a(value, float) and math.isfinite(value)


def float_array(value, what: str) -> np.ndarray:
    """The JSON array `value` of numbers as a float array. An int beyond the
    float range, which `is_a` does not count as a float, raises TypeError
    naming `what`; any other entry fails as `np.array(value, float)` does."""
    try:
        return np.array(value, float)
    except OverflowError:
        raise TypeError(f"{what} holds an int beyond the float range") from None


# -- artifact field tables ---------------------------------------------------
#
# A reader declares the JSON kind of each field it reads in one table;
# `reading_artifact(what, table)` checks the document against it, and the
# reader builds its objects with no check of its own. A table maps keys to
# kinds: a `Kind`, tested whole, another table, or `Optional` (a key that may
# be absent), `ListOf`, `MapOf` or `Variant`. An `ARRAY` is any list here;
# its numbers and shape are checked as the reader converts it.


class Kind(NamedTuple):
    noun: str
    test: Callable[[object], bool]


class Optional(NamedTuple):
    kind: object


class ListOf(NamedTuple):
    kind: object
    label: str = ""  # an entry with a string "id" is "<label> <id>" in messages


class MapOf(NamedTuple):
    kind: object
    label: str = ""  # an entry is "<label> <key>" in messages
    key: Kind | None = None  # the kind of the keys, if not any string


class Variant(NamedTuple):
    select: Callable[[dict], object]  # an object's key in `tables`
    tables: dict
    default: dict


def nullable(kind: Kind) -> Kind:
    return Kind(kind.noun, lambda v: v is None or kind.test(v))


def _coordinate(x) -> bool:  # so neither NaN nor inf
    return (type(x) is float or is_a(x, float)) and -MAX_ARTIFACT_M <= x <= MAX_ARTIFACT_M


STRING = Kind("a string", lambda v: type(v) is str)
WHOLE = Kind("a whole number", lambda v: type(v) is int or is_a(v, int))
COUNT = Kind("a whole number >= 1", lambda v: (type(v) is int or is_a(v, int)) and v >= 1)
NUMBER = Kind("a finite number", is_finite)
POSITIVE = Kind("a finite number > 0", lambda v: is_finite(v) and v > 0)
NON_NEGATIVE = Kind("a finite number >= 0", lambda v: is_finite(v) and v >= 0)
LENGTH = Kind(f"a finite number from 0 to {MAX_ARTIFACT_M:g} m",
              lambda v: _coordinate(v) and v >= 0)
POINT = Kind(f"two finite numbers of at most {MAX_ARTIFACT_M:g} m",
             lambda v: (type(v) is list or type(v) is tuple) and len(v) == 2
             and _coordinate(v[0]) and _coordinate(v[1]))
ARRAY = Kind("an array of numbers", lambda v: type(v) is list)


def _test(kind) -> Callable[[object], bool]:
    """Whether a JSON value is a `kind`, as one function."""
    if type(kind) is Kind:
        return kind.test
    if type(kind) is Optional:
        return _test(kind.kind)
    if type(kind) is ListOf:
        entry = _test(kind.kind)
        return lambda v: type(v) is list and all(map(entry, v))
    if type(kind) is MapOf:
        entry, key = _test(kind.kind), kind.key and kind.key.test
        return lambda v: (type(v) is dict and all(map(entry, v.values()))
                          and (key is None or all(map(key, v))))
    if type(kind) is Variant:
        tables, default = {k: _test(t) for k, t in kind.tables.items()}, _test(kind.default)
        return lambda v: type(v) is dict and tables.get(kind.select(v), default)(v)
    fields = [(key, _test(sub)) for key, sub in kind.items()]

    def test(v) -> bool:
        if type(v) is not dict:
            return False
        try:
            for key, field in fields:  # a field's test raises nothing
                if not field(v[key]):
                    return False
            return True
        except KeyError:  # a key is absent: only an Optional one may be
            return all(field(v[key]) if key in v else type(kind[key]) is Optional
                       for key, field in fields)
    return test


def _problem(value, kind, what: str) -> str:
    """The message for the first place where `value` is not a `kind`: the
    document `what`, the entry (`node RobotStart:robot0`), the field below
    it, and what is wrong there."""
    owner, path = what, ""
    while True:
        if type(kind) is Optional:
            kind = kind.kind
        if type(kind) is Variant and type(value) is dict:
            kind = kind.tables.get(kind.select(value), kind.default)
        cls = type(kind)
        if cls is Kind or type(value) is not (list if cls is ListOf else dict):
            noun = kind.noun if cls is Kind else "a list" if cls is ListOf else "an object"
            shown = repr(value) if len(repr(value)) <= 60 else repr(value)[:57] + "..."
            return f"{owner} {f'has {path}' if path else 'is'} {shown}, not {noun}"
        if cls is dict:
            for step, sub in kind.items():
                if step not in value and type(sub) is not Optional:
                    return f"{owner} is missing key {step!r}" + (f" in {path}" if path else "")
                if step in value and not _test(sub)(value[step]):
                    break
            if value[step] is None:  # name every null of the object
                null = [k for k, sub in kind.items()
                        if value.get(k, 0) is None and not _test(sub)(None)]
                return f"{owner} has no " + " or ".join(f"{path}.{k}" if path else k for k in null)
            value, kind = value[step], sub
        else:
            entries = enumerate(value) if cls is ListOf else value.items()
            if cls is MapOf and kind.key and not all(map(kind.key.test, value)):
                key = next(k for k in value if not kind.key.test(k))
                return f"{owner} has key {key!r} in {path or 'the document'}, not {kind.key.noun}"
            test, label = _test(kind.kind), kind.label
            step, value = next((i, v) for i, v in entries if not test(v))
            kind = kind.kind
            name = value.get("id") if cls is ListOf and type(value) is dict else step
            if label and type(name) is str:
                owner, path = f"{what}: {label} {name}", ""
                continue
        path += f"[{step}]" if type(step) is int else f".{step}" if path else step


def to_jsonable(obj, kind):
    """The JSON value of `obj` as `kind` declares it: a table's fields read
    as attributes of `obj`, a map's entries in turn, an ndarray as a list."""
    if type(kind) is Optional:
        kind = kind.kind
    if type(kind) is dict:
        return {key: to_jsonable(getattr(obj, key), sub) for key, sub in kind.items()}
    if type(kind) is MapOf:
        return {key: to_jsonable(value, kind.kind) for key, value in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def reading_artifact(what: str, table):
    """Decorates the reader of the document `what`: the document is checked
    against `table` first. An error the reader raises as it converts a
    numeric array or meets a rule that is not a field's kind (a graph shape,
    a constructor's invariant) becomes an ArtifactError; a ProjectError (a
    value out of range) passes through."""
    test = _test(table)

    def decorate(reader):
        @functools.wraps(reader)
        def read(doc):
            if not test(doc):
                raise ArtifactError(_problem(doc, table, what))
            try:
                return reader(doc)
            except (ProjectError, ArtifactError):
                raise
            except (ValueError, TypeError, OverflowError) as exc:
                raise ArtifactError(f"{what} has the wrong structure: {exc}") from None
        return read
    return decorate


FLEET = {"count": WHOLE, "radius": NUMBER, "v_max": NUMBER, "v_min": NUMBER,
         "v_factor": NUMBER, "initial_positions": ARRAY}
# a parameter the document omits takes its default
PARAMS = {f.name: Optional(WHOLE if f.name == "seed" else NUMBER) for f in fields(PlanParams)}
PROJECT = {
    "root": STRING,
    "assemblies": MapOf({
        "components": ListOf({"id": STRING, "transform": {"rotation": ARRAY,
                                                           "translation": ARRAY}}),
        "build_phases": ListOf({"index": WHOLE, "members": ListOf(STRING)}),
    }, label="assembly"),
    "parts": MapOf({"vertices": ARRAY, "units_per_meter": NUMBER}, label="part"),
    "fleet": Optional(FLEET),
    "params": Optional(PARAMS),
}


@reading_artifact("project JSON", PROJECT)
def project_from_jsonable(doc: dict) -> tuple[ProjectSpec, RobotFleet | None, PlanParams | None]:
    """Project, fleet and parameters from a native project JSON document;
    raises ArtifactError where it breaks `PROJECT`, and ProjectError when a
    value is out of range."""
    assemblies = {
        aid: Assembly(
            id=aid,
            components=tuple((c["id"], Transform.from_jsonable(c["transform"]))
                             for c in body["components"]),
            build_phases=tuple(BuildPhase(p["index"], tuple(p["members"]))
                               for p in body["build_phases"]),
        )
        for aid, body in doc["assemblies"].items()
    }
    parts = {
        pid: PartGeometry(body["vertices"], body["units_per_meter"])
        for pid, body in doc["parts"].items()
    }
    spec = ProjectSpec(assemblies=assemblies, root=doc["root"], parts_catalog=parts)
    fleet = params = None
    if "fleet" in doc:
        fleet = RobotFleet(**{k: doc["fleet"][k] for k in FLEET})
    if "params" in doc:
        params = PlanParams(**{k: v for k, v in doc["params"].items() if k in PARAMS})
    return spec, fleet, params
