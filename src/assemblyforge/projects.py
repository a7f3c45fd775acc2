"""Bundled example projects: a 1-part toy, a 20-part tractor, and a seeded
synthetic project, plus the default fleet builder."""

from __future__ import annotations

import importlib.resources as resources

import numpy as np

from .ldraw import box_vertices, load_dimension_table, parse_mpd
from .model import (
    Assembly,
    BuildPhase,
    PartGeometry,
    ProjectError,
    ProjectSpec,
    RobotFleet,
    Transform,
    sample_grid_positions,
)

UNITS_PER_METER = 80.0  # 1 brick stud (20 LDU) = 0.25 m


def _data_text(name: str) -> str:
    return resources.files("assemblyforge.data").joinpath(name).read_text()


def bundled_dimension_table():
    return load_dimension_table(_data_text("parts.table"))


def tractor_project() -> ProjectSpec:
    """20 parts in 8 nested assemblies, ingested from the bundled model."""
    result = parse_mpd(_data_text("tractor.mpd"), bundled_dimension_table(),
                       units_per_meter=UNITS_PER_METER)
    return result.project


def _box(w_m: float, d_m: float, h_m: float) -> PartGeometry:
    return PartGeometry(box_vertices(w_m, d_m, h_m) * UNITS_PER_METER, UNITS_PER_METER)


def toy_project() -> ProjectSpec:
    """Single assembly holding a single brick."""
    part = _box(0.5, 0.5, 0.3)
    asm = Assembly(
        id="toy",
        components=(("brick@1", Transform.identity()),),
        build_phases=(BuildPhase(1, ("brick@1",)),),
    )
    return ProjectSpec(assemblies={"toy": asm}, root="toy",
                       parts_catalog={"brick@1": part})


def synthetic_project(seed: int = 0, clusters: int = 4, parts_per_cluster: int = 15
                      ) -> ProjectSpec:
    """Seeded random project: `clusters` subassemblies of small bricks laid
    out on jittered grids, all mounted on a root plate (~60 parts default)."""
    rng = np.random.default_rng(seed)
    parts: dict[str, PartGeometry] = {}
    assemblies: dict[str, Assembly] = {}
    root_components: list[tuple[str, Transform]] = []
    root_phases: list[tuple[int, list[str]]] = []

    brick = _box(0.5, 0.25, 0.3)
    for c in range(clusters):
        cid = f"cluster{c}"
        comps: list[tuple[str, Transform]] = []
        phases: list[list[str]] = [[], []]
        for i in range(parts_per_cluster):
            pid = f"brick@{c * parts_per_cluster + i + 1}"
            parts[pid] = brick
            col, row_i = i % 5, i // 5
            pos = np.array([
                (col - 2) * 0.55 + float(rng.uniform(-0.02, 0.02)),
                (row_i - 1) * 0.3 + float(rng.uniform(-0.02, 0.02)),
                0.0,
            ])
            comps.append((pid, Transform(np.eye(3), pos)))
            phases[0 if i < parts_per_cluster // 2 else 1].append(pid)
        assemblies[cid] = Assembly(
            id=cid, components=tuple(comps),
            build_phases=tuple(BuildPhase(k + 1, tuple(m))
                               for k, m in enumerate(phases) if m))
        angle = 2 * np.pi * c / clusters
        root_components.append(
            (cid, Transform(np.eye(3), np.array([
                3.0 * np.cos(angle), 3.0 * np.sin(angle), 0.0]))))
    root_phases.append((1, [cid for cid, _ in root_components]))
    assemblies["site"] = Assembly(
        id="site", components=tuple(root_components),
        build_phases=tuple(BuildPhase(k, tuple(m)) for k, m in root_phases))
    return ProjectSpec(assemblies=assemblies, root="site", parts_catalog=parts)


def default_fleet(count: int, seed: int = 0, radius: float = 0.25,
                  v_max: float = 1.0, v_min: float = 0.2,
                  v_factor: float = 0.25) -> RobotFleet:
    if count < 1:  # sample_grid_positions cannot draw a negative count
        raise ProjectError(f"robot count must be at least 1, got {count}")
    positions = sample_grid_positions(count, spacing=4 * radius, seed=seed)
    return RobotFleet(count=count, radius=radius, v_max=v_max, v_min=v_min,
                      v_factor=v_factor, initial_positions=positions)
