"""Parser for a subset of the LDraw/MPD text format.

Supported lines: type 0 (FILE / STEP / NOFILE / comments) and type 1
(sub-file references). Geometry line types 2-5 are skipped and counted;
part footprints come from a dimension table instead of the parts library.

Ingested models are converted from LDraw's -Y-up frame to +Z-up, and all
translations are converted from LDU to meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Assembly, BuildPhase, PartGeometry, ProjectSpec, Transform

# change of basis from LDraw (-Y up) to world (+Z up): (x, y, z) -> (x, z, -y)
_LDRAW_TO_WORLD = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])

GENERIC_BRICK_LDU = (20.0, 20.0, 24.0)  # 1 x 1 brick fallback footprint


class LdrawParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class PartDimensionTable:
    dims: dict[str, tuple[float, float, float]]  # name -> (w, d, h) in LDU
    warnings: tuple[str, ...] = ()

    def get(self, name: str) -> tuple[float, float, float] | None:
        return self.dims.get(name.lower())


@dataclass
class ParseReport:
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ParseResult:
    project: ProjectSpec
    report: ParseReport


def load_dimension_table(text: str) -> PartDimensionTable:
    """Parse whitespace-separated `<name> <w> <d> <h>` records."""
    dims: dict[str, tuple[float, float, float]] = {}
    warnings: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise LdrawParseError(f"expected 4 fields, got {len(fields)}", line_no)
        name = fields[0].lower()
        try:
            w, d, h = (float(x) for x in fields[1:])
        except ValueError:
            raise LdrawParseError(f"non-numeric dimension in {fields[1:]}", line_no) from None
        if min(w, d, h) <= 0:
            raise LdrawParseError("dimensions must be positive", line_no)
        if name in dims:
            warnings.append(f"duplicate dimension entry for {name} (last wins)")
        dims[name] = (w, d, h)
    return PartDimensionTable(dims, tuple(warnings))


def box_vertices(w: float, d: float, h: float) -> np.ndarray:
    """Corner points of a centered box, already in the +Z-up world frame."""
    hw, hd, hh = w / 2, d / 2, h / 2
    return np.array([
        [sx * hw, sy * hd, sz * hh]
        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    ])


@dataclass
class _Section:
    name: str
    # entries: (line number, referenced name, Transform (world frame, LDU), color)
    refs: list[tuple[int, str, Transform, int]] = field(default_factory=list)
    step_breaks: list[int] = field(default_factory=list)  # ref counts at each STEP


def _parse_type1(fields: list[str], line_no: int) -> tuple[int, Transform, str]:
    if len(fields) < 15:
        raise LdrawParseError(
            f"type-1 line needs 14 numeric fields plus a file name, got {len(fields) - 1}",
            line_no,
        )
    name = " ".join(fields[14:])
    try:
        color = int(fields[1])
        nums = [float(x) for x in fields[2:14]]
    except ValueError:
        raise LdrawParseError("malformed numeric field in type-1 line", line_no) from None
    if not all(np.isfinite(nums)):
        raise LdrawParseError("non-finite transform in type-1 line", line_no)
    x, y, z = nums[0:3]
    a, b, c, d, e, f, g, h, i = nums[3:12]
    rot = np.array([[a, b, c], [d, e, f], [g, h, i]])
    return color, Transform(rot, np.array([x, y, z])), name


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    section_names: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        lt = fields[0]
        if lt == "0":
            meta = fields[1].upper() if len(fields) > 1 else ""
            if meta == "FILE":
                name = " ".join(fields[2:]).lower()
                current = _Section(name)
                sections.append(current)
                section_names.add(name)
            elif meta == "STEP" and current is not None:
                current.step_breaks.append(len(current.refs))
            elif meta == "NOFILE":
                current = None
            # other type-0 lines are comments / unhandled meta
        elif lt == "1":
            color, tf_ldraw, name = _parse_type1(fields, line_no)
            if current is None:
                current = _Section("main.ldr")
                sections.append(current)
                section_names.add(current.name)
            # conjugate into the +Z-up frame; translations stay in LDU here
            rot = _LDRAW_TO_WORLD @ tf_ldraw.rotation @ _LDRAW_TO_WORLD.T
            trans = _LDRAW_TO_WORLD @ tf_ldraw.translation
            current.refs.append((line_no, name.lower(), Transform(rot, trans), color))
        elif lt not in {"2", "3", "4", "5"}:  # geometry lines are skipped
            raise LdrawParseError(f"unknown line type {lt!r}", line_no)
    return sections


def parse_mpd(
    text: str,
    dimension_table: PartDimensionTable | None = None,
    units_per_meter: float = 80.0,
) -> ParseResult:
    """Build a ProjectSpec from MPD/LDR text.

    Each `0 FILE` section becomes an assembly; `0 STEP` lines delimit build
    phases. References to other sections become subassembly components;
    `.dat` references become parts sized from the dimension table.
    """
    table = dimension_table or PartDimensionTable({})
    sections, report = _split_sections(text), ParseReport()
    if not sections:
        raise LdrawParseError("no model content found", 1)

    by_name = {s.name: s for s in sections}
    root_name = sections[0].name
    assemblies: dict[str, Assembly] = {}
    parts_catalog: dict[str, PartGeometry] = {}
    instance_counter: dict[str, int] = {}

    def next_instance(base: str) -> str:
        instance_counter[base] = instance_counter.get(base, 0) + 1
        return f"{base}@{instance_counter[base]}"

    open_sections: list[str] = []  # sections being built, outermost first

    def build(section: _Section, assembly_id: str) -> None:
        open_sections.append(section.name)
        components: list[tuple[str, Transform]] = []
        phases: list[tuple[int, list[str]]] = []
        breaks = list(section.step_breaks)
        if not breaks or breaks[-1] < len(section.refs):
            breaks.append(len(section.refs))
        phase_edges = [0] + breaks
        phase_idx = 0
        for lo, hi in zip(phase_edges[:-1], phase_edges[1:]):
            members: list[str] = []
            for line_no, name, tf_ldu, _ in section.refs[lo:hi]:
                # translation LDU -> meters; rotation is unit-free
                tf = Transform(tf_ldu.rotation, tf_ldu.translation / units_per_meter)
                if name in open_sections:
                    cycle = " -> ".join(open_sections[open_sections.index(name):] + [name])
                    raise LdrawParseError(f"section reference cycle: {cycle}", line_no)
                if name in by_name:
                    child_id = next_instance(name)
                    build(by_name[name], child_id)
                else:
                    child_id = next_instance(name)
                    dims = table.get(name)
                    if dims is None:
                        report.warnings.append(
                            f"no dimensions for part {name!r}; using generic 1x1 brick"
                        )
                        dims = GENERIC_BRICK_LDU
                    parts_catalog[child_id] = PartGeometry(
                        box_vertices(*dims), units_per_meter
                    )
                components.append((child_id, tf))
                members.append(child_id)
            if members:
                phase_idx += 1
                phases.append((phase_idx, members))
        assemblies[assembly_id] = Assembly(
            id=assembly_id,
            components=tuple(components),
            build_phases=tuple(BuildPhase(i, tuple(m)) for i, m in phases),
        )
        open_sections.pop()

    build(by_name[root_name], root_name)
    project = ProjectSpec(assemblies=assemblies, root=root_name, parts_catalog=parts_catalog)
    return ParseResult(project, report)
