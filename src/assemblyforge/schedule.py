"""Operating-schedule DAG: typed nodes, construction, validation, evaluation.

A partial schedule encodes all task precedence but no robot assignments;
assignment edges (RobotStart -> pickup RobotGo, dropoff RobotGo -> next
pickup RobotGo) complete it. Timing is an earliest-start forward pass.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import (COUNT, NON_NEGATIVE, POINT, STRING, WHOLE, Kind, ListOf, MapOf, PlanParams,
                    ProjectSpec, RobotFleet, Variant, nullable, reading_artifact)
from .staging import StagingPlan
from .transport import TransportUnitConfig

CHECKPOINT_KINDS = {
    "ObjectStart", "RobotStart", "AssemblyStart", "OpenBuildStep",
    "CloseBuildStep", "AssemblyComplete", "ProjectComplete",
}


class ScheduleError(ValueError):
    pass


def node_id(kind: str, subject: str, slot: int | None = None, role: str | None = None) -> str:
    """The id of a schedule node, `Kind:subject[:slot][:role]`.

    The only code that writes the format. Other modules call this or read
    a graph's lookups, and none parses an id."""
    nid = f"{kind}:{subject}"
    if slot is not None:
        nid += f":{slot}"
    if role is not None:
        nid += f":{role}"
    return nid


def travel_time(origin, destination, v_max: float):
    """Unladen travel time from `origin` to `destination`, as a pickup
    RobotGo node is timed. Both are (x, y) pairs, giving one time, or
    (2, k) coordinate arrays, giving k times."""
    return np.hypot(destination[0] - origin[0], destination[1] - origin[1]) / v_max


@dataclass(frozen=True)
class ScheduleNode:
    id: str = field(init=False)  # node_id(kind, subject, slot, role)
    kind: str
    subject: str
    slot: int | None = None  # carry-slot index (RobotGo) or phase index
    role: str | None = None  # RobotGo: "pickup" | "dropoff"
    origin: tuple[float, float] | None = None
    destination: tuple[float, float] | None = None
    duration: float | None = None  # None => computed during evaluation

    def __post_init__(self):
        object.__setattr__(self, "id", node_id(self.kind, self.subject, self.slot, self.role))


@dataclass(frozen=True)
class ScheduleGraph:
    """Immutable schedule DAG, indexed once at construction.

    `adjacency()`, `topological_order`, `upstream` and the phase maps read
    the index. The node lookups `pickups`, `dropoffs`, `source` and
    `robot_starts` are built from the nodes on first use. The lists and
    dicts all of these return are shared and must not be mutated."""

    nodes: dict[str, ScheduleNode]
    edges: frozenset[tuple[str, str]]
    terminal_nodes: tuple[str, ...]
    team_sizes: dict[str, int] = field(default_factory=dict)  # payload -> slots
    phase_members: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)
    # assembly -> sorted phase indices; payload -> (assembly, phase)
    assembly_phases: dict[str, list[int]] = field(init=False, repr=False, compare=False)
    payload_phase: dict[str, tuple[str, int]] = field(init=False, repr=False, compare=False)
    _pred: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _succ: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _order: list[str] | None = field(init=False, repr=False, compare=False)  # None: cyclic

    def __post_init__(self):
        edges = frozenset(self.edges)
        pred: dict[str, list[str]] = {v: [] for v in self.nodes}
        succ: dict[str, list[str]] = {v: [] for v in self.nodes}
        for u, v in sorted(edges):
            if u not in self.nodes or v not in self.nodes:
                raise ScheduleError(f"edge ({u}, {v}) references unknown node")
            succ[u].append(v)
            pred[v].append(u)
        if not self.terminal_nodes or not set(self.terminal_nodes) <= self.nodes.keys():
            raise ScheduleError(
                f"terminal nodes must be schedule nodes, got {list(self.terminal_nodes)}")

        # Kahn's algorithm over sorted node ids
        indeg = {v: len(ps) for v, ps in pred.items()}
        queue = deque(sorted(v for v, d in indeg.items() if d == 0))
        order: list[str] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)

        phases: dict[str, list[int]] = {}
        payload_phase: dict[str, tuple[str, int]] = {}
        for (a, k), members in self.phase_members.items():
            phases.setdefault(a, []).append(k)
            for c in members:
                payload_phase[c] = (a, k)

        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "edges", edges)
        set_field(self, "_pred", pred)
        set_field(self, "_succ", succ)
        set_field(self, "_order", order if len(order) == len(self.nodes) else None)
        set_field(self, "assembly_phases", {a: sorted(phases[a]) for a in sorted(phases)})
        set_field(self, "payload_phase", payload_phase)

    def adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        return self._pred, self._succ

    def with_edges(self, extra: set[tuple[str, str]]) -> "ScheduleGraph":
        # nodes and metadata are shared: neither graph mutates them
        return replace(self, edges=self.edges | frozenset(extra))

    def _robot_go(self, role: str) -> dict[str, tuple[str, ...]]:
        by_payload: dict[str, list[ScheduleNode]] = {}
        for node in self.nodes.values():
            if node.kind == "RobotGo" and node.role == role:
                by_payload.setdefault(node.subject, []).append(node)
        return {c: tuple(n.id for n in sorted(ns, key=lambda n: n.slot))
                for c, ns in sorted(by_payload.items())}

    @cached_property
    def pickups(self) -> dict[str, tuple[str, ...]]:
        """Payload -> its pickup RobotGo ids in slot order."""
        return self._robot_go("pickup")

    @cached_property
    def dropoffs(self) -> dict[str, tuple[str, ...]]:
        """Payload -> its dropoff RobotGo ids in slot order."""
        return self._robot_go("dropoff")

    @cached_property
    def source(self) -> dict[str, str]:
        """Payload -> the ObjectStart or AssemblyComplete node its transport
        unit forms from."""
        out = {}
        for node in self.nodes.values():
            if node.kind == "FormTransportUnit":
                start = node_id("ObjectStart", node.subject)
                out[node.subject] = (start if start in self.nodes
                                     else node_id("AssemblyComplete", node.subject))
        return out

    @cached_property
    def robot_starts(self) -> tuple[str, ...]:
        """The RobotStart ids, sorted."""
        return tuple(sorted(nid for nid, n in self.nodes.items() if n.kind == "RobotStart"))


def topological_order(graph: ScheduleGraph) -> list[str]:
    """Kahn's order over sorted node ids; raises on cycles."""
    if graph._order is None:
        raise ScheduleError("schedule graph contains a cycle")
    return graph._order


def is_acyclic(graph: ScheduleGraph) -> bool:
    return graph._order is not None


def upstream(graph: ScheduleGraph, v: str) -> set[str]:
    """All nodes from which v is reachable (v excluded in a DAG)."""
    pred, _ = graph.adjacency()
    seen: set[str] = set()
    stack = list(pred[v])
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(pred[u])
    return seen


# -- construction ------------------------------------------------------------


def build_partial_schedule(
    project: ProjectSpec,
    staging_plan: StagingPlan,
    transport_configs: dict[str, TransportUnitConfig],
    fleet: RobotFleet,
    params: PlanParams,
) -> ScheduleGraph:
    """Construct the unassigned operating schedule for a project."""
    nodes: dict[str, ScheduleNode] = {}
    edges: set[tuple[str, str]] = set()
    team_sizes: dict[str, int] = {}
    phase_members: dict[tuple[str, int], tuple[str, ...]] = {}

    def add(kind: str, subject: str, **fields) -> str:
        node = ScheduleNode(kind, subject, **fields)
        nodes[node.id] = node
        return node.id

    def component_world_frames(aid: str):
        """Payload-frame origin of each child at pickup and dropoff, world."""
        st = staging_plan.assemblies[aid]
        out = {}
        for cid, _ in project.assemblies[aid].components:
            cfg = transport_configs.get(cid)
            if cfg is None:
                raise ScheduleError(f"component {cid} has no transport config")
            zone = st.dropoffs.get(cid)
            if zone is None:
                raise ScheduleError(f"component {cid} has no dropoff pose")
            bc = np.asarray(cfg.bounding_circle.center, float)[:2]
            drop_origin = zone.position - bc
            if project.is_part(cid):
                pick_origin = staging_plan.part_sources[cid]
            else:
                child = staging_plan.assemblies[cid]
                pick_origin = child.center - child.hub_center_local
            out[cid] = (np.asarray(pick_origin, float), drop_origin, cfg, zone)
        return out

    for aid in sorted(project.assemblies):
        asm = project.assemblies[aid]
        a_start = add("AssemblyStart", aid, duration=0.0)
        a_done = add("AssemblyComplete", aid, duration=0.0)
        frames = component_world_frames(aid)
        prev_close: str | None = None
        for phase in asm.build_phases:
            k = phase.index
            open_id = add("OpenBuildStep", aid, slot=k, duration=0.0)
            close_id = add("CloseBuildStep", aid, slot=k, duration=0.0)
            edges.add((a_start if prev_close is None else prev_close, open_id))
            phase_members[(aid, k)] = tuple(phase.member_ids)
            for cid in phase.member_ids:
                pick_origin, drop_origin, cfg, zone = frames[cid]
                if project.is_part(cid):
                    src = add("ObjectStart", cid, duration=0.0)
                else:
                    src = node_id("AssemblyComplete", cid)
                form = add("FormTransportUnit", cid, duration=params.duration_form)
                bc = np.asarray(cfg.bounding_circle.center, float)[:2]
                go = add("TransportUnitGo", cid,
                         origin=tuple(pick_origin + bc), destination=tuple(zone.position),
                         duration=float(np.linalg.norm(zone.position - (pick_origin + bc)))
                         / cfg.speed_limit)
                deposit = add("DepositCargo", cid, duration=params.duration_deposit)
                lift = add("LiftIntoPlace", cid, duration=params.duration_lift)
                edges.update([
                    (src, form), (form, go), (go, deposit),
                    (deposit, lift), (lift, close_id), (open_id, deposit),
                ])
                team_sizes[cid] = cfg.n
                for s in range(cfg.n):
                    pick = add("RobotGo", cid, slot=s, role="pickup",
                               destination=tuple(pick_origin + cfg.carry_positions[s]))
                    drop = add("RobotGo", cid, slot=s, role="dropoff",
                               origin=tuple(drop_origin + cfg.carry_positions[s]), duration=0.0)
                    edges.add((pick, form))
                    edges.add((deposit, drop))
            prev_close = close_id
        assert prev_close is not None
        edges.add((prev_close, a_done))

    project_done = add("ProjectComplete", project.root, duration=0.0)
    edges.add((node_id("AssemblyComplete", project.root), project_done))

    for i, pos in enumerate(fleet.initial_positions):
        add("RobotStart", f"robot{i}", origin=(float(pos[0]), float(pos[1])), duration=0.0)

    return ScheduleGraph(
        nodes=nodes, edges=edges, terminal_nodes=(project_done,),
        team_sizes=team_sizes, phase_members=phase_members,
    )


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleViolation:
    node: str
    rule: str
    message: str


class _AtMost(dict):
    """A rule whose counts are caps: each listed kind may appear up to its count."""


_PICKUP, _DROPOFF = ("RobotGo", "pickup"), ("RobotGo", "dropoff")

# The schedule grammar, after Brown et al. (ICRA 2020): node kind (RobotGo:
# by role) -> (predecessor rule, successor rule). A rule maps a neighbour kind
# to its exact count, either a number, "team" (the payload's team size) or
# "members" (the phase's member count). A tuple of kinds takes exactly one
# neighbour from among them. A kind a rule does not list is not eligible.
_NEIGHBOURS = {
    "ProjectComplete": ({"AssemblyComplete": 1}, {}),
    "ObjectStart": ({}, {"FormTransportUnit": 1}),
    "AssemblyStart": ({}, {"OpenBuildStep": 1}),
    "AssemblyComplete": ({"CloseBuildStep": 1}, {("FormTransportUnit", "ProjectComplete"): 1}),
    "OpenBuildStep": ({("AssemblyStart", "CloseBuildStep"): 1}, {"DepositCargo": "members"}),
    "CloseBuildStep": ({"LiftIntoPlace": "members"}, {("AssemblyComplete", "OpenBuildStep"): 1}),
    "RobotStart": ({}, _AtMost(RobotGo=1)),
    _PICKUP: (_AtMost(RobotStart=1, RobotGo=1), {"FormTransportUnit": 1}),
    _DROPOFF: ({"DepositCargo": 1}, _AtMost(RobotGo=1)),
    "FormTransportUnit": ({("ObjectStart", "AssemblyComplete"): 1, "RobotGo": "team"},
                          {"TransportUnitGo": 1}),
    "TransportUnitGo": ({"FormTransportUnit": 1}, {"DepositCargo": 1}),
    "DepositCargo": ({"OpenBuildStep": 1, "TransportUnitGo": 1},
                     {"LiftIntoPlace": 1, "RobotGo": "team"}),
    "LiftIntoPlace": ({"DepositCargo": 1}, {"CloseBuildStep": 1}),
}

def _rule_key(kind: str, role: str | None):
    """The key of a node of `kind` and `role` in the grammar tables: its
    kind, or (RobotGo, role), where a RobotGo without the pickup role is a
    dropoff."""
    if kind != "RobotGo":
        return kind
    return _PICKUP if role == "pickup" else _DROPOFF


def _side_violations(graph: ScheduleGraph, node: ScheduleNode, ids, side: str, rule: dict):
    """(rule, message) for each way the neighbours `ids` break `rule`: first
    the one-of count, then the exact counts in table order, then unlisted
    kinds and broken caps in neighbour order."""
    counts: dict[str, int] = {}
    for kind in [graph.nodes[i].kind for i in ids]:
        counts[kind] = counts.get(kind, 0) + 1
    for kind, want in ({} if isinstance(rule, _AtMost) else rule).items():
        if isinstance(kind, tuple):
            got = sum(counts.pop(k, 0) for k in kind)
            if got != 1:
                yield f"required-{side}", f"expected exactly one {'/'.join(kind)} {side}, got {got}"
            continue
        if want == "team":
            want = graph.team_sizes.get(node.subject, 0)
        elif want == "members":
            want = len(graph.phase_members.get((node.subject, node.slot or 0), ()))
        got = counts.pop(kind, 0)
        if got != want:
            yield (f"{'required' if got < want else 'eligible'}-{side}",
                   f"expected {want} {kind} {side}(s), got {got}")
    for kind, got in counts.items():  # an exact rule's kinds are popped by now
        if kind not in rule:
            yield f"eligible-{side}", f"unexpected {kind} {side} ({got})"
        elif got > rule[kind]:
            yield f"eligible-{side}", f"at most {rule[kind]} {kind} {side}(s) allowed, got {got}"


def validate_schedule(graph: ScheduleGraph, mode: str = "complete") -> list[ScheduleViolation]:
    """Check that every terminal node is a ProjectComplete, then every
    node's neighbourhood against the `_NEIGHBOURS` table. A pickup RobotGo
    also needs exactly one chain predecessor in complete mode, and has no
    predecessor at all in partial mode, where allocation adds every chain
    edge."""
    if mode not in ("partial", "complete"):
        raise ScheduleError(f"unknown validation mode {mode!r}")
    pred, succ = graph.adjacency()
    out = [] if is_acyclic(graph) else [
        ScheduleViolation("", "acyclic", "schedule graph contains a cycle")]
    out += [ScheduleViolation(t, "terminal", f"terminal node must be a ProjectComplete, not {kind}")
            for t in graph.terminal_nodes if (kind := graph.nodes[t].kind) != "ProjectComplete"]
    for nid, node in sorted(graph.nodes.items()):
        key = _rule_key(node.kind, node.role)
        if key not in _NEIGHBOURS:
            out.append(ScheduleViolation(nid, "kind", f"unknown node kind {node.kind!r}"))
            continue
        before, after = _NEIGHBOURS[key]
        if key == _PICKUP and mode == "partial":
            before = {}
        found = list(_side_violations(graph, node, pred[nid], "predecessor", before))
        if key == _PICKUP and mode == "complete" and len(pred[nid]) != 1:
            found.append(("required-predecessor",
                          f"expected one RobotStart/RobotGo predecessor, got {len(pred[nid])}"))
        found += _side_violations(graph, node, succ[nid], "successor", after)
        out += [ScheduleViolation(nid, rule, message) for rule, message in found]
    return out


# -- evaluation --------------------------------------------------------------


def evaluate_schedule(
    graph: ScheduleGraph, fleet: RobotFleet, partial_ok: bool = False
) -> tuple[dict[str, float], dict[str, float], float]:
    """Earliest-start forward pass. A pickup RobotGo, the one kind without a
    fixed duration, travels unladen at v_max from the origin of its chain
    predecessor (a RobotStart or the previous dropoff slot) to its
    destination.

    With partial_ok, a pickup without a predecessor gets zero travel time,
    which lower-bounds every completion of the graph."""
    order = topological_order(graph)
    pred, _ = graph.adjacency()
    t0: dict[str, float] = {}
    tF: dict[str, float] = {}
    for nid in order:
        start = max((tF[p] for p in pred[nid]), default=0.0)
        node = graph.nodes[nid]
        dur = node.duration
        if dur is None:  # a pickup
            chain = pred[nid]
            if len(chain) == 1:
                dur = float(travel_time(graph.nodes[chain[0]].origin, node.destination,
                                        fleet.v_max))
            elif partial_ok and not chain:
                dur = 0.0
            else:
                raise ScheduleError(f"pickup RobotGo {nid} needs exactly one chain predecessor")
        t0[nid] = start
        tF[nid] = start + dur
    makespan = max(tF[t] for t in graph.terminal_nodes)
    return t0, tF, makespan


# -- export ------------------------------------------------------------------


_DOT_SHORT = {
    "ObjectStart": "OS", "RobotStart": "RS", "RobotGo": "R", "AssemblyStart": "AS",
    "OpenBuildStep": "O", "FormTransportUnit": "F", "TransportUnitGo": "T",
    "DepositCargo": "D", "LiftIntoPlace": "L", "CloseBuildStep": "C",
    "AssemblyComplete": "AC", "ProjectComplete": "PC",
}


def _dot_string(text: str) -> str:
    """`text` as a DOT quoted string on one line: a backslash is doubled, and
    a quote, a line feed and a carriage return are written as backslash
    escapes, so that no string ends in an escaping backslash or continues
    onto the next line."""
    escaped = (text.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\r", "\\r"))
    return f'"{escaped}"'


def schedule_to_dot(graph: ScheduleGraph) -> str:
    """The schedule as a DOT digraph, one statement per line."""
    lines = ["digraph schedule {", "  rankdir=LR;"]
    for nid, node in sorted(graph.nodes.items()):
        label = f"{_DOT_SHORT[node.kind]} {node.subject}"
        if node.slot is not None:
            label += f"/{node.slot}"
        shape = "ellipse" if node.kind in CHECKPOINT_KINDS else "box"
        lines.append(f"  {_dot_string(nid)} [label={_dot_string(label)}, shape={shape}];")
    for u, v in sorted(graph.edges):
        lines.append(f"  {_dot_string(u)} -> {_dot_string(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def schedule_to_jsonable(graph: ScheduleGraph) -> dict:
    return {
        "nodes": [
            {
                "id": n.id, "kind": n.kind, "subject": n.subject, "slot": n.slot,
                "role": n.role, "origin": n.origin, "destination": n.destination,
                "duration": n.duration,
            }
            for _, n in sorted(graph.nodes.items())
        ],
        "edges": sorted(list(e) for e in graph.edges),
        "terminal_nodes": list(graph.terminal_nodes),
        "team_sizes": dict(sorted(graph.team_sizes.items())),
        "phase_members": {
            f"{aid}:{k}": list(m) for (aid, k), m in sorted(graph.phase_members.items())
        },
    }


# A node record's fields by its key in `_NEIGHBOURS`: evaluation and
# simulation read a RobotStart's and a dropoff's origin, a pickup's
# destination and a TransportUnitGo's origin and destination; a RobotGo and a
# build step have a slot; every kind but a pickup has a duration, and a
# pickup's time is always its travel.
_NODE = {"id": STRING, "kind": STRING, "subject": STRING, "slot": nullable(WHOLE),
         "role": nullable(STRING), "origin": nullable(POINT), "destination": nullable(POINT),
         "duration": NON_NEGATIVE}
_TRAVEL = Kind("null: a pickup's time is its travel", lambda v: v is None)


def _record_key(rec: dict):
    """The `_NEIGHBOURS` key of a node record, or None if its kind is not a
    string."""
    kind = rec.get("kind")
    return _rule_key(kind, rec.get("role")) if type(kind) is str else None


_NODE_FIELDS = Variant(
    _record_key,
    {"RobotStart": {**_NODE, "origin": POINT},
     _PICKUP: {**_NODE, "slot": WHOLE, "destination": POINT, "duration": _TRAVEL},
     _DROPOFF: {**_NODE, "slot": WHOLE, "origin": POINT},
     "TransportUnitGo": {**_NODE, "origin": POINT, "destination": POINT},
     "OpenBuildStep": {**_NODE, "slot": WHOLE},
     "CloseBuildStep": {**_NODE, "slot": WHOLE}},
    default=_NODE)
SCHEDULE = {
    "nodes": ListOf(_NODE_FIELDS, label="node"),
    "edges": ListOf(Kind("two node ids", lambda e: type(e) is list and len(e) == 2
                         and type(e[0]) is str and type(e[1]) is str)),
    "terminal_nodes": ListOf(STRING),
    "team_sizes": MapOf(COUNT),
    "phase_members": MapOf(ListOf(STRING), key=Kind(
        "an assembly:phase key", lambda k: ":" in k and k.rsplit(":", 1)[1].isdecimal())),
}


@reading_artifact("schedule JSON", SCHEDULE)
def schedule_from_jsonable(data: dict) -> ScheduleGraph:
    """The graph of a schedule JSON document that keeps to `SCHEDULE`, whose
    node ids are the ones their fields give, whose payloads' slots are
    0..k - 1 and whose phases' members are its payloads."""
    records = [(rec["id"], ScheduleNode(
        kind=rec["kind"], subject=rec["subject"], slot=rec["slot"], role=rec["role"],
        origin=tuple(rec["origin"]) if rec["origin"] else None,
        destination=tuple(rec["destination"]) if rec["destination"] else None,
        duration=rec["duration"],
    )) for rec in data["nodes"]]
    phase_members = {}
    for key, members in data["phase_members"].items():
        aid, k = key.rsplit(":", 1)
        phase_members[(aid, int(k))] = tuple(members)
    # a payload's k pickups, and its k dropoffs, index its slots 0..k-1
    slots: dict[tuple[str, str], list] = {}
    for _, node in records:
        if (key := _rule_key(node.kind, node.role)) in (_PICKUP, _DROPOFF):
            slots.setdefault((node.subject, key[1]), []).append(node.slot)
    for (payload, role), got in sorted(slots.items()):
        if sorted(got) != list(range(len(got))):
            raise ValueError(f"payload {payload} has {role} slots {got}, not 0..{len(got) - 1}")
    for nid, node in records:
        if nid != node.id:
            raise ValueError(f"node {nid} has the kind, subject, slot and role of {node.id}")
    # every payload (a subject of a FormTransportUnit) is a member of
    # exactly one build phase, and every member is a payload
    placed = Counter(c for members in phase_members.values() for c in members)
    payloads = {node.subject for _, node in records if node.kind == "FormTransportUnit"}
    for c in sorted(payloads | placed.keys()):
        if c not in payloads:
            raise ValueError(f"phase member {c} is not a payload")
        if placed[c] != 1:
            raise ValueError(f"payload {c} is a member of {placed[c]} build phases, not 1")
    return ScheduleGraph(
        nodes={node.id: node for _, node in records},
        edges={tuple(e) for e in data["edges"]},
        terminal_nodes=tuple(data["terminal_nodes"]),
        team_sizes=dict(data["team_sizes"]),
        phase_members=phase_members,
    )
