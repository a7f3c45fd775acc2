"""Deterministic fixed-timestep execution of a complete operating schedule.

`step` advances a `World` by one timestep: (1) fire ready checkpoints and
task transitions, (2) update the active phases / staging circles, (3) run the
three-layer velocity controller (tangent bug -> prioritized dispersion ->
generalized reciprocal velocity obstacles) per agent, (4) integrate. Formed
transport units replace their member robots as a single agent until the cargo
is deposited.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import PlanParams, RobotFleet
from .schedule import CHECKPOINT_KINDS, ScheduleGraph, topological_order
from .staging import StagingPlan
from .transport import TransportUnitConfig

ARRIVAL_TOL_FACTOR = 0.2  # slot / waypoint arrival tolerance, fraction of r
PENETRATION_TOL_FACTOR = 1e-3
ORCA_SAFETY_FACTOR = 0.01  # inflation of combined radii in avoidance constraints


# -- level 1: modified tangent bug -------------------------------------------


def _ray_circle_hit(pos, goal, center, radius):
    """Earliest parameter t in (0, 1] where segment pos->goal enters the
    circle, or None."""
    d = goal - pos
    f = pos - center
    a = float(d @ d)
    if a < 1e-18:
        return None
    b = 2.0 * float(f @ d)
    c = float(f @ f) - radius * radius
    disc = b * b - 4 * a * c
    if disc <= 0:
        return None
    sq = math.sqrt(disc)
    t1 = (-b - sq) / (2 * a)
    t2 = (-b + sq) / (2 * a)
    if t2 <= 1e-12 or t1 > 1.0:
        return None
    return max(t1, 0.0)


def tangent_bug_step(pos, goal, obstacles, planning_radius: float, eps_b: float):
    """One evaluation of the switching controller.

    `obstacles` are (center, radius) circles already inflated by the agent
    radius. Returns (waypoint, mode)."""
    pos = np.asarray(pos, float)
    goal = np.asarray(goal, float)
    best = None
    for center, radius in obstacles:
        t = _ray_circle_hit(pos, goal, np.asarray(center, float), radius)
        if t is not None and (best is None or t < best[0]):
            best = (t, np.asarray(center, float), radius)
    if best is None:
        return goal, "move_toward_waypoint"

    t, center, radius = best
    waypoint = pos + t * (goal - pos)
    d = float(np.linalg.norm(pos - center)) - radius
    if abs(d) <= eps_b:
        return waypoint, "move_ccw_along_boundary"
    if d < -eps_b:
        off = pos - center
        norm = float(np.linalg.norm(off))
        if norm < 1e-12:
            heading = goal - pos
            hn = float(np.linalg.norm(heading))
            direction = heading / hn if hn > 1e-12 else np.array([1.0, 0.0])
        else:
            direction = off / norm
        return center + radius * direction, "exit_target"
    if d > planning_radius:
        return waypoint, "move_toward_waypoint"
    # right-hand tangent point of the target circle
    to_c = center - pos
    dist_c = float(np.linalg.norm(to_c))
    u = to_c / dist_c
    beta = math.asin(min(1.0, radius / dist_c))
    leg = math.sqrt(max(dist_c * dist_c - radius * radius, 0.0))
    cb, sb = math.cos(-beta), math.sin(-beta)
    tangent_dir = np.array([cb * u[0] - sb * u[1], sb * u[0] + cb * u[1]])
    tangent_pt = pos + leg * tangent_dir
    for c2, r2 in obstacles:
        if np.allclose(c2, center) and abs(r2 - radius) < 1e-12:
            continue
        if _ray_circle_hit(pos, tangent_pt, np.asarray(c2, float), r2) is not None:
            return waypoint, "move_toward_waypoint"
    return tangent_pt, "move_toward_right_hand_tangent_point"


def nominal_velocity(pos, goal, obstacles, speed: float, dt: float,
                     planning_radius: float, eps_b: float):
    waypoint, mode = tangent_bug_step(pos, goal, obstacles, planning_radius, eps_b)
    pos = np.asarray(pos, float)
    if mode == "move_ccw_along_boundary":
        # target circle is the one whose boundary we sit on
        best = None
        for center, radius in obstacles:
            gap = abs(float(np.linalg.norm(pos - np.asarray(center, float))) - radius)
            if best is None or gap < best[0]:
                best = (gap, np.asarray(center, float), radius)
        _, center, radius = best
        n = pos - center
        nn = float(np.linalg.norm(n))
        n = n / nn if nn > 1e-12 else np.array([1.0, 0.0])
        direction = np.array([-n[1], n[0]])  # circle center stays on the left
        return direction * speed, mode
    delta = waypoint - pos
    dist = float(np.linalg.norm(delta))
    if dist < 1e-12:
        return np.zeros(2), mode
    return delta / dist * min(speed, dist / dt), mode


# -- level 2: prioritized dispersion -----------------------------------------


def dispersion_force(p_i, p_j, r_i: float, r_j: float, big_r_j: float,
                     delta: float) -> np.ndarray:
    """Gradient (w.r.t. p_i) of the cone + barrier potential exerted by j.

    The barrier's singular band dist in (R_j, R_j + delta] is evaluated at
    the clamped distance R_j + delta. Coincident points use a fixed unit
    direction so the result stays deterministic."""
    p_i = np.asarray(p_i, float)
    p_j = np.asarray(p_j, float)
    diff = p_i - p_j
    dist = float(np.linalg.norm(diff))
    if dist < 1e-12:
        u = np.array([1.0, 0.0])
        dist_eff = delta
    else:
        u = diff / dist
        dist_eff = dist
    mag = 0.0
    if dist_eff < big_r_j + r_i + r_j:  # cone term, unit slope
        mag += -1.0
    gap = max(dist_eff - big_r_j, delta)
    if 1.0 / gap - 1.0 / (r_i + r_j) > 0:  # barrier term
        mag += -1.0 / (gap * gap)
    return mag * u


def field_radius(p_j, r_j: float, actives, r_max: float, c: float) -> float:
    """Field radius of agent j given active agents' (position, radius)."""
    if not actives:
        return 0.0
    d_j = min(
        float(np.linalg.norm(np.asarray(p_j, float) - np.asarray(p_k, float))) - (r_k + r_j)
        for p_k, r_k in actives
    )
    if d_j <= 0:
        return r_max
    return min(r_max, c / d_j)


def preferred_velocity(v_nominal, forces, a: float, b: float, v_cap: float) -> np.ndarray:
    v_hat = a * np.asarray(v_nominal, float) - b * sum(forces, np.zeros(2))
    norm = float(np.linalg.norm(v_hat))
    if norm < 1e-12:
        return np.zeros(2)
    return v_hat / norm * min(v_cap, norm)


def alpha_value(is_unit: bool, task_kind: str, phase_active: bool,
                cargo_ready: bool, cargo_id: int, max_cargo_id: int) -> float:
    """Dynamic priority (lower = higher priority)."""
    if is_unit:
        if task_kind in ("FormTransportUnit", "DepositCargo"):
            return 0.0
        cargo_scale = cargo_id / (10.0 * max_cargo_id) if max_cargo_id else 0.0
        return cargo_scale if phase_active else 1.0
    if phase_active:
        return 0.1 if cargo_ready else 0.5
    return 1.0


# -- level 3: generalized RVO (ORCA half-planes with priority shares) --------


def _orca_line(p_i, v_i, r_i, p_j, v_j, r_j, share: float, tau: float, dt: float):
    """Half-plane (point, direction) constraining agent i against j; feasible
    velocities lie to the left of the directed line."""
    rel_pos = p_j - p_i
    rel_vel = v_i - v_j
    dist_sq = float(rel_pos @ rel_pos)
    comb_r = (r_i + r_j) * (1.0 + ORCA_SAFETY_FACTOR)
    comb_r_sq = comb_r * comb_r

    if dist_sq > comb_r_sq:
        w = rel_vel - rel_pos / tau
        w_len_sq = float(w @ w)
        dot1 = float(w @ rel_pos)
        if dot1 < 0 and dot1 * dot1 > comb_r_sq * w_len_sq:
            w_len = math.sqrt(w_len_sq)
            unit_w = w / w_len
            direction = np.array([unit_w[1], -unit_w[0]])
            u = (comb_r / tau - w_len) * unit_w
        else:
            leg = math.sqrt(max(dist_sq - comb_r_sq, 0.0))
            if rel_pos[0] * w[1] - rel_pos[1] * w[0] > 0:
                direction = np.array([
                    rel_pos[0] * leg - rel_pos[1] * comb_r,
                    rel_pos[0] * comb_r + rel_pos[1] * leg]) / dist_sq
            else:
                direction = -np.array([
                    rel_pos[0] * leg + rel_pos[1] * comb_r,
                    -rel_pos[0] * comb_r + rel_pos[1] * leg]) / dist_sq
            dot2 = float(rel_vel @ direction)
            u = dot2 * direction - rel_vel
    else:
        w = rel_vel - rel_pos / dt
        w_len = float(np.linalg.norm(w))
        unit_w = w / w_len if w_len > 1e-12 else np.array([1.0, 0.0])
        direction = np.array([unit_w[1], -unit_w[0]])
        u = (comb_r / dt - w_len) * unit_w
    point = v_i + share * u
    return point, direction


def _lp1(lines, idx, radius, opt):
    """Clamp result onto line idx while honoring lines [0, idx) and |v|<=radius."""
    pt, d = lines[idx]
    dot = float(pt @ d)
    disc = dot * dot + radius * radius - float(pt @ pt)
    if disc < 0:
        return None
    sq = math.sqrt(disc)
    t_left = -dot - sq
    t_right = -dot + sq
    for p2, d2 in lines[:idx]:
        denom = d[0] * d2[1] - d[1] * d2[0]
        numer = d2[0] * (pt[1] - p2[1]) - d2[1] * (pt[0] - p2[0])
        if abs(denom) < 1e-12:
            if numer < 0:
                return None
            continue
        t = numer / denom
        if denom >= 0:
            t_right = min(t_right, t)
        else:
            t_left = max(t_left, t)
        if t_left > t_right:
            return None
    t = float(d @ (opt - pt))
    t = min(max(t, t_left), t_right)
    return pt + t * d


def _lp2(lines, radius, opt):
    """2D LP: velocity closest to opt inside all half-planes and the disc."""
    norm = float(np.linalg.norm(opt))
    result = opt if norm <= radius else opt / norm * radius
    for i, (pt, d) in enumerate(lines):
        if d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0]) < -1e-12:
            r2 = _lp1(lines, i, radius, opt)
            if r2 is None:
                return i, result
            result = r2
    return len(lines), result


def _lp3(lines, begin, radius, result):
    """Least-violation fallback when the half-plane intersection is empty."""
    distance = 0.0
    for i in range(begin, len(lines)):
        pt, d = lines[i]
        if d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0]) < distance:
            proj_lines = []
            for p2, d2 in lines[:i]:
                denom = d[0] * d2[1] - d[1] * d2[0]
                if abs(denom) < 1e-12:
                    if float(d @ d2) > 0:
                        continue
                    p3 = 0.5 * (pt + p2)
                else:
                    t = (d2[0] * (pt[1] - p2[1]) - d2[1] * (pt[0] - p2[0])) / denom
                    p3 = pt + t * d
                d3 = d2 - d
                n3 = float(np.linalg.norm(d3))
                if n3 < 1e-12:
                    continue
                proj_lines.append((p3, d3 / n3))
            opt_dir = np.array([-d[1], d[0]])
            _, result = _lp2(proj_lines, radius, opt_dir * radius)
            distance = d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0])
    return result


def rvo_resolve(positions, radii, velocities, preferred, caps, shares,
                dt: float, tau: float):
    """Command velocities for all agents.

    shares[i][j] is agent i's responsibility toward j (share 0 means no
    constraint from that pair on i). Returns a list of velocity vectors."""
    n = len(positions)
    commands = []
    for i in range(n):
        lines = []
        for j in range(n):
            if j == i or shares[i][j] <= 0.0:
                continue
            lines.append(_orca_line(
                positions[i], velocities[i], radii[i],
                positions[j], velocities[j], radii[j],
                shares[i][j], tau, dt))
        fail, cmd = _lp2(lines, caps[i], np.asarray(preferred[i], float))
        if fail < len(lines):
            cmd = _lp3(lines, fail, caps[i], cmd)
        commands.append(cmd)
    return commands


# -- world / trace -----------------------------------------------------------


@dataclass
class AgentState:
    id: str
    kind: str  # "robot" | "unit"
    position: np.ndarray
    radius: float
    speed_limit: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    task: str | None = None
    active: bool = False
    alpha: float = 1.0
    field_radius: float = 0.0


@dataclass
class SimTrace:
    rows: list  # (t, agent id, x, y, vx, vy, task, alpha)
    events: list  # dicts
    execution_makespan: float
    collision_count: int
    swap_count: int
    deadlocked: bool
    steps: int
    seed: int


def trace_to_csv(trace: SimTrace) -> str:
    out = ["t,id,x,y,vx,vy,task,alpha"]
    for t, aid, x, y, vx, vy, task, alpha in trace.rows:
        out.append(f"{t:.4f},{aid},{x:.6f},{y:.6f},{vx:.6f},{vy:.6f},{task},{alpha:.4f}")
    return "\n".join(out) + "\n"


def events_to_jsonl(trace: SimTrace) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in trace.events)


def metrics_to_jsonable(trace: SimTrace, predicted_makespan: float | None = None) -> dict:
    out = {
        "execution_makespan": trace.execution_makespan,
        "collision_count": trace.collision_count,
        "swap_count": trace.swap_count,
        "deadlocked": trace.deadlocked,
        "steps": trace.steps,
        "seed": trace.seed,
    }
    if predicted_makespan is not None:
        out["predicted_makespan"] = predicted_makespan
    return out


# -- the simulator -----------------------------------------------------------


@dataclass
class _Mission:
    payload: str
    slot: int
    pickup_node: str
    pickup_pos: np.ndarray
    dropoff_pos: np.ndarray


def _robot_itineraries(graph: ScheduleGraph):
    """Per-robot ordered mission list, traced along assignment chains."""
    _, succ = graph.adjacency()
    itineraries: dict[str, list[_Mission]] = {}
    for nid, node in sorted(graph.nodes.items()):
        if node.kind != "RobotStart":
            continue
        missions: list[_Mission] = []
        cur = nid
        while True:
            nxt = [s for s in succ[cur] if graph.nodes[s].kind == "RobotGo"
                   and graph.nodes[s].role == "pickup"]
            if not nxt:
                break
            pick = nxt[0]
            pn = graph.nodes[pick]
            drop = f"RobotGo:{pn.subject}:{pn.slot}:dropoff"
            dn = graph.nodes[drop]
            missions.append(_Mission(
                pn.subject, pn.slot, pick,
                np.array(pn.destination), np.array(dn.origin)))
            cur = drop
        itineraries[node.subject] = missions
    return itineraries


class World:
    """Everything the simulator advances from one step to the next: the
    schedule index and node states, the agents and units, the trace so far,
    the clock and the counters."""

    def __init__(self, graph: ScheduleGraph, staging_plan: StagingPlan,
                 transport_configs: dict[str, TransportUnitConfig],
                 fleet: RobotFleet, params: PlanParams):
        self.graph = graph
        self.staging_plan = staging_plan
        self.transport_configs = transport_configs
        self.fleet = fleet
        self.params = params
        self.dt = params.dt_sim
        self.arrival_tol = ARRIVAL_TOL_FACTOR * fleet.radius
        self.pen_tol = PENETRATION_TOL_FACTOR * fleet.radius  # also the L2 barrier clamp

        pred, self.succ = graph.adjacency()
        self.topo = topological_order(graph)
        self.status = {nid: "pending" for nid in graph.nodes}  # pending/active/complete
        self.remaining = {nid: len(pred[nid]) for nid in graph.nodes}
        self.timers: dict[str, float] = {}  # node -> end time
        self.complete_time: dict[str, float] = {}

        # cargo ids from the topological rank of DepositCargo nodes
        deposit_order = [n for n in self.topo if graph.nodes[n].kind == "DepositCargo"]
        self.cargo_id = {graph.nodes[n].subject: i + 1 for i, n in enumerate(deposit_order)}
        self.max_cargo_id = len(deposit_order)
        self.source_node = {}
        for nid, node in graph.nodes.items():
            if node.kind == "FormTransportUnit":
                srcs = [p for p in pred[nid]
                        if graph.nodes[p].kind in ("ObjectStart", "AssemblyComplete")]
                self.source_node[node.subject] = srcs[0]

        self.itineraries = _robot_itineraries(graph)
        self.mission_idx = {rid: 0 for rid in self.itineraries}
        # payload -> assigned robots per slot (mutable to allow task swapping)
        self.team_slots: dict[str, dict[int, str]] = {}
        for rid, missions in self.itineraries.items():
            for m in missions:
                self.team_slots.setdefault(m.payload, {})[m.slot] = rid
        self.agents: dict[str, AgentState] = {}
        for i, pos in enumerate(fleet.initial_positions):
            rid = f"robot{i}"
            self.agents[rid] = AgentState(rid, "robot", np.array(pos, float),
                                          fleet.radius, fleet.v_max)
        self.unit_of: dict[str, str] = {}  # payload -> unit agent id
        self.unit_members: dict[str, list[str]] = {}
        self.stuck_mark: dict[str, tuple[float, np.ndarray]] = {}

        self.rows: list = []
        self.events: list[dict] = []
        self.t = 0.0
        self.steps = 0
        self.collision_count = 0
        self.swap_count = 0

    def complete(self, nid: str):
        self.status[nid] = "complete"
        self.complete_time[nid] = self.t
        for s in self.succ[nid]:
            self.remaining[s] -= 1

    def mission(self, rid: str) -> _Mission | None:
        ms = self.itineraries[rid]
        i = self.mission_idx[rid]
        return ms[i] if i < len(ms) else None

    def active_phase(self, a: str) -> int | None:
        for k in self.graph.assembly_phases[a]:
            if self.status[f"CloseBuildStep:{a}:{k}"] != "complete":
                if self.status[f"OpenBuildStep:{a}:{k}"] == "complete":
                    return k
                return None
        return None

    def fire_checkpoints(self) -> bool:
        """Complete or start every ready node; True once the terminal node
        is complete."""
        # one pass suffices: completing a node only readies its successors,
        # which come later in topological order
        for nid in self.topo:
            if self.status[nid] != "pending" or self.remaining[nid] > 0:
                continue
            node = self.graph.nodes[nid]
            if node.kind in CHECKPOINT_KINDS or (node.kind == "RobotGo"
                                                 and node.role == "dropoff"):
                self.complete(nid)
            elif node.kind == "LiftIntoPlace":
                self.status[nid] = "active"
                self.timers[nid] = self.t + (node.duration or 0.0)
        return self.status[self.graph.terminal_nodes[0]] == "complete"


def _finish_timers(world: World):
    """Complete form / deposit / lift nodes whose time is up."""
    agents = world.agents
    for nid, end in sorted(world.timers.items()):
        if world.t + 1e-9 >= end:
            del world.timers[nid]
            node = world.graph.nodes[nid]
            world.complete(nid)
            world.events.append({"type": "task_complete", "node": nid, "t": round(world.t, 6)})
            if node.kind == "FormTransportUnit":
                uid = world.unit_of[node.subject]
                agents[uid].task = f"TransportUnitGo:{node.subject}"
                world.status[f"TransportUnitGo:{node.subject}"] = "active"
            elif node.kind == "DepositCargo":
                # disband: members reappear at their dropoff slots
                uid = world.unit_of.pop(node.subject)
                del agents[uid]
                for rid in world.unit_members.pop(uid):
                    m = world.mission(rid)
                    agents[rid] = AgentState(rid, "robot", m.dropoff_pos.copy(),
                                             world.fleet.radius, world.fleet.v_max)
                    world.mission_idx[rid] += 1
                    world.stuck_mark.pop(rid, None)


def _form_units(world: World):
    """Form transport units whose robots are all in position."""
    graph, agents, status = world.graph, world.agents, world.status
    for payload in sorted(world.team_slots):
        form = f"FormTransportUnit:{payload}"
        if status[form] != "pending" or payload in world.unit_of:
            continue
        if status[world.source_node[payload]] != "complete":
            continue
        slots = world.team_slots[payload]
        members = sorted(slots.values())
        if any(rid not in agents for rid in members):
            continue
        missions = [(rid, world.mission(rid)) for _, rid in sorted(slots.items())]
        if any(m is None or m.payload != payload
               or float(np.linalg.norm(agents[rid].position - m.pickup_pos)) > world.arrival_tol
               for rid, m in missions):
            continue
        for _, m in missions:
            if status[m.pickup_node] == "pending":
                world.complete(m.pickup_node)
        if world.remaining[form] > 0:
            continue
        cfg = world.transport_configs[payload]
        uid = f"unit:{payload}"
        tu_go = graph.nodes[f"TransportUnitGo:{payload}"]
        agents[uid] = AgentState(
            uid, "unit", np.array(tu_go.origin, float),
            cfg.bounding_circle.radius, cfg.speed_limit, task=form)
        world.unit_of[payload] = uid
        world.unit_members[uid] = members
        for rid in members:
            del agents[rid]
            world.stuck_mark.pop(rid, None)
        status[form] = "active"
        world.timers[form] = world.t + (graph.nodes[form].duration or 0.0)
        world.events.append({"type": "unit_formed", "payload": payload, "t": round(world.t, 6)})


def _arrive_and_deposit(world: World):
    """Transport unit arrivals, then deposits whose build step is open."""
    graph, agents, status = world.graph, world.agents, world.status
    for payload, uid in sorted(world.unit_of.items()):
        agent = agents[uid]
        go = f"TransportUnitGo:{payload}"
        if agent.task == go:
            dest = np.array(graph.nodes[go].destination, float)
            if float(np.linalg.norm(agent.position - dest)) <= world.arrival_tol:
                world.complete(go)
                agent.task = f"DepositCargo:{payload}"
                world.events.append({"type": "task_complete", "node": go,
                                     "t": round(world.t, 6)})
    world.fire_checkpoints()
    for payload, uid in sorted(world.unit_of.items()):
        dep = f"DepositCargo:{payload}"
        if agents[uid].task == dep and status[dep] == "pending" and world.remaining[dep] == 0:
            status[dep] = "active"
            world.timers[dep] = world.t + (graph.nodes[dep].duration or 0.0)


def _nominal(world: World, agent: AgentState, goal, payload, circles):
    """Level 1 velocity toward `goal` around the forbidden staging circles."""
    params = world.params
    dist_goal = float(np.linalg.norm(goal - agent.position))
    if dist_goal < 1e-9:
        return np.zeros(2)
    if not agent.active and dist_goal <= params.stop_range_factor * world.fleet.radius:
        return np.zeros(2)  # sit and wait
    # forbidden circles: active staging areas this agent may not enter; an
    # active agent may enter its own phase's circle when its goal lies inside
    own = world.graph.payload_phase[payload] if payload is not None and agent.active else None
    obstacles = []
    for a_id, (center, radius, k) in circles.items():
        if not (own == (a_id, k) and float(np.linalg.norm(goal - center)) <= radius):
            obstacles.append((center, radius + agent.radius))
    v, _ = nominal_velocity(agent.position, goal, obstacles, agent.speed_limit, world.dt,
                            params.planning_radius, params.boundary_tol)
    return v


def _control(world: World, ids: list[str]) -> list:
    """Command velocities of the agents `ids` from the three-layer controller."""
    graph, params = world.graph, world.params
    agents = [world.agents[aid] for aid in ids]
    # staging circles of active phases
    circles: dict[str, tuple[np.ndarray, float, int]] = {}
    for a in graph.assembly_phases:
        k = world.active_phase(a)
        if k is not None:
            center, radius = world.staging_plan.staging_circle(a, k)
            circles[a] = (np.asarray(center, float), radius, k)

    # goal, activity, priority and nominal velocity depend on the agent alone
    nominals = []
    for aid, agent in zip(ids, agents):
        if agent.kind == "unit":
            task_kind, payload = agent.task.split(":", 1)
        else:
            m = world.mission(aid)
            agent.task = m.pickup_node if m else None
            task_kind, payload = ("RobotGo", m.payload) if m else ("", None)
        phase_active = cargo_ready = False
        if payload is not None:
            a_id, k = graph.payload_phase[payload]
            phase_active = circles.get(a_id, (None, None, None))[2] == k
        if task_kind == "TransportUnitGo":
            goal = np.array(graph.nodes[agent.task].destination, float)
            agent.active = phase_active
        elif task_kind == "RobotGo":
            goal = m.pickup_pos
            cargo_ready = world.status[world.source_node[payload]] == "complete"
            agent.active = phase_active and cargo_ready
        else:  # a unit forming or depositing, or a robot without a mission
            goal = agent.position
            agent.active = False
        agent.alpha = alpha_value(agent.kind == "unit", task_kind, phase_active, cargo_ready,
                                  world.cargo_id.get(payload, 0), world.max_cargo_id)
        nominals.append(_nominal(world, agent, goal, payload, circles))

    actives = [(agent.position, agent.radius) for agent in agents if agent.active]
    for agent in agents:
        agent.field_radius = (
            params.dispersion_r_max if agent.active
            else field_radius(agent.position, agent.radius, actives,
                              params.dispersion_r_max, params.dispersion_c))

    prefs = []
    for agent, nominal in zip(agents, nominals):
        if agent.active or agent.alpha == 0.0:
            prefs.append(nominal)
            continue
        forces = [
            dispersion_force(agent.position, other.position, agent.radius, other.radius,
                             other.field_radius, world.pen_tol)
            for other in agents if other is not agent and other.field_radius > 0
        ]
        prefs.append(preferred_velocity(nominal, forces, params.blend_a, params.blend_b,
                                        agent.speed_limit))

    n = len(agents)
    shares = [[0.0] * n for _ in range(n)]
    for i, a_i in enumerate(agents):
        for j, a_j in enumerate(agents):
            if i != j:
                s = a_i.alpha + a_j.alpha
                shares[i][j] = 0.5 if s == 0 else a_i.alpha / s
    return rvo_resolve(
        [a.position for a in agents], [a.radius for a in agents],
        [a.velocity for a in agents], prefs, [a.speed_limit for a in agents],
        shares, world.dt, params.rvo_horizon)


def _integrate(world: World, ids: list[str], commands: list):
    """Move the agents, trace them and count penetrating pairs."""
    agents = world.agents
    for aid, cmd in zip(ids, commands):
        agent = agents[aid]
        agent.velocity = cmd
        agent.position = agent.position + cmd * world.dt
        world.rows.append((world.t, aid, float(agent.position[0]), float(agent.position[1]),
                           float(cmd[0]), float(cmd[1]), agent.task or "", agent.alpha))
    for i, ai in enumerate(ids):
        for aj in ids[i + 1:]:
            gap = float(np.linalg.norm(agents[ai].position - agents[aj].position))
            if gap < agents[ai].radius + agents[aj].radius - world.pen_tol:
                world.collision_count += 1
                world.events.append({"type": "penetration", "agents": [ai, aj],
                                     "t": round(world.t, 6)})


def _swap_stuck(world: World, ids: list[str]):
    """Hand a stuck robot's mission to a teammate closer to its pickup."""
    agents, params, t = world.agents, world.params, world.t
    for aid in ids:
        if agents[aid].kind != "robot":
            continue
        m = world.mission(aid)
        if m is None:
            world.stuck_mark.pop(aid, None)
            continue
        mark = world.stuck_mark.get(aid)
        if mark is None:
            world.stuck_mark[aid] = (t, agents[aid].position.copy())
            continue
        t0, p0 = mark
        if t - t0 < params.stuck_time:
            continue
        moved = float(np.linalg.norm(agents[aid].position - p0))
        world.stuck_mark[aid] = (t, agents[aid].position.copy())
        if moved >= params.stuck_speed_factor * world.fleet.v_max * params.stuck_time:
            continue
        my_dist = float(np.linalg.norm(agents[aid].position - m.pickup_pos))
        best = None
        for other_slot, orid in sorted(world.team_slots[m.payload].items()):
            if orid == aid or orid not in agents:
                continue
            om = world.mission(orid)
            if om is None or om.payload != m.payload:
                continue
            o_dist = float(np.linalg.norm(agents[orid].position - m.pickup_pos))
            if o_dist < my_dist and (best is None or o_dist < best[0]):
                best = (o_dist, orid, om)
        if best is not None:
            _, orid, om = best
            i_mine, i_theirs = world.mission_idx[aid], world.mission_idx[orid]
            world.itineraries[aid][i_mine], world.itineraries[orid][i_theirs] = om, m
            world.team_slots[m.payload][m.slot] = orid
            world.team_slots[m.payload][om.slot] = aid
            world.swap_count += 1
            world.events.append({"type": "swap", "agents": [aid, orid],
                                 "payload": m.payload, "t": round(t, 6)})
            world.stuck_mark.pop(orid, None)


def step(world: World) -> bool:
    """Advance `world` by one timestep. Returns True, having advanced
    nothing, once the terminal node is complete."""
    if world.fire_checkpoints():
        return True
    _finish_timers(world)
    if world.fire_checkpoints():
        return True
    _form_units(world)
    _arrive_and_deposit(world)
    ids = sorted(world.agents)
    _integrate(world, ids, _control(world, ids))
    _swap_stuck(world, ids)
    world.t += world.dt
    world.steps += 1
    return False


def simulate(
    graph: ScheduleGraph,
    staging_plan: StagingPlan,
    transport_configs: dict[str, TransportUnitConfig],
    fleet: RobotFleet,
    params: PlanParams,
    seed: int = 0,
    max_steps: int = 20_000,
) -> SimTrace:
    world = World(graph, staging_plan, transport_configs, fleet, params)
    finished = False
    while not finished and world.steps < max_steps:
        finished = step(world)
    makespan = world.t if finished else float("inf")
    return SimTrace(world.rows, world.events, makespan, world.collision_count,
                    world.swap_count, not finished, world.steps, seed)
