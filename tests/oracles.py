"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
code under test: gift wrapping instead of monotone chain, refined grid
search instead of Welzl, a general-purpose QP solver instead of isotonic
regression, exhaustive enumeration instead of greedy/branch-and-bound, and
a from-scratch LP-format reader instead of the exporter's own structures.

The planning and simulator kernels at the end are the exception: they are
the scalar loops the package's array code replaced, kept as written so that
tests can require bit-for-bit equal results from the array code.
"""

from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import scipy.optimize

from assemblyforge.allocation import (
    AllocationError,
    AllocationResult,
    RobotState,
    _chain_structure,
)
from assemblyforge.schedule import CHECKPOINT_KINDS, evaluate_schedule, validate_schedule
from assemblyforge.sim import ORCA_SAFETY_FACTOR, _lp1
from assemblyforge.transport import CARRY_RESTARTS, TransportConfigError


# -- convex hull by gift wrapping (Jarvis march) ------------------------------


def gift_wrap_hull(points) -> np.ndarray:
    """CCW hull vertices; collinear intermediate points are dropped."""
    pts = np.unique(np.asarray(points, float).reshape(-1, 2), axis=0)
    if len(pts) == 1:
        return pts
    start = min(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = 0 if cur != 0 else 1
        for i in range(len(pts)):
            if i == cur:
                continue
            a = pts[cand] - pts[cur]
            b = pts[i] - pts[cur]
            cross = a[0] * b[1] - a[1] * b[0]
            if cand == cur or cross < -1e-12 or (
                abs(cross) <= 1e-12
                and np.linalg.norm(pts[i] - pts[cur]) > np.linalg.norm(pts[cand] - pts[cur])
            ):
                cand = i
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > len(pts):  # pragma: no cover - degenerate guard
            break
    out = pts[hull]
    if len(out) == 2 and np.allclose(out[0], out[1]):
        out = out[:1]
    return out


# -- minimum enclosing circle by refined grid search --------------------------


def grid_min_circle(points, refinements: int = 12, grid: int = 24):
    """(center, radius) minimizing the max distance to the points, found by
    shrinking grid search over candidate centers."""
    pts = np.asarray(points, float).reshape(-1, 2)

    def radius_at(c):
        return float(np.max(np.linalg.norm(pts - c, axis=1)))

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    best = (radius_at(center), center)
    for _ in range(refinements):
        xs = np.linspace(best[1][0] - span / 2, best[1][0] + span / 2, grid)
        ys = np.linspace(best[1][1] - span / 2, best[1][1] + span / 2, grid)
        for x in xs:
            for y in ys:
                c = np.array([x, y])
                r = radius_at(c)
                if r < best[0]:
                    best = (r, c)
        span *= 0.25
    # derivative-free polish of the (convex) max-distance objective
    res = scipy.optimize.minimize(radius_at, best[1], method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-12,
                                           "maxiter": 2000})
    if res.fun < best[0]:
        best = (float(res.fun), res.x)
    return best[1], best[0]


# -- radial layout oracle: QP via scipy ---------------------------------------


def radial_layout_qp(desired_angles, body_radii, hub_radius):
    """Optimal angles for the separation-constrained layout, solved in the
    cumulative-separation substitution by a general constrained minimizer.

    Returns (angles, objective) or (None, inf) when infeasible."""
    theta_hat = np.asarray(desired_angles, float)
    rho = np.asarray(body_radii, float)
    delta = np.arcsin(rho / (rho + hub_radius))
    n = len(theta_hat)
    if 2 * delta.sum() > 2 * math.pi + 1e-12:
        return None, math.inf
    if n == 1:
        return theta_hat.copy(), 0.0

    sep = delta + np.roll(delta, -1)
    cum = np.concatenate([[0.0], np.cumsum(sep[:-1])])
    u_hat = theta_hat - cum
    gap = 2 * math.pi - float(sep.sum())

    # constraints: u[i+1] - u[i] >= 0 for all i, and u[0] - u[-1] + gap >= 0
    cons = []
    for i in range(n - 1):
        a = np.zeros(n)
        a[i + 1], a[i] = 1.0, -1.0
        cons.append({"type": "ineq", "fun": (lambda u, a=a: a @ u),
                     "jac": (lambda u, a=a: a)})
    a_wrap = np.zeros(n)
    a_wrap[0], a_wrap[-1] = 1.0, -1.0
    cons.append({"type": "ineq", "fun": (lambda u: a_wrap @ u + gap),
                 "jac": (lambda u: a_wrap)})

    res = scipy.optimize.minimize(
        lambda u: float(np.sum((u - u_hat) ** 2)),
        x0=np.sort(u_hat),
        jac=lambda u: 2 * (u - u_hat),
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    u = res.x
    return u + cum, float(np.sum((u - u_hat) ** 2))


# -- exhaustive carry-position search -----------------------------------------


def exhaustive_carry(hull_vertices, n: int, score_fn) -> tuple[float, tuple[int, ...]]:
    """Best score over all n-subsets of the hull vertices."""
    verts = np.asarray(hull_vertices, float)
    best = (-math.inf, ())
    for idxs in itertools.combinations(range(len(verts)), n):
        s = score_fn(verts[list(idxs)])
        if s > best[0]:
            best = (s, idxs)
    return best


# -- longest-path schedule timing ---------------------------------------------


def longest_path_makespan(nodes_durations: dict[str, float],
                          edges: set[tuple[str, str]],
                          terminals: list[str]) -> float:
    """Earliest finish of the terminals by DFS-based longest path."""
    succ: dict[str, list[str]] = {v: [] for v in nodes_durations}
    pred: dict[str, list[str]] = {v: [] for v in nodes_durations}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    finish: dict[str, float] = {}

    def fin(v: str) -> float:
        if v not in finish:
            start = max((fin(p) for p in pred[v]), default=0.0)
            finish[v] = start + nodes_durations[v]
        return finish[v]

    return max(fin(t) for t in terminals)


# -- exhaustive allocation over chain edges -----------------------------------


def exhaustive_allocation(graph, fleet, evaluate):
    """Minimal makespan over every valid set of chain edges.

    Enumerates, for each pickup placeholder (in sorted order), a distinct
    source among RobotStart and dropoff nodes, skipping cyclic choices, and
    evaluates the completed graph. Returns (best makespan, best edge set)."""
    pickups = sorted(n for n, nd in graph.nodes.items()
                     if nd.kind == "RobotGo" and nd.role == "pickup")
    sources = sorted(n for n, nd in graph.nodes.items()
                     if nd.kind == "RobotStart"
                     or (nd.kind == "RobotGo" and nd.role == "dropoff"))

    succ: dict[str, list[str]] = {v: [] for v in graph.nodes}
    for u, v in graph.edges:
        succ[u].append(v)

    def reaches(extra: dict[str, str], src: str, dst: str) -> bool:
        add: dict[str, list[str]] = {}
        for v, u in extra.items():
            add.setdefault(u, []).append(v)
        stack, seen = [src], set()
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succ[x])
            stack.extend(add.get(x, []))
        return False

    best = (math.inf, None)

    def recurse(i: int, chosen: dict[str, str], used: set[str]):
        nonlocal best
        if i == len(pickups):
            edges = {(u, v) for v, u in chosen.items()}
            complete = graph.with_edges(edges)
            try:
                _, _, makespan = evaluate(complete, fleet)
            except Exception:
                return
            if makespan < best[0]:
                best = (makespan, tuple(sorted(edges)))
            return
        v = pickups[i]
        for u in sources:
            if u in used or reaches(chosen, v, u):
                continue
            chosen[v] = u
            used.add(u)
            recurse(i + 1, chosen, used)
            del chosen[v]
            used.discard(u)

    recurse(0, {}, set())
    return best


# -- dispersion potential (scalar field, for finite differencing) -------------


def dispersion_potential(p_i, p_j, r_i, r_j, big_r_j) -> float:
    """Scalar potential whose gradient the dispersion force must equal:
    a unit-slope attractive cone inside the field radius plus an inverse
    barrier that activates once the surface gap drops below r_i + r_j."""
    dist = float(np.linalg.norm(np.asarray(p_i, float) - np.asarray(p_j, float)))
    f = 0.0
    if dist < big_r_j + r_i + r_j:
        f += -dist
    gap = dist - big_r_j
    if gap > 0 and 1.0 / gap - 1.0 / (r_i + r_j) > 0:
        f += 1.0 / gap
    return f


# -- minimal CPLEX-LP reader --------------------------------------------------


class LpParseError(ValueError):
    pass


_SECTION_RE = re.compile(
    r"^(minimize|maximize|subject\s+to|st|s\.t\.|bounds|binary|binaries|general|end)$",
    re.IGNORECASE,
)

_TERM_RE = re.compile(r"([+-]?)\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?\s*([A-Za-z_][A-Za-z0-9_]*)")


def parse_lp(text: str) -> dict:
    """Parse the subset of the CPLEX-LP format used by the exporter.

    Returns {objective: {var: coef}, constraints: [(name, {var: coef}, op,
    rhs)], bounds: [...raw...], binaries: set, variables: set}."""
    # strip comments, join continuation lines within a section
    lines = []
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if line:
            lines.append(line)

    section = None
    objective: dict[str, float] = {}
    constraints: list[tuple[str, dict[str, float], str, float]] = []
    bounds: list[str] = []
    binaries: set[str] = set()
    buffer = ""

    def parse_expr(expr: str) -> dict[str, float]:
        coefs: dict[str, float] = {}
        pos = 0
        expr = expr.strip()
        while pos < len(expr):
            m = _TERM_RE.match(expr, pos)
            if not m:
                raise LpParseError(f"cannot parse term at {expr[pos:pos+30]!r}")
            sign = -1.0 if m.group(1) == "-" else 1.0
            coef = float(m.group(2)) if m.group(2) else 1.0
            var = m.group(3)
            coefs[var] = coefs.get(var, 0.0) + sign * coef
            pos = m.end()
            while pos < len(expr) and expr[pos] in " \t":
                pos += 1
        return coefs

    def flush_constraint(chunk: str):
        if not chunk.strip():
            return
        name = ""
        if ":" in chunk:
            name, chunk = chunk.split(":", 1)
            name = name.strip()
        m = re.search(r"(<=|>=|=)", chunk)
        if not m:
            raise LpParseError(f"no comparison in row {name!r}")
        lhs, op, rhs = chunk[: m.start()], m.group(1), chunk[m.end():]
        constraints.append((name, parse_expr(lhs), op, float(rhs)))

    for line in lines:
        if _SECTION_RE.match(line):
            if section == "subject to" and buffer:
                flush_constraint(buffer)
                buffer = ""
            word = line.lower()
            if word in ("st", "s.t."):
                word = "subject to"
            if word in ("binaries",):
                word = "binary"
            section = word
            continue
        if section == "minimize":
            if ":" in line:
                line = line.split(":", 1)[1]
            for var, coef in parse_expr(line).items():
                objective[var] = objective.get(var, 0.0) + coef
        elif section == "subject to":
            # each exporter row is one line, but accept name-led continuation
            if re.match(r"^\s*\w+\s*:", line):
                flush_constraint(buffer)
                buffer = line
            else:
                buffer += " " + line
        elif section == "bounds":
            bounds.append(line)
        elif section == "binary":
            binaries.update(line.split())
        elif section == "end":
            break
        else:
            raise LpParseError(f"content outside any section: {line!r}")
    if buffer:
        flush_constraint(buffer)

    variables: set[str] = set(objective)
    for _, coefs, _, _ in constraints:
        variables.update(coefs)
    variables.update(binaries)
    return {
        "objective": objective,
        "constraints": constraints,
        "bounds": bounds,
        "binaries": binaries,
        "variables": variables,
    }


# -- scalar planning kernels (bitwise references) -----------------------------


def scalar_carry_score(pts) -> float:
    """`transport.carry_score` as a loop over point pairs."""
    pts = np.asarray(pts, float).reshape(-1, 2)
    m = len(pts)
    if m < 2:
        raise TransportConfigError("carry_score needs at least 2 points")
    consecutive = np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1)
    c1 = float(consecutive.min())
    c2 = float(consecutive.sum())
    c3 = min(
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(m) for j in range(i + 1, m)
    )
    return c1 + (0.5 / m) * c2 + (0.1 / m**2) * c3


def scalar_neighbors(idxs: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """`transport._neighbors` built one shift tuple at a time."""
    n = len(idxs)
    out: set[tuple[int, ...]] = set()
    if n <= 8:
        shift_sets = itertools.product((-1, 0, 1), repeat=n)
    else:
        # coordinate-wise moves keep the neighborhood tractable for big teams
        shift_sets = []
        for i in range(n):
            for s in (-1, 1):
                shifts = [0] * n
                shifts[i] = s
                shift_sets.append(tuple(shifts))
    for shifts in shift_sets:
        cand = tuple((idxs[i] + shifts[i]) % m for i in range(n))
        if len(set(cand)) == n:
            key = tuple(sorted(cand))
            if key != tuple(sorted(idxs)):
                out.add(key)
    return sorted(out)


def scalar_select_carry_positions(hull_vertices, n: int, seed: int = 0) -> np.ndarray:
    """`transport.select_carry_positions` scoring one neighbour at a time."""
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
        score = scalar_carry_score(verts[list(idxs)])
        updated = True
        while updated:
            updated = False
            for cand in scalar_neighbors(idxs, m):
                s = scalar_carry_score(verts[list(cand)])
                if s > score:
                    idxs, score = cand, s
                    updated = True
        if best_overall is None or score > best_overall[0]:
            best_overall = (score, idxs)
    assert best_overall is not None
    return verts[list(best_overall[1])]


def scalar_earliest_arrival(
    robots: list[RobotState], goals: list[tuple[int, np.ndarray]], v_max: float
) -> tuple[tuple[RobotState, tuple[int, np.ndarray]], float]:
    """`allocation.earliest_arrival` as a loop over robot x goal."""
    if not robots or not goals:
        raise AllocationError("earliest_arrival needs non-empty robots and goals")
    best = None
    for robot in robots:
        for gi, gpos in goals:
            t = max(robot.available_time, 0.0) + float(
                np.linalg.norm(gpos - robot.position)) / v_max
            key = (t, robot.id, gi)
            if best is None or key < best[0]:
                best = (key, (robot, (gi, gpos)))
    (t, _, _), pair = best
    return pair, t


def greedy_reference(graph, fleet) -> AllocationResult:
    """`allocation.greedy_pccf` without its team cache: every iteration
    rebuilds the team of every available component from scratch."""
    pickups, dropoffs, starts = _chain_structure(graph)
    n_robots = len(starts)
    if pickups and max(len(v) for v in pickups.values()) > n_robots:
        raise AllocationError(
            "fleet smaller than the largest transport team; allocation infeasible")

    robots = [
        RobotState(graph.nodes[s].subject, np.array(graph.nodes[s].origin))
        for s in starts
    ]
    chain_tail = {r.id: s for r, s in zip(robots, starts)}

    phases = graph.assembly_phases
    active_step = {a: ks[0] for a, ks in phases.items()}
    active = set(phases)
    parts = {n.subject for n in graph.nodes.values() if n.kind == "ObjectStart"}
    available_components = set(parts)
    assigned: set[str] = set()

    ready_time = {p: 0.0 for p in parts}
    open_time = {(a, ks[0]): 0.0 for a, ks in phases.items()}
    lift_end: dict[tuple[str, int], list[float]] = {}
    durations = {nid: n.duration for nid, n in graph.nodes.items()}

    added: list[tuple[str, str]] = []

    def commit(component: str, pairs: list[tuple[RobotState, int]], t_task: float):
        form_dur = durations[f"FormTransportUnit:{component}"]
        tugo = durations[f"TransportUnitGo:{component}"]
        dep_dur = durations[f"DepositCargo:{component}"]
        lift_dur = durations[f"LiftIntoPlace:{component}"]
        a, k = graph.payload_phase[component]
        t_form_end = max(t_task, ready_time[component]) + form_dur
        t_arrive = t_form_end + tugo
        t_dep_end = max(t_arrive, open_time[(a, k)]) + dep_dur
        t_lift_end = t_dep_end + lift_dur
        lift_end.setdefault((a, k), []).append(t_lift_end)
        for robot, slot in pairs:
            pick = pickups[component][slot]
            drop = dropoffs[component][slot]
            added.append((chain_tail[robot.id], pick))
            chain_tail[robot.id] = drop
            robot.position = np.array(graph.nodes[drop].origin)
            robot.available_time = t_dep_end
        assigned.add(component)

        members = graph.phase_members[(a, k)]
        if all(m in assigned for m in members):
            close = max(lift_end[(a, k)])
            if k == phases[a][-1]:
                active.discard(a)
                available_components.add(a)
                ready_time[a] = close
            else:
                nxt = phases[a][phases[a].index(k) + 1]
                active_step[a] = nxt
                open_time[(a, nxt)] = close

    while active:
        best_team: tuple[str, list[tuple[RobotState, int]], float] | None = None
        t_min = math.inf
        for a in sorted(active):
            k = active_step[a]
            for component in graph.phase_members[(a, k)]:
                if component in assigned or component not in available_components:
                    continue
                goals = [
                    (graph.nodes[p].slot, np.array(graph.nodes[p].destination))
                    for p in pickups[component]
                ]
                pool = list(robots)
                pairs: list[tuple[RobotState, int]] = []
                t_task = 0.0
                while goals:
                    (robot, (gi, _)), t = scalar_earliest_arrival(pool, goals, fleet.v_max)
                    t_task = max(t_task, t)
                    if t_task >= t_min:
                        break
                    pairs.append((robot, gi))
                    pool = [r for r in pool if r.id != robot.id]
                    goals = [g for g in goals if g[0] != gi]
                if not goals and t_task < t_min:
                    best_team = (component, pairs, t_task)
                    t_min = t_task
        if best_team is None:
            raise AllocationError("no assignable component; schedule is stuck")
        commit(*best_team)

    complete = graph.with_edges(set(added))
    violations = validate_schedule(complete, "complete")
    if violations:  # pragma: no cover - construction guarantees validity
        raise AllocationError(f"greedy produced an invalid schedule: {violations[:3]}")
    _, _, makespan = evaluate_schedule(complete, fleet)
    return AllocationResult(complete, makespan, "greedy", "incumbent", tuple(added))


# -- scalar simulator kernels (bitwise references) ----------------------------


def scalar_ray_circle_hit(pos, goal, center, radius):
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


def scalar_tangent_bug_step(pos, goal, obstacles, planning_radius: float, eps_b: float):
    """`sim.tangent_bug_step` testing one (center, radius) circle at a time."""
    pos = np.asarray(pos, float)
    goal = np.asarray(goal, float)
    best = None
    for center, radius in obstacles:
        t = scalar_ray_circle_hit(pos, goal, np.asarray(center, float), radius)
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
        if scalar_ray_circle_hit(pos, tangent_pt, np.asarray(c2, float), r2) is not None:
            return waypoint, "move_toward_waypoint"
    return tangent_pt, "move_toward_right_hand_tangent_point"


def scalar_nominal_velocity(pos, goal, obstacles, speed: float, dt: float,
                            planning_radius: float, eps_b: float):
    """`sim.nominal_velocity` on the scalar tangent bug step."""
    waypoint, mode = scalar_tangent_bug_step(pos, goal, obstacles, planning_radius, eps_b)
    pos = np.asarray(pos, float)
    if mode == "move_ccw_along_boundary":
        best = None
        for center, radius in obstacles:
            gap = abs(float(np.linalg.norm(pos - np.asarray(center, float))) - radius)
            if best is None or gap < best[0]:
                best = (gap, np.asarray(center, float), radius)
        _, center, radius = best
        n = pos - center
        nn = float(np.linalg.norm(n))
        n = n / nn if nn > 1e-12 else np.array([1.0, 0.0])
        direction = np.array([-n[1], n[0]])
        return direction * speed, mode
    delta = waypoint - pos
    dist = float(np.linalg.norm(delta))
    if dist < 1e-12:
        return np.zeros(2), mode
    return delta / dist * min(speed, dist / dt), mode


def scalar_orca_line(p_i, v_i, r_i, p_j, v_j, r_j, share: float, tau: float, dt: float):
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


def scalar_lp2(lines, radius, opt):
    """`sim._lp2` scanning a list of (point, direction) lines one at a time."""
    norm = float(np.linalg.norm(opt))
    result = opt if norm <= radius else opt / norm * radius
    for i, (pt, d) in enumerate(lines):
        if d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0]) < -1e-12:
            r2 = _lp1(lines, i, radius, opt)
            if r2 is None:
                return i, result
            result = r2
    return len(lines), result


def scalar_lp3(lines, begin, radius, result):
    """`sim._lp3` on `scalar_lp2`."""
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
            _, result = scalar_lp2(proj_lines, radius, opt_dir * radius)
            distance = d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0])
    return result


def scalar_rvo_resolve(positions, radii, velocities, preferred, caps, shares,
                       dt: float, tau: float):
    """`sim.rvo_resolve` building one half-plane per ordered pair. Returns
    the commands and how many agents needed the `_lp3` fallback."""
    n = len(positions)
    commands, fallbacks = [], 0
    for i in range(n):
        lines = []
        for j in range(n):
            if j == i or shares[i][j] <= 0.0:
                continue
            lines.append(scalar_orca_line(
                positions[i], velocities[i], radii[i],
                positions[j], velocities[j], radii[j],
                shares[i][j], tau, dt))
        fail, cmd = scalar_lp2(lines, caps[i], np.asarray(preferred[i], float))
        if fail < len(lines):
            cmd = scalar_lp3(lines, fail, caps[i], cmd)
            fallbacks += 1
        commands.append(cmd)
    return commands, fallbacks


def scalar_penetrations(positions, radii, tol: float) -> list[tuple[int, int]]:
    """Index pairs i < j of agents that overlap by more than `tol`, as the
    simulator's pair loop reported them."""
    pairs = []
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            gap = float(np.linalg.norm(positions[i] - positions[j]))
            if gap < radii[i] + radii[j] - tol:
                pairs.append((i, j))
    return pairs


def scan_fire_checkpoints(world) -> list[tuple[str, str]]:
    """The (node, new status) changes of one `World.fire_checkpoints` call as
    the full scan over all nodes in topological order makes them, computed
    on copies of the node states."""
    status, remaining = dict(world.status), dict(world.remaining)
    changes = []
    for nid in world.topo:
        if status[nid] != "pending" or remaining[nid] > 0:
            continue
        node = world.graph.nodes[nid]
        if node.kind in CHECKPOINT_KINDS or (node.kind == "RobotGo"
                                             and node.role == "dropoff"):
            status[nid] = "complete"
            for s in world.succ[nid]:
                remaining[s] -= 1
        elif node.kind == "LiftIntoPlace":
            status[nid] = "active"
        else:
            continue
        changes.append((nid, status[nid]))
    return changes
