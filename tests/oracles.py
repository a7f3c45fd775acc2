"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
code under test: gift wrapping instead of monotone chain, refined grid
search instead of Welzl, a general-purpose QP solver instead of isotonic
regression, exhaustive enumeration instead of greedy/branch-and-bound, and
a from-scratch LP-format reader instead of the exporter's own structures.

The planning kernels at the end are the exception: they are the scalar
loops the package's array code replaced, kept as written so that tests can
require bit-for-bit equal results from the array code.
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
from assemblyforge.schedule import evaluate_schedule, validate_schedule
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
