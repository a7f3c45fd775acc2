"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
code under test: gift wrapping instead of monotone chain, refined grid
search instead of Welzl, a general-purpose QP solver instead of isotonic
regression, exhaustive enumeration instead of greedy/branch-and-bound, and
a from-scratch LP-format reader instead of the exporter's own structures.

The schedule validator, the branch-and-bound, the MILP builder and LP
exporter, and the planning and simulator kernels at the end are the
exception: they are the code the package replaced (per-kind branches before
the neighbourhood table, a graph rebuilt per explored node before the
incremental bound, a model text joined in memory before the streamed export,
scalar loops before the array code), kept as written so that tests can
require equal results from the new code.

The containment tests of the bounding shapes at the start are plain test
helpers: no package code calls them.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import time as _time
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from assemblyforge.allocation import (
    AllocationError, AllocationResult, _lp_name,
)
from assemblyforge.geometry import (
    OCTAGON_NORMALS, Circle, OctagonalPrism, VerticalCylinder, _as_points, _circle_two,
    _circumcircle, _within,
)
from assemblyforge.model import RobotFleet
from assemblyforge.schedule import (
    CHECKPOINT_KINDS, ScheduleError, ScheduleGraph, ScheduleNode, ScheduleViolation,
    evaluate_schedule, is_acyclic, node_id, topological_order, travel_time, upstream,
    validate_schedule,
)
from assemblyforge.sim import (
    LP_MARGIN, ORCA_SAFETY_FACTOR, _length, _ray_circle_hits, alpha_value, dispersion_force,
    preferred_velocity,
)
from assemblyforge.staging import RadialLayoutProblem, RadialLayoutResult, _pava
from assemblyforge.transport import CARRY_RESTARTS, TransportConfigError


# -- containment in the bounding shapes ---------------------------------------


CONTAINMENT_TOL = 1e-9


def circle_contains(circle: Circle, point, tol: float = CONTAINMENT_TOL) -> bool:
    return np.linalg.norm(np.asarray(point, float) - circle.center) <= circle.radius + tol


def cylinder_contains(cyl: VerticalCylinder, point3d, tol: float = CONTAINMENT_TOL) -> bool:
    p = np.asarray(point3d, float)
    if not (cyl.z_min - tol <= p[2] <= cyl.z_max + tol):
        return False
    return np.linalg.norm(p[:2] - cyl.center) <= cyl.radius + tol


def prism_contains(prism: OctagonalPrism, point3d, tol: float = CONTAINMENT_TOL) -> bool:
    p = np.asarray(point3d, float)
    if not (prism.z_min - tol <= p[2] <= prism.z_max + tol):
        return False
    return bool(np.all(OCTAGON_NORMALS @ p[:2] <= prism.offsets + tol))


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


def highs_optimum(text: str) -> float:
    """Optimal objective of an exported LP model, solved by HiGHS through
    `scipy.optimize.milp`: binaries are integers in [0, 1], every other
    variable is continuous with the lower bounds of the Bounds section
    (0 by default) and no upper bound."""
    lp = parse_lp(text)
    names = sorted(lp["variables"])
    col = {v: i for i, v in enumerate(names)}
    lower = np.zeros(len(names))
    upper = np.array([1.0 if v in lp["binaries"] else np.inf for v in names])
    for line in lp["bounds"]:
        m = re.fullmatch(r"(\w+)\s*>=\s*(\S+)", line)
        if not m:
            raise LpParseError(f"unsupported bound {line!r}")
        lower[col[m.group(1)]] = float(m.group(2))
    cost = np.zeros(len(names))
    for v, coef in lp["objective"].items():
        cost[col[v]] = coef
    rows = np.zeros((len(lp["constraints"]), len(names)))
    row_lo = np.full(len(rows), -np.inf)
    row_hi = np.full(len(rows), np.inf)
    for r, (_, coefs, op, rhs) in enumerate(lp["constraints"]):
        for v, coef in coefs.items():
            rows[r, col[v]] = coef
        if op in (">=", "="):
            row_lo[r] = rhs
        if op in ("<=", "="):
            row_hi[r] = rhs
    res = scipy.optimize.milp(
        cost, integrality=np.array([v in lp["binaries"] for v in names], int),
        bounds=scipy.optimize.Bounds(lower, upper),
        constraints=scipy.optimize.LinearConstraint(rows, row_lo, row_hi))
    if not res.success:
        raise ValueError(f"HiGHS found no optimum: {res.message}")
    return float(res.fun)


# -- schedule validation by per-kind branches ---------------------------------


def validate_schedule_reference(graph: ScheduleGraph, mode: str = "complete") -> list[ScheduleViolation]:
    """Check that every terminal node is a ProjectComplete, then every
    node's neighborhood against the required/eligible table.

    A pickup RobotGo has no predecessor in partial mode and exactly one
    RobotStart/RobotGo predecessor in complete mode; RobotStart / dropoff
    RobotGo successors are optional in both modes up to their caps.
    """
    if mode not in ("partial", "complete"):
        raise ScheduleError(f"unknown validation mode {mode!r}")
    out: list[ScheduleViolation] = []
    pred, succ = graph.adjacency()

    if not is_acyclic(graph):
        out.append(ScheduleViolation("", "acyclic", "schedule graph contains a cycle"))
    for t in graph.terminal_nodes:
        k = graph.nodes[t].kind
        if k != "ProjectComplete":
            out.append(ScheduleViolation(
                t, "terminal", f"terminal node must be a ProjectComplete, not {k}"))

    def kinds(ids: list[str]) -> list[tuple[str, str]]:
        return [(graph.nodes[i].kind, i) for i in ids]

    def expect_exact(node: ScheduleNode, ids: list[str], side: str,
                     spec: dict[str, int], one_of: tuple[str, ...] = ()):
        """Neighbors must consist of `spec` counts per kind, plus exactly one
        neighbor among `one_of` kinds when given."""
        counts: dict[str, int] = {}
        for k, _ in kinds(ids):
            counts[k] = counts.get(k, 0) + 1
        alt = sum(counts.pop(k, 0) for k in one_of)
        if one_of and alt != 1:
            out.append(ScheduleViolation(
                node.id, f"required-{side}",
                f"expected exactly one {'/'.join(one_of)} {side}, got {alt}"))
        for k, want in spec.items():
            got = counts.pop(k, 0)
            if got != want:
                rule = "required" if got < want else "eligible"
                out.append(ScheduleViolation(
                    node.id, f"{rule}-{side}",
                    f"expected {want} {k} {side}(s), got {got}"))
        for k, got in counts.items():
            out.append(ScheduleViolation(
                node.id, f"eligible-{side}", f"unexpected {k} {side} ({got})"))

    def expect_at_most(node: ScheduleNode, ids: list[str], side: str,
                       caps: dict[str, int], required: dict[str, int] = {}):
        counts: dict[str, int] = {}
        for k, _ in kinds(ids):
            counts[k] = counts.get(k, 0) + 1
        for k, got in counts.items():
            cap = caps.get(k)
            if cap is None:
                out.append(ScheduleViolation(
                    node.id, f"eligible-{side}", f"unexpected {k} {side} ({got})"))
            elif got > cap:
                out.append(ScheduleViolation(
                    node.id, f"eligible-{side}",
                    f"at most {cap} {k} {side}(s) allowed, got {got}"))
        for k, want in required.items():
            if counts.get(k, 0) < want:
                out.append(ScheduleViolation(
                    node.id, f"required-{side}",
                    f"expected at least {want} {k} {side}(s), got {counts.get(k, 0)}"))

    for nid, node in sorted(graph.nodes.items()):
        p, s = pred[nid], succ[nid]
        k = node.kind
        if k == "ProjectComplete":
            expect_exact(node, p, "predecessor", {"AssemblyComplete": 1})
            expect_exact(node, s, "successor", {})
        elif k == "ObjectStart":
            expect_exact(node, p, "predecessor", {})
            expect_exact(node, s, "successor", {"FormTransportUnit": 1})
        elif k == "AssemblyStart":
            expect_exact(node, p, "predecessor", {})
            expect_exact(node, s, "successor", {"OpenBuildStep": 1})
        elif k == "AssemblyComplete":
            expect_exact(node, p, "predecessor", {"CloseBuildStep": 1})
            expect_exact(node, s, "successor", {},
                         one_of=("FormTransportUnit", "ProjectComplete"))
        elif k == "OpenBuildStep":
            expect_exact(node, p, "predecessor", {},
                         one_of=("AssemblyStart", "CloseBuildStep"))
            want = len(graph.phase_members.get((node.subject, node.slot or 0), ()))
            expect_exact(node, s, "successor", {"DepositCargo": want})
        elif k == "CloseBuildStep":
            want = len(graph.phase_members.get((node.subject, node.slot or 0), ()))
            expect_exact(node, p, "predecessor", {"LiftIntoPlace": want})
            expect_exact(node, s, "successor", {},
                         one_of=("AssemblyComplete", "OpenBuildStep"))
        elif k == "RobotStart":
            expect_exact(node, p, "predecessor", {})
            expect_at_most(node, s, "successor", {"RobotGo": 1})
        elif k == "RobotGo":
            if node.role == "pickup":
                if mode == "complete":
                    expect_at_most(node, p, "predecessor",
                                   {"RobotStart": 1, "RobotGo": 1})
                    total = len(p)
                    if total != 1:
                        out.append(ScheduleViolation(
                            nid, "required-predecessor",
                            f"expected one RobotStart/RobotGo predecessor, got {total}"))
                else:  # allocation adds every chain edge
                    expect_exact(node, p, "predecessor", {})
                expect_exact(node, s, "successor", {"FormTransportUnit": 1})
            else:  # dropoff
                expect_exact(node, p, "predecessor", {"DepositCargo": 1})
                expect_at_most(node, s, "successor", {"RobotGo": 1})
        elif k == "FormTransportUnit":
            team = graph.team_sizes.get(node.subject, 0)
            expect_exact(node, p, "predecessor", {"RobotGo": team},
                         one_of=("ObjectStart", "AssemblyComplete"))
            expect_exact(node, s, "successor", {"TransportUnitGo": 1})
        elif k == "TransportUnitGo":
            expect_exact(node, p, "predecessor", {"FormTransportUnit": 1})
            expect_exact(node, s, "successor", {"DepositCargo": 1})
        elif k == "DepositCargo":
            team = graph.team_sizes.get(node.subject, 0)
            expect_exact(node, p, "predecessor",
                         {"OpenBuildStep": 1, "TransportUnitGo": 1})
            expect_exact(node, s, "successor",
                         {"LiftIntoPlace": 1, "RobotGo": team})
        elif k == "LiftIntoPlace":
            expect_exact(node, p, "predecessor", {"DepositCargo": 1})
            expect_exact(node, s, "successor", {"CloseBuildStep": 1})
        else:
            out.append(ScheduleViolation(nid, "kind", f"unknown node kind {k!r}"))
    return out


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


def unique_neighbors(idxs: tuple[int, ...], m: int) -> np.ndarray:
    """`transport._neighbors` deduplicating its rows with `np.unique(axis=0)`."""
    n = len(idxs)
    if n <= 8:
        shifts = np.indices((3,) * n).reshape(n, -1).T - 1
    else:
        # coordinate-wise moves keep the neighborhood tractable for big teams
        shifts = np.vstack([np.eye(n, dtype=int), -np.eye(n, dtype=int)])
    cands = np.sort((np.array(idxs) + shifts) % m, axis=1)
    cands = np.unique(cands[np.all(cands[:, 1:] != cands[:, :-1], axis=1)], axis=0)
    return cands[np.any(cands != np.sort(idxs), axis=1)]


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


@dataclass
class RobotState:
    id: str
    position: np.ndarray  # (2,)
    available_time: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, float).reshape(2)
        if self.available_time < 0:
            raise AllocationError("available_time must be non-negative")


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


def _chain_structure(graph):
    """Pickup/dropoff RobotGo nodes per payload, and RobotStart nodes."""
    pickups: dict[str, list[str]] = {}
    dropoffs: dict[str, dict[int, str]] = {}
    starts: list[str] = []
    for nid, node in sorted(graph.nodes.items()):
        if node.kind == "RobotGo" and node.role == "pickup":
            pickups.setdefault(node.subject, []).append(nid)
        elif node.kind == "RobotGo" and node.role == "dropoff":
            dropoffs.setdefault(node.subject, {})[node.slot] = nid
        elif node.kind == "RobotStart":
            starts.append(nid)
    for subject in pickups:
        pickups[subject].sort(key=lambda i: graph.nodes[i].slot)
    return pickups, dropoffs, starts


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


def candidate_edges_reference(graph: ScheduleGraph) -> list[tuple[str, str]]:
    """The candidate edges of `allocation.build_milp`, walking the graph
    upstream of each source: every robot start and dropoff to every pickup
    that does not reach it."""
    sources = list(graph.robot_starts) + sorted(d for ds in graph.dropoffs.values() for d in ds)
    targets = sorted(p for ps in graph.pickups.values() for p in ps)
    up = {u: upstream(graph, u) for u in sources}
    return [(u, v) for u in sources for v in targets if v not in up[u]]


def solve_bnb_reference(
    g: ScheduleGraph,
    fleet: RobotFleet,
    incumbent: AllocationResult | None = None,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> AllocationResult:
    """`allocation.solve_bnb` before its incremental bound: every explored
    node builds the graph with the chosen edges and reruns the forward pass,
    and every cycle check walks the graph.

    Depth-first branch-and-bound over chain edges into pickup
    placeholders; bounding by the forward pass that zeroes unassigned
    travel. Warm start seeds the incumbent."""
    by_target: dict[str, list[str]] = {}
    for u, v in candidate_edges_reference(g):
        by_target.setdefault(v, []).append(u)

    # branch pickups in schedule order so bounds tighten early
    order = [nid for nid in topological_order(g) if nid in by_target]
    for v in order:
        by_target[v].sort()

    best_edges: tuple[tuple[str, str], ...] | None = None
    best_makespan = math.inf
    if incumbent is not None and incumbent.status != "infeasible":
        best_edges = incumbent.added_edges
        best_makespan = incumbent.makespan

    t_start = _time.monotonic()
    explored = 0
    hit_limit = False

    _, succ_static = g.adjacency()

    def reaches(edges: dict[str, str], src: str, dst: str) -> bool:
        """Is dst reachable from src with the chosen edges added?"""
        extra: dict[str, list[str]] = {}
        for v, u in edges.items():
            extra.setdefault(u, []).append(v)
        stack, seen = [src], set()
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succ_static[x])
            stack.extend(extra.get(x, []))
        return False

    chosen: dict[str, str] = {}  # pickup node -> chain source
    used: set[str] = set()

    def descend(idx: int):
        nonlocal best_edges, best_makespan, explored, hit_limit
        if hit_limit:
            return
        if max_nodes is not None and explored >= max_nodes:
            hit_limit = True
            return
        if time_limit is not None and _time.monotonic() - t_start > time_limit:
            hit_limit = True
            return
        explored += 1
        edge_set = {(u, v) for v, u in chosen.items()}
        partial = g.with_edges(edge_set)
        try:
            _, _, lb = evaluate_schedule(partial, fleet, partial_ok=True)
        except ScheduleError:  # pragma: no cover - chosen edges stay acyclic
            return
        if lb >= best_makespan:
            return
        if idx == len(order):
            best_makespan = lb
            best_edges = tuple(sorted(edge_set))
            return
        v = order[idx]
        candidates = []
        for u in by_target[v]:
            if u in used or reaches(chosen, v, u):
                continue
            candidates.append(u)
        for u in candidates:
            chosen[v] = u
            used.add(u)
            descend(idx + 1)
            del chosen[v]
            used.discard(u)

    descend(0)

    if best_edges is None:
        return AllocationResult(g, math.inf, "bnb", "infeasible", ())
    complete = g.with_edges(set(best_edges))
    _, _, makespan = evaluate_schedule(complete, fleet)
    status = "incumbent" if hit_limit else "optimal"
    return AllocationResult(complete, makespan, "bnb", status, tuple(best_edges))


# -- the MILP and its LP text before streaming ---------------------------------


@dataclass
class MilpReference:
    """`allocation.ScheduleMilp` as it was: durations keyed by edge."""

    graph: ScheduleGraph
    fleet: RobotFleet
    variables: tuple[tuple[str, str], ...]  # candidate assignment edges (u, v)
    cond_duration: dict[tuple[str, str], float]  # pickup travel if edge chosen
    big_m: float
    terminal_nodes: tuple[str, ...]


def build_milp_reference(graph: ScheduleGraph, fleet: RobotFleet) -> MilpReference:
    """`allocation.build_milp` with one scalar `travel_time` call per edge."""
    variables = candidate_edges_reference(graph)
    cond = {(u, v): travel_time(graph.nodes[u].origin, graph.nodes[v].destination, fleet.v_max)
            for u, v in variables}
    fixed = sum(n.duration or 0.0 for n in graph.nodes.values())
    by_target: dict[str, float] = {}
    for (u, v), d in cond.items():
        by_target[v] = max(by_target.get(v, 0.0), d)
    big_m = fixed + sum(by_target.values()) + 1.0
    return MilpReference(graph, fleet, tuple(variables), cond, big_m,
                         graph.terminal_nodes)


def export_lp_reference(milp: MilpReference) -> str:
    """`allocation.export_lp` as it was: the whole CPLEX-LP text as one
    string, joined from a list of rows."""
    g = milp.graph
    taken: dict[str, str] = {}
    node_name = {nid: _lp_name(nid, taken) for nid in sorted(g.nodes)}
    var_name = {
        (u, v): f"X_{node_name[u]}__{node_name[v]}" for u, v in milp.variables
    }
    M = milp.big_m

    lines = ["\\ sparse adjacency assignment model", "Minimize"]
    obj = " + ".join(f"tF_{node_name[t]}" for t in milp.terminal_nodes)
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    row = 0

    def emit(expr: str):
        nonlocal row
        row += 1
        lines.append(f" c{row}: {expr}")

    # durations (fixed) and precedence over existing edges
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.duration is not None:
            emit(f"tF_{node_name[nid]} - t0_{node_name[nid]} >= {node.duration:.9g}")
        else:
            emit(f"tF_{node_name[nid]} - t0_{node_name[nid]} >= 0")
    for u, v in sorted(g.edges):
        emit(f"t0_{node_name[v]} - tF_{node_name[u]} >= 0")

    # degree rows over candidate variables
    in_vars: dict[str, list[tuple[str, str]]] = {}
    out_vars: dict[str, list[tuple[str, str]]] = {}
    for u, v in milp.variables:
        in_vars.setdefault(v, []).append((u, v))
        out_vars.setdefault(u, []).append((u, v))
    for v in sorted(in_vars):
        terms = " + ".join(var_name[e] for e in in_vars[v])
        emit(f"{terms} >= 1")
        emit(f"{terms} <= 1")
    for u in sorted(out_vars):
        terms = " + ".join(var_name[e] for e in out_vars[u])
        emit(f"{terms} <= 1")

    # big-M precedence and conditional durations for candidate edges:
    # t0_v - tF_u >= -M (1 - X)  and  tF_v - t0_v >= d (activated when X = 1)
    for u, v in milp.variables:
        x = var_name[(u, v)]
        emit(f"t0_{node_name[v]} - tF_{node_name[u]} - {M:.9g} {x} >= {-M:.9g}")
        d = milp.cond_duration[(u, v)]
        if d > 0:
            emit(f"tF_{node_name[v]} - t0_{node_name[v]} - {d:.9g} {x} >= 0")

    lines.append("Bounds")
    for nid in sorted(g.nodes):
        lines.append(f" t0_{node_name[nid]} >= 0")
        lines.append(f" tF_{node_name[nid]} >= 0")
    lines.append("Binary")
    for e in milp.variables:
        lines.append(f" {var_name[e]}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    """`agent_tangent_bug_step` testing one (center, radius) circle at a time."""
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
    """`agent_nominal_velocity` on the scalar tangent bug step."""
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


def agent_tangent_bug_step(pos, goal, obstacles, planning_radius: float, eps_b: float):
    """One evaluation of the switching controller for one agent, as
    `sim._tangent_bug` batches it. `obstacles` is a (centers (k, 2),
    radii (k,)) pair already inflated by the agent radius. Returns
    (waypoint, mode)."""
    pos = np.asarray(pos, float)
    goal = np.asarray(goal, float)
    centers, radii = obstacles
    ts = _ray_circle_hits(pos, goal, centers, radii)
    k = int(np.argmin(ts)) if len(ts) else None  # the first of equal minima
    if k is None or ts[k] == np.inf:
        return goal, "move_toward_waypoint"

    t, center, radius = ts[k], centers[k], radii[k]
    waypoint = pos + t * (goal - pos)
    d = _length(pos - center) - radius
    if abs(d) <= eps_b:
        return waypoint, "move_ccw_along_boundary"
    if d < -eps_b:
        off = pos - center
        norm = _length(off)
        if norm < 1e-12:
            heading = goal - pos
            hn = _length(heading)
            direction = heading / hn if hn > 1e-12 else np.array([1.0, 0.0])
        else:
            direction = off / norm
        return center + radius * direction, "exit_target"
    if d > planning_radius:
        return waypoint, "move_toward_waypoint"
    # right-hand tangent point of the target circle
    to_c = center - pos
    dist_c = _length(to_c)
    u = to_c / dist_c
    beta = math.asin(min(1.0, radius / dist_c))
    leg = math.sqrt(max(dist_c * dist_c - radius * radius, 0.0))
    cb, sb = math.cos(-beta), math.sin(-beta)
    tangent_dir = np.array([cb * u[0] - sb * u[1], sb * u[0] + cb * u[1]])
    tangent_pt = pos + leg * tangent_dir
    # the target circle, and any equal to it as np.allclose judges, does not block
    close = np.abs(centers - center) <= 1e-8 + 1e-5 * np.abs(center)
    same = close[:, 0] & close[:, 1] & (np.abs(radii - radius) < 1e-12)
    if np.any(~same & (_ray_circle_hits(pos, tangent_pt, centers, radii) != np.inf)):
        return waypoint, "move_toward_waypoint"
    return tangent_pt, "move_toward_right_hand_tangent_point"


def agent_nominal_velocity(pos, goal, obstacles, speed: float, dt: float,
                           planning_radius: float, eps_b: float):
    """The velocity toward `agent_tangent_bug_step`'s waypoint, or along the
    boundary it sits on. Returns (velocity, mode)."""
    waypoint, mode = agent_tangent_bug_step(pos, goal, obstacles, planning_radius, eps_b)
    pos = np.asarray(pos, float)
    if mode == "move_ccw_along_boundary":
        # target circle is the one whose boundary we sit on
        centers, radii = obstacles
        off = pos - centers
        center = centers[np.argmin(np.abs(np.sqrt(np.vecdot(off, off)) - radii))]
        n = pos - center
        nn = _length(n)
        n = n / nn if nn > 1e-12 else np.array([1.0, 0.0])
        direction = np.array([-n[1], n[0]])  # circle center stays on the left
        return direction * speed, mode
    delta = waypoint - pos
    dist = _length(delta)
    if dist < 1e-12:
        return np.zeros(2), mode
    return delta / dist * min(speed, dist / dt), mode


def agent_nominal(pos, goal, radius: float, speed: float, active: bool, own: int, centers,
                  circle_radii, dt: float, planning_radius: float, eps_b: float,
                  stop_range: float):
    """`sim.nominal_velocity` for one agent, one call per agent: sit and
    wait, leave out the agent's own open-phase circle (row `own`, or -1)
    when it is active and its goal lies inside, then
    `agent_nominal_velocity` around the other circles inflated by `radius`.
    Returns (velocity, mode), the mode "sit_and_wait" when it waits."""
    pos = np.asarray(pos, float)
    goal = np.asarray(goal, float)
    dist_goal = _length(goal - pos)
    if dist_goal < 1e-9:
        return np.zeros(2), "sit_and_wait"
    if not active and dist_goal <= stop_range:
        return np.zeros(2), "sit_and_wait"
    keep = slice(None)
    if active and own >= 0 and _length(goal - centers[own]) <= circle_radii[own]:
        keep = [r for r in range(len(circle_radii)) if r != own]
    obstacles = (centers[keep], circle_radii[keep] + radius)
    return agent_nominal_velocity(pos, goal, obstacles, speed, dt, planning_radius, eps_b)


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


def scalar_lp1(lines, idx, radius, opt):
    """`sim._lp1` as it was, which `sim._lp2_rows` inlines: clamp the result
    onto line idx while honoring lines [0, idx) and |v| <= radius."""
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


def scalar_lp2(lines, radius, opt):
    """`sim._lp2` scanning a list of (point, direction) lines one at a time."""
    norm = float(np.linalg.norm(opt))
    result = opt if norm <= radius else opt / norm * radius
    for i, (pt, d) in enumerate(lines):
        if d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0]) < -1e-12:
            r2 = scalar_lp1(lines, i, radius, opt)
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


def scalar_field_radius(p_j, r_j: float, actives, r_max: float, c: float) -> float:
    """Field radius of agent j given active agents' (position, radius)."""
    if not actives:
        return 0.0
    d_j = min(
        _length(np.asarray(p_j, float) - np.asarray(p_k, float)) - (r_k + r_j)
        for p_k, r_k in actives
    )
    if d_j <= 0:
        return r_max
    return min(r_max, c / d_j)


def scalar_dispersion(positions, radii, active, alpha, nominals, caps, r_max: float,
                      c: float, delta: float, a: float, b: float):
    """Field radii and preferred velocities as the simulator's agent loop
    made them: one `scalar_field_radius` per inactive agent, then one
    `dispersion_force` per (pushed agent, agent with a field) pair."""
    n = len(positions)
    actives = [(positions[k], radii[k]) for k in range(n) if active[k]]
    fields = [r_max if active[j]
              else scalar_field_radius(positions[j], radii[j], actives, r_max, c)
              for j in range(n)]
    prefs = []
    for i in range(n):
        if active[i] or alpha[i] == 0.0:
            prefs.append(nominals[i])
            continue
        forces = [
            dispersion_force(positions[i], positions[j], radii[i], radii[j], fields[j], delta)
            for j in range(n) if j != i and fields[j] > 0
        ]
        prefs.append(preferred_velocity(nominals[i], forces, a, b, caps[i]))
    return fields, prefs


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
        elif node.kind in ("LiftIntoPlace", "DepositCargo"):
            status[nid] = "active"
        else:
            continue
        changes.append((nid, status[nid]))
    return changes


def active_phase(world, a: str) -> int | None:
    """The open build phase of assembly `a`, or None, by the scan over its
    phases that the simulator ran for every assembly at every step before
    `World` kept `open_phase`: the first phase whose close is not complete,
    if its open is."""
    for k in world.graph.assembly_phases[a]:
        if world.status[node_id("CloseBuildStep", a, k)] != "complete":
            if world.status[node_id("OpenBuildStep", a, k)] == "complete":
                return k
            return None
    return None


def teams_scan(world) -> dict[str, list[tuple[str, str]]]:
    """`World.teams` by the pass over every robot that it ran at every call
    before the world kept it per epoch: payload -> [(robot, pickup)], in
    slot order."""
    teams: dict[str, list[tuple[str, str]]] = {}
    for rid in world.itineraries:
        pick = world.mission(rid)
        if pick is not None:
            teams.setdefault(world.graph.nodes[pick].subject, []).append((rid, pick))
    for team in teams.values():
        team.sort(key=lambda member: world.graph.nodes[member[1]].slot)
    return teams


def control_rows_loop(world, idx) -> dict:
    """The goals (n, 2), own circle rows, tasks, activity, priorities and
    priority shares of the agent rows `idx`, by the per-agent loop that
    `sim._control` ran at every step before the world kept them per epoch."""
    graph = world.graph
    phase_rows: dict[str, int] = {}
    for a, _ in sorted(world.open_phase.items()):
        phase_rows[a] = len(phase_rows)
    goals, own, tasks, active, alphas = [], [], [], [], []
    for r, p in zip(idx.tolist(), world.pos[idx]):
        aid = world.ids[r]
        is_unit = aid in world.unit_task
        if is_unit:
            task = world.unit_task[aid]
            task_kind, payload = graph.nodes[task].kind, graph.nodes[task].subject
        else:
            task = world.mission(aid)
            task_kind, payload = ("RobotGo", graph.nodes[task].subject) if task else ("", None)
        phase_active = cargo_ready = False
        if payload is not None:
            a_id, k = graph.payload_phase[payload]
            phase_active = world.open_phase.get(a_id) == k
        if task_kind == "TransportUnitGo":
            goal = graph.nodes[task].destination
            is_active = phase_active
        elif task_kind == "RobotGo":
            goal = graph.nodes[task].destination
            cargo_ready = world.status[graph.source[payload]] == "complete"
            is_active = phase_active and cargo_ready
        else:  # a unit forming or depositing, or a robot without a mission
            goal = p
            is_active = False
        goals.append(goal)
        own.append(phase_rows[a_id] if is_active else -1)
        tasks.append(task)
        active.append(is_active)
        alphas.append(alpha_value(is_unit, task_kind, phase_active, cargo_ready,
                                  world.cargo_id.get(payload, 0), world.max_cargo_id))
    alpha = np.array(alphas, float)
    pair_alpha = alpha[:, None] + alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = np.where(pair_alpha == 0, 0.5, alpha[:, None] / pair_alpha)
    np.fill_diagonal(shares, 0.0)
    return {"goals": np.array(goals, float).reshape(-1, 2), "own": np.array(own, int),
            "tasks": tasks, "active": np.array(active, bool), "alphas": alphas,
            "shares": shares}



def orca_pairs_scan(radii, caps, shares) -> dict:
    """What `sim.rvo_resolve` derived from its radii, caps and shares at
    every call before the epoch's pair table kept it, by a scan over the
    ordered pairs: the constrained (i, j) in row-major order, their shares,
    the combined radii as `_orca_lines` inflated them and their squares,
    the LP cull bound of each row, and each agent's first row."""
    n = len(radii)
    out = {k: [] for k in ("i", "j", "share", "comb_r", "comb_r_sq", "floor", "bounds")}
    for i in range(n):
        out["bounds"].append(len(out["i"]))
        for j in range(n):
            s = float(shares[i][j])
            if j == i or s <= 0.0:
                continue
            comb_r = (float(radii[i]) + float(radii[j])) * (1.0 + ORCA_SAFETY_FACTOR)
            out["i"].append(i)
            out["j"].append(j)
            out["share"].append(s)
            out["comb_r"].append(comb_r)
            out["comb_r_sq"].append(comb_r * comb_r)
            out["floor"].append(-float(caps[i]) - LP_MARGIN)
    out["bounds"].append(len(out["i"]))
    out["caps"] = [float(c) for c in caps]
    return out


def contact_reach_scan(radii, tol: float) -> list[float]:
    """r_i + r_j - tol of each pair i < j in row-major order, the bound that
    the penetration check compared each distance with at every step."""
    return [float(radii[i]) + float(radii[j]) - tol
            for i in range(len(radii)) for j in range(i + 1, len(radii))]


def form_candidates_scan(world) -> list[tuple[str, tuple]]:
    """(form node, team) of each payload, in order, whose form is pending,
    whose source is complete and whose team is full, from `teams_scan`."""
    graph, status = world.graph, world.status
    return [(form, tuple(team)) for p, team in sorted(teams_scan(world).items())
            if status[form := node_id("FormTransportUnit", p)] == "pending"
            and status[graph.source[p]] == "complete" and len(team) == graph.team_sizes[p]]


def form_units_loop(world) -> list[tuple[str, str]]:
    """The (node, new status) changes of one `sim._form_units` call, by the
    loop that ran before the array test: one scalar distance per member,
    each candidate tested after the earlier ones formed, on copies of the
    node states and the presence bits."""
    status, present = dict(world.status), world.present.copy()
    nodes, row = world.graph.nodes, world.row
    changes = []
    for form, team in form_candidates_scan(world):
        if status[form] != "pending" or any(
                not present[row[rid]]
                or _length(world.pos[row[rid]] - nodes[pick].destination) > world.arrival_tol
                for rid, pick in team):
            continue
        for rid, pick in team:
            status[pick] = "complete"
            present[row[rid]] = False
            changes.append((pick, "complete"))
        status[form] = "active"
        changes.append((form, "active"))
    return changes


def arrive_loop(world) -> list[str]:
    """The TransportUnitGo nodes that one `sim._arrive` call completes, in
    order, by the loop over the formed units that ran before the array
    test."""
    nodes = world.graph.nodes
    return [task for uid, task in sorted(world.unit_task.items())
            if nodes[task].kind == "TransportUnitGo"
            and _length(world.pos[world.row[uid]] - np.array(nodes[task].destination, float))
            <= world.arrival_tol]

# -- planning loops before their array scans ----------------------------------


def min_enclosing_circle_reference(points, seed: int = 0) -> Circle:
    """`geometry.min_enclosing_circle` testing one point at a time, as
    before it scanned for the next point outside."""
    pts = [np.array(p, float) for p in _as_points(points, 2)]
    rng = random.Random(seed)
    rng.shuffle(pts)

    c: Circle | None = None
    for i, p in enumerate(pts):
        if c is not None and _within(p - c.center, c.radius):
            continue
        c = Circle(p, 0.0)
        for j, q in enumerate(pts[: i + 1]):
            if _within(q - c.center, c.radius):
                continue
            c = _circle_two(p, q)
            for k in pts[: j + 1]:
                if _within(k - c.center, c.radius):
                    continue
                cc = _circumcircle(p, q, k)
                if cc is not None:
                    c = cc
    assert c is not None
    return c


def solve_radial_layout_reference(problem: RadialLayoutProblem) -> RadialLayoutResult:
    """`staging.solve_radial_layout` with a band search that always makes
    its 200 ternary passes, as before it stopped at the fixed point."""
    theta_hat = problem.desired_angles
    delta = problem.half_widths
    n = len(theta_hat)
    if not problem.is_feasible():
        return RadialLayoutResult(False, None, math.inf)
    if n == 1:
        return RadialLayoutResult(True, theta_hat.copy(), 0.0)

    sep = delta + np.roll(delta, -1)
    cum = np.concatenate([[0.0], np.cumsum(sep[:-1])])
    u_hat = theta_hat - cum
    gap = 2 * math.pi - float(sep.sum())

    u0 = _pava(u_hat)

    def cost(u: np.ndarray) -> float:
        return float(np.sum((u - u_hat) ** 2))

    if u0[-1] - u0[0] <= gap + 1e-15:
        u = u0
    else:
        def band_cost(t: float) -> float:
            return cost(np.clip(u0, t, t + gap))

        lo = float(u_hat.min()) - gap - 1.0
        hi = float(u_hat.max()) + 1.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if band_cost(m1) <= band_cost(m2):
                hi = m2
            else:
                lo = m1
        t = (lo + hi) / 2
        u = np.clip(u0, t, t + gap)

    theta = u + cum
    return RadialLayoutResult(True, theta, cost(u))


def close_starts_reference(positions, radius: float) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row-major order, of start positions
    closer than 2r, by the pair loop `RobotFleet` ran before its blocked
    array pass; None if there is none."""
    pos = np.asarray(positions, float).reshape(-1, 2)
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if np.linalg.norm(pos[i] - pos[j]) < 2 * radius - 1e-9:
                return i, j
    return None
