"""Deterministic fixed-timestep execution of a complete operating schedule.

`step` advances a `World` by one timestep: (1) complete timed tasks, empty
the ready queue, form units and complete their arrivals, all through
`World.start` and `World.complete`, (2) build the staging circles of the
open phases, (3) run the three-layer velocity controller (tangent bug ->
prioritized dispersion -> generalized reciprocal velocity obstacles) per
agent, (4) integrate and write the step's trace rows to the world's text
sink. Formed transport units replace their member robots as a single agent
until the cargo is deposited. A robot's itinerary, the pickups along its
assignment chain, is the only record of who carries what: a payload's team
is the robots whose current mission it is, and a stuck robot's hand-over of
its mission to a teammate is the `World.swap` transition.

Only the transitions `World.start`, `World.complete` and `World.swap` change
what an agent's goal, task, activity and priority, a payload's team or the
units that may form derive from, and each steps `World.epoch` first. So
these are built once per epoch (`World.per_epoch`), not once per step: on
tractor-15 at seed 0, the epoch changes in 187 of 4,210 steps. The controller
rows (`control_rows`) also hold the staging circles and L1's tables of them
(`circle_tables`: the radii inflated by each agent's, the circle each agent
ignores, and which centers np.allclose calls equal), the agents L2 pushes,
the (n, n) priority shares, L3's pair table (`orca_pairs`: the constrained
pairs, their shares, combined radii, LP cull bounds and flat indices, and
each agent's rows), the penetration bound of every pair and the `%`
template of the agents' trace rows; `_form_candidates` and `_arrivals` hold
the rows and destinations of the teams that may form and of the units on
their way. Each step fills in only the goals that are the agent's own
position, builds one pair geometry (`pair_geometry`) that L2 and L3 both
read, gathers the velocities of the pairs, formats the time and four floats
of each trace row, and tests every waiting team member and moving unit
against its destination in one array pass.

The step is array-backed. Ready nodes come off a queue in topological
order. The tangent bug (Kamon, Rivlin & Rimon, "TangentBug", 1998) is one
array pass per step over every agent: the sit-and-wait mask, the ray test of
every agent against every staging circle (its own open-phase circle masked
out when its goal lies inside), the four modes picked by masks over the
distance to the first circle hit, and one ray test of every agent in the
tangent mode toward its tangent point. Only `math.asin`, `math.cos` and
`math.sin` of the tangent angles run per element, as numpy's may round the
last bit differently from libm. The ORCA half-planes of every constrained
pair (van den Berg et al., "Reciprocal n-Body Collision Avoidance", 2011) and
the penetration test of every pair are each one array pass per step too. The
dispersion layer reads the center distances of the pair geometry: the field
radii are one masked minimum over them, and the forces of the pairs closer
than a proven bound beyond which the force is exactly zero (see CULL_MARGIN)
are one array pass, summed per agent in ascending order and blended with the
nominal velocities in another. Each element goes through the float
operations of the scalar formula it replaced (`dispersion_force`,
`preferred_velocity`, which stay as the reference), in the same order: a dot
product of 2-vectors is `np.vecdot`, which rounds as `a @ b` does (numpy's
BLAS may fuse the multiply-add, so `a[0] * b[0] + a[1] * b[1]` can differ), a
length is `sqrt(vecdot(v, v))`, as in `np.linalg.norm`, and Python's `min`
and `max` are `np.where` forms with the same tie rules. Branches are picked
by masks. The 2D LP (`_lp2_rows`) is a loop on Python floats over rows of
per-line dot products, which one array pass builds for the lines that can
bind (see LP_MARGIN); its least-violation fallback `_lp3` projects the
earlier lines onto a violated one in one array pass.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .model import PlanParams, RobotFleet
from .schedule import CHECKPOINT_KINDS, ScheduleGraph, node_id, topological_order
from .staging import StagingPlan
from .transport import TransportUnitConfig

ARRIVAL_TOL_FACTOR = 0.2  # slot / waypoint arrival tolerance, fraction of r
PENETRATION_TOL_FACTOR = 1e-3
ORCA_SAFETY_FACTOR = 0.01  # inflation of combined radii in avoidance constraints


def _length(v) -> float:
    """Length of a float vector: `float(np.linalg.norm(v))`, which numpy
    computes as the square root of `v @ v`, without its call overhead."""
    return math.sqrt(v @ v)


# -- level 1: modified tangent bug -------------------------------------------


def _ray_circle_hits(pos, goal, centers, radii) -> np.ndarray:
    """The earliest parameter t in [0, 1] where segment pos->goal enters
    each circle, or inf where it does not.

    `pos` and `goal` are (2,) or (n, 2), one segment per row; `radii` is (k,)
    or (n, k). Returns (k,) or (n, k)."""
    d = goal - pos
    a = np.vecdot(d, d)[..., None]
    f = pos[..., None, :] - centers
    b = 2.0 * np.vecdot(f, d[..., None, :])
    c = np.vecdot(f, f) - radii * radii
    disc = b * b - 4 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))  # disc <= 0 misses
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 misses
        t1 = (-b - sq) / (2 * a)
        t2 = (-b + sq) / (2 * a)
    hit = (a >= 1e-18) & (disc > 0) & (t2 > 1e-12) & (t1 <= 1.0)
    return np.where(hit, np.where(0.0 > t1, 0.0, t1), np.inf)


# the modes of the switching controller, as `_tangent_bug` numbers them
MOVE_TOWARD_WAYPOINT, MOVE_CCW_ALONG_BOUNDARY, EXIT_TARGET, MOVE_TOWARD_TANGENT_POINT = range(4)


def _tangent_bug(pos, goals, centers, radii, mine, same, planning_radius: float, eps_b: float):
    """One evaluation of the switching controller for every agent row.

    `pos` and `goals` are (m, 2); `radii` (m, k) are the circles at `centers`
    (k, 2) inflated by each agent's radius, `mine` (m, k) marks the circles
    an agent ignores and `same` is the (k, k) table of `circle_tables`.
    Returns the waypoints (m, 2) and modes (m,)."""
    m = len(pos)
    waypoints, modes = goals.copy(), np.full(m, MOVE_TOWARD_WAYPOINT)
    if not len(centers):
        return waypoints, modes
    hits = np.where(mine, np.inf, _ray_circle_hits(pos, goals, centers, radii))
    first = np.argmin(hits, axis=1)  # the first of equal minima
    t = hits[np.arange(m), first]
    b = np.flatnonzero(t != np.inf)
    if not len(b):
        return waypoints, modes
    p, k = pos[b], first[b]
    center, radius = centers[k], radii[b, k]
    waypoints[b] = p + t[b][:, None] * (goals[b] - p)
    off = p - center
    norm = np.sqrt(np.vecdot(off, off))
    d = norm - radius
    boundary = np.abs(d) <= eps_b
    modes[b[boundary]] = MOVE_CCW_ALONG_BOUNDARY
    inside = ~boundary & (d < -eps_b)
    if inside.any():  # leave radially, or along the heading from the center
        i = b[inside]
        heading = goals[i] - pos[i]
        hn = np.sqrt(np.vecdot(heading, heading))
        norm = norm[inside]
        with np.errstate(divide="ignore", invalid="ignore"):
            direction = np.where(
                (norm < 1e-12)[:, None],
                np.where((hn > 1e-12)[:, None], heading / hn[:, None], [1.0, 0.0]),
                off[inside] / norm[:, None])
        waypoints[i] = center[inside] + radius[inside][:, None] * direction
        modes[i] = EXIT_TARGET
    tangent = ~boundary & ~inside & ~(d > planning_radius)
    if tangent.any():
        rows = b[tangent]
        points, free = _tangent_points(pos[rows], center[tangent], radius[tangent], centers,
                                       radii[rows], mine[rows], same[k[tangent]])
        waypoints[rows[free]] = points[free]
        modes[rows[free]] = MOVE_TOWARD_TANGENT_POINT
    return waypoints, modes


def _tangent_points(pos, center, radius, centers, radii, mine, same):
    """The right-hand tangent points of the target circles (`center`,
    `radius`), and whether the way to each is free: no circle but the
    target, one equal to it or one in `mine` blocks it. `same` (m, k) marks
    the circles whose centers equal the target's, as np.allclose judges."""
    to_c = center - pos
    dist_c = np.sqrt(np.vecdot(to_c, to_c))
    u = to_c / dist_c[:, None]
    ratio = radius / dist_c
    # libm per element: numpy's asin, cos and sin may round differently
    beta = [math.asin(x) for x in np.where(ratio < 1.0, ratio, 1.0).tolist()]
    cb = np.array([math.cos(-x) for x in beta], float)
    sb = np.array([math.sin(-x) for x in beta], float)
    sq = dist_c * dist_c - radius * radius
    leg = np.sqrt(np.where(0.0 > sq, 0.0, sq))
    tangent_pt = pos + leg[:, None] * np.stack([cb * u[:, 0] - sb * u[:, 1],
                                                sb * u[:, 0] + cb * u[:, 1]], axis=1)
    # the target circle, and any equal to it, does not block
    same = same & (np.abs(radii - radius[:, None]) < 1e-12)
    crossed = _ray_circle_hits(pos, tangent_pt, centers, radii) != np.inf
    return tangent_pt, ~np.any(crossed & ~same & ~mine, axis=1)


def circle_tables(centers, circle_radii, radii, goals, own):
    """What L1 reads of the staging circles at `centers` (k, 2) with
    `circle_radii` (k,), for agents of `radii` toward `goals` (n, 2) with
    own circle rows `own` (n,) (see `nominal_velocity`); it holds while they
    do. Returns the (n, k) circle radii inflated by each agent's radius; the
    (n, k) mask of the circle each agent ignores, its own when its goal lies
    inside; and the (k, k) table whose [a, b] is True where circle b's
    center equals a's as np.allclose judges."""
    inflated = circle_radii + radii[:, None]
    mine = np.zeros(inflated.shape, bool)
    agent = np.flatnonzero(own >= 0)
    row = own[agent]
    gap = goals[agent] - centers[row]
    inside = np.sqrt(np.vecdot(gap, gap)) <= circle_radii[row]
    mine[agent[inside], row[inside]] = True
    close = np.abs(centers - centers[:, None]) <= 1e-8 + 1e-5 * np.abs(centers)[:, None]
    return inflated, mine, close[..., 0] & close[..., 1]


def nominal_velocity(pos, goals, caps, active, centers, inflated, mine, same, dt: float,
                     planning_radius: float, eps_b: float, stop_range: float) -> np.ndarray:
    """Level 1, the modified tangent bug: the nominal velocities (n, 2) of
    the agents at `pos` toward `goals` (n, 2) around the staging circles at
    `centers` (k, 2). `inflated`, `mine` and `same` are `circle_tables` of
    the circles and agents.

    An agent sits and waits at its goal, and while inactive within
    `stop_range` of it."""
    out = np.zeros((len(pos), 2))
    to_goal = goals - pos
    dist_goal = np.sqrt(np.vecdot(to_goal, to_goal))
    moving = np.flatnonzero(~((dist_goal < 1e-9) | (~active & (dist_goal <= stop_range))))
    if not len(moving):
        return out
    p, goal, cap = pos[moving], goals[moving], caps[moving]
    inflated, mine = inflated[moving], mine[moving]
    waypoints, modes = _tangent_bug(p, goal, centers, inflated, mine, same, planning_radius,
                                    eps_b)

    delta = waypoints - p
    dist = np.sqrt(np.vecdot(delta, delta))
    speed = dist / dt
    with np.errstate(divide="ignore", invalid="ignore"):
        vel = np.where((dist < 1e-12)[:, None], 0.0,
                       delta / dist[:, None] * np.where(speed < cap, speed, cap)[:, None])
    # along the boundary: counter-clockwise around the nearest boundary
    b = np.flatnonzero(modes == MOVE_CCW_ALONG_BOUNDARY)
    if len(b):
        off = p[b][:, None] - centers
        gaps = np.where(mine[b], np.inf, np.abs(np.sqrt(np.vecdot(off, off)) - inflated[b]))
        n = p[b] - centers[np.argmin(gaps, axis=1)]
        nn = np.sqrt(np.vecdot(n, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            n = np.where((nn > 1e-12)[:, None], n / nn[:, None], [1.0, 0.0])
        vel[b] = np.stack([-n[:, 1], n[:, 0]], axis=1) * cap[b][:, None]  # center on the left
    out[moving] = vel
    return out


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
    dist = _length(diff)
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


def field_radius(dist: np.ndarray, radii: np.ndarray, active: np.ndarray, r_max: float,
                 c: float) -> np.ndarray:
    """Field radius of every agent: r_max for an active agent; for the others
    0 without active agents, else r_max if one overlaps, else min(r_max, c / d)
    at the least clearance d to an active agent. `dist` is the (n, n) array of
    center distances, `radii` and `active` are (n,)."""
    if not active.any():
        return np.zeros(len(radii))
    gap = np.min(dist[:, active] - (radii[active] + radii[:, None]), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # gap <= 0 takes r_max
        fields = np.where(gap <= 0, r_max, np.minimum(r_max, c / gap))
    return np.where(active, r_max, fields)


def preferred_velocity(v_nominal, forces, a: float, b: float, v_cap: float) -> np.ndarray:
    v_hat = a * np.asarray(v_nominal, float) - b * sum(forces, np.zeros(2))
    norm = _length(v_hat)
    if norm < 1e-12:
        return np.zeros(2)
    return v_hat / norm * min(v_cap, norm)


# Slack, in meters, of the distance at and beyond which a pair exerts no
# dispersion force. Proof: let u = 2**-53, X = R_j + r_i + r_j exactly (all
# three >= 0) and s = fl(fl(R_j + r_i) + r_j), the cone bound as
# `dispersion_force` rounds it. A culled pair has
# dist >= fl(s + CULL_MARGIN) >= s, so no cone term. As fl(a + b) >=
# (a + b)(1 - u) for a, b >= 0, s >= X (1 - u)^2 and
# dist >= X (1 - u)^3 + CULL_MARGIN (1 - u), which is >= X whenever
# CULL_MARGIN >= 3 u X / (1 - u): 1e-6 m covers any X below 3e9 m. Then
# dist - R_j >= r_i + r_j exactly, rounding keeps fl(dist - R_j) >=
# fl(r_i + r_j), so gap >= fl(r_i + r_j) and 1 / gap - 1 / (r_i + r_j) <= 0:
# no barrier term either, and the force is 0.0 * u, a +-0 vector. Coincident
# points (dist < 1e-12) are never culled, as the bound is at least CULL_MARGIN.
CULL_MARGIN = 1e-6


def _dispersed_velocities(diff, dist, radii, fields, pushed, nominals, caps, delta: float,
                          a: float, b: float) -> np.ndarray:
    """Preferred velocities (n, 2): an agent in `pushed` blends its nominal
    velocity with the dispersion forces of the other agents, the others keep
    theirs. `diff` (n, n, 2) and `dist` (n, n) are p_i - p_j and its length.

    One array pass over the pairs closer than the cull bound (see
    CULL_MARGIN), each element through the float operations of
    `dispersion_force`, then of `preferred_velocity`. The forces are summed
    per agent from +0.0 in ascending j order, as `np.add.at` applies repeated
    indices in order. Skipping the other pairs changes no bit: each would add
    a +-0 vector to a sum that starts at +0.0 and, under round to nearest, is
    never -0.0."""
    k = np.flatnonzero(pushed)
    if not len(k):
        return nominals
    reach = fields + radii[:, None] + radii + CULL_MARGIN  # [i, j]: (R_j + r_i) + r_j + m
    near = pushed[:, None] & (fields > 0) & (dist < reach)
    np.fill_diagonal(near, False)
    i, j = np.nonzero(near)
    forces = np.zeros(nominals.shape)
    if len(i):
        length = dist[i, j]
        coincident = length < 1e-12  # a fixed unit direction, at distance delta
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(coincident[:, None], [1.0, 0.0], diff[i, j] / length[:, None])
        length = np.where(coincident, delta, length)
        big_r, r_i, r_j = fields[j], radii[i], radii[j]
        mag = np.where(length < big_r + r_i + r_j, -1.0, 0.0)  # cone term, unit slope
        gap = length - big_r
        gap = np.where(delta > gap, delta, gap)  # max(gap, delta)
        mag = np.where(1.0 / gap - 1.0 / (r_i + r_j) > 0, mag + -1.0 / (gap * gap),
                       mag)  # barrier term
        np.add.at(forces, i, mag[:, None] * u)

    v_hat = a * nominals[k] - b * forces[k]
    norm = np.sqrt(np.vecdot(v_hat, v_hat))
    cap = caps[k]
    prefs = nominals.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        prefs[k] = np.where((norm < 1e-12)[:, None], 0.0,
                            v_hat / norm[:, None] * np.where(norm < cap, norm, cap)[:, None])
    return prefs


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


def _orca_lines(rel_pos, dist_sq, v_i, v_j, comb_r, comb_r_sq, share, tau: float, dt: float):
    """Half-planes constraining each agent i against its j, one pair per row:
    `rel_pos` is p_j - p_i and `dist_sq` its `np.vecdot` with itself,
    `comb_r` the pair's inflated combined radius and `comb_r_sq` its square
    (see `orca_pairs`).

    Returns an (m, 2, 2) array of (point, direction) rows; feasible
    velocities lie to the left of each directed line. The arithmetic runs
    on columns, each element through the float operations of the scalar
    construction; only the dot products take (m, 2) rows."""
    rel_vel = v_i - v_j
    apart = dist_sq > comb_r_sq
    # apart: velocity obstacle truncated at horizon tau; overlapping: resolve
    # the overlap within one step
    horizon = np.where(apart, tau, dt)
    x, y = rel_pos[:, 0], rel_pos[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.empty_like(rel_pos)
        np.subtract(rel_vel[:, 0], x / horizon, out=w[:, 0])
        np.subtract(rel_vel[:, 1], y / horizon, out=w[:, 1])
        w_len_sq = np.vecdot(w, w)
        w_len = np.sqrt(w_len_sq)
        dot1 = np.vecdot(w, rel_pos)
        # apart and projecting on the cutoff circle, or overlapping
        on_circle = ~apart | ((dot1 < 0) & (dot1 * dot1 > comb_r_sq * w_len_sq))
        unit = ~apart & ~(w_len > 1e-12)  # an overlap with w = 0 pushes along +x
        ux = np.where(unit, 1.0, w[:, 0] / w_len)
        uy = np.where(unit, 0.0, w[:, 1] / w_len)
        scale = comb_r / horizon - w_len  # circle_u = scale * (ux, uy)

        # apart and projecting on a leg of the cone. The right leg is the
        # left leg's formula with -comb_r, negated: x * leg - y * -comb_r is
        # x * leg + y * comb_r, x * -comb_r is -x * comb_r, and -(a / d) is
        # (-a) / d, all exactly, so one formula gives each leg's bits.
        diff = dist_sq - comb_r_sq
        leg = np.sqrt(np.where(0.0 > diff, 0.0, diff))
        right = ~(x * w[:, 1] - y * w[:, 0] > 0)
        c = np.where(right, -comb_r, comb_r)
        lx = (x * leg - y * c) / dist_sq
        ly = (x * c + y * leg) / dist_sq
        leg_dir = np.empty_like(rel_pos)
        leg_dir[:, 0] = np.where(right, -lx, lx)
        leg_dir[:, 1] = np.where(right, -ly, ly)
        dot2 = np.vecdot(rel_vel, leg_dir)  # leg_u = dot2 * leg_dir - rel_vel

    # on the circle: (v_i + share * circle_u, (uy, -ux)); on a leg:
    # (v_i + share * leg_u, leg_dir)
    lines = np.empty((len(rel_pos), 2, 2))
    for k, (u, leg_k) in enumerate(((ux, leg_dir[:, 0]), (uy, leg_dir[:, 1]))):
        toward = np.where(on_circle, scale * u, dot2 * leg_k - rel_vel[:, k])
        np.add(v_i[:, k], share * toward, out=lines[:, 0, k])
    lines[:, 1, 0] = np.where(on_circle, uy, leg_dir[:, 0])
    lines[:, 1, 1] = np.where(on_circle, -ux, leg_dir[:, 1])
    return lines


# Slack, in m/s, between an agent's speed disc and the lines that
# `rvo_resolve` drops before `_lp2_rows`: a line (p, d) of an agent with cap
# c goes when X = d0 p1 - d1 p0 <= -c - LP_MARGIN, both sides as computed.
# Proof that no bit changes, with u = 2**-53, for the magnitudes of ORCA
# lines: |p| <= P = 1e3, 1e-2 <= c <= 1e3, and |d| = 1 within 8u.
# - Never violated. The violation test reads s(v) = d0 (v1 - p1) -
#   d1 (v0 - p0) = (d0 v1 - d1 v0) - X, and X exceeds its computed value
#   by at most 3uP, so exactly s(v) >= LP_MARGIN - 3e-7 = 7e-7 for every
#   |v| <= c + 2e-7. Each velocity the LP tests lies in that disc: the
#   cap-clamped start is at most 3uc longer than c; a point of a line at a
#   parameter within its computed chord [-dot - sq, -dot + sq] is at most
#   15u (P + c)**2 / c < 2e-7 longer, before its own rounding of
#   2u (P + c). The test rounds s by less than 5u (P + c) < 2e-12.
# - Never moves a bound. While the LP clamps onto a violated line k, the
#   dropped line's denom D and numer N satisfy N - t D = s(p_k + t d_k)
#   exactly, so N - t_right D >= 7e-7 at the current bound t_right, far
#   above the roundings of N and of t_right D (< 2e-12). So D_c >= 1e-12
#   gives N_c / D_c >= t_right, and `min` keeps t_right; likewise for
#   t_left when D_c <= -1e-12. With |D_c| < 1e-12, at the chord's middle
#   t = -dot, N_c >= 7e-7 - P (1e-12 + 3u) > 0, so it fails nothing.
# The LP thus takes the same steps and fails at the same line as on the
# full list. A line with a NaN is never dropped, as a comparison with NaN
# is false.
LP_MARGIN = 1e-6


def _lp_rows(pts, dirs, opt) -> list:
    """The LP's rows, one list (px, py, dx, dy, p . d, p . p, d . (opt - p))
    per line (p, d), in one array pass. `opt` is (2,) or one row per line."""
    return np.column_stack([pts, dirs, np.vecdot(pts, dirs), np.vecdot(pts, pts),
                            np.vecdot(dirs, opt - pts)]).tolist()


def _lp2_rows(rows, radius, result):
    """2D LP on the rows of `_lp_rows` from the start velocity `result`: the
    velocity closest to the rows' opt inside all half-planes and the disc of
    `radius`.

    Each violated line clamps the result onto itself within the earlier
    lines and the disc. Returns (len(rows), velocity), or the index of the
    first line that cannot be met with the velocity before it."""
    rx, ry = result
    for k, (px, py, dx, dy, dot, pp, dopt) in enumerate(rows):
        if not dx * (ry - py) - dy * (rx - px) < -1e-12:
            continue
        disc = dot * dot + radius * radius - pp
        if disc < 0:
            return k, (rx, ry)
        sq = math.sqrt(disc)
        t_left = -dot - sq
        t_right = -dot + sq
        for qx, qy, ex, ey, _, _, _ in rows[:k]:
            denom = dx * ey - dy * ex
            numer = ex * (py - qy) - ey * (px - qx)
            if abs(denom) < 1e-12:
                if numer < 0:
                    return k, (rx, ry)
                continue
            t = numer / denom
            if denom >= 0:
                t_right = min(t_right, t)
            else:
                t_left = max(t_left, t)
            if t_left > t_right:
                return k, (rx, ry)
        t = min(max(dopt, t_left), t_right)
        rx, ry = px + t * dx, py + t * dy
    return len(rows), (rx, ry)


def _lp2(lines, radius, opt):
    """`_lp2_rows` on (m, 2, 2) lines of (point, direction) rows, or a list
    of pairs, starting from opt clamped to the disc."""
    lines = np.asarray(lines, float).reshape(-1, 2, 2)
    norm = _length(opt)
    start = opt if norm <= radius else opt / norm * radius
    return _lp2_rows(_lp_rows(lines[:, 0], lines[:, 1], opt), radius, start.tolist())


def _lp3(lines, begin, radius, result):
    """Least-violation fallback when the half-plane intersection is empty.

    `lines` is (m, 2, 2); each pass projects all lines before the violated
    one onto it in one array pass."""
    pts, dirs = lines[:, 0], lines[:, 1]
    distance = 0.0
    for i in range(begin, len(lines)):
        pt, d = lines[i]
        if d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0]) < distance:
            p2, d2 = pts[:i], dirs[:i]
            denom = d[0] * d2[:, 1] - d[1] * d2[:, 0]
            parallel = np.abs(denom) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (d2[:, 0] * (pt[1] - p2[:, 1]) - d2[:, 1] * (pt[0] - p2[:, 0])) / denom
                p3 = np.where(parallel[:, None], 0.5 * (pt + p2), pt + t[:, None] * d)
                d3 = d2 - d
                n3 = np.sqrt(np.vecdot(d3, d3))
                proj = np.stack([p3, d3 / n3[:, None]], axis=1)
            # parallel lines that point the same way, and zero directions, go
            proj = proj[~(parallel & (np.vecdot(d2, d) > 0)) & ~(n3 < 1e-12)]
            _, result = _lp2(proj, radius, np.array([-d[1], d[0]]) * radius)
            distance = d[0] * (result[1] - pt[1]) - d[1] * (result[0] - pt[0])
    return result


def _read_only(*arrays):
    """Mark `arrays`, kept for an epoch, read-only: no step may write them."""
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class OrcaPairs:
    """What L3 reads of the agents apart from their positions, velocities
    and preferred velocities; only a transition changes it. One row per
    constrained pair (i, j), i != j with a share that is not <= 0, in
    row-major order. `orca_pairs` builds it, read-only."""

    i: np.ndarray  # (m,) the agent each row constrains
    j: np.ndarray  # (m,) the agent it avoids
    share: np.ndarray  # (m,) shares[i][j]
    comb_r: np.ndarray  # (m,) (r_i + r_j) * (1 + ORCA_SAFETY_FACTOR)
    comb_r_sq: np.ndarray  # (m,) comb_r * comb_r
    cap: np.ndarray  # (n,) the agents' speed caps
    floor: np.ndarray  # (m,) -cap[i] - LP_MARGIN: a line at or below it cannot bind
    flat: np.ndarray  # (m,) j * n + i: the row of p_j - p_i in `pair_geometry`, flattened
    bounds: list  # agent k's rows are bounds[k]:bounds[k + 1]
    caps: list  # cap, as Python floats for the LP loop


def orca_pairs(radii, caps, shares) -> OrcaPairs:
    """The L3 pair table of agents with `radii` and `caps` (n,) and the
    (n, n) priority `shares`."""
    r = np.asarray(radii, float)
    cap = np.array(caps, float)  # a copy: it is made read-only below
    n = len(r)
    s = np.asarray(shares, float).reshape(n, n)
    i, j = np.nonzero(~(s <= 0.0) & ~np.eye(n, dtype=bool))
    comb_r = (r[i] + r[j]) * (1.0 + ORCA_SAFETY_FACTOR)
    pairs = OrcaPairs(i, j, s[i, j], comb_r, comb_r * comb_r, cap, -cap[i] - LP_MARGIN,
                      j * n + i, np.searchsorted(i, np.arange(n + 1)).tolist(), cap.tolist())
    _read_only(i, j, pairs.share, comb_r, pairs.comb_r_sq, cap, pairs.floor, pairs.flat)
    return pairs


def pair_geometry(pos) -> tuple[np.ndarray, np.ndarray]:
    """The pair geometry of the agents at `pos` (n, 2): the (n, n, 2)
    differences pos[a] - pos[b] and their (n, n) `np.vecdot` with themselves,
    which L2 and L3 both read."""
    diff = pos[:, None] - pos
    return diff, np.vecdot(diff, diff)


def rvo_resolve(positions, radii, velocities, preferred, caps, shares,
                dt: float, tau: float, *, pairs: OrcaPairs | None = None,
                geometry: tuple | None = None) -> np.ndarray:
    """Command velocities (n, 2) for all agents.

    shares[i][j] is agent i's responsibility toward j (share 0 means no
    constraint from that pair on i). `pairs` is `orca_pairs(radii, caps,
    shares)`, which a caller resolving many steps of one epoch builds once,
    and `geometry` is `pair_geometry(positions)`, which a caller may share
    with L2; without them, they are built here. Each call builds the
    half-planes of all constrained pairs in one array pass, in row-major
    (i, j) order, and so the LP rows of the agents that need the LP, without
    the lines that cannot bind (see LP_MARGIN)."""
    if pairs is None:
        pairs = orca_pairs(radii, caps, shares)
    p = np.asarray(positions, float).reshape(-1, 2)
    n = len(p)
    diff, dist_sq = pair_geometry(p) if geometry is None else geometry
    v = np.asarray(velocities, float).reshape(n, 2)
    i, j, flat = pairs.i, pairs.j, pairs.flat
    # rows are gathered by `take`: the same copy as v[j], at a fraction of the
    # cost per call; diff[j, i] is p_j - p_i
    lines = _orca_lines(diff.reshape(-1, 2).take(flat, 0), dist_sq.reshape(-1).take(flat),
                        v.take(i, 0), v.take(j, 0), pairs.comb_r, pairs.comb_r_sq, pairs.share,
                        tau, dt)
    # _lp2's start, the preferred velocity clamped to the cap, for all agents;
    # an agent whose start violates none of its lines keeps it
    pref = np.asarray(preferred, float).reshape(n, 2)
    cap = pairs.cap
    speed = np.sqrt(np.vecdot(pref, pref))
    with np.errstate(divide="ignore", invalid="ignore"):
        commands = np.where((speed <= cap)[:, None], pref, pref / speed[:, None] * cap[:, None])
    pts, dirs = lines[:, 0], lines[:, 1]
    start = commands.take(i, 0)
    violated = (dirs[:, 0] * (start[:, 1] - pts[:, 1])
                - dirs[:, 1] * (start[:, 0] - pts[:, 0]) < -1e-12)
    busy = np.bincount(i[violated], minlength=n) > 0
    keep = np.flatnonzero(busy[i] & ~(dirs[:, 0] * pts[:, 1] - dirs[:, 1] * pts[:, 0]
                                      <= pairs.floor))
    binding = lines.take(keep, 0)
    rows = _lp_rows(binding[:, 0], binding[:, 1], pref.take(i[keep], 0))
    kept = np.searchsorted(i[keep], np.arange(n + 1)).tolist()
    starts, caps, bounds = commands.tolist(), pairs.caps, pairs.bounds
    for k in np.flatnonzero(busy).tolist():
        own = rows[kept[k]:kept[k + 1]]
        fail, cmd = _lp2_rows(own, caps[k], starts[k])
        if fail < len(own):  # _lp3 on all the agent's lines, from the failed one
            cmd = _lp3(lines[bounds[k]:bounds[k + 1]], int(keep[kept[k] + fail]) - bounds[k],
                       caps[k], cmd)
        commands[k] = cmd
    return commands


# -- world / trace -----------------------------------------------------------


@dataclass
class SimTrace:
    events: list  # dicts
    execution_makespan: float
    collision_count: int
    swap_count: int
    deadlocked: bool
    steps: int


def trace_template(ids: list, tasks: list, alpha: list) -> str:
    """The `%` template of one step's trace.csv lines, one per agent, with
    its id, task (None writes nothing) and priority `alpha` written in, each
    `%` of an id or task doubled; `trace_to_csv` fills in the rest."""
    return "".join(f"%.4f,{aid.replace('%', '%%')},%.6f,%.6f,%.6f,%.6f,"
                   f"{(task or '').replace('%', '%%')},{a:.4f}\n"
                   for aid, task, a in zip(ids, tasks, alpha))


def trace_to_csv(t: float, template: str, pos: np.ndarray, vel: np.ndarray) -> str:
    """The trace.csv lines of one step at time `t` from the `trace_template`
    of its agents, at positions `pos` and velocities `vel` (n, 2)."""
    values = np.empty((len(pos), 5))
    values[:, 0] = t
    values[:, 1:3] = pos
    values[:, 3:] = vel
    return template % tuple(values.ravel().tolist())


def events_to_jsonl(trace: SimTrace) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in trace.events)


def metrics_to_jsonable(trace: SimTrace, predicted_makespan: float) -> dict:
    return {
        "execution_makespan": trace.execution_makespan,
        "predicted_makespan": predicted_makespan,
        "collision_count": trace.collision_count,
        "swap_count": trace.swap_count,
        "deadlocked": trace.deadlocked,
        "steps": trace.steps,
    }


# -- the simulator -----------------------------------------------------------


def _robot_itineraries(graph: ScheduleGraph) -> dict[str, list[str]]:
    """Robot -> the pickup RobotGo ids along its assignment chain, in order."""
    _, succ = graph.adjacency()
    itineraries: dict[str, list[str]] = {}
    for nid in graph.robot_starts:
        picks: list[str] = []
        cur = nid
        while nxt := [s for s in succ[cur] if graph.nodes[s].kind == "RobotGo"
                      and graph.nodes[s].role == "pickup"]:
            picks.append(nxt[0])
            pick = graph.nodes[nxt[0]]
            cur = graph.dropoffs[pick.subject][pick.slot]
        itineraries[graph.nodes[nid].subject] = picks
    return itineraries


class World:
    """Everything the simulator advances from one step to the next: the
    schedule index and node states, the agent rows, the events so far, the
    clock and the counters. Each step's trace rows go to the text sink
    `trace_out` as CSV, whose header line is written on construction.

    There is one agent row per robot and one per payload's transport unit,
    in id order (`ids`, with `row` mapping an id to its row). `pos` and `vel`
    are (n, 2), `radius` and `cap` (n,) and fixed per row. `present` marks
    the rows that move: forming a unit clears its members' bits and sets the
    unit's, and the deposit reverses that. `open_phase` maps each assembly
    with an open build step to that step's phase. `itineraries` maps each
    robot to the pickup ids along its chain and `mission_idx` to the index
    of its current one; `teams` derives each payload's team from them. Only
    `start` and `complete` change node states, timers, unit tasks, open
    phases, presence and mission indices, and only `swap` the itineraries;
    `fire_checkpoints` takes off the queue what `complete` readies.

    `epoch` counts those transitions: each of the three steps it first, and
    a deposit once more after it has read the team and moved its missions on.
    What is derived from the state they write alone (the teams, the
    controller's rows, the units that may form) is built by `per_epoch` at
    most once per epoch and kept in `cache`."""

    def __init__(self, graph: ScheduleGraph, staging_plan: StagingPlan,
                 transport_configs: dict[str, TransportUnitConfig],
                 fleet: RobotFleet, params: PlanParams, trace_out: TextIO):
        self.graph = graph
        self.staging_plan = staging_plan
        self.fleet = fleet
        self.params = params
        self.dt = params.dt_sim
        self.arrival_tol = ARRIVAL_TOL_FACTOR * fleet.radius
        self.pen_tol = PENETRATION_TOL_FACTOR * fleet.radius  # also the L2 barrier clamp
        self.epoch = 0
        self.cache: dict = {}  # builder -> (epoch, what it built then)

        pred, self.succ = graph.adjacency()
        self.topo = topological_order(graph)
        self.status = {nid: "pending" for nid in graph.nodes}  # pending/active/complete
        self.remaining = {nid: len(pred[nid]) for nid in graph.nodes}
        self.timers: dict[str, float] = {}  # node -> end time
        self.complete_time: dict[str, float] = {}
        self.open_phase: dict[str, int] = {}  # assembly -> phase of its open build step

        # cargo ids from the topological rank of DepositCargo nodes
        deposit_order = [n for n in self.topo if graph.nodes[n].kind == "DepositCargo"]
        self.cargo_id = {graph.nodes[n].subject: i + 1 for i, n in enumerate(deposit_order)}
        self.max_cargo_id = len(deposit_order)

        self.itineraries = _robot_itineraries(graph)
        self.mission_idx = {rid: 0 for rid in self.itineraries}

        # ready queue, filled by `complete`: the pending nodes with no pending
        # predecessor that `fire_checkpoints` acts on, keyed by topological rank
        self.fire_rank = {
            nid: rank for rank, nid in enumerate(self.topo)
            if (node := graph.nodes[nid]).kind in CHECKPOINT_KINDS
            or node.kind in ("LiftIntoPlace", "DepositCargo")
            or (node.kind == "RobotGo" and node.role == "dropoff")}
        self.ready = [(rank, nid) for nid, rank in self.fire_rank.items()
                      if self.remaining[nid] == 0]
        heapq.heapify(self.ready)

        starts = {graph.nodes[nid].subject: graph.nodes[nid] for nid in graph.robot_starts}
        units = {f"unit:{p}": transport_configs[p] for p in graph.pickups}
        self.ids = sorted([*starts, *units])
        self.row = {aid: r for r, aid in enumerate(self.ids)}
        n = len(self.ids)
        self.pos, self.vel = np.zeros((n, 2)), np.zeros((n, 2))
        self.radius = np.array([units[a].bounding_circle.radius if a in units else fleet.radius
                                for a in self.ids], float)
        self.cap = np.array([units[a].speed_limit if a in units else fleet.v_max
                             for a in self.ids], float)
        self.present = np.zeros(n, bool)
        self.stuck_mark: dict[str, tuple[float, np.ndarray]] = {}
        for rid, start in starts.items():
            self.enter(rid, start.origin)
        self.unit_task: dict[str, str] = {}  # formed unit id -> its current node

        self.trace_out = trace_out
        trace_out.write("t,id,x,y,vx,vy,task,alpha\n")
        self.events: list[dict] = []
        self.t = 0.0
        self.steps = 0
        self.collision_count = 0
        self.swap_count = 0
        self.fire_checkpoints()

    def complete(self, nid: str):
        """Complete node `nid` and apply what follows: a build step opens or
        closes; a unit's task moves Form -> TransportUnitGo -> DepositCargo,
        and after the deposit the unit leaves and its robots enter at their
        dropoff slots with their next missions. Unit and lift tasks log
        `task_complete`; successors with no pending predecessor get ready."""
        self.epoch += 1
        self.status[nid] = "complete"
        self.complete_time[nid] = self.t
        self.timers.pop(nid, None)
        node = self.graph.nodes[nid]
        uid = f"unit:{node.subject}"
        if node.kind == "OpenBuildStep":
            self.open_phase[node.subject] = node.slot
        elif node.kind == "CloseBuildStep":
            self.open_phase.pop(node.subject, None)
        elif node.kind == "FormTransportUnit":
            self.unit_task[uid] = node_id("TransportUnitGo", node.subject)
            self.start(self.unit_task[uid])
        elif node.kind == "TransportUnitGo":
            self.unit_task[uid] = node_id("DepositCargo", node.subject)
        elif node.kind == "DepositCargo":
            del self.unit_task[uid]
            self.present[self.row[uid]] = False
            drops = self.graph.dropoffs[node.subject]
            for rid, pick in self.teams()[node.subject]:
                self.enter(rid, self.graph.nodes[drops[self.graph.nodes[pick].slot]].origin)
                self.mission_idx[rid] += 1
            self.epoch += 1  # the teams just built are stale: the missions moved on
        for s in self.succ[nid]:
            self.remaining[s] -= 1
            if self.remaining[s] == 0 and s in self.fire_rank:
                heapq.heappush(self.ready, (self.fire_rank[s], s))
        if node.kind not in CHECKPOINT_KINDS and node.kind != "RobotGo":
            self.events.append({"type": "task_complete", "node": nid, "t": round(self.t, 6)})

    def mission(self, rid: str) -> str | None:
        """The pickup of robot `rid`'s current mission, or None after its last."""
        picks = self.itineraries[rid]
        i = self.mission_idx[rid]
        return picks[i] if i < len(picks) else None

    def per_epoch(self, build):
        """`build(self)`, built at most once per epoch: between transitions
        nothing that a builder reads changes."""
        epoch, built = self.cache.get(build, (None, None))
        if epoch != self.epoch:
            built = build(self)
            self.cache[build] = (self.epoch, built)
        return built

    def teams(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Payload -> ((robot, pickup), ...) of the robots whose current
        mission is that payload, in slot order."""
        return self.per_epoch(_teams)

    def swap(self, aid: str, orid: str):
        """Exchange the current missions of robots `aid` and `orid`, two
        members of one team, drop `orid`'s stuck mark and log `swap`."""
        self.epoch += 1
        mine, theirs = self.itineraries[aid], self.itineraries[orid]
        i, j = self.mission_idx[aid], self.mission_idx[orid]
        mine[i], theirs[j] = theirs[j], mine[i]
        self.swap_count += 1
        self.events.append({"type": "swap", "agents": [aid, orid],
                            "payload": self.graph.nodes[mine[i]].subject, "t": round(self.t, 6)})
        self.stuck_mark.pop(orid, None)

    def start(self, nid: str):
        """Make node `nid` active. A TransportUnitGo runs until its unit
        arrives, any other node until its duration has passed. Starting a
        FormTransportUnit replaces the team's robots with the unit at its
        TransportUnitGo origin and logs `unit_formed`."""
        self.epoch += 1
        self.status[nid] = "active"
        node = self.graph.nodes[nid]
        if node.kind != "TransportUnitGo":
            self.timers[nid] = self.t + (node.duration or 0.0)
        if node.kind == "FormTransportUnit":
            uid = f"unit:{node.subject}"
            self.enter(uid, self.graph.nodes[node_id("TransportUnitGo", node.subject)].origin)
            self.unit_task[uid] = nid
            for rid, _ in self.teams()[node.subject]:
                self.present[self.row[rid]] = False
            self.events.append({"type": "unit_formed", "payload": node.subject,
                                "t": round(self.t, 6)})

    def enter(self, aid: str, position):
        """Make agent `aid` present, at rest at `position`, with no stuck mark."""
        r = self.row[aid]
        self.pos[r], self.vel[r], self.present[r] = position, 0.0, True
        self.stuck_mark.pop(aid, None)

    def fire_checkpoints(self) -> bool:
        """Complete or start every ready node; True once the terminal node
        is complete."""
        # in topological order, as a scan over all nodes would: completing a
        # node only readies its successors, which come later
        while self.ready:
            _, nid = heapq.heappop(self.ready)
            if self.graph.nodes[nid].kind in ("LiftIntoPlace", "DepositCargo"):
                self.start(nid)
            else:
                self.complete(nid)
        return self.status[self.graph.terminal_nodes[0]] == "complete"


def _teams(world: World) -> dict[str, tuple[tuple[str, str], ...]]:
    """`World.teams`, from one pass over the robots."""
    teams: dict[str, list[tuple[str, str]]] = {}
    for rid in world.itineraries:
        pick = world.mission(rid)
        if pick is not None:
            teams.setdefault(world.graph.nodes[pick].subject, []).append((rid, pick))
    return {payload: tuple(sorted(team, key=lambda member: world.graph.nodes[member[1]].slot))
            for payload, team in teams.items()}


def _finish_timers(world: World):
    """Complete form / deposit / lift nodes whose time is up."""
    for nid, end in sorted(world.timers.items()):
        if world.t + 1e-9 >= end:
            world.complete(nid)


def _form_candidates(world: World) -> tuple:
    """((form node, team), ...) of each payload, in order, whose form is
    pending, whose source is complete and whose team is full; the world rows
    of their members, candidate by candidate in slot order, with the (m, 2)
    destinations of the members' pickups; and the index of each candidate's
    first member among them."""
    graph, status = world.graph, world.status
    candidates, rows, destinations, firsts = [], [], [], []
    for payload, team in sorted(world.teams().items()):
        form = node_id("FormTransportUnit", payload)
        if (status[form] == "pending" and status[graph.source[payload]] == "complete"
                and len(team) == graph.team_sizes[payload]):
            candidates.append((form, team))
            firsts.append(len(rows))
            rows.extend(world.row[rid] for rid, _ in team)
            destinations.extend(graph.nodes[pick].destination for _, pick in team)
    arrays = (np.array(rows, int), np.array(destinations, float).reshape(-1, 2),
              np.array(firsts, int))
    _read_only(*arrays)
    return (tuple(candidates), *arrays)


def _form_units(world: World):
    """Form transport units whose robots are all in position: present and
    within the arrival tolerance of their pickups, one test for all the
    candidates' members. Only a candidate's own pickups and form change
    below and no agent moves, so each test holds until its turn."""
    candidates, rows, destinations, firsts = world.per_epoch(_form_candidates)
    if not candidates:
        return
    gap = world.pos[rows] - destinations
    there = world.present[rows] & ~(np.sqrt(np.vecdot(gap, gap)) > world.arrival_tol)
    for (form, team), ready in zip(candidates, np.logical_and.reduceat(there, firsts).tolist()):
        if ready:  # the source and every pickup are then complete, so the form is ready
            for _, pick in team:
                world.complete(pick)
            world.start(form)


def _arrivals(world: World) -> tuple:
    """The TransportUnitGo tasks of the formed units, in unit id order, with
    the units' world rows and the (m, 2) task destinations."""
    nodes = world.graph.nodes
    going = [(uid, task) for uid, task in sorted(world.unit_task.items())
             if nodes[task].kind == "TransportUnitGo"]
    arrays = (np.array([world.row[uid] for uid, _ in going], int),
              np.array([nodes[task].destination for _, task in going], float).reshape(-1, 2))
    _read_only(*arrays)
    return ([task for _, task in going], *arrays)


def _arrive(world: World):
    """Complete the TransportUnitGo of every unit at its destination, one
    test for all the units; a completion changes no other unit's task."""
    tasks, rows, destinations = world.per_epoch(_arrivals)
    if tasks:
        gap = world.pos[rows] - destinations
        for task, there in zip(tasks, (np.sqrt(np.vecdot(gap, gap))
                                       <= world.arrival_tol).tolist()):
            if there:
                world.complete(task)
    world.fire_checkpoints()


@dataclass(frozen=True)
class ControlRows:
    """What the controller and the penetration check read of the present
    agents, apart from their positions and velocities: one row per agent,
    in row order, the staging circles and the pair tables. Only a transition
    changes it, so `control_rows` builds it once per epoch."""

    idx: np.ndarray  # the agents' world rows
    ids: list
    goals: np.ndarray  # (n, 2); the rows `at_pos` are the agent's position each step
    at_pos: np.ndarray  # a unit forming or depositing, or a robot without a mission
    active: np.ndarray
    pushed: np.ndarray  # inactive with a nonzero priority: L2 blends in its forces
    shares: np.ndarray  # (n, n), rvo_resolve's responsibilities
    centers: np.ndarray  # (k, 2), the staging circles of the open phases
    inflated: np.ndarray  # (n, k), mine (n, k) and same (k, k): their `circle_tables`
    mine: np.ndarray
    same: np.ndarray
    rad: np.ndarray
    cap: np.ndarray
    robots: list  # (world row, id) of each robot, for `_swap_stuck`
    pairs: OrcaPairs  # L3's constrained pairs
    reach: np.ndarray  # per pair i < j of `_pairs(n)`, the distance below which it penetrates
    trace: str  # the agents' `trace_template`


def control_rows(world: World) -> ControlRows:
    """The controller rows of the present agents. A robot's row follows its
    current mission, a unit's its task; an agent is active while its phase
    is open and, for a robot, its cargo is ready."""
    graph = world.graph
    # staging circles of open phases, one row per assembly
    phase_rows: dict[str, int] = {}  # assembly -> its row
    centers, radii = [], []
    for a, k in sorted(world.open_phase.items()):
        center, radius = world.staging_plan.staging_circle(a, k)
        phase_rows[a] = len(radii)
        centers.append(center)
        radii.append(radius)

    idx = np.flatnonzero(world.present)
    ids = [world.ids[r] for r in idx.tolist()]
    goals, at_pos, own, tasks, active, alphas, robots = [], [], [], [], [], [], []
    for i, (r, aid) in enumerate(zip(idx.tolist(), ids)):
        is_unit = aid in world.unit_task
        if is_unit:
            task = world.unit_task[aid]
            task_kind, payload = graph.nodes[task].kind, graph.nodes[task].subject
        else:
            robots.append((r, aid))
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
        else:  # the goal is the agent's position, filled in each step
            goal = (math.nan, math.nan)
            at_pos.append(i)
            is_active = False
        goals.append(goal)
        # an active agent's own phase is open: it may enter that circle
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
    rad, cap = world.radius[idx], world.cap[idx]
    goals = np.array(goals, float).reshape(-1, 2)
    active = np.array(active, bool)
    centers = np.array(centers, float).reshape(-1, 2)
    rows = ControlRows(
        idx, ids, goals, np.array(at_pos, int), active, ~active & (alpha != 0.0), shares,
        centers, *circle_tables(centers, np.array(radii, float), rad, goals, np.array(own, int)),
        rad, cap, robots, orca_pairs(rad, cap, shares), _contact_reach(rad, world.pen_tol),
        trace_template(ids, tasks, alphas))
    _read_only(*(value for value in vars(rows).values() if isinstance(value, np.ndarray)))
    return rows


def _control(world: World, rows: ControlRows) -> np.ndarray:
    """Command velocities (n, 2) of the agents of `rows` from the three-layer
    controller."""
    params = world.params
    pos = world.pos[rows.idx]
    goals = rows.goals.copy()
    goals[rows.at_pos] = pos[rows.at_pos]
    nominals = nominal_velocity(
        pos, goals, rows.cap, rows.active, rows.centers, rows.inflated, rows.mine, rows.same,
        world.dt, params.planning_radius, params.boundary_tol,
        params.stop_range_factor * world.fleet.radius)

    # levels 2 and 3 read one pair geometry; each center distance is the
    # float _length gives
    geometry = diff, dist_sq = pair_geometry(pos)
    dist = np.sqrt(dist_sq)
    fields = field_radius(dist, rows.rad, rows.active, params.dispersion_r_max,
                          params.dispersion_c)
    prefs = _dispersed_velocities(diff, dist, rows.rad, fields, rows.pushed, nominals, rows.cap,
                                  world.pen_tol, params.blend_a, params.blend_b)
    return rvo_resolve(pos, rows.rad, world.vel[rows.idx], prefs, rows.cap, rows.shares,
                       world.dt, params.rvo_horizon, pairs=rows.pairs, geometry=geometry)


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n agents, in row-major order."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _contact_reach(radii: np.ndarray, tol: float) -> np.ndarray:
    """r_i + r_j - tol of each pair i < j of `_pairs`: the center distance
    below which the two agents overlap by more than `tol`."""
    i, j = _pairs(len(radii))
    return radii[i] + radii[j] - tol


def _penetrations(positions: np.ndarray, reach: np.ndarray):
    """Index pairs i < j, in row-major order, of the agents closer than
    their `_contact_reach`; all pairs are compared in one array pass."""
    i, j = _pairs(len(positions))
    diff = positions.take(i, 0) - positions.take(j, 0)
    hit = np.sqrt(np.vecdot(diff, diff)) < reach
    return list(zip(i[hit].tolist(), j[hit].tolist()))


def _integrate(world: World, rows: ControlRows, vel: np.ndarray):
    """Move the agents of `rows` at the command velocities `vel` (n, 2),
    trace them and count penetrating pairs."""
    pos = world.pos[rows.idx] + vel * world.dt
    world.pos[rows.idx], world.vel[rows.idx] = pos, vel
    ids = rows.ids
    world.trace_out.write(trace_to_csv(world.t, rows.trace, pos, vel))
    for i, j in _penetrations(pos, rows.reach):
        world.collision_count += 1
        world.events.append({"type": "penetration", "agents": [ids[i], ids[j]],
                             "t": round(world.t, 6)})


def _swap_stuck(world: World, rows: ControlRows):
    """Hand a stuck robot's mission to the present teammate closest to its
    pickup, if that one is closer."""
    params, t, row, pos = world.params, world.t, world.row, world.pos
    for r, aid in rows.robots:
        pick = world.mission(aid)  # a swap earlier in this loop may have changed it
        if pick is None:
            world.stuck_mark.pop(aid, None)
            continue
        mark = world.stuck_mark.get(aid)
        if mark is None:
            world.stuck_mark[aid] = (t, pos[r].copy())
            continue
        t0, p0 = mark
        if t - t0 < params.stuck_time:
            continue
        moved = _length(pos[r] - p0)
        world.stuck_mark[aid] = (t, pos[r].copy())
        if moved >= params.stuck_speed_factor * world.fleet.v_max * params.stuck_time:
            continue
        node = world.graph.nodes[pick]
        my_dist = _length(pos[r] - node.destination)
        best = None
        for orid, _ in world.teams()[node.subject]:
            if orid == aid or not world.present[row[orid]]:
                continue
            o_dist = _length(pos[row[orid]] - node.destination)
            if o_dist < my_dist and (best is None or o_dist < best[0]):
                best = (o_dist, orid)
        if best is not None:
            world.swap(aid, best[1])


def step(world: World) -> bool:
    """Advance `world` by one timestep. Returns True, having advanced
    nothing, once the terminal node is complete."""
    _finish_timers(world)
    if world.fire_checkpoints():
        return True
    _form_units(world)
    _arrive(world)
    rows = world.per_epoch(control_rows)
    _integrate(world, rows, _control(world, rows))
    _swap_stuck(world, rows)
    world.t += world.dt
    world.steps += 1
    return False


def simulate(
    graph: ScheduleGraph,
    staging_plan: StagingPlan,
    transport_configs: dict[str, TransportUnitConfig],
    fleet: RobotFleet,
    params: PlanParams,
    trace_out: TextIO,
    max_steps: int = 20_000,
) -> SimTrace:
    """Run `step` until the schedule completes or `max_steps` have passed,
    writing the trace to `trace_out`."""
    world = World(graph, staging_plan, transport_configs, fleet, params, trace_out)
    finished = False
    while not finished and world.steps < max_steps:
        finished = step(world)
    makespan = world.t if finished else float("inf")
    return SimTrace(world.events, makespan, world.collision_count,
                    world.swap_count, not finished, world.steps)
