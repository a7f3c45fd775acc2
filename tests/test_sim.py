import gc
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from assemblyforge import sim

from . import oracles


R = 0.25
EPS = 0.02
PLAN_R = 2.0
NO_CIRCLES = (np.zeros((0, 2)), np.zeros(0))
UNIT_AT_5 = (np.array([[5.0, 0.0]]), np.array([1.0]))  # center (5, 0), radius 1
MODES = {"move_toward_waypoint": sim.MOVE_TOWARD_WAYPOINT,
         "move_ccw_along_boundary": sim.MOVE_CCW_ALONG_BOUNDARY,
         "exit_target": sim.EXIT_TARGET,
         "move_toward_right_hand_tangent_point": sim.MOVE_TOWARD_TANGENT_POINT}


def _tables(goal, circles):
    """`sim.circle_tables` of one agent of radius 0 toward `goal` without an
    own circle, so the circles are not inflated and it ignores none."""
    centers, radii = circles
    return sim.circle_tables(centers, radii, np.zeros(1), np.array([goal], float), np.full(1, -1))


def _tangent_bug_step(pos, goal, circles):
    """`sim._tangent_bug` on one agent that ignores no circle: (waypoint, mode)."""
    wp, modes = sim._tangent_bug(np.array([pos], float), np.array([goal], float), circles[0],
                                 *_tables(goal, circles), PLAN_R, EPS)
    return wp[0], {code: name for name, code in MODES.items()}[int(modes[0])]


def _nominal_velocity(pos, goal, circles, speed, dt):
    """`sim.nominal_velocity` on one active agent of radius 0 without an own
    circle, so the circles are not inflated and only the goal stops it."""
    v = sim.nominal_velocity(np.array([pos], float), np.array([goal], float),
                             np.array([speed]), np.ones(1, bool), circles[0],
                             *_tables(goal, circles), dt, PLAN_R, EPS, 0.0)
    return v[0]


class TestTangentBug:
    def test_free_path_goes_to_goal(self):
        wp, mode = _tangent_bug_step([0, 0], [10, 0], NO_CIRCLES)
        assert mode == "move_toward_waypoint"
        assert np.allclose(wp, [10, 0])

    def test_distant_obstacle_keeps_waypoint_mode(self):
        wp, mode = _tangent_bug_step([0, 0], [10, 0], UNIT_AT_5)
        assert mode == "move_toward_waypoint"
        assert wp[0] == pytest.approx(4.0, abs=1e-9)  # circle entry point

    def test_near_obstacle_switches_to_tangent(self):
        wp, mode = _tangent_bug_step([3.5, 0], [10, 0], UNIT_AT_5)
        assert mode == "move_toward_right_hand_tangent_point"
        assert wp[1] < 0  # right-hand side

    def test_on_boundary_follows_ccw(self):
        _, mode = _tangent_bug_step([4.0, 0], [10, 0], UNIT_AT_5)
        assert mode == "move_ccw_along_boundary"

    def test_inside_obstacle_exits_radially(self):
        wp, mode = _tangent_bug_step([4.5, 0], [10, 0], UNIT_AT_5)
        assert mode == "exit_target"
        assert np.allclose(wp, [4.0, 0.0])

    def test_blocked_tangent_falls_back_to_waypoint(self):
        obstacles = (np.array([[5.0, 0.0], [3.6, -0.6]]), np.array([1.0, 0.5]))
        _, mode = _tangent_bug_step([2.5, 0], [10, 0], obstacles)
        assert mode == "move_toward_waypoint"


class TestNominalVelocity:
    def test_no_overshoot_near_goal(self):
        v = _nominal_velocity([0, 0], [0.01, 0], NO_CIRCLES, 1.0, 0.05)
        assert np.linalg.norm(v) == pytest.approx(0.2)

    def test_zero_at_goal(self):
        v = _nominal_velocity([1, 1], [1, 1], NO_CIRCLES, 1.0, 0.05)
        assert np.allclose(v, 0)

    def test_ccw_velocity_is_tangential(self):
        v = _nominal_velocity([4.0, 0], [10, 0], UNIT_AT_5, 1.0, 0.05)
        _, mode = _tangent_bug_step([4.0, 0], [10, 0], UNIT_AT_5)
        assert mode == "move_ccw_along_boundary"
        assert np.allclose(v, [0, -1])  # circle center stays on the left


class TestDispersion:
    def test_zero_outside_field(self):
        f = sim.dispersion_force([10, 0], [0, 0], R, R, 1.0, 1e-4)
        assert np.allclose(f, 0)

    def test_matches_finite_difference(self):
        p_i, p_j = np.array([1.3, 0.4]), np.array([0.0, 0.0])
        big_r = 1.0
        h = 1e-7
        f = sim.dispersion_force(p_i, p_j, R, R, big_r, 1e-6)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (oracles.dispersion_potential(p_i + e, p_j, R, R, big_r)
                  - oracles.dispersion_potential(p_i - e, p_j, R, R, big_r)) / (2 * h)
            assert f[k] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_coincident_points_deterministic(self):
        f1 = sim.dispersion_force([0, 0], [0, 0], R, R, 1.0, 1e-3)
        f2 = sim.dispersion_force([0, 0], [0, 0], R, R, 1.0, 1e-3)
        assert np.array_equal(f1, f2)
        assert f1[1] == 0.0  # fixed unit direction along x

    def test_field_radius(self):
        def field(active_at):
            """Field radius of an inactive agent at the origin, with one
            active agent at `active_at` or none."""
            pos = np.array([[0.0, 0.0]] + ([active_at] if active_at else []))
            active = np.arange(len(pos)) > 0
            fields = sim.field_radius(_distances(pos), np.full(len(pos), R), active,
                                      0.625, 0.25)
            return fields[0]

        assert field(None) == 0.0
        # overlapping active agent forces the max field
        assert field([0.1, 0.0]) == 0.625
        d = 10.0 - 2 * R
        assert field([10.0, 0.0]) == pytest.approx(min(0.625, 0.25 / d))

    def test_preferred_velocity_cap(self):
        v = sim.preferred_velocity([10.0, 0.0], [], 1.0, 1.0, 0.7)
        assert np.linalg.norm(v) == pytest.approx(0.7)
        assert np.allclose(sim.preferred_velocity([0, 0], [], 1, 1, 1), 0)


class TestAlpha:
    def test_priority_table(self):
        assert sim.alpha_value(True, "FormTransportUnit", True, True, 3, 8) == 0.0
        assert sim.alpha_value(True, "DepositCargo", False, True, 3, 8) == 0.0
        assert sim.alpha_value(True, "TransportUnitGo", True, True, 3, 8) == \
            pytest.approx(3 / 80)
        assert sim.alpha_value(True, "TransportUnitGo", False, True, 3, 8) == 1.0
        assert sim.alpha_value(False, "RobotGo", True, True, 1, 8) == 0.1
        assert sim.alpha_value(False, "RobotGo", True, False, 1, 8) == 0.5
        assert sim.alpha_value(False, "RobotGo", False, True, 1, 8) == 1.0
        assert sim.alpha_value(True, "TransportUnitGo", True, True, 0, 0) == 0.0


class TestRvoResolve:
    def test_unconstrained_agents_get_preferred(self):
        positions = [np.array([0.0, 0.0]), np.array([50.0, 0.0])]
        prefs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        cmds = sim.rvo_resolve(positions, [R, R],
                               [np.zeros(2), np.zeros(2)], prefs,
                               [1.0, 1.0], [[0, 0], [0, 0]], 0.05, 2.0)
        assert np.allclose(cmds[0], prefs[0])
        assert np.allclose(cmds[1], prefs[1])

    def test_head_on_deviates_within_cap(self):
        positions = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
        vels = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        prefs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        shares = [[0, 0.5], [0.5, 0]]
        cmds = sim.rvo_resolve(positions, [R, R], vels, prefs,
                               [1.0, 1.0], shares, 0.05, 2.0)
        for cmd, pref in zip(cmds, prefs):
            assert np.all(np.isfinite(cmd))
            assert np.linalg.norm(cmd) <= 1.0 + 1e-9
            assert not np.allclose(cmd, pref)  # constraint forced a deviation


@pytest.fixture(scope="module")
def toy_run(pipeline, toy_spec, params):
    data = pipeline(toy_spec, "toy", 2)

    def run(**kw):
        """The trace of a toy run and the trace.csv text it wrote."""
        sink = io.StringIO()
        trace = sim.simulate(data["greedy"].graph, data["plan"], data["configs"],
                             data["fleet"], params, sink, **kw)
        return trace, sink.getvalue()

    return data, run


class TestSimulate:
    def test_completes_without_collisions(self, toy_run):
        data, run = toy_run
        trace, _ = run()
        assert not trace.deadlocked
        assert trace.collision_count == 0
        assert trace.execution_makespan >= data["greedy"].makespan

    def test_deterministic(self, toy_run):
        _, run = toy_run
        (a, a_csv), (b, b_csv) = run(), run()
        assert a_csv == b_csv
        assert sim.events_to_jsonl(a) == sim.events_to_jsonl(b)

    def test_step_budget_reports_deadlock(self, toy_run):
        _, run = toy_run
        trace, _ = run(max_steps=10)
        assert trace.deadlocked
        assert trace.execution_makespan == math.inf
        assert trace.steps == 10

    def test_trace_and_metrics_formats(self, toy_run):
        data, run = toy_run
        trace, csv = run()
        assert csv.splitlines()[0] == "t,id,x,y,vx,vy,task,alpha"
        metrics = sim.metrics_to_jsonable(trace, data["greedy"].makespan)
        assert set(metrics) == {"execution_makespan", "collision_count",
                                "swap_count", "deadlocked", "steps",
                                "predicted_makespan"}

    def test_step_by_hand_matches_simulate(self, toy_run, params):
        data, run = toy_run
        n = 120
        sink = io.StringIO()
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params, sink)
        assert not any(sim.step(world) for _ in range(n))
        trace, csv = run(max_steps=n)
        assert world.steps == trace.steps == n
        assert world.t == pytest.approx(n * params.dt_sim)
        assert sink.getvalue() == csv
        assert world.events == trace.events

    def test_step_after_finish_advances_nothing(self, toy_run, params):
        data, run = toy_run
        sink = io.StringIO()
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params, sink)
        while not sim.step(world):
            pass
        trace, _ = run()
        assert world.steps == trace.steps
        assert world.t == trace.execution_makespan
        csv, events, t = sink.getvalue(), list(world.events), world.t
        assert sim.step(world) and sim.step(world)
        assert (sink.getvalue(), world.events, world.t, world.steps) == \
            (csv, events, t, trace.steps)
        assert world.status[world.graph.terminal_nodes[0]] == "complete"

    def test_trace_streams(self, pipeline, tractor_spec, params):
        """Memory does not grow with the trace: simulated into os.devnull, a
        longer run's traced peak grows by far less than the trace text it
        adds. Tractor with 5 robots writes about 450 B of text per step; toy
        writes too little to stand out from CPython's free lists, which
        also fill step by step."""
        data = pipeline(tractor_spec, "tractor", 5)

        def run(sink, cap):
            return sim.simulate(data["greedy"].graph, data["plan"], data["configs"],
                                data["fleet"], params, sink, max_steps=cap)

        caps = (100, 600)
        texts, peaks = [], []
        for cap in caps:
            sink = io.StringIO()
            run(sink, cap)
            texts.append(len(sink.getvalue()))
        tracemalloc.start()
        try:
            for cap in caps:
                with open(os.devnull, "w", encoding="utf-8") as sink:
                    gc.collect()  # empties the free lists that a run refills
                    tracemalloc.reset_peak()
                    assert run(sink, cap).steps == cap
                    peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < (texts[1] - texts[0]) / 4, (peaks, texts)


# -- array kernels against the scalar loops they replaced ---------------------


def _same_bits(a, b) -> bool:
    """Equal shapes and equal float bits (so 0.0 != -0.0)."""
    a = np.ascontiguousarray(a, float)
    b = np.ascontiguousarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


DT, TAU = 0.05, 2.0


def _distances(pos):
    """Center distances as `sim._control` computes them."""
    return np.sqrt(sim.pair_geometry(pos)[1])


def _near_bound(p_j, bound, ulps):
    """Points on the horizontal through p_j whose distances to p_j, as
    `_distances` computes them, are the floats around `bound`: x steps
    through the `ulps` floats on either side of p_j[0] + bound."""
    x = p_j[0] + bound
    xs = [x]
    for _ in range(ulps):
        xs = [np.nextafter(xs[0], -np.inf)] + xs + [np.nextafter(xs[-1], np.inf)]
    return [np.array([x, p_j[1]]) for x in xs]


def _dispersion_scene(rng, scene, params):
    """Agents (positions, radii, active, alpha, nominals, caps) for one scene:
    n from 2 to 60, some scenes without active agents, some with coincident
    agents, some with signed zeros in the nominal velocities, and some with
    inactive agents moved to within a few ulps of a pair's cull bound or cone
    bound, on both sides of it."""
    n = int(rng.integers(2, 61))
    box = 0.5 + 0.25 * n * rng.uniform(0.3, 1.5)
    pos = rng.uniform(-box, box, (n, 2))
    rad = rng.choice([0.25, 0.25, 0.4, 0.9], n)
    active = rng.random(n) < (0.0 if scene % 10 == 0 else 0.3)
    alpha = rng.choice([0.0, 0.1, 0.5, 1.0, 0.03], n)
    nominals = list(rng.normal(size=(n, 2)))
    caps = list(rng.uniform(0.3, 1.5, n))
    if scene % 5 == 1:
        pos[1] = pos[0]  # coincident agents
    if scene % 4 == 3:  # signed zeros in the nominals, which the blend must keep
        for i in range(0, n, 3):
            nominals[i][i % 2] = -0.0 if i % 4 else 0.0
    if scene % 3 == 2:
        fields = sim.field_radius(_distances(pos), rad, active, params.dispersion_r_max,
                                  params.dispersion_c)
        movers = [i for i in range(n) if not active[i] and alpha[i] != 0.0]
        sources = [j for j in range(n) if fields[j] > 0 and j not in movers[:7]]
        if movers and sources:
            # an inactive agent's move changes no field radius but its own
            j = sources[0]
            for k, i in enumerate(movers[:7]):
                bound = fields[j] + rad[i] + rad[j]
                if scene % 2:
                    bound = bound + sim.CULL_MARGIN
                points = _near_bound(pos[j], bound, 3)
                pos[i] = points[k % len(points)]
    return pos, rad, active, alpha, nominals, caps



def _rotated(x, y, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * x - s * y, s * x + c * y])


def _l1_scene(rng, scene):
    """Agents and staging circles for one call of `sim.nominal_velocity`.

    Returns (pos, goals, radii, caps, active, own, centers, circle_radii,
    eps_b, stop_range, tags). Some scenes have no circles, some a duplicate
    or a near-duplicate (equal as np.allclose judges) circle, and some a
    circle whose center equals another's only as np.allclose judges one way
    (its tolerance scales with the second center). Robots of radius 0.25
    share scenes with units of larger radii. Each agent is built in one of
    these styles, named in `tags`:
    - "free": anywhere, toward anywhere;
    - "boundary", "inside", "center", "near": on the inflated boundary of a
      circle, inside it, at its center, or outside within the planning
      radius, toward a goal across it;
    - "own": active, toward a goal inside its own circle;
    - "own_rim": one "own" agent of some scenes, its circle shrunk to put
      the goal exactly on its rim;
    - "own_tangent": active, its goal inside its own circle O behind a
      circle X, so that the way to X's tangent point crosses O;
    - "own_boundary": active, on the boundaries of its own circle O and of a
      circle X ahead of it, nearer to O's;
    - "at_eps": at |d| == eps_b from a circle it heads into;
    - "at_range": exactly stop_range from its goal, active or not;
    - "at_goal": its goal is its position."""
    k = 0 if scene % 10 == 0 else int(rng.integers(1, 6))
    centers = [c for c in rng.uniform(-4, 4, (k, 2))]
    circle_radii = list(rng.uniform(0.3, 1.5, k))
    if k > 1 and scene % 4 == 1:
        centers[1], circle_radii[1] = centers[0], circle_radii[0]  # duplicate
    if k > 2 and scene % 4 == 2:
        centers[2], circle_radii[2] = centers[0] + 1e-9, circle_radii[0]  # near-duplicate
    if k > 3 and scene % 4 == 3:  # one way equal
        c = centers[0]
        centers[3] = c + np.sign(c) * (1e-8 + 1e-5 * np.abs(c) + 1e-12)
    n = int(rng.integers(1, 13))
    radii = np.where(rng.random(n) < 0.6, 0.25, rng.choice([0.45, 0.8, 1.3], n))
    caps = np.where(radii == 0.25, 1.0, rng.uniform(0.2, 0.8, n))
    active = rng.random(n) < 0.5
    own = np.full(n, -1)
    pos, goals = rng.uniform(-4, 4, (n, 2)), rng.uniform(-4, 4, (n, 2))
    eps_b, stop_range = EPS, 1.0
    styles = ["free", "own_tangent", "own_boundary", "at_range", "at_goal"]
    if k:
        styles += ["boundary", "inside", "center", "near", "own", "at_eps"]
    tags = []
    for i in range(n):
        style = styles[int(rng.integers(len(styles)))]
        if style == "at_eps" and eps_b != EPS:
            style = "near"  # one agent per scene sets eps_b
        tags.append(style)
        r = radii[i]
        angle = rng.uniform(0, 2 * math.pi)
        unit = _rotated(1.0, 0.0, angle)
        j = int(rng.integers(k)) if k else -1
        if style in ("boundary", "inside", "center", "near", "at_eps"):
            c, big_r = centers[j], circle_radii[j] + r
            gap = {"boundary": 0.0, "inside": -0.5 * big_r, "center": -big_r,
                   "near": rng.uniform(0.05, 2.5), "at_eps": rng.choice([-1, 1]) * EPS}[style]
            pos[i] = c + (big_r + gap) * unit
            goals[i] = c - rng.uniform(0.5, 3.0) * unit + rng.normal(size=2) * 0.3
            if style == "at_eps":
                off = pos[i] - c
                eps_b = abs(float(np.sqrt(np.vecdot(off, off)) - big_r))
                goals[i] = c
        elif style == "own":
            active[i], own[i] = True, j
            goals[i] = centers[j] + rng.uniform(0, 0.9) * circle_radii[j] * unit
        elif style == "own_tangent":
            scale, origin = rng.uniform(1.0, 1.3), rng.uniform(-3, 3, 2)
            x_r = max(0.5 * scale - r, 0.1)  # X inflated to about 0.5 scale
            pos[i] = origin
            centers.append(origin + scale * _rotated(2.0, 0.0, angle))
            circle_radii.append(x_r)
            centers.append(origin + scale * _rotated(3.0, -0.6, angle))  # O
            circle_radii.append(1.2 * scale + rng.uniform(0.0, 0.2))
            goals[i] = origin + scale * _rotated(3.2, -0.3, angle)
            active[i], own[i] = True, len(centers) - 1
        elif style == "own_boundary":
            o_c, o_r = rng.uniform(-3, 3, 2), rng.uniform(0.3, 1.5)
            pos[i] = o_c + (o_r + r) * unit
            goals[i] = o_c + rng.uniform(0, 0.5) * o_r * _rotated(1.0, 0.0, rng.uniform(0, 6.3))
            heading = goals[i] - pos[i]
            heading = heading / np.linalg.norm(heading)
            ahead = _rotated(heading[0], heading[1], rng.uniform(-1.0, 1.0))
            x_r = rng.uniform(0.3, 1.5)
            centers.append(pos[i] + (x_r + r + rng.uniform(0.2, 0.8) * EPS) * ahead)
            circle_radii.append(x_r)
            centers.append(o_c)
            circle_radii.append(o_r)
            active[i], own[i] = True, len(centers) - 1
        elif style == "at_range":
            pos[i] = np.round(pos[i] * 1024) / 1024  # goal - pos is exact
            goals[i] = pos[i] + np.array([stop_range, 0.0])
        elif style == "at_goal":
            goals[i] = pos[i]
    if scene % 8 == 5 and "own" in tags:  # a goal exactly on the rim of its own circle
        i = tags.index("own")
        gap = goals[i] - centers[own[i]]
        circle_radii[own[i]] = float(np.sqrt(np.vecdot(gap, gap)))
        tags[i] = "own_rim"
    centers = np.array(centers, float).reshape(-1, 2)
    return (pos, goals, radii, caps, active, own, centers, np.array(circle_radii, float),
            eps_b, stop_range, tags)


def _orca_cases(rng):
    """Pair rows (p_i, v_i, r_i, p_j, v_j, r_j, share): random pairs, then
    groups built to reach each branch of the half-plane construction."""
    m = 400
    p_i = rng.uniform(-3, 3, (m, 2))
    v_i = rng.normal(size=(m, 2))
    r_i = rng.uniform(0.1, 0.6, m)
    share = rng.uniform(0.05, 1.0, m)
    offset = rng.normal(size=(m, 2))
    offset *= rng.uniform(0.0, 0.1, (m, 1)) / np.linalg.norm(offset, axis=1)[:, None]
    far = rng.normal(size=(m, 2))
    far *= rng.uniform(2.0, 6.0, (m, 1)) / np.linalg.norm(far, axis=1)[:, None]
    groups = {
        "random": (p_i + rng.uniform(-3, 3, (m, 2)), rng.normal(size=(m, 2))),
        # overlapping: dist_sq <= comb_r_sq
        "overlap": (p_i + offset, rng.normal(size=(m, 2))),
        # apart, no relative velocity: projects on the cutoff circle
        "cutoff": (p_i + far, v_i.copy()),
        # apart, closing fast: projects on a leg
        "legs": (p_i + far, v_i + far),
        "coincident": (p_i.copy(), rng.normal(size=(m, 2))),
        "coincident_same_velocity": (p_i.copy(), v_i.copy()),
    }
    for name, (p_j, v_j) in groups.items():
        r_j = rng.uniform(0.1, 0.6, m)
        vi = v_i
        if name == "overlap":  # half the rows with w = rel_vel - rel_pos / dt exactly 0
            vi = v_i.copy()
            v_j = v_j.copy()
            v_j[::2] = 0.0
            vi[::2] = (p_j[::2] - p_i[::2]) / DT
        yield name, (p_i, vi, r_i, p_j, v_j, r_j, share)


def _unit_vector(rng):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(angle), math.sin(angle)])


def _line(d, h, along):
    """The line of direction d whose left side is n . v >= h, with n the
    left normal of d, through the point h n + along d."""
    n = np.array([-d[1], d[0]])
    return np.stack([h * n + along * d, d])


def _tangent_case(rng):
    """Line a cuts the disc and the start violates it; opt pulls the result
    to one of its chord ends, which the rounding may put just outside the
    disc. Earlier lines touch the disc there, a few ulps out (kept only for
    a positive LP_MARGIN) or just in; where the chord end crosses one, it
    moves the bound."""
    cap = rng.uniform(0.5, 2.0)
    d = _unit_vector(rng)
    n = np.array([-d[1], d[0]])
    a = rng.uniform(0.05, 0.9) * cap
    side = rng.choice([-1.0, 1.0])
    line_a = _line(d, a, rng.uniform(-20.0, 20.0))
    opt = side * 3 * cap * d + (a - 3 * cap) * n
    pt = line_a[0]
    dot = float(pt @ d)
    end = pt + (-dot + side * math.sqrt(dot * dot + cap * cap - float(pt @ pt))) * d
    normal = -end / np.linalg.norm(end)
    touch = np.array([normal[1], -normal[0]])
    lines = []
    for _ in range(int(rng.integers(1, 4))):
        h = (-cap * (1.0 + int(rng.integers(0, 4)) * 2.0 ** -52) if rng.random() < 0.8
             else -cap + rng.uniform(0.0, 1e-6))
        lines.append(_line(touch, h, rng.uniform(-20.0, 20.0)))
    return [*lines, line_a], cap, opt


def _bound_case(rng):
    """Lines whose computed cross product lies within a few ulps of the cull
    bound, on both sides, among random lines."""
    cap = rng.uniform(0.3, 2.0)
    bound = -cap - sim.LP_MARGIN
    lines = [_line(_unit_vector(rng), bound + k * math.ulp(bound), 0.0)
             for k in rng.integers(-3, 4, 3)]
    lines += [_line(_unit_vector(rng), rng.uniform(-cap, cap), rng.uniform(-3.0, 3.0))
              for _ in range(3)]
    rng.shuffle(lines)
    return lines, cap, _unit_vector(rng) * rng.uniform(0.5, 3.0) * cap


def _parallel_case(rng):
    """Parallel, anti-parallel and near-parallel lines, their |denom| the
    floats just below, at and just above 1e-12, with at most one random line."""
    cap = rng.uniform(0.5, 2.0)
    tiny = [0.0, 1e-12, math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0)]
    lines = []
    for _ in range(int(rng.integers(2, 6))):
        s = rng.choice(tiny) * rng.choice([-1.0, 1.0])
        d = np.array([rng.choice([-1.0, 1.0]), s])
        lines.append(np.stack([rng.uniform(-cap, cap, 2), d]))
    if rng.random() < 0.5:
        lines.append(np.stack([rng.uniform(-cap, cap, 2), _unit_vector(rng)]))
    rng.shuffle(lines)
    return lines, cap, _unit_vector(rng) * rng.uniform(0.5, 3.0) * cap


def _zero_case(rng):
    """Lines through one point, signed zeros among its coordinates, so that
    their crossings are at t = +0.0 and -0.0."""
    cap = rng.uniform(0.5, 2.0)
    point = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0),
             tuple(rng.uniform(-0.5, 0.5, 2) * cap)][int(rng.integers(0, 5))]
    lines = [np.stack([np.array(point), _unit_vector(rng)]) for _ in range(int(rng.integers(2, 6)))]
    return lines, cap, _unit_vector(rng) * rng.uniform(0.5, 3.0) * cap


def _chord_case(rng):
    """Exact chord ends: cap 5 * 2**k, a line at distance 3 * 2**k from the
    origin (chord t in [-4, 4] * 2**k), opt projecting exactly on an end and
    earlier lines crossing it exactly there, in one of the 8 symmetries of
    the axes."""
    scale = 2.0 ** int(rng.integers(-2, 3))
    end = rng.choice([-4.0, 4.0])
    lines = [np.array([[x, 0.0], [0.0, rng.choice([-1.0, 1.0])]])
             for x in rng.choice([-4.0, 4.0], int(rng.integers(0, 3)))]
    lines.append(np.array([[0.0, 3.0], [-1.0, 0.0]]))
    opt = np.array([-end, 10.0])
    turn = int(rng.integers(0, 4))
    flip = rng.random() < 0.5

    def place(v):
        v = np.array([v[0], -v[1]]) if flip else np.asarray(v, float)
        for _ in range(turn):
            v = np.array([-v[1], v[0]])
        return v

    # a mirror turns the left sides right; reversed directions turn them back
    lines = [np.stack([place(pt) * scale, -place(d) if flip else place(d)]) for pt, d in lines]
    return lines, 5.0 * scale, place(opt) * scale


def _random_case(rng):
    cap = rng.uniform(0.2, 2.0)
    lines = [np.stack([rng.normal(size=2) * 2, _unit_vector(rng)])
             for _ in range(int(rng.integers(1, 8)))]
    return lines, cap, rng.normal(size=2) * 2


LP_CASES = {"tangent": _tangent_case, "bound": _bound_case, "parallel": _parallel_case,
            "zero": _zero_case, "chord": _chord_case, "random": _random_case}


def _lp_cases(rng, count):
    """`count` line sets of every kind: (kind, (m, 2, 2) lines, cap, opt)."""
    for kind, case in LP_CASES.items():
        for _ in range(count):
            lines, cap, opt = case(rng)
            yield kind, np.array(lines, float).reshape(-1, 2, 2), float(cap), np.asarray(opt, float)


def _scalar_lp(lines, cap, opt):
    """The scalar LP, `_lp3` after a failed `_lp2`: (failed line, velocity)."""
    pairs = [(pt, d) for pt, d in lines]
    fail, cmd = oracles.scalar_lp2(pairs, cap, opt)
    if fail < len(pairs):
        cmd = oracles.scalar_lp3(pairs, fail, cap, cmd)
    return fail, cmd


class TestArrayKernels:
    def test_orca_lines_match_scalar(self):
        rng = np.random.default_rng(7)
        seen = set()
        for name, (p_i, v_i, r_i, p_j, v_j, r_j, share) in _orca_cases(rng):
            comb_r = (r_i + r_j) * (1.0 + sim.ORCA_SAFETY_FACTOR)
            rel_pos = p_j - p_i
            lines = sim._orca_lines(rel_pos, np.vecdot(rel_pos, rel_pos), v_i, v_j, comb_r,
                                    comb_r * comb_r, share, TAU, DT)
            assert lines.shape == (len(p_i), 2, 2)
            for k in range(len(p_i)):
                point, direction = oracles.scalar_orca_line(
                    p_i[k], v_i[k], r_i[k], p_j[k], v_j[k], r_j[k], share[k], TAU, DT)
                assert _same_bits(lines[k, 0], point), (name, k)
                assert _same_bits(lines[k, 1], direction), (name, k)
                rel_pos, rel_vel = p_j[k] - p_i[k], v_i[k] - v_j[k]
                comb_r = (r_i[k] + r_j[k]) * (1.0 + sim.ORCA_SAFETY_FACTOR)
                if float(rel_pos @ rel_pos) > comb_r * comb_r:
                    w = rel_vel - rel_pos / TAU
                    dot1 = float(w @ rel_pos)
                    cutoff = dot1 < 0 and dot1 * dot1 > comb_r * comb_r * float(w @ w)
                    left = rel_pos[0] * w[1] - rel_pos[1] * w[0] > 0
                    seen.add("cutoff" if cutoff else "left leg" if left else "right leg")
                else:
                    w = rel_vel - rel_pos / DT
                    seen.add("overlap" if np.linalg.norm(w) > 1e-12 else "w_len_zero")
                    if not rel_pos.any():
                        seen.add("coincident")
        assert seen == {"cutoff", "left leg", "right leg", "overlap", "w_len_zero", "coincident"}

    def test_orca_lines_empty(self):
        empty = np.zeros((0, 2))
        lines = sim._orca_lines(empty, np.zeros(0), empty, empty, np.zeros(0), np.zeros(0),
                                np.zeros(0), TAU, DT)
        assert lines.shape == (0, 2, 2)

    def test_lp2_matches_scalar(self):
        rng = np.random.default_rng(11)
        failed = 0
        for _ in range(400):
            m = int(rng.integers(0, 9))
            lines = np.stack([rng.normal(size=(m, 2)), rng.normal(size=(m, 2))], axis=1)
            lines[:, 1] /= np.linalg.norm(lines[:, 1], axis=1)[:, None]
            radius = float(rng.uniform(0.2, 2.0))
            opt = rng.normal(size=2) * 2
            got = sim._lp2(lines, radius, opt)
            want = oracles.scalar_lp2([(pt, d) for pt, d in lines], radius, opt)
            assert got[0] == want[0]
            assert _same_bits(got[1], want[1])
            failed += got[0] < m
        assert failed > 0  # some sets are infeasible

    def test_rvo_resolve_matches_scalar(self):
        rng = np.random.default_rng(3)
        fallbacks = 0
        for scene in range(150):
            n = int(rng.integers(1, 11))
            box = 0.5 + 0.3 * (scene % 10)
            positions = list(rng.uniform(-box, box, (n, 2)))
            if n > 1 and scene % 7 == 0:
                positions[1] = positions[0].copy()  # coincident agents
            velocities = list(rng.normal(size=(n, 2)))
            preferred = list(rng.normal(size=(n, 2)) * 1.5)
            radii = list(rng.choice([0.25, 0.25, 0.4], n))
            caps = list(rng.uniform(0.3, 1.5, n))
            alpha = rng.choice([0.0, 0.1, 0.5, 1.0, 0.03], n)
            shares = [[0.0 if i == j else (0.5 if alpha[i] + alpha[j] == 0
                                           else alpha[i] / (alpha[i] + alpha[j]))
                       for j in range(n)] for i in range(n)]
            if n > 1 and scene % 3 == 0 and shares[0][1] > 0:
                # agent 0 prefers a velocity just right of its first line
                point, d = oracles.scalar_orca_line(
                    positions[0], velocities[0], radii[0], positions[1], velocities[1],
                    radii[1], shares[0][1], TAU, DT)
                preferred[0] = point + 1e-7 * np.array([d[1], -d[0]])
                caps[0] = float(np.linalg.norm(preferred[0])) + 1.0
            got = sim.rvo_resolve(positions, radii, velocities, preferred, caps, shares,
                                  DT, TAU)
            want, used = oracles.scalar_rvo_resolve(positions, radii, velocities, preferred,
                                                    caps, shares, DT, TAU)
            fallbacks += used
            assert len(got) == n
            for g, w in zip(got, want):
                assert _same_bits(g, w), scene
        assert fallbacks > 0  # the _lp3 fallback ran

    def test_row_lp_matches_scalar_on_crafted_lines(self):
        rng = np.random.default_rng(23)
        failed, unfused = set(), 0
        for kind, lines, cap, opt in _lp_cases(rng, 200):
            pairs = [(pt, d) for pt, d in lines]
            fail, got = sim._lp2(lines, cap, opt)
            want_fail, want = oracles.scalar_lp2(pairs, cap, opt)
            assert fail == want_fail, kind
            assert _same_bits(got, want), kind
            if fail < len(lines):
                failed.add(kind)
                assert _same_bits(sim._lp3(lines, fail, cap, got),
                                  oracles.scalar_lp3(pairs, fail, cap, want)), kind
            unfused += sum(float(pt @ d) != pt[0] * d[0] + pt[1] * d[1]
                           or float(d @ (opt - pt)) != d[0] * (opt - pt)[0] + d[1] * (opt - pt)[1]
                           for pt, d in lines)
        assert {"parallel", "random"} <= failed  # the _lp3 fallback ran
        assert unfused > 0  # a dot product other than np.vecdot's rounds differently

    def test_culled_rvo_resolve_matches_scalar_on_crafted_lines(self, monkeypatch):
        """Each agent's crafted lines among lines far outside its disc, which
        `rvo_resolve` drops before the LP, at random places."""
        rng = np.random.default_rng(29)
        cases = list(_lp_cases(rng, 200))
        rng.shuffle(cases)
        n = 10  # 9 lines per agent
        culled = mapped = 0
        near = {False: 0, True: 0}  # lines within 3 ulps of the cull bound, kept or dropped
        for first in range(0, len(cases), n):
            scene = cases[first:first + n]
            own = []
            for _, lines, cap, _ in scene:
                full = [_line(_unit_vector(rng), -cap - rng.uniform(1e-5, 50.0),
                              rng.uniform(-20.0, 20.0)) for _ in range(n - 1)]
                for k, line in zip(sorted(rng.choice(n - 1, len(lines), replace=False)), lines):
                    full[k] = line
                own.append(np.array(full))
            stacked = np.concatenate(own)
            monkeypatch.setattr(sim, "_orca_lines", lambda *args: stacked)
            caps = [cap for _, _, cap, _ in scene]
            opts = [opt for _, _, _, opt in scene]
            got = sim.rvo_resolve(np.zeros((n, 2)), np.ones(n), np.zeros((n, 2)), opts, caps,
                                  1.0 - np.eye(n), DT, TAU)
            pairs = sim.orca_pairs(np.ones(n), caps, 1.0 - np.eye(n))
            assert _same_bits(sim.rvo_resolve(np.zeros((n, 2)), np.ones(n), np.zeros((n, 2)),
                                              opts, caps, 1.0 - np.eye(n), DT, TAU,
                                              pairs=pairs), got)
            for k, lines in enumerate(own):
                fail, want = _scalar_lp(lines, caps[k], opts[k])
                assert _same_bits(got[k], want), (scene[k][0], k)
                bound = -caps[k] - sim.LP_MARGIN
                cross = lines[:, 1, 0] * lines[:, 0, 1] - lines[:, 1, 1] * lines[:, 0, 0]
                drop = cross <= bound
                culled += drop.sum()
                mapped += fail < len(lines) and drop[:fail].any()
                close = np.abs(cross - bound) <= 3 * math.ulp(bound)
                near[True] += (close & drop).sum()
                near[False] += (close & ~drop).sum()
        assert culled > 0 and mapped > 0  # dropped lines before a failing one
        assert near[True] > 0 and near[False] > 0

    def test_rvo_resolve_matches_scalar_in_dense_crowds(self):
        rng = np.random.default_rng(31)
        fallbacks = 0
        for n in (15, 30, 45, 60):
            box = 0.3 * math.sqrt(n)  # about one agent per 0.36 m2
            positions = list(rng.uniform(-box, box, (n, 2)))
            velocities = list(rng.normal(size=(n, 2)) * 0.5)
            preferred = list(rng.normal(size=(n, 2)))
            radii = list(rng.choice([0.25, 0.25, 0.4], n))
            caps = list(rng.uniform(0.5, 1.0, n))
            alpha = rng.choice([0.0, 0.1, 0.5, 1.0, 0.03], n)
            shares = [[0.0 if i == j else (0.5 if alpha[i] + alpha[j] == 0
                                           else alpha[i] / (alpha[i] + alpha[j]))
                       for j in range(n)] for i in range(n)]
            got = sim.rvo_resolve(positions, radii, velocities, preferred, caps, shares,
                                  DT, TAU)
            want, used = oracles.scalar_rvo_resolve(positions, radii, velocities, preferred,
                                                    caps, shares, DT, TAU)
            fallbacks += used
            for g, w in zip(got, want):
                assert _same_bits(g, w), n
            pairs = sim.orca_pairs(radii, caps, shares)
            assert _same_bits(sim.rvo_resolve(positions, radii, velocities, preferred, caps,
                                              shares, DT, TAU, pairs=pairs), got), n
        assert fallbacks > 0  # the _lp3 fallback ran

    def test_ray_circle_hits_match_scalar(self):
        rng = np.random.default_rng(5)
        for case in range(300):
            k = int(rng.integers(0, 8))
            centers = rng.uniform(-4, 4, (k, 2))
            radii = rng.uniform(0.2, 2.0, k)
            if k > 1:
                centers[1], radii[1] = centers[0], radii[0]  # a duplicate circle
            pos = rng.uniform(-4, 4, 2)
            goal = pos.copy() if case % 10 == 0 else rng.uniform(-4, 4, 2)  # zero length
            if k and case % 5 == 1:
                pos = centers[0] + 0.5 * radii[0] * np.array([0.6, 0.8])  # inside
            got = sim._ray_circle_hits(pos, goal, centers, radii)
            for c, r, t in zip(centers, radii, got):
                want = oracles.scalar_ray_circle_hit(pos, goal, c, r)
                assert _same_bits(t, np.inf if want is None else want)
        # a batch of segments with per-segment radii equals one call per segment
        n, k = 20, 6
        pos, goal = rng.uniform(-4, 4, (n, 2)), rng.uniform(-4, 4, (n, 2))
        goal[3] = pos[3]
        centers = rng.uniform(-4, 4, (k, 2))
        radii = rng.uniform(0.2, 2.0, k) + rng.uniform(0.1, 0.5, n)[:, None]
        batch = sim._ray_circle_hits(pos, goal, centers, radii)
        for row in range(n):
            assert _same_bits(batch[row],
                              sim._ray_circle_hits(pos[row], goal[row], centers, radii[row]))

    def test_tangent_bug_and_nominal_match_scalar(self):
        rng = np.random.default_rng(9)
        modes = set()
        for case in range(600):
            k = int(rng.integers(1, 6))
            centers = rng.uniform(-3, 3, (k, 2))
            radii = rng.uniform(0.3, 1.5, k)
            if k > 1 and case % 4 == 0:
                centers[1], radii[1] = centers[0], radii[0]  # duplicate
            if k > 2 and case % 4 == 1:
                centers[2] = centers[0]  # concentric
            if case % 6 == 2:
                centers[k - 1] = centers[0] + 1e-9  # equal within np.allclose
                radii[k - 1] = radii[0]
            angle = rng.uniform(0, 2 * math.pi)
            unit = np.array([math.cos(angle), math.sin(angle)])
            pick = case % 5
            if pick == 0:  # on the boundary of circle 0
                pos = centers[0] + radii[0] * unit
            elif pick == 1:  # inside circle 0, sometimes at its center
                pos = centers[0] + (0.0 if case % 3 == 0 else 0.5 * radii[0]) * unit
            else:  # outside, within reach of the planning radius
                pos = centers[0] + (radii[0] + rng.uniform(0.05, 3.0)) * unit
            goal = centers[0] - rng.uniform(1.0, 4.0) * unit + rng.normal(size=2) * 0.5
            if case % 50 == 3:
                goal = pos.copy()
            obstacles = list(zip(centers, radii))
            want_wp, want_mode = oracles.scalar_tangent_bug_step(pos, goal, obstacles,
                                                                 PLAN_R, EPS)
            got_wp, got_mode = _tangent_bug_step(pos, goal, (centers, radii))
            assert got_mode == want_mode, case
            assert _same_bits(got_wp, want_wp), case
            modes.add(want_mode)
            want_v, _ = oracles.scalar_nominal_velocity(pos, goal, obstacles, 0.8, DT,
                                                        PLAN_R, EPS)
            got_v = _nominal_velocity(pos, goal, (centers, radii), 0.8, DT)
            assert _same_bits(got_v, want_v), case
        assert modes == {"move_toward_waypoint", "move_ccw_along_boundary", "exit_target",
                         "move_toward_right_hand_tangent_point"}

    def test_nominal_velocity_matches_agent_loop(self):
        """The batched level 1 equals `oracles.agent_nominal`, one call per
        agent, bit for bit, over scenes reaching every mode and edge."""
        rng = np.random.default_rng(23)
        seen = dict.fromkeys(
            ["no_circles", "duplicate", "near_duplicate", "one_way_equal", "robots_and_units",
             "sit_and_wait", "own_left_out", "own_rim", "own_tangent", "own_boundary", "at_eps",
             "at_range_waits", "at_range_moves", "at_goal", *MODES], 0)
        for scene in range(400):
            (pos, goals, radii, caps, active, own, centers, circle_radii, eps_b, stop_range,
             tags) = _l1_scene(rng, scene)
            tables = sim.circle_tables(centers, circle_radii, radii, goals, own)
            scan = oracles.circle_tables_scan(centers, circle_radii, radii, goals, own)
            for name, table in zip(("inflated", "mine", "same"), tables):
                assert _same_bits(table, scan[name]), (scene, name)
            got = sim.nominal_velocity(pos, goals, caps, active, centers, *tables, DT, PLAN_R,
                                       eps_b, stop_range)
            assert got.shape == (len(pos), 2)
            for i, tag in enumerate(tags):
                want, mode = oracles.agent_nominal(
                    pos[i], goals[i], float(radii[i]), float(caps[i]), bool(active[i]),
                    int(own[i]), centers, circle_radii, DT, PLAN_R, eps_b, stop_range)
                assert _same_bits(got[i], want), (scene, i, tag)
                seen[mode] += 1
                inside_own = own[i] >= 0 and (np.linalg.norm(goals[i] - centers[own[i]])
                                              < circle_radii[own[i]])
                seen["own_left_out"] += bool(inside_own)
                seen["own_rim"] += tag == "own_rim" and bool(tables[1][i, own[i]])
                seen["own_tangent"] += tag == "own_tangent" and mode == (
                    "move_toward_right_hand_tangent_point")
                seen["own_boundary"] += tag == "own_boundary" and mode == (
                    "move_ccw_along_boundary")
                seen["at_eps"] += tag == "at_eps" and mode == "move_ccw_along_boundary"
                seen["at_range_waits"] += tag == "at_range" and mode == "sit_and_wait"
                seen["at_range_moves"] += tag == "at_range" and mode != "sit_and_wait"
                seen["at_goal"] += tag == "at_goal"
            seen["no_circles"] += not len(circle_radii)
            same = (np.abs(centers[:, None] - centers) <= 1e-8).all(axis=2)
            same &= circle_radii[:, None] == circle_radii
            seen["duplicate"] += bool(np.any(np.triu(same & (centers[:, None] == centers)
                                                     .all(axis=2), 1)))
            seen["near_duplicate"] += bool(np.any(np.triu(same & (centers[:, None] != centers)
                                                          .any(axis=2), 1)))
            seen["one_way_equal"] += bool(np.any(tables[2] != tables[2].T))
            seen["robots_and_units"] += len(set(radii.tolist())) > 1
        assert all(seen.values()), seen

    def test_dispersion_matches_agent_loop(self, params):
        """The one-pass L2 equals `oracles.scalar_dispersion`, one
        `dispersion_force` per pair and one `preferred_velocity` per pushed
        agent, bit for bit. The scenes reach pushed agents with at least
        three kept neighbours, for which summing the forces in another order
        changes some bit, pushed agents with none kept, and coincident
        agents whose pair is kept."""
        rng = np.random.default_rng(17)
        r_max, c = params.dispersion_r_max, params.dispersion_c
        delta = 1e-3 * 0.25
        seen = {"no_active": 0, "coincident": 0, "overlap": 0, "clamp": 0, "partial": 0,
                "culled": 0, "kept": 0, "at_bound_below": 0, "at_bound_above": 0,
                "three_kept": 0, "order_matters": 0, "none_kept": 0, "no_pushed": 0,
                "negative_zero": 0}
        for scene in range(240):
            pos, rad, active, alpha, nominals, caps = _dispersion_scene(rng, scene, params)
            diff, dist_sq = sim.pair_geometry(pos)
            dist = np.sqrt(dist_sq)
            want_fields, want_prefs = oracles.scalar_dispersion(
                pos, rad, active, alpha, nominals, caps, r_max, c, delta,
                params.blend_a, params.blend_b)
            fields = sim.field_radius(dist, rad, active, r_max, c)
            assert _same_bits(fields, want_fields), scene
            pushed = ~active & (alpha != 0.0)
            prefs = sim._dispersed_velocities(diff, dist, rad, fields, pushed, np.array(nominals),
                                              np.array(caps), delta, params.blend_a,
                                              params.blend_b)
            assert _same_bits(prefs, want_prefs), scene

            # what the cull skips is exactly zero
            reach = fields + rad[:, None] + rad + sim.CULL_MARGIN
            pairs = pushed[:, None] & (fields > 0) & ~np.eye(len(rad), dtype=bool)
            for i, j in zip(*np.nonzero(pairs & (dist >= reach))):
                force = sim.dispersion_force(pos[i], pos[j], rad[i], rad[j], fields[j], delta)
                assert not force.any(), (scene, i, j)
            kept = pairs & (dist < reach)
            for i in np.flatnonzero(kept.sum(axis=1) >= 3):
                forces = [sim.dispersion_force(pos[i], pos[j], rad[i], rad[j], fields[j], delta)
                          for j in np.flatnonzero(kept[i])]
                seen["three_kept"] += 1
                seen["order_matters"] += not _same_bits(sum(forces, np.zeros(2)),
                                                        sum(forces[::-1], np.zeros(2)))
            seen["none_kept"] += int((pushed & ~kept.any(axis=1)).sum())
            seen["no_pushed"] += not pushed.any()
            seen["negative_zero"] += int(np.sum(pushed[:, None] & (np.array(nominals) == 0)
                                                & np.signbit(nominals)))
            gap = np.abs(dist - reach) <= 4 * np.spacing(reach)
            seen["at_bound_below"] += int((pairs & gap & (dist < reach)).sum())
            seen["at_bound_above"] += int((pairs & gap & (dist >= reach)).sum())
            seen["culled"] += int((pairs & (dist >= reach)).sum())
            seen["kept"] += int(kept.sum())
            seen["no_active"] += not active.any()
            seen["coincident"] += bool(np.any(kept & (dist == 0)))
            if active.any():
                least = np.min(dist[:, active] - (rad[active] + rad[:, None]), axis=1)
                seen["overlap"] += int((~active & (least <= 0)).sum())
                seen["clamp"] += int((~active & (least > 0) & (c / least >= r_max)).sum())
                seen["partial"] += int((~active & (c / least < r_max)).sum())
        assert all(seen.values()), seen

    def test_trace_rows_match_the_row_formatter(self):
        """The epoch's template, filled in per step, writes the bytes of the
        per-row f-string for ids and tasks holding `%`, `,`, braces and
        non-ASCII text and for a task of None, at floats that round at the
        last printed digit, signed zeros, huge values and non-finite ones."""
        ids = ["robot%d", "unit:a,b", "unit:{0}", "robot_é✓", "100%", "%%s", "%(t)s",
               "plain"]
        tasks = ["RobotGo:p%s@1:0:pickup", None, "T:{}", "Förm,ü", "%", "%%",
                 "%(t)s", ""]
        alpha = [0.0, 0.1, 0.5, 1.0, 0.00005, 1 / 3, 0.12345, 2.0]
        floats = np.array([-0.0, 0.0, 5e-7, -5e-7, 0.0000015, 1e20, -1234.5678905, math.inf,
                           -math.inf, math.nan, 2.5e-7, 1 / 3])
        rng = np.random.default_rng(41)
        template = sim.trace_template(ids, tasks, alpha)
        for t in (0.0, 0.00005, 12.34565, 1e6):
            pos = rng.choice(floats, (len(ids), 2))
            vel = rng.normal(size=(len(ids), 2)) * 10.0 ** rng.integers(-8, 4, (len(ids), 2))
            assert sim.trace_to_csv(t, template, pos, vel) == oracles.trace_rows(
                t, ids, tasks, alpha, pos.tolist(), vel.tolist())
        empty = np.zeros((0, 2))
        assert sim.trace_to_csv(1.0, sim.trace_template([], [], []), empty, empty) == ""

    def test_penetrations_match_pair_loop(self):
        rng = np.random.default_rng(13)
        total = 0
        for n in list(range(0, 6)) + [30, 60]:
            positions = rng.uniform(0, 0.3 * n + 0.5, (n, 2))
            radii = rng.choice([0.25, 0.4], n)
            got = sim._penetrations(positions, sim._contact_reach(radii, 1e-3 * 0.25))
            assert got == oracles.scalar_penetrations(positions, radii, 1e-3 * 0.25)
            total += len(got)
        assert total > 0

    @pytest.mark.parametrize("where", ["form", "arrive"])
    def test_arrival_at_the_tolerance(self, pipeline, params, toy_spec, where):
        """A team member, or a unit, at exactly `arrival_tol` from its goal
        has arrived, as it had for the scalar loops; one ulp beyond the
        tolerance it has not, one ulp within it has. The tolerance is set to
        the distance as computed and to its two neighbouring floats."""
        data = pipeline(toy_spec, "toy", 2)
        nodes = data["greedy"].graph.nodes

        def world_at_target():
            """A toy world between steps with a team gathering (form) or a
            unit on its way (arrive), and that one's agent row and goal."""
            w = sim.World(data["greedy"].graph, data["plan"], data["configs"], data["fleet"],
                          params, io.StringIO())
            while True:
                assert not sim.step(w)
                if where == "form" and (candidates := w.per_epoch(sim._form_candidates)[0]):
                    form, team = candidates[0]
                    for rid, pick in team:  # all members on their pickups
                        w.pos[w.row[rid]] = nodes[pick].destination
                    rid, pick = team[-1]
                    return w, form, w.row[rid], np.array(nodes[pick].destination, float)
                going = [(uid, task) for uid, task in sorted(w.unit_task.items())
                         if nodes[task].kind == "TransportUnitGo"]
                if where == "arrive" and going:
                    uid, task = going[0]
                    return w, task, w.row[uid], np.array(nodes[task].destination, float)

        goal = world_at_target()[3]
        dist = sim._length(goal + [0.03, 0.04] - goal)
        for tol, arrives in ((dist, True), (math.nextafter(dist, 0.0), False),
                             (math.nextafter(dist, math.inf), True)):
            w, node, r, goal = world_at_target()
            w.pos[r] = goal + [0.03, 0.04]
            w.arrival_tol = tol
            if where == "form":
                want = oracles.form_units_loop(w)
                sim._form_units(w)
                assert (w.status[node] == "active") == bool(want) == arrives, tol
            else:
                want = oracles.arrive_loop(w)
                sim._arrive(w)
                assert (w.status[node] == "complete") == (want == [node]) == arrives, tol

    @pytest.mark.parametrize("project,robots", [("toy", 2), ("tractor", 5)])
    def test_ready_queue_fires_like_full_scan(self, monkeypatch, pipeline, params, toy_spec,
                                              tractor_spec, project, robots):
        data = pipeline(toy_spec if project == "toy" else tractor_spec, project, robots)
        fire = sim.World.fire_checkpoints
        fired, calls = [], []

        def checked(w):  # also the fire at the end of World.__init__
            if not isinstance(w.status, _StatusLog):
                w.status = _StatusLog(w.status)
            want = oracles.scan_fire_checkpoints(w)
            start = len(w.status.log)
            done = fire(w)
            assert w.status.log[start:] == want, w.t
            fired.extend(want)
            calls.append(w.steps)
            return done

        monkeypatch.setattr(sim.World, "fire_checkpoints", checked)
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params, io.StringIO())
        assert calls == [0] and fired
        while not sim.step(world):
            pass
        kinds = {world.graph.nodes[nid].kind for nid, _ in fired}
        assert {"LiftIntoPlace", "DepositCargo", "RobotGo", "ProjectComplete"} <= kinds
        assert world.status[world.graph.terminal_nodes[0]] == "complete"

    # synthetic-8 livelocks, so it is checked for its first 2,000 steps
    @pytest.mark.parametrize("project,robots,max_steps",
                             [("toy", 2, None), ("tractor", 5, None), ("synthetic", 8, 2000)])
    def test_rows_and_open_phases_follow_the_scan(self, monkeypatch, pipeline, params, toy_spec,
                                                  tractor_spec, synthetic_spec, project, robots,
                                                  max_steps):
        """What the world keeps per epoch equals the scans that ran at every
        step before: at every controller call, and after every transition
        that is not part of another. The units that form and arrive at each
        step are those of the scalar loops that ran before the array tests."""
        spec = {"toy": toy_spec, "tractor": tractor_spec, "synthetic": synthetic_spec}[project]
        data = pipeline(spec, project, robots)
        control, form_units, arrive = sim._control, sim._form_units, sim._arrive
        seen = {"open": 0, "units": 0, "rows": 0, "transitions": 0, "formed": 0, "arrived": 0}
        depth = [0]

        def logged(w):
            if not isinstance(w.status, _StatusLog):
                w.status = _StatusLog(w.status)
            return len(w.status.log)

        def checked_form(w):
            want, start = oracles.form_units_loop(w), logged(w)
            form_units(w)
            assert w.status.log[start:] == want, w.t
            seen["formed"] += len(want)

        def checked_arrive(w):
            want, start = oracles.arrive_loop(w), logged(w)
            arrive(w)  # completes the arrivals, then fires what they readied
            got = w.status.log[start:]
            assert got[:len(want)] == [(task, "complete") for task in want], w.t
            assert all(w.graph.nodes[nid].kind != "TransportUnitGo"
                       for nid, _ in got[len(want):]), w.t
            seen["arrived"] += len(want)

        def transition(method):
            def checked(w, *args):
                depth[0] += 1
                try:
                    method(w, *args)
                finally:
                    depth[0] -= 1
                if not depth[0]:
                    _assert_epoch_cache(w)
                    seen["transitions"] += 1
            return checked

        def checked(w, rows):
            phases = {a: oracles.active_phase(w, a) for a in w.graph.assembly_phases}
            assert w.open_phase == {a: k for a, k in phases.items() if k is not None}, w.t
            assert rows is _assert_epoch_cache(w)
            teams = w.teams()
            in_units = {rid for task in w.unit_task.values()
                        for rid, _ in teams[w.graph.nodes[task].subject]}
            want = sorted(set(w.itineraries) - in_units | set(w.unit_task))
            assert rows.ids == want, w.t
            seen["open"] += len(w.open_phase)
            seen["units"] += len(w.unit_task)
            seen["rows"] += 1
            return control(w, rows)

        for name in ("start", "complete", "swap"):
            monkeypatch.setattr(sim.World, name, transition(getattr(sim.World, name)))
        monkeypatch.setattr(sim, "_control", checked)
        monkeypatch.setattr(sim, "_form_units", checked_form)
        monkeypatch.setattr(sim, "_arrive", checked_arrive)
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params, io.StringIO())
        while not sim.step(world) and world.steps != max_steps:
            pass
        assert all(seen.values()), seen
        assert seen["rows"] == world.steps
        assert (world.steps == max_steps) == (project == "synthetic")
        if project == "tractor":  # the rows are checked across swaps too
            assert world.swap_count > 0


def _assert_epoch_cache(w):
    """Assert that the world's teams, form candidates, arrival targets,
    controller rows and pair tables for this epoch equal the scans of its
    state, bit for bit; returns the rows."""
    teams = oracles.teams_scan(w)
    assert {p: list(team) for p, team in w.teams().items()} == teams, w.t
    candidates, members, destinations, firsts = w.per_epoch(sim._form_candidates)
    want = oracles.form_candidates_scan(w)
    assert candidates == tuple(want), w.t
    assert members.tolist() == [w.row[rid] for _, team in want for rid, _ in team], w.t
    assert _same_bits(destinations, np.array(
        [w.graph.nodes[pick].destination for _, team in want for _, pick in team],
        float).reshape(-1, 2)), w.t
    assert firsts.tolist() == np.cumsum([0] + [len(team) for _, team in want])[:-1].tolist()
    tasks, units, destinations = w.per_epoch(sim._arrivals)
    going = [(uid, task) for uid, task in sorted(w.unit_task.items())
             if w.graph.nodes[task].kind == "TransportUnitGo"]
    assert tasks == [task for _, task in going], w.t
    assert units.tolist() == [w.row[uid] for uid, _ in going], w.t
    assert _same_bits(destinations, np.array(
        [w.graph.nodes[task].destination for _, task in going], float).reshape(-1, 2)), w.t
    rows = w.per_epoch(sim.control_rows)
    assert rows.ids == [w.ids[r] for r in np.flatnonzero(w.present)], w.t
    loop = oracles.control_rows_loop(w, rows.idx)
    goals = rows.goals.copy()
    goals[rows.at_pos] = w.pos[rows.idx][rows.at_pos]
    assert _same_bits(goals, loop["goals"]), w.t
    assert _same_bits(rows.shares, loop["shares"]), w.t
    assert np.array_equal(rows.active, loop["active"]), w.t
    assert np.array_equal(rows.pushed, ~loop["active"] & (np.array(loop["alphas"]) != 0.0)), w.t
    pos, vel = w.pos[rows.idx], w.vel[rows.idx]
    assert sim.trace_to_csv(w.t, rows.trace, pos, vel) == oracles.trace_rows(
        w.t, rows.ids, loop["tasks"], loop["alphas"], pos.tolist(), vel.tolist()), w.t
    assert rows.robots == [(w.row[a], a) for a in rows.ids if a not in w.unit_task], w.t
    centers, radii = oracles.staging_circles_scan(w)
    assert _same_bits(rows.centers, centers), w.t
    tables = oracles.circle_tables_scan(centers, radii, rows.rad, loop["goals"], loop["own"])
    assert _same_bits(rows.inflated, tables["inflated"]), w.t
    assert np.array_equal(rows.mine, tables["mine"]), w.t
    assert np.array_equal(rows.same, tables["same"]), w.t
    scan = oracles.orca_pairs_scan(rows.rad, rows.cap, rows.shares)
    for name in ("i", "j", "share", "comb_r", "comb_r_sq", "floor", "flat"):
        assert _same_bits(getattr(rows.pairs, name), np.array(scan[name], float)), (name, w.t)
    assert _same_bits(rows.pairs.cap, rows.cap), w.t
    assert (rows.pairs.bounds, rows.pairs.caps) == (scan["bounds"], scan["caps"]), w.t
    assert _same_bits(rows.reach, np.array(oracles.contact_reach_scan(rows.rad, w.pen_tol))), w.t
    return rows


class _StatusLog(dict):
    """A node status dict that logs every assignment."""

    def __init__(self, status):
        super().__init__(status)
        self.log = []

    def __setitem__(self, nid, value):
        self.log.append((nid, value))
        super().__setitem__(nid, value)
