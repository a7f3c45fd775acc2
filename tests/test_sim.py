import math

import numpy as np
import pytest

from assemblyforge import sim

from . import oracles


R = 0.25
EPS = 0.02
PLAN_R = 2.0


class TestTangentBug:
    def test_free_path_goes_to_goal(self):
        wp, mode = sim.tangent_bug_step([0, 0], [10, 0], [], PLAN_R, EPS)
        assert mode == "move_toward_waypoint"
        assert np.allclose(wp, [10, 0])

    def test_distant_obstacle_keeps_waypoint_mode(self):
        obstacles = [(np.array([5.0, 0.0]), 1.0)]
        wp, mode = sim.tangent_bug_step([0, 0], [10, 0], obstacles, PLAN_R, EPS)
        assert mode == "move_toward_waypoint"
        assert wp[0] == pytest.approx(4.0, abs=1e-9)  # circle entry point

    def test_near_obstacle_switches_to_tangent(self):
        obstacles = [(np.array([5.0, 0.0]), 1.0)]
        wp, mode = sim.tangent_bug_step([3.5, 0], [10, 0], obstacles, PLAN_R, EPS)
        assert mode == "move_toward_right_hand_tangent_point"
        assert wp[1] < 0  # right-hand side

    def test_on_boundary_follows_ccw(self):
        obstacles = [(np.array([5.0, 0.0]), 1.0)]
        _, mode = sim.tangent_bug_step([4.0, 0], [10, 0], obstacles, PLAN_R, EPS)
        assert mode == "move_ccw_along_boundary"

    def test_inside_obstacle_exits_radially(self):
        obstacles = [(np.array([5.0, 0.0]), 1.0)]
        wp, mode = sim.tangent_bug_step([4.5, 0], [10, 0], obstacles, PLAN_R, EPS)
        assert mode == "exit_target"
        assert np.allclose(wp, [4.0, 0.0])

    def test_blocked_tangent_falls_back_to_waypoint(self):
        obstacles = [(np.array([5.0, 0.0]), 1.0),
                     (np.array([3.6, -0.6]), 0.5)]
        _, mode = sim.tangent_bug_step([2.5, 0], [10, 0], obstacles, PLAN_R, EPS)
        assert mode == "move_toward_waypoint"


class TestNominalVelocity:
    def test_no_overshoot_near_goal(self):
        v, _ = sim.nominal_velocity([0, 0], [0.01, 0], [], 1.0, 0.05, PLAN_R, EPS)
        assert np.linalg.norm(v) == pytest.approx(0.2)

    def test_zero_at_goal(self):
        v, _ = sim.nominal_velocity([1, 1], [1, 1], [], 1.0, 0.05, PLAN_R, EPS)
        assert np.allclose(v, 0)

    def test_ccw_velocity_is_tangential(self):
        obstacles = [(np.array([5.0, 0.0]), 1.0)]
        v, mode = sim.nominal_velocity([4.0, 0], [10, 0], obstacles, 1.0, 0.05,
                                       PLAN_R, EPS)
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
        assert sim.field_radius([0, 0], R, [], 0.625, 0.25) == 0.0
        # overlapping active agent forces the max field
        touching = [(np.array([0.1, 0.0]), R)]
        assert sim.field_radius([0, 0], R, touching, 0.625, 0.25) == 0.625
        far = [(np.array([10.0, 0.0]), R)]
        d = 10.0 - 2 * R
        assert sim.field_radius([0, 0], R, far, 0.625, 0.25) == pytest.approx(
            min(0.625, 0.25 / d))

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
    run = lambda **kw: sim.simulate(  # noqa: E731
        data["greedy"].graph, data["plan"], data["configs"],
        data["fleet"], params, **kw)
    return data, run


class TestSimulate:
    def test_completes_without_collisions(self, toy_run):
        data, run = toy_run
        trace = run()
        assert not trace.deadlocked
        assert trace.collision_count == 0
        assert trace.execution_makespan >= data["greedy"].makespan

    def test_deterministic(self, toy_run):
        _, run = toy_run
        a, b = run(), run()
        assert sim.trace_to_csv(a) == sim.trace_to_csv(b)
        assert sim.events_to_jsonl(a) == sim.events_to_jsonl(b)

    def test_step_budget_reports_deadlock(self, toy_run):
        _, run = toy_run
        trace = run(max_steps=10)
        assert trace.deadlocked
        assert trace.execution_makespan == math.inf
        assert trace.steps == 10

    def test_trace_and_metrics_formats(self, toy_run):
        data, run = toy_run
        trace = run()
        csv = sim.trace_to_csv(trace)
        assert csv.splitlines()[0] == "t,id,x,y,vx,vy,task,alpha"
        metrics = sim.metrics_to_jsonable(trace, data["greedy"].makespan)
        assert set(metrics) == {"execution_makespan", "collision_count",
                                "swap_count", "deadlocked", "steps", "seed",
                                "predicted_makespan"}

    def test_step_by_hand_matches_simulate(self, toy_run, params):
        data, run = toy_run
        n = 120
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params)
        assert not any(sim.step(world) for _ in range(n))
        trace = run(max_steps=n)
        assert world.steps == trace.steps == n
        assert world.t == pytest.approx(n * params.dt_sim)
        assert world.rows == trace.rows
        assert world.events == trace.events

    def test_step_after_finish_advances_nothing(self, toy_run, params):
        data, run = toy_run
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params)
        while not sim.step(world):
            pass
        trace = run()
        assert world.steps == trace.steps
        assert world.t == trace.execution_makespan
        rows, events, t = list(world.rows), list(world.events), world.t
        assert sim.step(world) and sim.step(world)
        assert (world.rows, world.events, world.t, world.steps) == \
            (rows, events, t, trace.steps)
        assert world.status[world.graph.terminal_nodes[0]] == "complete"


# -- array kernels against the scalar loops they replaced ---------------------


def _same_bits(a, b) -> bool:
    """Equal shapes and equal float bits (so 0.0 != -0.0)."""
    a = np.ascontiguousarray(a, float)
    b = np.ascontiguousarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


DT, TAU = 0.05, 2.0


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


class TestArrayKernels:
    def test_orca_lines_match_scalar(self):
        rng = np.random.default_rng(7)
        seen = set()
        for name, (p_i, v_i, r_i, p_j, v_j, r_j, share) in _orca_cases(rng):
            lines = sim._orca_lines(p_i, v_i, r_i, p_j, v_j, r_j, share, TAU, DT)
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
                    seen.add("cutoff" if cutoff else "leg")
                else:
                    w = rel_vel - rel_pos / DT
                    seen.add("overlap" if np.linalg.norm(w) > 1e-12 else "w_len_zero")
                    if not rel_pos.any():
                        seen.add("coincident")
        assert seen == {"cutoff", "leg", "overlap", "w_len_zero", "coincident"}

    def test_orca_lines_empty(self):
        empty = np.zeros((0, 2))
        lines = sim._orca_lines(empty, empty, np.zeros(0), empty, empty, np.zeros(0),
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
            circles = sim.Circles(centers, radii)
            for got_wp, got_mode in (
                    sim.tangent_bug_step(pos, goal, obstacles, PLAN_R, EPS),
                    sim.tangent_bug_step(pos, goal, circles, PLAN_R, EPS,
                                         sim._ray_circle_hits(pos, goal, centers, radii))):
                assert got_mode == want_mode, case
                assert _same_bits(got_wp, want_wp), case
            modes.add(want_mode)
            want_v, _ = oracles.scalar_nominal_velocity(pos, goal, obstacles, 0.8, DT,
                                                        PLAN_R, EPS)
            got_v, _ = sim.nominal_velocity(pos, goal, circles, 0.8, DT, PLAN_R, EPS)
            assert _same_bits(got_v, want_v), case
        assert modes == {"move_toward_waypoint", "move_ccw_along_boundary", "exit_target",
                         "move_toward_right_hand_tangent_point"}

    def test_penetrations_match_pair_loop(self):
        rng = np.random.default_rng(13)
        total = 0
        for n in list(range(0, 6)) + [30, 60]:
            positions = rng.uniform(0, 0.3 * n + 0.5, (n, 2))
            radii = rng.choice([0.25, 0.4], n)
            got = sim._penetrations(positions, radii, 1e-3 * 0.25)
            assert got == oracles.scalar_penetrations(positions, radii, 1e-3 * 0.25)
            total += len(got)
        assert total > 0

    @pytest.mark.parametrize("project,robots", [("toy", 2), ("tractor", 5)])
    def test_ready_queue_fires_like_full_scan(self, pipeline, params, toy_spec, tractor_spec,
                                              project, robots):
        data = pipeline(toy_spec if project == "toy" else tractor_spec, project, robots)
        world = sim.World(data["greedy"].graph, data["plan"], data["configs"],
                          data["fleet"], params)
        world.status = _StatusLog(world.status)
        fire = world.fire_checkpoints
        fired = []

        def checked():
            want = oracles.scan_fire_checkpoints(world)
            start = len(world.status.log)
            done = fire()
            assert world.status.log[start:] == want, world.t
            fired.extend(want)
            return done

        world.fire_checkpoints = checked
        while not sim.step(world):
            pass
        kinds = {world.graph.nodes[nid].kind for nid, _ in fired}
        assert {"LiftIntoPlace", "RobotGo", "ProjectComplete"} <= kinds
        assert world.status[world.graph.terminal_nodes[0]] == "complete"


class _StatusLog(dict):
    """A node status dict that logs every assignment."""

    def __init__(self, status):
        super().__init__(status)
        self.log = []

    def __setitem__(self, nid, value):
        self.log.append((nid, value))
        super().__setitem__(nid, value)
