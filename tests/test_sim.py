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
