"""Acceptance criteria for the planning stack, one test per criterion.

Expected values come from the independent oracles in tests/oracles.py or
from hand-derived constructions; tolerances are stated inline.
"""

from __future__ import annotations

import hashlib
import io
import math
import time

import numpy as np
import pytest

from assemblyforge import (
    allocation,
    geometry,
    ldraw,
    model,
    projects,
    schedule,
    sim,
    staging,
    transport,
)
from . import oracles


# -- 1. radial layout vs constrained-QP oracle --------------------------------


def test_radial_layout_matches_qp_oracle():
    rng = np.random.default_rng(7)
    t_start = time.perf_counter()
    solved = 0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        theta = np.sort(rng.uniform(0, 2 * math.pi, n))
        rho = rng.uniform(0.05, 0.5, n)
        hub = float(rng.uniform(0.5, 3.0))
        problem = staging.RadialLayoutProblem(theta, rho, hub)
        result = staging.solve_radial_layout(problem)
        oracle_angles, oracle_obj = oracles.radial_layout_qp(theta, rho, hub)
        if not result.feasible:
            assert oracle_angles is None
            continue
        solved += 1
        assert result.objective <= oracle_obj + 1e-6
        # ring constraints with slack >= -1e-9
        delta = problem.half_widths
        ang = result.angles
        for i in range(n - 1):
            assert ang[i + 1] - ang[i] >= delta[i] + delta[i + 1] - 1e-9
        if n > 1:
            assert ang[0] + 2 * math.pi - ang[-1] >= delta[-1] + delta[0] - 1e-9
    assert solved >= 50  # the sampler must actually exercise the solver
    assert time.perf_counter() - t_start < 5.0


# -- 2. carry positions vs exhaustive subset search ---------------------------


def test_carry_positions_against_exhaustive():
    rng = np.random.default_rng(11)
    t_start = time.perf_counter()
    checked = 0
    seeds = 0
    while seeds < 100:
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(4, 10)), 2))
        hull = geometry.convex_hull_2d(pts).vertices
        m = len(hull)
        if m < 3 or m > 8:
            continue
        seeds += 1
        for n in range(2, m + 1):
            chosen = transport.select_carry_positions(hull, n, seed=seeds)
            # every returned row is a hull vertex
            for row in chosen:
                assert any(np.allclose(row, v) for v in hull)
            score = oracles.scalar_carry_score(chosen)
            best, _ = oracles.exhaustive_carry(hull, n, oracles.scalar_carry_score)
            assert score >= 0.95 * best - 1e-12
            checked += 1
    assert checked >= 100

    # regular hexagon with n = 3 must return an alternating vertex triple
    hexagon = np.array([
        [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)
    ])
    tri = transport.select_carry_positions(hexagon, 3, seed=0)
    idx = sorted(
        next(i for i, v in enumerate(hexagon) if np.allclose(v, row)) for row in tri
    )
    assert idx in ([0, 2, 4], [1, 3, 5])
    assert time.perf_counter() - t_start < 10.0


# -- 3. team-size formula hand cases ------------------------------------------


def test_team_size_hand_cases():
    r = 0.25

    def pts3(xy):
        xy = np.asarray(xy, float)
        return np.column_stack([xy, np.zeros(len(xy))])

    # square with side 4r: perimeter 16r, wide -> 4 robots
    square = pts3([[0, 0], [4 * r, 0], [4 * r, 4 * r], [0, 4 * r]])
    stats = transport.footprint_stats(square, r)
    assert transport.team_size(stats, r) == 4

    # skinny rectangle with perimeter 6r and width < 2r -> 1 robot
    skinny = pts3([[0, 0], [2.9 * r, 0], [2.9 * r, 0.1 * r], [0, 0.1 * r]])
    stats = transport.footprint_stats(skinny, r)
    assert abs(stats.perimeter - 6 * r) < 1e-12
    assert transport.team_size(stats, r) == 1

    # tiny footprint with perimeter < pi * r -> 1 robot
    tiny = pts3([[0, 0], [0.2 * r, 0], [0.2 * r, 0.2 * r], [0, 0.2 * r]])
    stats = transport.footprint_stats(tiny, r)
    assert stats.perimeter < math.pi * r
    assert transport.team_size(stats, r) == 1


# -- 4. geometry kernels vs oracles -------------------------------------------


def test_min_circle_and_hull_against_oracles():
    rng = np.random.default_rng(23)
    for trial in range(200):
        pts = rng.uniform(-5, 5, size=(int(rng.integers(3, 41)), 2))
        circle = geometry.min_enclosing_circle(pts, seed=trial)
        _, oracle_r = oracles.grid_min_circle(pts)
        assert abs(circle.radius - oracle_r) <= 1e-6
        for p in pts:
            assert float(np.linalg.norm(p - circle.center)) <= circle.radius + 1e-9

        hull = geometry.convex_hull_2d(pts).vertices
        oracle_hull = oracles.gift_wrap_hull(pts)
        got = {tuple(np.round(v, 9)) for v in hull}
        want = {tuple(np.round(v, 9)) for v in oracle_hull}
        assert got == want


# -- 5. schedule validity on the bundled suite --------------------------------


@pytest.mark.parametrize("name,robots", [("toy", 2), ("tractor", 5), ("synthetic", 8)])
def test_bundled_schedules_validate(pipeline, toy_spec, tractor_spec,
                                    synthetic_spec, name, robots):
    spec = {"toy": toy_spec, "tractor": tractor_spec, "synthetic": synthetic_spec}[name]
    stage = pipeline(spec, name, robots)
    assert schedule.validate_schedule(stage["graph"], "partial") == []
    complete = stage["greedy"].graph
    assert schedule.validate_schedule(complete, "complete") == []
    assert schedule.is_acyclic(complete)


# -- 6. exact solver vs exhaustive oracle -------------------------------------


def _tiny_project(n_parts: int, phases: int = 1):
    """Assembly of single-robot parts, n_parts split across `phases`."""
    part = projects._box(0.2, 0.2, 0.2)
    ids = [f"p@{i + 1}" for i in range(n_parts)]
    comps = tuple(
        (pid, model.Transform(np.eye(3), [0.4 * i - 0.2 * (n_parts - 1), 0.0, 0.0]))
        for i, pid in enumerate(ids)
    )
    per = math.ceil(n_parts / phases)
    groups = [ids[i: i + per] for i in range(0, n_parts, per)]
    asm = model.Assembly(
        id="job", components=comps,
        build_phases=tuple(model.BuildPhase(k + 1, tuple(g))
                           for k, g in enumerate(groups)),
    )
    return model.ProjectSpec(assemblies={"job": asm}, root="job",
                             parts_catalog=dict.fromkeys(ids, part))


def _build_stage(spec, robots: int, params):
    fleet = projects.default_fleet(robots)
    configs = transport.configure_all_transport_units(spec, fleet)
    plan = staging.build_staging_plan(spec, configs, params)
    graph = schedule.build_partial_schedule(spec, plan, configs, fleet, params)
    return fleet, graph


def test_bnb_equals_exhaustive_and_beats_greedy(pipeline, params, toy_spec,
                                                tractor_spec, synthetic_spec):
    t_start = time.perf_counter()
    small = [
        (projects.toy_project(), 2),
        (projects.toy_project(), 3),
        (_tiny_project(3), 2),
        (_tiny_project(3, phases=3), 2),
        (_tiny_project(4), 4),
    ]
    for spec, robots in small:
        fleet, graph = _build_stage(spec, robots, params)
        result = allocation.solve_bnb(graph, fleet)
        oracle_best, _ = oracles.exhaustive_allocation(
            graph, fleet, schedule.evaluate_schedule)
        assert result.status == "optimal"
        assert result.makespan == oracle_best

    # on every bundled instance the exact pass never loses to greedy
    for name, spec, robots in [("toy", toy_spec, 2), ("tractor", tractor_spec, 5),
                               ("synthetic", synthetic_spec, 8)]:
        stage = pipeline(spec, name, robots)
        result = allocation.solve_bnb(stage["graph"], stage["fleet"], incumbent=stage["greedy"],
                                      max_nodes=5000, time_limit=10.0)
        assert result.makespan <= stage["greedy"].makespan + 1e-9
        assert schedule.validate_schedule(result.graph, "complete") == []
    assert time.perf_counter() - t_start < 60.0


def test_bnb_matches_highs(params):
    """HiGHS, solving the exported model, reaches B&B's optimum on the tiny
    instances above (to 1e-6: the LP text rounds coefficients to 9 digits)."""
    for spec, robots in [
        (projects.toy_project(), 2),
        (projects.toy_project(), 3),
        (_tiny_project(3), 2),
        (_tiny_project(3, phases=3), 2),
        (_tiny_project(4), 4),
    ]:
        fleet, graph = _build_stage(spec, robots, params)
        result = allocation.solve_bnb(graph, fleet)
        assert result.status == "optimal"
        buf = io.BytesIO()
        allocation.export_lp(allocation.build_milp(graph, fleet), buf)
        assert oracles.highs_optimum(buf.getvalue().decode("ascii")) == pytest.approx(
            result.makespan, abs=1e-6)


# -- 7. greedy predicted makespan trend ---------------------------------------


def test_greedy_makespan_non_increasing(pipeline, tractor_spec):
    spans = [pipeline(tractor_spec, "tractor", n)["greedy"].makespan
             for n in (5, 10, 15)]
    assert spans[0] >= spans[1] >= spans[2]


# -- 8. dispersion force vs finite differences --------------------------------


def test_dispersion_force_matches_finite_differences():
    rng = np.random.default_rng(31)
    delta = 1e-4
    h = 1e-6
    checked = 0
    while checked < 1000:
        p_i = rng.uniform(-3, 3, 2)
        p_j = rng.uniform(-3, 3, 2)
        r_i, r_j = rng.uniform(0.1, 0.4, 2)
        big_r = float(rng.uniform(0.0, 1.5))
        dist = float(np.linalg.norm(p_i - p_j))
        gap = dist - big_r
        # skip singular band and switching surfaces
        if dist < 1e-2 or gap <= delta + 1e-3:
            continue
        if abs(dist - (big_r + r_i + r_j)) < 1e-3 or abs(gap - (r_i + r_j)) < 1e-3:
            continue
        force = sim.dispersion_force(p_i, p_j, r_i, r_j, big_r, delta)
        fd = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd[k] = (
                oracles.dispersion_potential(p_i + e, p_j, r_i, r_j, big_r)
                - oracles.dispersion_potential(p_i - e, p_j, r_i, r_j, big_r)
            ) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert float(np.linalg.norm(force - fd)) <= 1e-5 * scale
        checked += 1


# -- 9. closed-loop collision avoidance scenarios -----------------------------


def _run_rvo_scenario(starts, goals, radius, speed, duration, dt, alphas=None):
    n = len(starts)
    pos = [np.array(p, float) for p in starts]
    vel = [np.zeros(2) for _ in range(n)]
    if alphas is None:
        shares = [[0.0 if i == j else 0.5 for j in range(n)] for i in range(n)]
    else:
        shares = [[0.0 if i == j else alphas[i] / (alphas[i] + alphas[j])
                   for j in range(n)] for i in range(n)]
    caps = [speed] * n
    radii = [radius] * n
    penetrations = 0
    best_err = math.inf
    steps = int(round(duration / dt))
    for _ in range(steps):
        prefs = []
        for i in range(n):
            d = goals[i] - pos[i]
            dist = float(np.linalg.norm(d))
            prefs.append(np.zeros(2) if dist < 1e-9
                         else d / dist * min(speed, dist / dt))
        cmds = sim.rvo_resolve(pos, radii, vel, prefs, caps, shares, dt, tau=2.0)
        for i in range(n):
            vel[i] = cmds[i]
            pos[i] = pos[i] + cmds[i] * dt
        for i in range(n):
            for j in range(i + 1, n):
                if float(np.linalg.norm(pos[i] - pos[j])) < 2 * radius - 1e-3 * radius:
                    penetrations += 1
        err = max(float(np.linalg.norm(pos[i] - goals[i])) for i in range(n))
        best_err = min(best_err, err)
    return penetrations, best_err


def _antipodal_ring(n: int, ring_r: float):
    """Jittered ring starts with antipodal goals and a priority ladder.

    Distinct priorities mirror the planner's dynamic alpha mechanism; with
    equal priorities a perfectly symmetric exchange is a known reciprocal-
    avoidance gridlock, which is out of scope for this criterion."""
    starts, goals = [], []
    for k in range(n):
        a = 2 * math.pi * k / n + 0.03 * (k + 1)
        starts.append((ring_r * math.cos(a), ring_r * math.sin(a)))
        goals.append(np.array([-ring_r * math.cos(a), -ring_r * math.sin(a)]))
    alphas = [0.1 + 0.9 * k / (n - 1) for k in range(n)]
    return starts, goals, alphas


def test_rvo_scenarios_collision_free():
    r, v, dt, T = 0.25, 1.0, 0.05, 10.0

    # head-on pair (tiny lateral offset breaks the exact mirror symmetry)
    starts = [(-2.0, 0.0), (2.0, 0.01)]
    goals = [np.array([2.0, 0.0]), np.array([-2.0, 0.01])]
    pens, err = _run_rvo_scenario(starts, goals, r, v, T, dt)
    assert pens == 0
    assert err < 0.1

    # crossing quartet through the origin
    starts, goals, alphas = _antipodal_ring(4, 2.0)
    pens, err = _run_rvo_scenario(starts, goals, r, v, T, dt, alphas)
    assert pens == 0
    assert err < 0.1

    # 10-agent antipodal ring exchange
    starts, goals, alphas = _antipodal_ring(10, 3.0)
    pens, err = _run_rvo_scenario(starts, goals, r, v, T, dt, alphas)
    assert pens == 0
    assert err < 0.1


# -- 10. full-stack simulation runs -------------------------------------------


@pytest.mark.parametrize("robots", [5, 10, 15])
def test_full_stack_tractor(pipeline, tractor_spec, params, robots):
    stage = pipeline(tractor_spec, "tractor", robots)
    _, _, predicted = schedule.evaluate_schedule(stage["greedy"].graph, stage["fleet"])
    t_start = time.perf_counter()
    trace = sim.simulate(stage["greedy"].graph, stage["plan"], stage["configs"],
                         stage["fleet"], params, io.StringIO(), max_steps=20_000)
    runtime = time.perf_counter() - t_start
    assert not trace.deadlocked
    assert trace.steps <= 20_000
    assert trace.collision_count == 0
    assert trace.execution_makespan >= predicted
    assert runtime < 120.0


def test_full_stack_deterministic(pipeline, tractor_spec, params):
    stage = pipeline(tractor_spec, "tractor", 5)

    def run_hash():
        sink = io.StringIO()
        trace = sim.simulate(stage["greedy"].graph, stage["plan"], stage["configs"],
                             stage["fleet"], params, sink, max_steps=20_000)
        blob = sink.getvalue() + sim.events_to_jsonl(trace)
        return hashlib.sha256(blob.encode()).hexdigest()

    assert run_hash() == run_hash()


# -- 11. LP export reparses and declares the sparse binaries ------------------


def test_lp_export_reparse_and_variable_set(params):
    spec = _tiny_project(3)
    fleet, graph = _build_stage(spec, 2, params)
    milp = allocation.build_milp(graph, fleet)
    buf = io.BytesIO()
    allocation.export_lp(milp, buf)
    text = buf.getvalue().decode("ascii")
    parsed = oracles.parse_lp(text)

    # structural sanity of the reparse
    assert parsed["objective"]
    assert parsed["constraints"]
    assert parsed["binaries"] <= parsed["variables"]

    # eligible pairs computed independently: any (source, pickup) whose edge
    # would not close a cycle in the partial graph
    pickups = sorted(n for n, nd in graph.nodes.items()
                     if nd.kind == "RobotGo" and nd.role == "pickup")
    sources = sorted(n for n, nd in graph.nodes.items()
                     if nd.kind == "RobotStart"
                     or (nd.kind == "RobotGo" and nd.role == "dropoff"))
    pred = {v: [] for v in graph.nodes}
    for u, v in graph.edges:
        pred[v].append(u)

    def ancestors(v):
        seen, stack = set(), list(pred[v])
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(pred[x])
        return seen

    up = {u: ancestors(u) for u in sources}
    eligible = {(u, v) for u in sources for v in pickups if v not in up[u]}
    assert set(milp.variables) == eligible

    # the Binary section declares exactly one variable per eligible pair
    assert len(parsed["binaries"]) == len(eligible)
    for name in parsed["binaries"]:
        assert name.startswith("X_")


# -- 12. MPD parser on the tractor ---------------------------------------------


def test_tractor_mpd_parse():
    text = projects._data_text("tractor.mpd")
    table = projects.bundled_dimension_table()
    project = ldraw.parse_mpd(text, table, units_per_meter=projects.UNITS_PER_METER).project
    assert len(project.assemblies) == 8
    assert len(project.parts_catalog) == 20

    # STEP-delimited phase structure
    root = project.assemblies["tractor.ldr"]
    assert [len(p.member_ids) for p in root.build_phases] == [1, 2, 2]
    chassis = project.assemblies["chassis.ldr@1"]
    assert [len(p.member_ids) for p in chassis.build_phases] == [2, 2, 2]
    for wid in ("wheel_left.ldr@1", "wheel_right.ldr@1"):
        wheel = project.assemblies[wid]
        assert [len(p.member_ids) for p in wheel.build_phases] == [1, 1, 1]
