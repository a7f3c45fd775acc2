import dataclasses
import heapq
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from assemblyforge import allocation, projects, schedule, staging, transport
from assemblyforge.model import (
    Assembly, BuildPhase, PlanParams, ProjectError, ProjectSpec, RobotFleet, Transform,
)

from . import oracles


def _lp_text(milp) -> str:
    buf = io.StringIO()
    allocation.export_lp(milp, buf)
    return buf.getvalue()


def _random_fleet(rng, grid):
    """Robots robot0... in sorted-id rows, so that row order is string order
    (robot10 before robot2), their positions and availabilities, goal
    positions by slot, and a speed. On integer grids many (robot, goal)
    pairs tie on time."""
    n_robots, n_goals = int(rng.integers(1, 13)), int(rng.integers(1, 6))
    if grid:
        pos = rng.integers(-3, 4, (n_robots + n_goals, 2)).astype(float)
        avail = rng.integers(0, 3, n_robots).astype(float)
    else:
        pos = rng.uniform(-5, 5, (n_robots + n_goals, 2))
        avail = rng.uniform(0, 3, n_robots) * (rng.random(n_robots) < 0.5)
    ids = sorted(f"robot{i}" for i in range(n_robots))
    return ids, pos[:n_robots], avail, pos[n_robots:], float(rng.choice([1.0, 0.7]))


def _robot_states(rng, ids, position, available):
    """The fleet as oracle robots, listed in shuffled order."""
    return [oracles.RobotState(ids[i], position[i], available_time=available[i])
            for i in rng.permutation(len(ids))]


class TestEarliestArrival:
    def test_picks_fastest_and_breaks_ties_by_id(self):
        goals = np.array([[1.0, 0.0], [2.0, 0.0]])
        times = allocation.earliest_arrival(np.zeros((2, 2)), np.zeros(2), goals, 1.0)
        assert times.tolist() == [[1.0, 2.0], [1.0, 2.0]]
        pairs, key = allocation._greedy_team(times)
        assert pairs == [(0, 0), (1, 1)]  # tie on time, the lower row (id) wins
        assert key == (2.0, 1, 1)

    def test_availability_delays_arrival(self):
        times = allocation.earliest_arrival(np.array([[0.0, 0.0], [10.0, 0.0]]),
                                            np.array([5.0, -2.0]), np.array([[1.0, 0.0]]), 1.0)
        assert times.tolist() == [[6.0], [9.0]]  # a negative availability counts as 0
        assert allocation._greedy_team(times) == ([(0, 0)], (6.0, 0, 0))  # 5 + 1 beats 9

    def test_empty_inputs_rejected(self):
        for robots, goals in [(0, 1), (1, 0)]:
            with pytest.raises(allocation.AllocationError):
                allocation.earliest_arrival(np.zeros((robots, 2)), np.zeros(robots),
                                            np.zeros((goals, 2)), 1.0)

    @pytest.mark.parametrize("grid", [False, True], ids=["uniform", "integer-grid"])
    def test_equals_scalar_loop_bitwise(self, grid):
        rng = np.random.default_rng(9)
        for _ in range(400):
            ids, position, available, goals, v_max = _random_fleet(rng, grid)
            times = allocation.earliest_arrival(position, available, goals, v_max)
            row, col = divmod(int(times.argmin()), times.shape[1])
            (o_robot, (o_slot, _)), o_t = oracles.scalar_earliest_arrival(
                _robot_states(rng, ids, position, available), list(enumerate(goals)), v_max)
            assert (ids[row], col, float(times[row, col])) == (o_robot.id, o_slot, o_t)

    @pytest.mark.parametrize("grid", [False, True], ids=["uniform", "integer-grid"])
    def test_team_equals_scalar_pool_loop(self, grid):
        rng = np.random.default_rng(10)
        for _ in range(400):
            ids, position, available, goals, v_max = _random_fleet(rng, grid)
            goals = goals[:len(ids)]
            pairs, (t, row, col) = allocation._greedy_team(
                allocation.earliest_arrival(position, available, goals, v_max))
            # the pool loop of `oracles.greedy_reference`, keyed by (t, id, slot)
            pool = _robot_states(rng, ids, position, available)
            free = list(enumerate(goals))
            want = []
            while free:
                (robot, (slot, _)), o_t = oracles.scalar_earliest_arrival(pool, free, v_max)
                want.append((robot.id, slot))
                pool = [r for r in pool if r.id != robot.id]
                free = [g for g in free if g[0] != slot]
            assert [(ids[i], j) for i, j in pairs] == want
            assert (t, ids[row], col) == (o_t, robot.id, slot)


class TestGreedy:
    def test_frozen_toy_makespans(self, pipeline, toy_spec):
        # makespan decreases when a third robot removes chaining
        r2 = pipeline(toy_spec, "toy", 2)["greedy"]
        r3 = pipeline(toy_spec, "toy", 3)["greedy"]
        assert r2.makespan == pytest.approx(10.273791780023945, abs=1e-9)
        assert r3.makespan == pytest.approx(10.232042249262118, abs=1e-9)
        assert r2.status == "incumbent" and r2.method == "greedy"

    def test_frozen_tractor_makespan(self, pipeline, tractor_spec):
        r = pipeline(tractor_spec, "tractor", 5)["greedy"]
        assert r.makespan == pytest.approx(357.5042436789421, abs=1e-6)

    def test_complete_and_valid(self, pipeline, toy_spec):
        r = pipeline(toy_spec, "toy", 2)["greedy"]
        assert schedule.validate_schedule(r.graph, "complete") == []
        assert r.added_edges  # chain edges were actually added

    @pytest.mark.parametrize("case", [
        ("toy", 2), ("tractor", 5), ("tractor", 10), ("tractor", 15),
        *((f"synthetic-{seed}", robots) for seed in range(3) for robots in (8, 12)),
    ], ids=lambda c: f"{c[0]}-{c[1]}")
    def test_cached_teams_equal_uncached_reference(self, pipeline, toy_spec, tractor_spec,
                                                   case):
        name, robots = case
        if name.startswith("synthetic"):
            spec = projects.synthetic_project(int(name.split("-")[1]))
        else:
            spec = {"toy": toy_spec, "tractor": tractor_spec}[name]
        data = pipeline(spec, name, robots)
        expected = oracles.greedy_reference(data["graph"], data["fleet"])
        assert data["greedy"].added_edges == expected.added_edges
        assert data["greedy"].makespan == expected.makespan

    def test_arrival_matrix_equals_reference_at_32_robots(self, pipeline):
        # 200 parts: every commit refreshes its movers' rows of the one
        # robot x goal matrix, and hundreds of cached teams are kept or dropped
        data = pipeline(projects.synthetic_project(0, 8, 25), "synthetic-0-8x25", 32)
        expected = oracles.greedy_reference(data["graph"], data["fleet"])
        assert data["greedy"].added_edges == expected.added_edges
        assert data["greedy"].makespan == expected.makespan

    def test_equals_reference_at_250_robots(self, pipeline):
        # the paper-scale fleet: most robots idle, most teams one robot, and
        # each commit drops the teams that picked its movers
        data = pipeline(projects.synthetic_project(0, 4, 25), "synthetic-0-4x25", 250)
        expected = oracles.greedy_reference(data["graph"], data["fleet"])
        assert data["greedy"].added_edges == expected.added_edges
        assert data["greedy"].makespan == expected.makespan

    def test_no_pickup_builds_no_arrival_matrix(self):
        # with no goal there is no matrix to build: greedy ends as the
        # reference does, on the schedule check, not in earliest_arrival
        fleet = projects.default_fleet(2)
        starts = [schedule.ScheduleNode("RobotStart", f"robot{i}", origin=tuple(p),
                                        duration=0.0)
                  for i, p in enumerate(fleet.initial_positions.tolist())]
        done = schedule.ScheduleNode("ProjectComplete", "job", duration=0.0)
        graph = schedule.ScheduleGraph({n.id: n for n in [*starts, done]}, frozenset(),
                                       (done.id,))
        assert not graph.pickups
        with pytest.raises(allocation.AllocationError) as want:
            oracles.greedy_reference(graph, fleet)
        with pytest.raises(allocation.AllocationError) as got:
            allocation.greedy_pccf(graph, fleet)
        assert str(got.value) == str(want.value)
        assert "greedy produced an invalid schedule" in str(got.value)

    def test_cached_teams_equal_reference_with_scattered_dropoffs(self, tractor_spec):
        # With instant form, transport and deposit and the dropoffs scattered,
        # a robot that just delivered can reach a cached team's goal before
        # that team's last pick: the second cache-drop rule must fire
        params = PlanParams(buffer_radius=0.25, duration_form=0.0,
                            duration_deposit=0.0)
        configs = transport.configure_all_transport_units(
            tractor_spec, projects.default_fleet(5))
        plan = staging.build_staging_plan(tractor_spec, configs, params)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            robots = int(rng.integers(4, 10))
            spread = float(rng.choice([3.0, 10.0, 30.0]))
            try:
                fleet = RobotFleet(robots, 0.25, 1.0, 0.2, 0.25,
                                   rng.uniform(-spread, spread, (robots, 2)))
            except ProjectError:  # two robots drawn closer than 2r
                continue
            graph = schedule.build_partial_schedule(tractor_spec, plan, configs, fleet,
                                                    params)
            nodes = {}
            for nid, node in graph.nodes.items():
                if node.kind == "TransportUnitGo":
                    node = dataclasses.replace(node, duration=0.0)
                elif node.kind == "RobotGo" and node.role == "dropoff":
                    node = dataclasses.replace(
                        node, origin=tuple(rng.uniform(-spread, spread, 2)))
                nodes[nid] = node
            graph = dataclasses.replace(graph, nodes=nodes)
            got = allocation.greedy_pccf(graph, fleet)
            expected = oracles.greedy_reference(graph, fleet)
            assert got.added_edges == expected.added_edges, seed
            assert got.makespan == expected.makespan, seed

    def test_cache_drop_breaks_time_ties_by_row(self, params):
        # Two single-robot parts on integer coordinates, v_max 1 and instant
        # form, transport and deposit. p@1 goes to robot0 at t = 1 and p@2's
        # cached team is robot1 at t = 4; robot0 then leaves p@1's dropoff at
        # t = 1 and reaches p@2's goal at exactly t = 4. The tie goes to the
        # lower row, so the cached team must be dropped and p@2 go to robot0.
        ids = ("p@1", "p@2")
        asm = Assembly(id="job", components=tuple(
            (pid, Transform(np.eye(3), [0.4 * i, 0.0, 0.0])) for i, pid in enumerate(ids)),
            build_phases=(BuildPhase(1, ids),))
        spec = ProjectSpec(assemblies={"job": asm}, root="job",
                           parts_catalog=dict.fromkeys(ids, projects._box(0.2, 0.2, 0.2)))
        fleet = RobotFleet(2, 0.25, 1.0, 0.2, 0.25, [[0.0, 0.0], [6.0, 0.0]])
        configs = transport.configure_all_transport_units(spec, fleet)
        plan = staging.build_staging_plan(spec, configs, params)
        graph = schedule.build_partial_schedule(spec, plan, configs, fleet, params)
        goal = {"p@1": (1.0, 0.0), "p@2": (10.0, 0.0)}
        nodes = {}
        for nid, node in graph.nodes.items():
            if node.kind in ("FormTransportUnit", "TransportUnitGo", "DepositCargo"):
                node = dataclasses.replace(node, duration=0.0)
            elif node.kind == "RobotGo" and node.role == "pickup":
                node = dataclasses.replace(node, destination=goal[node.subject])
            elif node.kind == "RobotGo":
                node = dataclasses.replace(node, origin=(7.0, 0.0))
            nodes[nid] = node
        graph = dataclasses.replace(graph, nodes=nodes)
        got = allocation.greedy_pccf(graph, fleet)
        assert got.added_edges == oracles.greedy_reference(graph, fleet).added_edges
        assert got.added_edges == ((graph.robot_starts[0], graph.pickups["p@1"][0]),
                                   (graph.dropoffs["p@1"][0], graph.pickups["p@2"][0]))

    def test_undersized_fleet_rejected(self, toy_spec, params):
        fleet = projects.default_fleet(1)
        cfg = transport.configure_all_transport_units(toy_spec, fleet)
        plan = staging.build_staging_plan(toy_spec, cfg, params)
        graph = schedule.build_partial_schedule(toy_spec, plan, cfg, fleet,
                                                params)
        with pytest.raises(allocation.AllocationError, match="fleet smaller"):
            allocation.greedy_pccf(graph, fleet)


class TestMilpModel:
    def test_candidate_edges_exclude_upstream_sources(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        graph = data["graph"]
        edges = allocation.build_milp(graph, data["fleet"]).variables
        # a payload's own dropoff is downstream of its pickup: never eligible
        for u, v in edges:
            assert v not in schedule.upstream(graph, u)
        starts = [u for u, _ in edges
                  if graph.nodes[u].kind == "RobotStart"]
        assert set(starts) == {"RobotStart:robot0", "RobotStart:robot1"}

    @pytest.mark.parametrize("name,robots", [("toy", 2), ("tractor", 5), ("synthetic", 8)])
    def test_candidate_edges_equal_reference(self, pipeline, toy_spec, tractor_spec,
                                             synthetic_spec, name, robots):
        spec = {"toy": toy_spec, "tractor": tractor_spec, "synthetic": synthetic_spec}[name]
        data = pipeline(spec, name, robots)
        graph = data["graph"]
        want = oracles.candidate_edges_reference(graph)
        assert list(allocation.build_milp(graph, data["fleet"]).variables) == want

    def test_big_m_dominates_any_chain(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        milp = allocation.build_milp(data["graph"], data["fleet"])
        assert milp.big_m > data["greedy"].makespan

    def test_export_reparses(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        milp = allocation.build_milp(data["graph"], data["fleet"])
        text = _lp_text(milp)
        parsed = oracles.parse_lp(text)
        import re
        names = {re.sub(r"[^A-Za-z0-9_]", "_", f"X_{u}__{v}")
                 for u, v in milp.variables}
        assert parsed["binaries"] == names
        assert set(parsed["objective"]) == {"tF_ProjectComplete_toy"}
        assert text.rstrip().endswith("End")


class TestBranchAndBound:
    def test_optimal_on_toy_matches_exhaustive(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        result = allocation.solve_bnb(data["graph"], data["fleet"], incumbent=data["greedy"])
        assert result.status == "optimal"
        best, _ = oracles.exhaustive_allocation(
            data["graph"], data["fleet"],
            lambda g, f: schedule.evaluate_schedule(g, f))
        assert result.makespan == pytest.approx(best, abs=1e-12)
        assert result.makespan <= data["greedy"].makespan + 1e-12

    def test_node_limit_returns_incumbent(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        result = allocation.solve_bnb(data["graph"], data["fleet"], incumbent=data["greedy"],
                                      max_nodes=1)
        assert result.status == "incumbent"
        assert result.makespan == pytest.approx(data["greedy"].makespan)

    def test_no_incumbent_and_no_budget_is_infeasible_report(self, pipeline,
                                                             toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        result = allocation.solve_bnb(data["graph"], data["fleet"], max_nodes=0)
        assert result.status == "infeasible"
        assert result.makespan == math.inf


# (name, robots, node caps); None runs the search to the end
# tractor-15's 2,000 nodes are the benchmark's run, where the dominance rule
# skips most children
REFERENCE_RUNS = [("toy", 2, [None]), ("toy", 3, [None])] + [
    (name, robots, [1, 2, 3, 7, 50, 200] + extra)
    for name, robots, extra in [("tractor", 5, []), ("tractor", 10, []),
                                ("tractor", 15, [2000]), ("synthetic", 8, []),
                                ("synthetic-1", 8, [])]]


@pytest.mark.parametrize("name,robots,caps", REFERENCE_RUNS,
                         ids=[f"{n}-{r}" for n, r, _ in REFERENCE_RUNS])
def test_bnb_equals_reference(pipeline, toy_spec, tractor_spec, synthetic_spec,
                              monkeypatch, name, robots, caps):
    """The incremental bound explores the nodes the rebuilt-graph search
    explores and returns its schedule; several node caps pin the prefix of
    the search, not only its end. Without an incumbent nothing is pruned,
    so the first leaf, which that run reaches on every instance but
    tractor-5, pins the order in which each pickup's chain sources are
    tried."""
    spec = {"toy": toy_spec, "tractor": tractor_spec, "synthetic": synthetic_spec,
            "synthetic-1": projects.synthetic_project(1)}[name]
    data = pipeline(spec, name, robots)
    graph, fleet = data["graph"], data["fleet"]
    _, _, root_bound = schedule.evaluate_schedule(graph, fleet, partial_ok=True)
    evaluations = []  # the reference evaluates each explored node

    def counted_evaluate(*args, **kwargs):
        evaluations.append(args)
        return schedule.evaluate_schedule(*args, **kwargs)

    monkeypatch.setattr(oracles, "evaluate_schedule", counted_evaluate)
    first_leaf = sum(map(len, graph.pickups.values())) + 1
    for incumbent, cap in [(data["greedy"], cap) for cap in caps] + [(None, first_leaf)]:
        got = allocation.solve_bnb(graph, fleet, incumbent=incumbent, max_nodes=cap)
        evaluations.clear()
        want = oracles.solve_bnb_reference(graph, fleet, incumbent=incumbent, max_nodes=cap)
        assert got.added_edges == want.added_edges, cap
        assert got.makespan == want.makespan, cap
        assert got.status == want.status, cap
        # the reference evaluates its result too, unless it found none
        assert got.bnb_nodes == len(evaluations) - (want.status != "infeasible"), cap
        assert got.bnb_root_bound == root_bound
        assert (json.dumps(schedule.schedule_to_jsonable(got.graph), sort_keys=True)
                == json.dumps(schedule.schedule_to_jsonable(want.graph), sort_keys=True)), cap


def test_bnb_skips_dominated_children(pipeline, tractor_spec, monkeypatch):
    """A child whose pickup would finish no earlier than in a pruned sibling
    is counted as explored but never propagated. Every considered child
    times its pickup once, so each one, skipped or not, is one explored
    node; and on tractor-15 from greedy at 2,000 nodes the search pops under
    half of the 189,283 heap entries that propagating every child pops."""
    data = pipeline(tractor_spec, "tractor", 15)
    pops, timed = [0], [0]
    heappop, travel_time = heapq.heappop, allocation.travel_time

    def counted_pop(heap):
        pops[0] += 1
        return heappop(heap)

    def counted_travel_time(*args):
        timed[0] += 1
        return travel_time(*args)

    monkeypatch.setattr(heapq, "heappop", counted_pop)
    monkeypatch.setattr(allocation, "travel_time", counted_travel_time)
    result = allocation.solve_bnb(data["graph"], data["fleet"], incumbent=data["greedy"],
                                  max_nodes=2000)
    assert (result.bnb_nodes, result.status) == (2000, "incumbent")
    assert timed[0] == result.bnb_nodes - 1  # every node but the root is a child
    assert pops[0] < 189_283 // 2


def test_bnb_rejects_an_assigned_pickup(pipeline, toy_spec):
    """The dominance rule needs the chosen source to be a pickup's only
    predecessor, so a schedule that already assigns a pickup is refused."""
    data = pipeline(toy_spec, "toy", 2)
    with pytest.raises(allocation.AllocationError, match="pickup has a predecessor"):
        allocation.solve_bnb(data["greedy"].graph, data["fleet"])


def _colliding_names_graph(params):
    """Two bricks whose ids, `brick@1` and `brick_1`, give every one of their
    nodes the same LP name once sanitised, so the exporter suffixes `_2`."""
    ids = ("brick@1", "brick_1")
    asm = Assembly(
        id="pair",
        components=tuple((c, Transform(np.eye(3), np.array([80.0 * i, 0.0, 0.0])))
                         for i, c in enumerate(ids)),
        build_phases=(BuildPhase(1, ids),),
    )
    spec = ProjectSpec(assemblies={"pair": asm}, root="pair",
                       parts_catalog={c: projects._box(0.5, 0.5, 0.3) for c in ids})
    fleet = projects.default_fleet(2)
    configs = transport.configure_all_transport_units(spec, fleet)
    plan = staging.build_staging_plan(spec, configs, params)
    return schedule.build_partial_schedule(spec, plan, configs, fleet, params), fleet


def _robot_on_pickup_graph(params, spec):
    """The toy project with robot0 starting exactly on the first pickup
    slot, so that one candidate edge travels 0 and has no
    conditional-duration row."""
    def partial(fleet):
        configs = transport.configure_all_transport_units(spec, fleet)
        plan = staging.build_staging_plan(spec, configs, params)
        return schedule.build_partial_schedule(spec, plan, configs, fleet, params)

    fleet = projects.default_fleet(2)
    graph = partial(fleet)
    pickup = graph.nodes[min(p for ps in graph.pickups.values() for p in ps)]
    starts = fleet.initial_positions.copy()
    starts[0] = pickup.destination
    fleet = dataclasses.replace(fleet, initial_positions=starts)
    return partial(fleet), fleet


@pytest.mark.parametrize("name,robots", [("toy", 2), ("tractor", 5), ("tractor", 15),
                                         ("synthetic", 8), ("colliding-names", 2),
                                         ("robot-on-pickup", 2)])
def test_milp_and_lp_equal_reference(pipeline, params, toy_spec, tractor_spec, synthetic_spec,
                                     name, robots):
    """The array durations carry the scalar `travel_time` bits, and the
    streamed LP is the joined text byte for byte."""
    if name == "colliding-names":
        graph, fleet = _colliding_names_graph(params)
    elif name == "robot-on-pickup":
        graph, fleet = _robot_on_pickup_graph(params, toy_spec)
    else:
        data = pipeline({"toy": toy_spec, "tractor": tractor_spec,
                         "synthetic": synthetic_spec}[name], name, robots)
        graph, fleet = data["graph"], data["fleet"]
    got = allocation.build_milp(graph, fleet)
    want = oracles.build_milp_reference(graph, fleet)
    assert got.variables == want.variables
    want_durations = [want.cond_duration[e] for e in want.variables]
    assert np.array_equal(np.array(got.durations).view(np.uint64),
                          np.array(want_durations).view(np.uint64))
    assert got.big_m == want.big_m
    text = _lp_text(got)
    assert text == oracles.export_lp_reference(want)
    if name == "colliding-names":
        assert " X_RobotStart_robot0__RobotGo_brick_1_0_pickup_2\n" in text
    if name == "robot-on-pickup":
        x = "X_RobotStart_robot0__RobotGo_brick_1_0_pickup"
        assert got.durations[got.variables.index(
            ("RobotStart:robot0", "RobotGo:brick@1:0:pickup"))] == 0.0
        assert f" {x} >= -" in text and f" {x} >= 0\n" not in text


def test_export_lp_streams(pipeline, synthetic_spec):
    """Exporting holds rows, not the model: the peak traced allocation stays
    below a quarter of the text written."""
    data = pipeline(synthetic_spec, "synthetic", 8)
    milp = allocation.build_milp(data["graph"], data["fleet"])
    size = len(_lp_text(milp))
    with open(os.devnull, "w") as devnull:
        tracemalloc.start()
        try:
            allocation.export_lp(milp, devnull)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < size / 4, (peak, size)


def test_export_lp_writes_a_block_at_a_time(pipeline, synthetic_spec):
    """The LP goes out a block at a time, not a row at a time: one write per
    target (its degree rows) and three per source (its out-degree row, its
    big-M rows, its binaries), and a few more for the header, the section
    heads and the chunks of node and edge rows."""
    data = pipeline(synthetic_spec, "synthetic", 8)
    milp = allocation.build_milp(data["graph"], data["fleet"])

    class Counting:
        writes = rows = 0

        def write(self, text):
            self.writes += 1
            self.rows += text.count("\n")

    out = Counting()
    allocation.export_lp(milp, out)
    assert out.rows == _lp_text(milp).count("\n")
    assert out.writes <= 8 + len(milp.targets) + 3 * len(milp.sources), out.writes
    assert out.writes * 20 < out.rows, (out.writes, out.rows)


def test_allocation_jsonable(pipeline, toy_spec):
    data = pipeline(toy_spec, "toy", 2)
    doc = allocation.allocation_to_jsonable(data["greedy"], data["fleet"])
    assert doc["method"] == "greedy"
    assert doc["makespan"] == pytest.approx(data["greedy"].makespan)
    assert set(doc["t0"]) == set(data["greedy"].graph.nodes)
