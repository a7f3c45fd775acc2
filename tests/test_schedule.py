import dataclasses
import json
import random
from collections import deque

import numpy as np
import pytest

from assemblyforge import schedule
from assemblyforge.schedule import ScheduleGraph, ScheduleNode, ScheduleViolation

from . import oracles


def _counts(graph):
    out = {}
    for n in graph.nodes.values():
        out[n.kind] = out.get(n.kind, 0) + 1
    return out


A, B, C = (schedule.node_id("ObjectStart", x) for x in "abc")


def _tiny_graph():
    nodes = {n.id: n for n in (ScheduleNode("ObjectStart", x, duration=0.0) for x in "abc")}
    return ScheduleGraph(nodes=nodes, edges={(A, B), (B, C)}, terminal_nodes=(C,))


def _reference_index(graph):
    """Adjacency and Kahn order rebuilt from sorted(edges) on every call."""
    pred = {v: [] for v in graph.nodes}
    succ = {v: [] for v in graph.nodes}
    for u, v in sorted(graph.edges):
        succ[u].append(v)
        pred[v].append(u)
    indeg = {v: len(ps) for v, ps in pred.items()}
    queue = deque(sorted(v for v, d in indeg.items() if d == 0))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return pred, succ, order


def _reference_lookups(graph):
    """`pickups`, `dropoffs`, `source` and `robot_starts` from a scan over
    the nodes and the predecessors of each FormTransportUnit node."""
    pickups, dropoffs, starts = oracles._chain_structure(graph)
    pred, _, _ = _reference_index(graph)
    source = {}
    for nid, node in graph.nodes.items():
        if node.kind == "FormTransportUnit":
            [src] = [p for p in pred[nid]
                     if graph.nodes[p].kind in ("ObjectStart", "AssemblyComplete")]
            source[node.subject] = src
    return (
        {c: tuple(ps) for c, ps in pickups.items()},
        {c: tuple(by[s] for s in sorted(by)) for c, by in dropoffs.items()},
        source,
        tuple(starts),
    )


def _mutations(graph, count: int, seed: str):
    """`count` copies of `graph`, each with up to 3 of its edges removed and
    up to 3 edges between random nodes added."""
    rng = random.Random(seed)
    ids, edges = sorted(graph.nodes), sorted(graph.edges)
    for _ in range(count):
        drop = set(rng.sample(edges, rng.randint(0, 3)))
        add = {tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 3))}
        yield dataclasses.replace(graph, edges=(graph.edges - drop) | add)


class TestStructure:
    def test_toy_node_counts(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        assert _counts(graph) == {
            "AssemblyStart": 1, "AssemblyComplete": 1, "OpenBuildStep": 1,
            "CloseBuildStep": 1, "ObjectStart": 1, "FormTransportUnit": 1,
            "TransportUnitGo": 1, "DepositCargo": 1, "LiftIntoPlace": 1,
            "ProjectComplete": 1, "RobotGo": 4, "RobotStart": 2,
        }
        assert graph.team_sizes == {"brick@1": 2}
        assert graph.assembly_phases == {"toy": [1]}
        assert graph.payload_phase == {"brick@1": ("toy", 1)}

    def test_index_matches_sorted_edges(self, pipeline, toy_spec, tractor_spec):
        for spec, name, robots in ((toy_spec, "toy", 2), (tractor_spec, "tractor", 5)):
            data = pipeline(spec, name, robots)
            for graph in (data["graph"], data["greedy"].graph):
                pred, succ, order = _reference_index(graph)
                assert graph.adjacency() == (pred, succ)
                assert schedule.topological_order(graph) == order

    @pytest.mark.parametrize("name,robots", [("toy", 2), ("tractor", 5), ("synthetic", 8)])
    def test_lookups_match_node_scan(self, pipeline, toy_spec, tractor_spec, synthetic_spec,
                                     name, robots):
        spec = {"toy": toy_spec, "tractor": tractor_spec, "synthetic": synthetic_spec}[name]
        data = pipeline(spec, name, robots)
        partial, complete = data["graph"], data["greedy"].graph
        graphs = [partial, complete,
                  partial.with_edges(set(data["greedy"].added_edges[:robots]))]
        graphs += [schedule.schedule_from_jsonable(
            json.loads(json.dumps(schedule.schedule_to_jsonable(g)))) for g in (partial, complete)]
        for graph in graphs:
            assert (graph.pickups, graph.dropoffs, graph.source,
                    graph.robot_starts) == _reference_lookups(graph)
        assert len(partial.robot_starts) == robots
        assert set(partial.source) == set(partial.team_sizes)

    def test_node_id_writes_every_id(self, pipeline, tractor_spec):
        graph = pipeline(tractor_spec, "tractor", 5)["greedy"].graph
        for nid, n in graph.nodes.items():
            assert schedule.node_id(n.kind, n.subject, n.slot, n.role) == nid
        assert schedule.node_id("RobotGo", "brick@1", 0, "pickup") == "RobotGo:brick@1:0:pickup"
        assert schedule.node_id("OpenBuildStep", "toy", 1) == "OpenBuildStep:toy:1"

    def test_lookups_built_on_first_use(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        lookups = {"pickups", "dropoffs", "source", "robot_starts"}
        fresh = graph.with_edges(set())
        assert not lookups & vars(fresh).keys()
        assert fresh.pickups is fresh.pickups
        assert fresh.pickups == {"brick@1": ("RobotGo:brick@1:0:pickup",
                                             "RobotGo:brick@1:1:pickup")}
        assert fresh.robot_starts == ("RobotStart:robot0", "RobotStart:robot1")
        assert fresh.source == {"brick@1": "ObjectStart:brick@1"}

    def test_graph_is_immutable(self):
        g = _tiny_graph()
        with pytest.raises(AttributeError):
            g.edges.add((C, A))
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.edges = frozenset()
        assert g.edges == {(A, B), (B, C)}

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(schedule.ScheduleError, match="unknown node"):
            ScheduleGraph(nodes={}, edges={("a", "b")}, terminal_nodes=())

    def test_topological_order_and_cycle(self):
        g = _tiny_graph()
        assert schedule.topological_order(g) == [A, B, C]
        cyclic = g.with_edges({(C, A)})
        assert not schedule.is_acyclic(cyclic)
        with pytest.raises(schedule.ScheduleError, match="cycle"):
            schedule.topological_order(cyclic)
        rules = {v.rule for v in schedule.validate_schedule(cyclic, "partial")}
        assert "acyclic" in rules
        with pytest.raises(schedule.ScheduleError, match="cycle"):
            schedule.evaluate_schedule(cyclic, None)

    def test_upstream(self):
        g = _tiny_graph()
        assert schedule.upstream(g, C) == {A, B}
        assert schedule.upstream(g, A) == set()


class TestValidation:
    def test_partial_schedule_valid(self, pipeline, toy_spec, tractor_spec):
        for spec, name, robots in ((toy_spec, "toy", 2),
                                   (tractor_spec, "tractor", 5)):
            graph = pipeline(spec, name, robots)["graph"]
            assert schedule.validate_schedule(graph, mode="partial") == []

    def test_partial_fails_complete_mode(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        violations = schedule.validate_schedule(graph, mode="complete")
        rules = {v.rule for v in violations}
        assert "required-predecessor" in rules  # unassigned pickups

    def test_completed_schedule_valid(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        complete = data["greedy"].graph
        assert schedule.validate_schedule(complete, mode="complete") == []

    def test_missing_lift_edge_detected(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        lift = "LiftIntoPlace:brick@1"
        close = "CloseBuildStep:toy:1"
        broken = ScheduleGraph(
            nodes=dict(graph.nodes),
            edges=set(graph.edges) - {(lift, close)},
            terminal_nodes=graph.terminal_nodes,
            team_sizes=dict(graph.team_sizes),
            phase_members=dict(graph.phase_members),
        )
        violations = schedule.validate_schedule(broken, mode="partial")
        subjects = {(v.node, v.rule) for v in violations}
        assert (close, "required-predecessor") in subjects
        assert any(v.node == lift for v in violations)

    def test_extra_edge_detected(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        bad = graph.with_edges({("ObjectStart:brick@1", "LiftIntoPlace:brick@1")})
        violations = schedule.validate_schedule(bad, mode="partial")
        assert any("eligible" in v.rule for v in violations)

    @pytest.mark.parametrize("name,robots", [("toy", 2), ("tractor", 5), ("synthetic", 8)])
    def test_table_matches_reference_on_mutations(self, pipeline, toy_spec, tractor_spec,
                                                  synthetic_spec, name, robots):
        # 3 projects x 2 graphs x 170 mutations: 1,020 graphs, each in both modes
        spec = {"toy": toy_spec, "tractor": tractor_spec, "synthetic": synthetic_spec}[name]
        data = pipeline(spec, name, robots)
        rules = set()
        for which, graph in (("partial", data["graph"]), ("complete", data["greedy"].graph)):
            for mutated in _mutations(graph, 170, f"{name}-{which}"):
                for mode in ("partial", "complete"):
                    got = schedule.validate_schedule(mutated, mode)
                    assert got == oracles.validate_schedule_reference(mutated, mode)
                    rules.update(v.rule for v in got)
        assert rules >= {"required-predecessor", "required-successor",
                         "eligible-predecessor", "eligible-successor"}

    def test_unknown_kind_and_roleless_robot_go(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["greedy"].graph
        # without its role the pickup's id is RobotGo:brick@1:0
        old, pick, form = ("RobotGo:brick@1:0:pickup", "RobotGo:brick@1:0",
                           "FormTransportUnit:brick@1")
        nodes = dict(graph.nodes)
        nodes[pick] = dataclasses.replace(nodes.pop(old), role=None)
        nodes["Mystery:x"] = ScheduleNode("Mystery", "x")
        edges = {tuple(pick if x == old else x for x in e) for e in graph.edges}
        odd = dataclasses.replace(graph, nodes=nodes, edges=edges | {("Mystery:x", form)})
        for mode in ("partial", "complete"):
            got = schedule.validate_schedule(odd, mode)
            assert got == oracles.validate_schedule_reference(odd, mode)
            assert ScheduleViolation("Mystery:x", "kind", "unknown node kind 'Mystery'") in got
            assert ScheduleViolation(form, "eligible-predecessor",
                                     "unexpected Mystery predecessor (1)") in got
            # a RobotGo without the pickup role is checked as a dropoff
            assert [v for v in got if v.node == pick] == [
                ScheduleViolation(pick, "required-predecessor",
                                  "expected 1 DepositCargo predecessor(s), got 0"),
                ScheduleViolation(pick, "eligible-predecessor",
                                  "unexpected RobotStart predecessor (1)"),
                ScheduleViolation(pick, "eligible-successor",
                                  "unexpected FormTransportUnit successor (1)"),
            ]

    def test_neighbour_table_covers_every_kind(self):
        table = schedule._NEIGHBOURS
        kinds = set(schedule._DOT_SHORT)
        assert {k for k in table if isinstance(k, str)} == kinds - {"RobotGo"}
        assert {k for k in table if not isinstance(k, str)} == {
            ("RobotGo", "pickup"), ("RobotGo", "dropoff")}
        # every neighbour kind a rule names is a node kind
        named = {k for sides in table.values() for rule in sides for key in rule
                 for k in ((key,) if isinstance(key, str) else key)}
        assert named <= kinds

    def test_partial_mode_rejects_preassigned_pickup(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        first, second = "RobotGo:brick@1:0:pickup", "RobotGo:brick@1:1:pickup"
        assigned = graph.with_edges({("RobotStart:robot1", first), ("RobotStart:robot0", second)})
        for mode in ("partial", "complete"):
            got = schedule.validate_schedule(assigned, mode)
            assert got == oracles.validate_schedule_reference(assigned, mode)
        assert schedule.validate_schedule(assigned, "partial") == [
            ScheduleViolation(p, "eligible-predecessor", "unexpected RobotStart predecessor (1)")
            for p in (first, second)]

    def test_terminal_node_must_be_project_complete(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["greedy"].graph
        odd = dataclasses.replace(
            graph, terminal_nodes=("ProjectComplete:toy", "ObjectStart:brick@1"))
        for mode in ("partial", "complete"):
            got = schedule.validate_schedule(odd, mode)
            assert got == oracles.validate_schedule_reference(odd, mode)
        assert schedule.validate_schedule(odd, "complete") == [ScheduleViolation(
            "ObjectStart:brick@1", "terminal",
            "terminal node must be a ProjectComplete, not ObjectStart")]

    @pytest.mark.parametrize("terminals", [(), (C, "Nope")])
    def test_graph_rejects_missing_terminal(self, terminals):
        with pytest.raises(schedule.ScheduleError, match="terminal nodes must be schedule nodes"):
            dataclasses.replace(_tiny_graph(), terminal_nodes=terminals)

    def test_unknown_mode_rejected(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        with pytest.raises(schedule.ScheduleError):
            schedule.validate_schedule(graph, mode="strict")


class TestEvaluation:
    def test_forward_pass_matches_longest_path(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        fleet = data["fleet"]
        complete = data["greedy"].graph
        t0, tF, makespan = schedule.evaluate_schedule(complete, fleet)

        # resolve pickup travel durations independently, then longest-path
        pred, _ = complete.adjacency()
        durations = {}
        for nid, node in complete.nodes.items():
            if node.duration is not None:
                durations[nid] = node.duration
            else:
                chain = [p for p in pred[nid]
                         if complete.nodes[p].kind in ("RobotStart", "RobotGo")]
                origin = complete.nodes[chain[0]].origin
                dist = float(np.hypot(node.destination[0] - origin[0],
                                      node.destination[1] - origin[1]))
                durations[nid] = dist / fleet.v_max
        oracle = oracles.longest_path_makespan(durations, complete.edges,
                                               list(complete.terminal_nodes))
        assert makespan == pytest.approx(oracle, abs=1e-12)
        assert all(tF[n] >= t0[n] for n in complete.nodes)

    def test_partial_ok_is_lower_bound(self, pipeline, toy_spec, tractor_spec):
        for spec, name, robots in ((toy_spec, "toy", 2),
                                   (tractor_spec, "tractor", 5)):
            data = pipeline(spec, name, robots)
            _, _, lb = schedule.evaluate_schedule(data["graph"], data["fleet"],
                                                  partial_ok=True)
            assert lb <= data["greedy"].makespan + 1e-9

    def test_unassigned_pickup_rejected_without_partial_ok(self, pipeline,
                                                           toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        with pytest.raises(schedule.ScheduleError, match="chain predecessor"):
            schedule.evaluate_schedule(data["graph"], data["fleet"])


class TestExport:
    def test_json_round_trip(self, pipeline, toy_spec):
        data = pipeline(toy_spec, "toy", 2)
        for graph in (data["graph"], data["greedy"].graph):
            doc = schedule.schedule_to_jsonable(graph)
            back = schedule.schedule_from_jsonable(doc)
            assert schedule.schedule_to_jsonable(back) == doc
            assert schedule.topological_order(back) == schedule.topological_order(graph)
            assert back.adjacency() == graph.adjacency()

    def test_dot_export(self, pipeline, toy_spec):
        graph = pipeline(toy_spec, "toy", 2)["graph"]
        dot = schedule.schedule_to_dot(graph)
        assert dot.startswith("digraph schedule {")
        assert dot.count(" -> ") == len(graph.edges)
