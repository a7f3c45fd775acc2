"""Robot-to-slot assignment: greedy coalition formation, a sparse
mixed-integer model with LP export, and a small exact branch-and-bound.

The greedy pass commits one whole transport team per iteration, always the
team with the earliest pickup time among active build steps. The exact
solver branches over the chain edges feeding each pickup placeholder.
"""

from __future__ import annotations

import heapq
import math
import re
import time as _time
from dataclasses import dataclass
from itertools import chain, islice
from typing import TextIO

import numpy as np

from .model import RobotFleet
from .schedule import (
    ScheduleGraph,
    evaluate_schedule,
    node_id,
    topological_order,
    travel_time,
    validate_schedule,
)


class AllocationError(ValueError):
    pass


@dataclass(frozen=True)
class AllocationResult:
    graph: ScheduleGraph
    makespan: float
    method: str
    status: str  # optimal | incumbent | infeasible
    added_edges: tuple[tuple[str, str], ...] = ()
    # branch-and-bound only: the nodes it explored and the bound at its root
    bnb_nodes: int | None = None
    bnb_root_bound: float | None = None


def earliest_arrival(
    position: np.ndarray, available: np.ndarray, goals: np.ndarray, v_max: float
) -> np.ndarray:
    """Arrival time of each robot (row of `position` (n, 2) and `available`
    (n,)) at each goal (row of `goals` (m, 2)), as an (n, m) array of
    max(avail, 0) + dist / v_max.

    Each distance is `sqrt(vecdot(d, d))`, the same fused dot product as the
    scalar `np.linalg.norm(d)`, so every time is bit for bit that of a loop
    over the pairs."""
    if not len(position) or not len(goals):
        raise AllocationError("earliest_arrival needs non-empty robots and goals")
    d = goals[None, :, :] - position[:, None, :]
    return np.maximum(available, 0.0)[:, None] + np.sqrt(np.vecdot(d, d)) / v_max


def _greedy_team(times: np.ndarray) -> tuple[list[tuple[int, int]], tuple[float, int, int]]:
    """One payload's team from its robot x goal arrival `times`: the earliest
    (row, column) pair among the rows and columns still free, the first in
    row-major order on a tie, until every column has a row. Returns the
    pairs and the last pick's key (t, row, column); pick keys only increase,
    so its t is the team's start time."""
    times = times.copy()
    pairs = []
    for _ in range(times.shape[1]):
        row, col = divmod(int(times.argmin()), times.shape[1])
        t = float(times[row, col])
        pairs.append((row, col))
        times[row, :] = np.inf
        times[:, col] = np.inf
    return pairs, (t, row, col)


def greedy_pccf(graph: ScheduleGraph, fleet: RobotFleet) -> AllocationResult:
    """Greedy precedence-constrained coalition formation over the partial
    schedule; returns a complete, valid schedule.

    The fleet is two arrays with one row per robot in `graph.robot_starts`
    order, which is robot id order, and a goal's column is its slot; so
    keys (t, row, column) order as (t, robot id, slot) do. The arrival times
    of every robot at every payload's goals are one matrix; a commit
    recomputes the rows of the robots it moves, which are the only rows
    whose position or available time changed.

    Each iteration commits the team with the earliest start among the
    eligible payloads (available, unassigned, members of their assembly's
    active phase), the first in scan order (assembly id, then position in
    the phase) on a tie. Payloads are indexed in scan order, every eligible
    one has a cached team, and the start times of the cached teams are one
    array, so the pick is its first minimum. One-robot teams are built in
    one pass over their columns.

    A commit moves only the committed robots, so a cached team is dropped
    only if it used one of them, or if one of them now reaches one of its
    goals with a key lower than the team's last pick key: no other pick of
    the team can change, because picks only increase. A payload x robot
    table of the rows each team uses finds the first kind, and each
    payload's earliest arrival of a mover, against its team's start, the
    second."""
    pickups, dropoffs, starts = graph.pickups, graph.dropoffs, graph.robot_starts
    if pickups and max(len(v) for v in pickups.values()) > len(starts):
        raise AllocationError(
            "fleet smaller than the largest transport team; allocation infeasible")

    position = np.array([graph.nodes[s].origin for s in starts], float).reshape(-1, 2)
    available = np.zeros(len(starts))
    chain_tail = list(starts)

    # project structure from graph metadata
    phases = graph.assembly_phases
    active_step = {a: ks[0] for a, ks in phases.items()}
    active = set(phases)
    available_components = {c for c, src in graph.source.items()
                            if graph.nodes[src].kind == "ObjectStart"}  # the parts
    assigned: set[str] = set()

    # event-time bookkeeping (greedy's internal clock)
    ready_time = dict.fromkeys(available_components, 0.0)  # payload availability
    open_time = {(a, ks[0]): 0.0 for a, ks in phases.items()}
    lift_end: dict[tuple[str, int], list[float]] = {}

    added: list[tuple[str, str]] = []

    # payloads in scan order (only one phase of an assembly is active at a
    # time); payload i's goals are the columns first_col[i] .. + width[i] of
    # the arrival matrix
    payloads = [c for a in phases for k in phases[a] for c in graph.phase_members[(a, k)]
                if c in pickups]
    index = {c: i for i, c in enumerate(payloads)}
    width = np.array([len(pickups[c]) for c in payloads], np.intp)
    first_col = np.concatenate([[0], np.cumsum(width)[:-1]]).astype(np.intp)
    goals = np.array([graph.nodes[p].destination for c in payloads for p in pickups[c]],
                     float).reshape(-1, 2)
    arrival = (earliest_arrival(position, available, goals, fleet.v_max) if len(goals)
               else np.empty((len(starts), 0)))
    eligible = np.zeros(len(payloads), bool)
    # the cached teams: start time (inf without one), robot rows used, the
    # row of a one-robot team, and the pairs and last pick key of a larger
    # one
    start = np.full(len(payloads), np.inf)
    uses = np.zeros((len(payloads), len(starts)), bool)
    single_row = np.zeros(len(payloads), np.intp)
    multi: dict[int, tuple[list[tuple[int, int]], tuple[float, int, int]]] = {}

    def open_phase(a: str, k: int):
        eligible[[index[c] for c in graph.phase_members[(a, k)]
                  if c in available_components]] = True

    def commit(component: str, pairs: list[tuple[int, int]], t_task: float):
        form_dur, tugo, dep_dur, lift_dur = (
            graph.nodes[node_id(kind, component)].duration
            for kind in ("FormTransportUnit", "TransportUnitGo", "DepositCargo", "LiftIntoPlace"))
        a, k = graph.payload_phase[component]
        t_form_end = max(t_task, ready_time[component]) + form_dur
        t_arrive = t_form_end + tugo
        t_dep_end = max(t_arrive, open_time[(a, k)]) + dep_dur
        t_lift_end = t_dep_end + lift_dur
        lift_end.setdefault((a, k), []).append(t_lift_end)
        for row, slot in pairs:
            pick = pickups[component][slot]
            drop = dropoffs[component][slot]
            added.append((chain_tail[row], pick))
            chain_tail[row] = drop
            position[row] = graph.nodes[drop].origin
            available[row] = t_dep_end
        assigned.add(component)
        eligible[index[component]] = False

        members = graph.phase_members[(a, k)]
        if all(m in assigned for m in members):
            close = max(lift_end[(a, k)])
            if k == phases[a][-1]:
                active.discard(a)
                available_components.add(a)
                ready_time[a] = close
                # eligible now if its parent's phase is open (the parent,
                # missing a, is still active); the root has no parent
                parent = graph.payload_phase.get(a)
                if parent is not None and active_step[parent[0]] == parent[1]:
                    eligible[index[a]] = True
            else:
                nxt = phases[a][phases[a].index(k) + 1]
                active_step[a] = nxt
                open_time[(a, nxt)] = close
                open_phase(a, nxt)

    def uncache(i):
        start[i] = np.inf
        uses[i] = False

    for a, ks in phases.items():
        open_phase(a, ks[0])
    while active:
        if not eligible.any():
            raise AllocationError("no assignable component; schedule is stuck")
        todo = np.flatnonzero(eligible & (start == np.inf))
        # one-robot teams in one pass: each column's first minimum is the
        # pick `_greedy_team` makes
        ones = todo[width[todo] == 1]
        cols = first_col[ones]
        rows = arrival[:, cols].argmin(axis=0)
        start[ones] = arrival[rows, cols]
        single_row[ones] = rows
        uses[ones, rows] = True
        for i in todo[width[todo] > 1].tolist():
            lo = first_col[i]
            pairs, last_key = multi[i] = _greedy_team(arrival[:, lo:lo + width[i]])
            start[i] = last_key[0]
            uses[i, [row for row, _ in pairs]] = True

        i = int(start.argmin())  # every eligible payload has a finite start
        t_task = float(start[i])
        pairs = [(int(single_row[i]), 0)] if width[i] == 1 else multi[i][0]
        uncache(i)
        commit(payloads[i], pairs, t_task)

        movers = sorted(row for row, _ in pairs)
        arrival[movers] = earliest_arrival(position[movers], available[movers], goals,
                                           fleet.v_max)
        uncache(np.flatnonzero(uses[:, movers].any(axis=1)))
        # each payload's earliest arrival of a mover at its goals: a cached
        # team that starts later is dropped, and one that starts then is
        # dropped if the (t, row, column) key of that arrival is lower
        earliest = np.minimum.reduceat(arrival[movers].min(axis=0), first_col)
        for j in np.flatnonzero((earliest <= start) & (start < np.inf)).tolist():
            lo = first_col[j]
            times = arrival[movers, lo:lo + width[j]]
            m, col = divmod(int(times.argmin()), times.shape[1])
            last_key = ((float(start[j]), int(single_row[j]), 0) if width[j] == 1
                        else multi[j][1])
            if (float(times[m, col]), movers[m], col) < last_key:
                uncache(j)

    complete = graph.with_edges(set(added))
    violations = validate_schedule(complete, "complete")
    if violations:  # pragma: no cover - the partial grammar leaves every pickup to greedy
        raise AllocationError(f"greedy produced an invalid schedule: {violations[:3]}")
    _, _, makespan = evaluate_schedule(complete, fleet)
    return AllocationResult(complete, makespan, "greedy", "incumbent", tuple(added))


# -- sparse mixed-integer model ----------------------------------------------


@dataclass
class ScheduleMilp:
    graph: ScheduleGraph
    variables: tuple[tuple[str, str], ...]  # candidate assignment edges (u, v)
    durations: list[float]  # pickup travel of variables[i] if it is chosen
    big_m: float
    sources: tuple[str, ...]  # robot starts, then dropoffs in id order
    targets: tuple[str, ...]  # pickups in id order
    # (sources, targets) bool, true where (sources[i], targets[j]) is a
    # candidate; `variables` are its true cells in row-major order
    candidates: np.ndarray


def _reachability(graph: ScheduleGraph):
    """The partial graph's topological order, each node's rank in it, and per
    rank the bits of the node and of every node it reaches."""
    topo = topological_order(graph)
    rank = {nid: i for i, nid in enumerate(topo)}
    _, succ = graph.adjacency()
    desc = [1 << i for i in range(len(topo))]
    for i in reversed(range(len(topo))):
        for w in succ[topo[i]]:
            desc[i] |= desc[rank[w]]
    return topo, rank, desc


def build_milp(graph: ScheduleGraph, fleet: RobotFleet) -> ScheduleMilp:
    """The assignment model of the partial schedule `graph`. Its candidate
    edges are those that cannot close a cycle: every robot start and dropoff
    to every pickup that does not reach it. The partial grammar gives no
    pickup a predecessor, so every endpoint has free capacity.

    The candidates are one sources x pickups table, read from each pickup's
    descendant bits at the sources' ranks. Its true cells in row-major order
    are the variables, source by source, and their indices time every edge
    in one `travel_time` call."""
    topo, rank, desc = _reachability(graph)
    sources = (*graph.robot_starts, *sorted(d for ds in graph.dropoffs.values() for d in ds))
    targets = tuple(sorted(p for ps in graph.pickups.values() for p in ps))
    width = (len(topo) + 7) // 8
    bits = np.frombuffer(b"".join(desc[rank[v]].to_bytes(width, "little") for v in targets),
                         np.uint8).reshape(len(targets), width)
    at = np.array([rank[u] for u in sources], np.intp)
    reaches = (bits[:, at >> 3] >> (at & 7).astype(np.uint8)) & 1  # (targets, sources)
    candidates = np.ascontiguousarray(reaches.T == 0)
    rows, cols = np.nonzero(candidates)
    origin = np.array([graph.nodes[u].origin for u in sources], float).reshape(-1, 2)
    dest = np.array([graph.nodes[v].destination for v in targets], float).reshape(-1, 2)
    durations = travel_time(origin[rows].T, dest[cols].T, fleet.v_max)
    # the longest pickup into each target, added left to right in the order
    # in which the targets first appear among the variables; a target
    # without a candidate adds 0.0, which changes no sum
    longest = np.zeros(len(targets))
    np.maximum.at(longest, cols, durations)
    first_seen = np.argsort(candidates.argmax(axis=0), kind="stable") if sources else []
    fixed = sum(n.duration or 0.0 for n in graph.nodes.values())
    big_m = fixed + sum(longest[first_seen].tolist()) + 1.0
    variables = tuple(zip(np.array(sources, object)[rows].tolist(),
                          np.array(targets, object)[cols].tolist()))
    return ScheduleMilp(graph, variables, durations.tolist(), big_m, sources, targets,
                        candidates)


def _lp_name(raw: str, taken: dict[str, str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_]", "_", raw)
    name = base
    k = 1
    while name in taken and taken[name] != raw:
        k += 1
        name = f"{base}_{k}"
    taken[name] = raw
    return name


# the rows of a node or edge section that `export_lp` writes at a time
_LP_CHUNK = 1024


def _write_chunked(write, lines) -> None:
    """Writes the strings of the iterable `lines`, `_LP_CHUNK` at a time."""
    lines = iter(lines)
    while block := "".join(islice(lines, _LP_CHUNK)):
        write(block)


def export_lp(milp: ScheduleMilp, out: TextIO) -> None:
    """Write the CPLEX-LP text of the model to `out`: the objective; a
    fixed-duration row per node and a precedence row per edge of the
    partial graph; two degree rows per target and one per source; for each
    candidate edge a big-M precedence row and, when its travel is positive,
    a conditional-duration row; the time bounds; the edge binaries.

    The text goes out a block at a time, never a whole section: node and
    edge rows `_LP_CHUNK` at a time, then one write per target (its degree
    rows) and three per source (its out-degree row, its big-M and
    conditional-duration rows, its binaries), each block read from the
    source's row or the target's column of `milp.candidates`. A block joins
    its X_<u>__<v> terms with a separator, and a source's big-M block is one
    `%` of a template over its pickups."""
    g = milp.graph
    taken: dict[str, str] = {}
    node_name = {nid: _lp_name(nid, taken) for nid in sorted(g.nodes)}
    src = np.array([node_name[u] for u in milp.sources], object)
    tgt = np.array([node_name[v] for v in milp.targets], object)
    table = milp.candidates
    write = out.write
    obj = " + ".join(f"tF_{node_name[t]}" for t in g.terminal_nodes)
    write(f"\\ sparse adjacency assignment model\nMinimize\n obj: {obj}\nSubject To\n")

    # durations (fixed) and precedence over existing edges
    fixed = ("0" if (d := g.nodes[nid].duration) is None else f"{d:.9g}" for nid in node_name)
    _write_chunked(write, (f" c{r}: tF_{n} - t0_{n} >= {d}\n"
                           for r, (n, d) in enumerate(zip(node_name.values(), fixed), 1)))
    row = len(node_name)
    _write_chunked(write, (f" c{r}: t0_{node_name[v]} - tF_{node_name[u]} >= 0\n"
                           for r, (u, v) in enumerate(sorted(g.edges), row + 1)))
    row += len(g.edges)

    # degree rows over candidate variables, a target's sources in source
    # order and a source's pickups in id order
    for j, nv in enumerate(tgt.tolist()):
        if us := src[table[:, j]].tolist():
            terms = "X_" + f"__{nv} + X_".join(us) + f"__{nv}"
            write(f" c{row + 1}: {terms} >= 1\n c{row + 2}: {terms} <= 1\n")
            row += 2
    for i in sorted(range(len(src)), key=milp.sources.__getitem__):
        if vs := tgt[table[i]].tolist():
            row += 1
            write(f" c{row}: X_{src[i]}__" + f" + X_{src[i]}__".join(vs) + " <= 1\n")

    # big-M precedence and conditional durations for candidate edges:
    # t0_v - tF_u >= -M (1 - X)  and  tF_v - t0_v >= d (activated when X = 1).
    # Each pickup's piece of the template takes the arguments (row, v, v,
    # row + 1, v, v, d, v); the piece for d = 0 has no conditional row and
    # prints its last five arguments as nothing.
    m, neg_m = f"{milp.big_m:.9g}", f"{-milp.big_m:.9g}"
    k = 0
    for i, nu in enumerate(src.tolist()):
        if not (vs := tgt[table[i]].tolist()):
            continue
        ds = milp.durations[k:k + len(vs)]
        k += len(vs)
        big_m_row = f" c%d: t0_%s - tF_{nu} - {m} X_{nu}__%s >= {neg_m}\n"
        pieces = (big_m_row + "%.0s" * 5,
                  big_m_row + f" c%d: tF_%s - t0_%s - %.9g X_{nu}__%s >= 0\n")
        conditional = np.array(ds) > 0
        last = row + np.cumsum(conditional + 1)  # each pickup's last row
        args = zip((last - conditional).tolist(), vs, vs, last.tolist(), vs, vs, ds, vs)
        write("".join(map(pieces.__getitem__, conditional.tolist()))
              % tuple(chain.from_iterable(args)))
        row = int(last[-1])

    write("Bounds\n")
    _write_chunked(write, (f" t0_{n} >= 0\n tF_{n} >= 0\n" for n in node_name.values()))
    write("Binary\n")
    for i, nu in enumerate(src.tolist()):
        if vs := tgt[table[i]].tolist():
            write(f" X_{nu}__" + f"\n X_{nu}__".join(vs) + "\n")
    write("End\n")


# -- exact branch-and-bound --------------------------------------------------


def solve_bnb(
    graph: ScheduleGraph,
    fleet: RobotFleet,
    incumbent: AllocationResult | None = None,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> AllocationResult:
    """Depth-first branch-and-bound over chain edges into the pickups of the
    partial schedule `graph`, which assigns none of them; bounding by the
    forward pass that zeroes unassigned travel. Warm start seeds the
    incumbent. Each pickup's chain sources are the robot starts and
    dropoffs, in id order, that it does not reach.

    The forward pass runs once, on the partial graph. Choosing a chain edge
    u -> v sets v's travel and recomputes the finish times of v and of the
    descendants whose predecessors changed; backtracking puts back the
    values they had. On a DAG the pass has one solution, and each finish
    time is the same max of the same floats (all at least 0, so the order
    of the max does not matter) plus the same duration, so every bound is
    bit for bit `evaluate_schedule` of the partial graph with the chosen
    edges. Cycle checks OR static descendant bitsets along the chosen edges.

    A child whose pickup would finish no earlier than it did in a sibling
    that the bound cut is skipped without choosing its edge: its bound
    could only be larger, so it would be cut on entry. It still counts as
    explored, so the nodes explored and the result are those of the search
    without the skip.

    The result carries the nodes explored and the root bound."""
    g = graph
    # the search works on node ranks in the partial graph's topological order
    topo, rank, desc = _reachability(g)
    pred_ids, succ_ids = g.adjacency()
    if any(pred_ids[p] for ps in g.pickups.values() for p in ps):
        raise AllocationError("branch-and-bound needs a partial schedule: a pickup has a "
                              "predecessor")
    # chosen edges are appended to these lists and popped on backtrack
    preds = [[rank[p] for p in pred_ids[nid]] for nid in topo]
    succs = [[rank[w] for w in succ_ids[nid]] for nid in topo]
    terminals = [rank[t] for t in g.terminal_nodes]
    chain_sources = [rank[u] for u in sorted(
        [*g.robot_starts, *(d for ds in g.dropoffs.values() for d in ds)])]
    # branch pickups in schedule order so bounds tighten early
    order = sorted(rank[p] for ps in g.pickups.values() for p in ps)
    sources = {v: [u for u in chain_sources if not desc[v] >> u & 1] for v in order}

    best_edges: tuple[tuple[str, str], ...] | None = None
    best_makespan = math.inf
    if incumbent is not None and incumbent.status != "infeasible":
        best_edges = incumbent.added_edges
        best_makespan = incumbent.makespan

    t_start = _time.monotonic()
    explored = 0
    hit_limit = False

    _, tF, root_bound = evaluate_schedule(g, fleet, partial_ok=True)
    finish = [tF[nid] for nid in topo]
    # an unassigned pickup travels 0.0, as in the forward pass
    duration = [0.0 if (d := g.nodes[nid].duration) is None else d for nid in topo]
    chosen: list[tuple[int, int]] = []  # (pickup, chain source)
    used: set[int] = set()

    def choose(v: int, u: int, dur: float) -> tuple[float, dict[int, float]]:
        """Adds chain edge u -> v, with v's travel `dur`, and updates the
        finish times. Returns v's old duration and the old finish time of
        each node that changed."""
        old, duration[v] = duration[v], dur
        chosen.append((v, u))
        used.add(u)
        preds[v].append(u)
        succs[u].append(v)
        # ranks order every edge but the chosen ones, so few nodes repeat
        saved: dict[int, float] = {}
        heap, last = [v], -1
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            w = heappop(heap)
            if w == last:  # pushed twice while queued
                continue
            last = w
            p = preds[w]
            if len(p) == 1:
                t = finish[p[0]] + duration[w]
            else:
                t = max(map(finish.__getitem__, p), default=0.0) + duration[w]
            if t == finish[w]:
                continue
            if w not in saved:
                saved[w] = finish[w]
            finish[w] = t
            for x in succs[w]:
                heappush(heap, x)
        return old, saved

    def unchoose(v: int, u: int, old: float, saved: dict[int, float]):
        for w, t in saved.items():
            finish[w] = t
        duration[v] = old
        chosen.pop()
        used.discard(u)
        preds[v].pop()
        succs[u].pop()

    def reach(v: int) -> int:
        """Bits of the nodes reachable from v with the chosen edges added."""
        bits = desc[v]
        grew = True
        while grew:
            grew = False
            for b, a in chosen:
                if bits >> a & 1 and not bits >> b & 1:
                    bits |= desc[b]
                    grew = True
        return bits

    def within_budget() -> bool:
        nonlocal hit_limit
        if max_nodes is not None and explored >= max_nodes:
            hit_limit = True
        if time_limit is not None and _time.monotonic() - t_start > time_limit:
            hit_limit = True
        return not hit_limit

    def descend(idx: int) -> bool:
        """Explores a node within the budget: bounds it, then branches.
        Returns whether the bound cut it on entry."""
        nonlocal best_edges, best_makespan, explored
        explored += 1
        lb = max(finish[t] for t in terminals)
        if lb >= best_makespan:
            return True
        if idx == len(order):
            best_makespan = lb
            best_edges = tuple(sorted((topo[u], topo[v]) for v, u in chosen))
            return False
        v = order[idx]
        reachable = reach(v)
        candidates = [u for u in sources[v] if u not in used and not reachable >> u & 1]
        node = g.nodes[topo[v]]
        # Dominance: the child u is cut on entry if a sibling that was cut
        # gave v a finish time pruned_at <= x = finish[u] + dur, the float
        # `choose` gives v (u is v's only predecessor: the partial grammar
        # gives a pickup none, as checked above). Each finish time is
        # fl(max(preds) + d); max is monotone and round to nearest is
        # monotone in its argument, so every finish time of the forward
        # pass, and lb, is a nondecreasing function of v's finish. Nothing
        # else about u enters the bound: u does not descend from v, nodes
        # that do not descend from v keep their finish times, and `unchoose`
        # restores every value exactly. best_makespan only falls between
        # siblings, so lb(x) >= lb(pruned_at) >= best_then >= best_now.
        # Such a child counts as explored, as descend would count it, but is
        # never chosen. A NaN x fails the test and is chosen as before.
        pruned_at = None  # until a sibling is cut
        for u in candidates:
            if not within_budget():
                return False
            dur = node.duration
            if dur is None:  # as `evaluate_schedule` times the pickup
                dur = float(travel_time(g.nodes[topo[u]].origin, node.destination,
                                        fleet.v_max))
            x = finish[u] + dur
            if pruned_at is not None and x >= pruned_at:
                explored += 1
                continue
            undo = choose(v, u, dur)
            if descend(idx + 1):
                pruned_at = x
            unchoose(v, u, *undo)
        return False

    if within_budget():
        descend(0)

    stats = {"bnb_nodes": explored, "bnb_root_bound": root_bound}
    if best_edges is None:
        return AllocationResult(g, math.inf, "bnb", "infeasible", (), **stats)
    complete = g.with_edges(set(best_edges))
    _, _, makespan = evaluate_schedule(complete, fleet)
    status = "incumbent" if hit_limit else "optimal"
    return AllocationResult(complete, makespan, "bnb", status, tuple(best_edges), **stats)


def allocation_to_jsonable(result: AllocationResult, fleet: RobotFleet) -> dict:
    t0, tF, makespan = evaluate_schedule(result.graph, fleet)
    return {
        "method": result.method,
        "status": result.status,
        "makespan": makespan,
        "added_edges": [list(e) for e in result.added_edges],
        "t0": {k: t0[k] for k in sorted(t0)},
        "tF": {k: tF[k] for k in sorted(tF)},
    }
