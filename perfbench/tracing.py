"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the assemblyforge modules from the
outside: nothing under src/ is edited. Every call of a wrapped function
becomes one span (name, start, end, parent span), kept in flat arrays in
memory and written out when the run ends. `instrumented()` installs the
wrappers and restores the original functions afterwards, so untimed and
timed passes outside it run unwrapped code.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public functions wrapped in the traced run, by module. Names imported into
# other modules (`from .schedule import evaluate_schedule`) are patched at
# every binding, so calls through any of them are seen.
TRACED = {
    "ldraw": ["parse_mpd"],
    "model": ["project_from_jsonable", "project_to_jsonable", "validate_project"],
    "geometry": ["convex_hull_2d", "min_enclosing_circle", "min_enclosing_sphere",
                 "bounding_cylinder", "bounding_octagonal_prism", "singular_extents"],
    "transport": ["configure_all_transport_units", "configure_transport_unit",
                  "carry_score", "transport_config_to_jsonable",
                  "transport_config_from_jsonable"],
    "staging": ["build_staging_plan", "solve_radial_layout", "staging_plan_to_jsonable",
                "staging_plan_from_jsonable", "staging_plan_to_svg"],
    "schedule": ["build_partial_schedule", "validate_schedule", "evaluate_schedule",
                 "topological_order", "upstream", "ScheduleGraph.adjacency",
                 "ScheduleGraph.with_edges", "schedule_to_jsonable",
                 "schedule_from_jsonable", "schedule_to_dot"],
    "allocation": ["greedy_pccf", "earliest_arrival", "build_milp", "export_lp",
                   "solve_bnb", "allocation_to_jsonable"],
    "sim": ["simulate", "nominal_velocity", "field_radius", "dispersion_force",
            "preferred_velocity", "rvo_resolve", "trace_to_csv", "events_to_jsonl",
            "metrics_to_jsonable"],
    "cli": ["cmd_plan", "cmd_allocate", "cmd_simulate"],
}

# Serializers whose self time counts as artifact I/O, with the CLI commands'
# own self time (argument handling, JSON text, file reads and writes).
ARTIFACT_IO = {
    "cli.cmd_plan", "cli.cmd_allocate", "cli.cmd_simulate",
    "model.project_to_jsonable", "transport.transport_config_to_jsonable",
    "transport.transport_config_from_jsonable", "staging.staging_plan_to_jsonable",
    "staging.staging_plan_from_jsonable", "staging.staging_plan_to_svg",
    "schedule.schedule_to_jsonable", "schedule.schedule_from_jsonable",
    "schedule.schedule_to_dot", "allocation.allocation_to_jsonable",
    "sim.trace_to_csv", "sim.events_to_jsonl", "sim.metrics_to_jsonable",
}
L2 = {"sim.field_radius", "sim.dispersion_force", "sim.preferred_velocity"}
BNB_STATUS = {"optimal": 1, "incumbent": 2, "infeasible": 3}  # 0: B&B did not run


def _count_constraints(counters, args, result):
    shares = args[5]
    counters["sim.l3_constraints"] += sum(
        1 for i, row in enumerate(shares) for j, s in enumerate(row) if i != j and s > 0.0)


def _milp_vars(counters, args, result):
    counters["allocation.milp_vars"] = len(result.variables)


def _bnb_status(counters, args, result):
    counters["allocation.bnb_status"] = BNB_STATUS[result.status]


def _units(counters, args, result):
    counters["transport.units"] += len(result)


# Hooks read a wrapped call's arguments or result after its span has ended.
HOOKS = {
    "sim.rvo_resolve": _count_constraints,
    "allocation.build_milp": _milp_vars,
    "allocation.solve_bnb": _bnb_status,
    "transport.configure_all_transport_units": _units,
}


class SpanRecorder:
    """Spans in flat arrays: name index, parent span index (-1 at the top),
    start and end in `time.perf_counter` seconds."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # trace.wrapper_s: seconds the wrappers and hooks spend outside the
        # wrapped calls, the tracing overhead measured in process
        self.counters: dict[str, float] = {
            "sim.l3_constraints": 0, "allocation.milp_vars": 0,
            "allocation.bnb_status": 0, "transport.units": 0, "trace.wrapper_s": 0.0}
        self._stack: list[int] = []

    def wrap(self, span_name, fn):
        if span_name not in self.names:  # wrapped again in a later instrumented()
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        hook = HOOKS.get(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            counters["trace.wrapper_s"] += clock() - entered - (ends[idx] - starts[idx])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self):
        """(name, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Install the recorder's wrappers on every binding of the TRACED
    functions; restore the originals on exit."""
    mods = {m: importlib.import_module(f"assemblyforge.{m}") for m in TRACED}
    package = [mod for key, mod in sorted(sys.modules.items())
               if key == "assemblyforge" or key.startswith("assemblyforge.")]
    saved = []
    try:
        for mname, funcs in TRACED.items():
            for fname in funcs:
                owner = mods[mname]
                *path, attr = fname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = recorder.wrap(f"{mname}.{fname}", original)
                if path:  # a method: patch the class only
                    bindings = [(owner, attr)]
                else:
                    bindings = [(mod, key) for mod in package
                                for key, value in vars(mod).items() if value is original]
                for obj, key in bindings:
                    saved.append((obj, key, original))
                    setattr(obj, key, wrapper)
        yield recorder
    finally:
        for obj, key, original in reversed(saved):
            setattr(obj, key, original)


def _flags_below(parent, marked):
    """below[i]: some proper ancestor of span i is marked."""
    has_parent = parent >= 0
    below = np.zeros(len(parent), bool)
    below[has_parent] = marked[parent[has_parent]]
    while True:  # propagate down; parents precede children in the arrays
        nxt = below.copy()
        nxt[has_parent] |= below[parent[has_parent]]
        if np.array_equal(nxt, below):
            return below
        below = nxt


def layer_metrics(recorder: SpanRecorder, simulate_stage_s: float | None) -> dict:
    """Per-layer values from the recorded spans and counters. Times are
    seconds; a layer the run did not reach reads 0. `simulate_stage_s` is
    the traced simulate stage wall time, the base of sim.layers_share."""
    name, parent, start, end = recorder.arrays()
    names = recorder.names
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(*span_names):
        ids = [names.index(n) for n in span_names]
        return np.isin(name, ids)

    def outer(*span_names):
        """Total time of the named spans, not counting those nested in another."""
        m = mask(*span_names)
        return float(dur[m & ~_flags_below(parent, m)].sum())

    def calls(*span_names):
        return int(mask(*span_names).sum())

    geometry = [f"geometry.{f}" for f in TRACED["geometry"]]
    in_sim = _flags_below(parent, mask("sim.simulate"))
    in_bnb = _flags_below(parent, mask("allocation.solve_bnb"))
    l1 = float(dur[mask("sim.nominal_velocity") & in_sim].sum())
    l2 = float(dur[mask(*L2) & in_sim & ~_flags_below(parent, mask(*L2))].sum())
    l3 = float(dur[mask("sim.rvo_resolve") & in_sim].sum())
    sim_total = outer("sim.simulate")
    rvo_starts = start[mask("sim.rvo_resolve")]
    step_ms = np.diff(rvo_starts) * 1e3 if len(rvo_starts) > 1 else np.zeros(1)
    bnb_s = outer("allocation.solve_bnb")
    bnb_nodes = int((mask("schedule.evaluate_schedule") & in_bnb).sum())
    return {
        "ldraw.parse_s": outer("ldraw.parse_mpd"),
        "model.load_s": outer("model.project_from_jsonable", "model.validate_project"),
        "transport.configure_s": outer("transport.configure_all_transport_units"),
        "transport.units": recorder.counters["transport.units"],
        "transport.carry_score_calls": calls("transport.carry_score"),
        "transport.carry_score_s": outer("transport.carry_score"),
        "geometry.s": outer(*geometry),
        "staging.build_s": outer("staging.build_staging_plan"),
        "staging.radial_solves": calls("staging.solve_radial_layout"),
        "schedule.build_s": outer("schedule.build_partial_schedule"),
        "schedule.validate_s": outer("schedule.validate_schedule"),
        "schedule.adjacency_calls": calls("schedule.ScheduleGraph.adjacency"),
        "schedule.topo_calls": calls("schedule.topological_order"),
        "schedule.with_edges_calls": calls("schedule.ScheduleGraph.with_edges"),
        "schedule.evaluate_calls": calls("schedule.evaluate_schedule"),
        "schedule.evaluate_s": outer("schedule.evaluate_schedule"),
        "schedule.upstream_calls": calls("schedule.upstream"),
        "allocation.greedy_s": outer("allocation.greedy_pccf"),
        "allocation.earliest_arrival_calls": calls("allocation.earliest_arrival"),
        "allocation.earliest_arrival_s": outer("allocation.earliest_arrival"),
        "allocation.milp_build_s": outer("allocation.build_milp"),
        "allocation.milp_vars": recorder.counters["allocation.milp_vars"],
        "allocation.export_lp_s": outer("allocation.export_lp"),
        "allocation.bnb_s": bnb_s,
        "allocation.bnb_nodes": bnb_nodes,
        "allocation.bnb_ms_per_node": bnb_s * 1e3 / bnb_nodes if bnb_nodes else 0.0,
        "allocation.bnb_status": recorder.counters["allocation.bnb_status"],
        "sim.l1_s": l1,
        "sim.l1_calls": int((mask("sim.nominal_velocity") & in_sim).sum()),
        "sim.l2_s": l2,
        "sim.l2_force_calls": int((mask(*L2) & in_sim).sum()),
        "sim.l3_s": l3,
        "sim.l3_constraints": recorder.counters["sim.l3_constraints"],
        "sim.step_ms_p50": float(np.percentile(step_ms, 50)),
        "sim.step_ms_p99": float(np.percentile(step_ms, 99)),
        "sim.other_s": sim_total - l1 - l2 - l3,
        # l1 + l2 + l3 + other is the simulate() span; the rest of the stage
        # is loading and writing artifacts
        "sim.layers_share": sim_total / simulate_stage_s if simulate_stage_s else 0.0,
        "cli.artifact_io_s": float(self_time[mask(*ARTIFACT_IO)].sum()),
        "trace.wrapper_s": recorder.counters["trace.wrapper_s"],
    }
