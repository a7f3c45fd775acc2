"""Command-line entry points: plan, allocate, simulate, report.

All artifacts are written under --out with fixed file names so the stages
can be chained; every output is a deterministic function of inputs + flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import allocation, ldraw, model, projects, schedule, sim, staging, transport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_MISSING_ARTIFACTS = 3
EXIT_DEADLOCK = 4

log = logging.getLogger("assemblyforge")


def _setup_logging():
    level = os.environ.get("ASSEMBLYFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_input(path: Path):
    """Project from an MPD/LDR model or a native JSON document."""
    if not path.is_file():
        raise FileNotFoundError(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        spec, fleet, params = model.project_from_jsonable(json.loads(text))
        return spec, fleet, params
    result = ldraw.parse_mpd(text, projects.bundled_dimension_table(),
                             units_per_meter=projects.UNITS_PER_METER)
    for w in result.report.warnings:
        log.warning("%s", w)
    return result.project, None, None


def _fleet_from_args(args, fleet):
    if fleet is not None and args.robots is None:
        return fleet
    count = args.robots if args.robots is not None else 5
    return projects.default_fleet(
        count, seed=args.seed, radius=args.radius,
        v_max=args.vmax, v_min=args.vmin, v_factor=args.vfactor)


def _write(out: Path, name: str, text: str):
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_plan(args) -> int:
    out = Path(args.out)
    try:
        spec, fleet, params = _load_input(Path(args.input))
    except (FileNotFoundError, OSError):
        print(f"error: cannot read input {args.input}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ldraw.LdrawParseError, json.JSONDecodeError, model.ProjectError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    violations = model.validate_project(spec)
    if violations:
        for v in violations:
            print(f"invalid project: {v}", file=sys.stderr)
        return EXIT_FAILURE

    t_start = time.perf_counter()
    try:
        fleet = _fleet_from_args(args, fleet)
        params = params or projects.default_params(buffer_radius=args.buffer, seed=args.seed)
    except model.ProjectError as exc:
        print(f"error: invalid option: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    configs = transport.configure_all_transport_units(spec, fleet, seed=args.seed)
    plan = staging.build_staging_plan(spec, configs, params)
    graph = schedule.build_partial_schedule(spec, plan, configs, fleet, params)
    issues = schedule.validate_schedule(graph, "partial")
    if issues:
        for v in issues:
            print(f"invalid schedule: {v.node}: {v.message}", file=sys.stderr)
        return EXIT_FAILURE
    runtime = time.perf_counter() - t_start

    staging_doc = staging.staging_plan_to_jsonable(plan)
    staging_doc["runtime_s"] = runtime
    _write(out, "staging.json", _json_text(staging_doc))
    _write(out, "staging.svg", staging.staging_plan_to_svg(plan))
    _write(out, "transport_units.json", _json_text({
        cid: transport.transport_config_to_jsonable(cfg)
        for cid, cfg in sorted(configs.items())
    }))
    _write(out, "schedule_partial.json", _json_text(schedule.schedule_to_jsonable(graph)))
    _write(out, "schedule_partial.dot", schedule.schedule_to_dot(graph))
    _write(out, "project.json", _json_text(model.project_to_jsonable(spec, fleet, params)))
    log.info("plan: %d staging areas, %d schedule nodes, %.3fs",
             len(plan.assemblies), len(graph.nodes), runtime)
    return EXIT_OK


def _load_plan_artifacts(out: Path):
    needed = ["schedule_partial.json", "staging.json", "transport_units.json",
              "project.json"]
    missing = [n for n in needed if not (out / n).is_file()]
    if missing:
        raise FileNotFoundError(", ".join(missing))
    graph = schedule.schedule_from_jsonable(json.loads((out / needed[0]).read_text()))
    plan = staging.staging_plan_from_jsonable(json.loads((out / needed[1]).read_text()))
    configs = {
        cid: transport.transport_config_from_jsonable(d)
        for cid, d in json.loads((out / needed[2]).read_text()).items()
    }
    spec, fleet, params = model.project_from_jsonable(
        json.loads((out / needed[3]).read_text()))
    return graph, plan, configs, spec, fleet, params


def cmd_allocate(args) -> int:
    out = Path(args.out)
    try:
        graph, plan, configs, spec, fleet, params = _load_plan_artifacts(out)
    except FileNotFoundError as exc:
        print(f"error: missing plan artifacts: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACTS

    t_start = time.perf_counter()
    if args.method == "export-lp":
        milp = allocation.build_milp(graph, fleet)
        _write(out, "model.lp", allocation.export_lp(milp))
        return EXIT_OK
    try:
        greedy = allocation.greedy_pccf(graph, fleet)
    except allocation.AllocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.method == "greedy":
        result = greedy
    else:  # bnb, warm-started by greedy
        milp = allocation.build_milp(graph, fleet)
        limits = allocation.BnbLimits(
            max_nodes=args.max_nodes,
            time_limit=args.time_limit)
        result = allocation.solve_bnb(milp, incumbent=greedy, limits=limits)
    runtime = time.perf_counter() - t_start

    doc = allocation.allocation_to_jsonable(result, fleet)
    _write(out, "schedule_complete.json",
           _json_text(schedule.schedule_to_jsonable(result.graph)))
    _write(out, "allocation_metrics.json", _json_text({
        "method": result.method,
        "status": result.status,
        "predicted_makespan": result.makespan,
        "runtime_s": runtime,
    }))
    _write(out, "allocation.json", _json_text(doc))
    log.info("allocate[%s]: makespan %.3f (%s), %.3fs",
             result.method, result.makespan, result.status, runtime)
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.max_steps < 1:
        print(f"error: invalid option: --max-steps must be at least 1, got {args.max_steps}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        _, plan, configs, spec, fleet, params = _load_plan_artifacts(out)
        complete_path = out / "schedule_complete.json"
        if not complete_path.is_file():
            raise FileNotFoundError("schedule_complete.json")
        graph = schedule.schedule_from_jsonable(json.loads(complete_path.read_text()))
    except FileNotFoundError as exc:
        print(f"error: missing artifacts: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACTS

    issues = schedule.validate_schedule(graph, "complete")
    if issues:
        for v in issues:
            print(f"invalid schedule: {v.node}: {v.message}", file=sys.stderr)
        return EXIT_FAILURE
    if args.dt is not None:
        try:
            params = dataclasses.replace(params, dt_sim=args.dt)
        except model.ProjectError as exc:
            print(f"error: invalid option: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT

    _, _, predicted = schedule.evaluate_schedule(graph, fleet)
    t_start = time.perf_counter()
    trace = sim.simulate(graph, plan, configs, fleet, params,
                         seed=args.seed, max_steps=args.max_steps)
    runtime = time.perf_counter() - t_start

    metrics = sim.metrics_to_jsonable(trace, predicted_makespan=predicted)
    metrics["runtime_s"] = runtime
    metrics["robots"] = fleet.count
    _write(out, "trace.csv", sim.trace_to_csv(trace))
    _write(out, "events.jsonl", sim.events_to_jsonl(trace))
    _write(out, "metrics.json", _json_text(metrics))
    log.info("simulate: %d steps, makespan %.3f, %.3fs",
             trace.steps, trace.execution_makespan, runtime)
    return EXIT_DEADLOCK if trace.deadlocked else EXIT_OK


REPORT_COLUMNS = ["run", "robots", "preprocessing_s", "predicted_makespan",
                  "execution_makespan", "runtime_s"]


def cmd_report(args) -> int:
    out = Path(args.out)
    rows = []
    candidates = [out] + sorted(p for p in out.glob("*") if p.is_dir()) if out.is_dir() else []
    for d in candidates:
        mfile = d / "metrics.json"
        if not mfile.is_file():
            continue
        m = json.loads(mfile.read_text())
        prep = 0.0
        for extra in ("staging.json", "allocation_metrics.json"):
            f = d / extra
            if f.is_file():
                prep += json.loads(f.read_text()).get("runtime_s", 0.0)
        rows.append({
            "run": d.name,
            "robots": m.get("robots", ""),
            "preprocessing_s": round(prep, 3),
            "predicted_makespan": m.get("predicted_makespan", ""),
            "execution_makespan": m.get("execution_makespan", ""),
            "runtime_s": round(m.get("runtime_s", 0.0), 3),
        })
    rows.sort(key=lambda r: (r["robots"] if r["robots"] != "" else -1, r["run"]))
    print(",".join(REPORT_COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in REPORT_COLUMNS))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="assemblyforge",
                                description="multi-robot assembly planning pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=False):
        if needs_input:
            sp.add_argument("--input", required=True, help="MPD model or project JSON")
        sp.add_argument("--out", required=True, help="artifact directory")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("plan", help="staging + transport + partial schedule")
    common(sp, needs_input=True)
    sp.add_argument("--robots", type=int, default=None)
    sp.add_argument("--radius", type=float, default=0.25)
    sp.add_argument("--vmax", type=float, default=1.0)
    sp.add_argument("--vmin", type=float, default=0.2)
    sp.add_argument("--vfactor", type=float, default=0.25)
    sp.add_argument("--buffer", type=float, default=0.25)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("allocate", help="complete the schedule with assignments")
    common(sp)
    sp.add_argument("--method", choices=["greedy", "bnb", "export-lp"],
                    default="greedy")
    sp.add_argument("--max-nodes", type=int, default=200_000)
    sp.add_argument("--time-limit", type=float, default=30.0)
    sp.set_defaults(func=cmd_allocate)

    sp = sub.add_parser("simulate", help="execute the complete schedule")
    common(sp)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--max-steps", type=int, default=20_000)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("report", help="tabulate run metrics")
    common(sp)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
