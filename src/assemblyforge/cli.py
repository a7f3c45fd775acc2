"""Command-line entry points: plan, allocate, simulate, report.

All artifacts are written under --out with fixed file names so the stages
can be chained; every output is a deterministic function of inputs + flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
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


class CommandError(Exception):
    """A command's failure: the exit code and the lines `main` prints."""

    def __init__(self, code: int, *lines: str):
        super().__init__(*lines)
        self.code, self.lines = code, lines


def _setup_logging():
    level = os.environ.get("ASSEMBLYFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_input(path: Path):
    """Project from an MPD/LDR model or a native JSON document; raises
    OSError if `path` cannot be read, and ValueError if it is not UTF-8 text
    or not a well-formed input (JSON, `int()` and the readers raise one)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        return model.project_from_jsonable(json.loads(text))
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


def _stream(out: Path, name: str, writer):
    """Write artifact `name` through `writer(file)` into a temporary file in
    `out`, open for binary writing, renamed into place only once the writer
    has finished, so a writer that fails leaves no partial artifact behind.
    Returns what `writer` returns."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / f"{name}.tmp"
    try:
        with tmp.open("wb") as f:
            result = writer(f)
        os.replace(tmp, out / name)
    finally:
        tmp.unlink(missing_ok=True)
    return result


def _utf8(writer):
    """`writer(text_file)` as a `_stream` writer: it writes through the
    UTF-8 text layer that `open(path, "w", encoding="utf-8")` builds."""
    def write(f):
        with io.TextIOWrapper(f, encoding="utf-8") as text:
            return writer(text)
    return write


def _write(out: Path, name: str, text: str):
    _stream(out, name, _utf8(lambda f: f.write(text)))


def _json_text(obj) -> str:
    """A JSON artifact's text: one line with sorted keys, through the C
    encoder (`indent` would select the pure-Python one)."""
    return json.dumps(obj, sort_keys=True) + "\n"


def cmd_plan(args) -> int:
    out = Path(args.out)
    if args.seed < 0:  # it seeds the fleet and the carry search whatever the input
        raise CommandError(EXIT_BAD_INPUT,
                           f"error: invalid option: --seed must be at least 0, got {args.seed}")
    try:
        spec, fleet, params = _load_input(Path(args.input))
    except OSError:
        raise CommandError(EXIT_BAD_INPUT, f"error: cannot read input {args.input}") from None
    except ValueError as exc:
        raise CommandError(EXIT_BAD_INPUT, f"error: malformed input: {exc}") from None

    violations = model.validate_project(spec)
    if violations:
        raise CommandError(EXIT_FAILURE, *(f"invalid project: {v}" for v in violations))

    t_start = time.perf_counter()
    try:
        fleet = _fleet_from_args(args, fleet)
        params = params or model.PlanParams(buffer_radius=0.25, seed=args.seed)
        if args.buffer is not None:
            params = dataclasses.replace(params, buffer_radius=args.buffer)
    except model.ProjectError as exc:
        raise CommandError(EXIT_BAD_INPUT, f"error: invalid option: {exc}") from None
    configs = transport.configure_all_transport_units(spec, fleet, seed=args.seed)
    plan = staging.build_staging_plan(spec, configs, params)
    graph = schedule.build_partial_schedule(spec, plan, configs, fleet, params)
    _check_schedule(graph, "partial")
    runtime = time.perf_counter() - t_start

    staging_doc = staging.staging_plan_to_jsonable(plan)
    staging_doc["runtime_s"] = runtime
    _write(out, "staging.json", _json_text(staging_doc))
    _write(out, "staging.svg", staging.staging_plan_to_svg(plan))
    _write(out, "transport_units.json", _json_text({
        cid: {"payload_id": cid, **transport.transport_config_to_jsonable(cfg)}
        for cid, cfg in sorted(configs.items())
    }))
    _write(out, "schedule_partial.json", _json_text(schedule.schedule_to_jsonable(graph)))
    _write(out, "schedule_partial.dot", schedule.schedule_to_dot(graph))
    _write(out, "project.json", _json_text(model.project_to_jsonable(spec, fleet, params)))
    log.info("plan: %d staging areas, %d schedule nodes, %.3fs",
             len(plan.assemblies), len(graph.nodes), runtime)
    return EXIT_OK


def _artifacts(out: Path, what: str, *names: str) -> list[Path]:
    """The paths of the artifacts `names` a command reads; raises
    CommandError (exit 3) naming each one that is missing."""
    paths = [out / n for n in names]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        raise CommandError(EXIT_MISSING_ARTIFACTS, f"error: missing {what}: {', '.join(missing)}")
    return paths


def _read_artifact(path: Path, reader):
    """`reader` applied to the JSON document in `path`; raises
    model.ArtifactError naming the file when its text is not UTF-8 JSON or
    the document does not have the structure `reader` expects."""
    try:
        return reader(json.loads(path.read_text(encoding="utf-8")))
    except ValueError as exc:
        raise model.ArtifactError(f"malformed artifact {path.name}: {exc}") from None


# `plan` always writes the fleet and the parameters, which its input may lack
_PLANNED = {"fleet": model.FLEET, "params": model.PARAMS}


@model.reading_artifact("project JSON", _PLANNED)
def _project_artifact(doc):
    """Project, fleet and parameters of a `project.json` written by `plan`."""
    return model.project_from_jsonable(doc)


_UNITS = model.MapOf({"payload_id": model.STRING}, label="transport unit")


@model.reading_artifact("transport units JSON", _UNITS)
def _unit_configs(doc) -> dict:
    """Transport unit configs by payload; each unit repeats its key as its
    `payload_id`."""
    for cid, d in doc.items():
        if d["payload_id"] != cid:
            raise model.ArtifactError(f"transport unit {cid} has payload_id {d['payload_id']!r}")
    return {cid: transport.transport_config_from_jsonable(d) for cid, d in doc.items()}


def _check_schedule(graph: schedule.ScheduleGraph, mode: str):
    """Raises CommandError (exit 1), one line per violation of `graph` in `mode`."""
    issues = schedule.validate_schedule(graph, mode)
    if issues:
        raise CommandError(EXIT_FAILURE,
                           *(f"invalid schedule: {v.node}: {v.message}" for v in issues))


def _check_simulable(graph: schedule.ScheduleGraph, plan, configs):
    """Raises model.ArtifactError, as `malformed artifact <name>: ...`, for
    what the simulator reads for `graph` and the other artifacts lack: a
    transport unit config for every payload, and a staging circle for every
    build step the schedule opens."""
    payloads = sorted(set(graph.source) - set(configs))
    if payloads:
        raise model.ArtifactError(
            f"malformed artifact transport_units.json: no config for {', '.join(payloads)}")
    steps = [f"{n.subject}:{n.slot}" for _, n in sorted(graph.nodes.items())
             if n.kind == "OpenBuildStep" and (
                 n.subject not in plan.assemblies
                 or n.slot not in range(1, len(plan.assemblies[n.subject].phase_radii) + 1))]
    if steps:
        raise model.ArtifactError(
            f"malformed artifact staging.json: no staging circle for {', '.join(steps)}")


def cmd_allocate(args) -> int:
    out = Path(args.out)
    if args.max_nodes < 1:
        raise CommandError(EXIT_BAD_INPUT, "error: invalid option: "
                           f"--max-nodes must be at least 1, got {args.max_nodes}")
    if not args.time_limit > 0:  # inf turns the limit off
        raise CommandError(EXIT_BAD_INPUT, "error: invalid option: "
                           f"--time-limit must be positive, got {args.time_limit}")
    project_json, partial_json = _artifacts(
        out, "plan artifacts", "project.json", "schedule_partial.json")
    _, fleet, _ = _read_artifact(project_json, _project_artifact)
    graph = _read_artifact(partial_json, schedule.schedule_from_jsonable)
    _check_schedule(graph, "partial")

    t_start = time.perf_counter()
    if args.method == "export-lp":
        milp = allocation.build_milp(graph, fleet)
        _stream(out, "model.lp", lambda f: allocation.export_lp(milp, f))
        return EXIT_OK
    greedy = allocation.greedy_pccf(graph, fleet)
    if args.method == "greedy":
        result = greedy
    else:  # bnb, warm-started by greedy
        result = allocation.solve_bnb(graph, fleet, incumbent=greedy,
                                      max_nodes=args.max_nodes, time_limit=args.time_limit)
    runtime = time.perf_counter() - t_start

    doc = allocation.allocation_to_jsonable(result, fleet)
    _write(out, "schedule_complete.json",
           _json_text(schedule.schedule_to_jsonable(result.graph)))
    metrics = {
        "method": result.method,
        "status": result.status,
        "predicted_makespan": result.makespan,
        "runtime_s": runtime,
    }
    if args.method == "bnb":
        bound = result.bnb_root_bound
        proven = result.status == "optimal" or result.makespan <= bound
        metrics.update(bnb_nodes=result.bnb_nodes, bnb_root_bound=bound,
                       bnb_gap=0.0 if proven else (result.makespan - bound) / result.makespan)
    _write(out, "allocation_metrics.json", _json_text(metrics))
    _write(out, "allocation.json", _json_text(doc))
    log.info("allocate[%s]: makespan %.3f (%s), %.3fs",
             result.method, result.makespan, result.status, runtime)
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.max_steps < 1:
        raise CommandError(EXIT_BAD_INPUT, "error: invalid option: "
                           f"--max-steps must be at least 1, got {args.max_steps}")
    project_json, staging_json, units_json, complete_json = _artifacts(
        out, "artifacts", "project.json", "staging.json", "transport_units.json",
        "schedule_complete.json")
    _, fleet, params = _read_artifact(project_json, _project_artifact)
    plan = _read_artifact(staging_json, staging.staging_plan_from_jsonable)
    configs = _read_artifact(units_json, _unit_configs)
    graph = _read_artifact(complete_json, schedule.schedule_from_jsonable)
    _check_schedule(graph, "complete")
    _check_simulable(graph, plan, configs)
    if args.dt is not None:
        try:
            params = dataclasses.replace(params, dt_sim=args.dt)
        except model.ProjectError as exc:
            raise CommandError(EXIT_BAD_INPUT, f"error: invalid option: {exc}") from None

    _, _, predicted = schedule.evaluate_schedule(graph, fleet)
    t_start = time.perf_counter()
    trace = _stream(out, "trace.csv", _utf8(lambda f: sim.simulate(
        graph, plan, configs, fleet, params, f, max_steps=args.max_steps)))
    runtime = time.perf_counter() - t_start

    metrics = sim.metrics_to_jsonable(trace, predicted)
    metrics["runtime_s"] = runtime
    metrics["robots"] = fleet.count
    _write(out, "events.jsonl", sim.events_to_jsonl(trace))
    _write(out, "metrics.json", _json_text(metrics))
    log.info("simulate: %d steps, makespan %.3f, %.3fs",
             trace.steps, trace.execution_makespan, runtime)
    return EXIT_DEADLOCK if trace.deadlocked else EXIT_OK


REPORT_COLUMNS = ["run", "robots", "preprocessing_s", "predicted_makespan",
                  "execution_makespan", "runtime_s"]


# what `report` reads of a run's documents, where they have it
_RUN_RECORD = {"runtime_s": model.Optional(model.NUMBER), "robots": model.Optional(model.WHOLE)}
_run_record = model.reading_artifact("run record", _RUN_RECORD)(lambda doc: doc)


def _report_row(d: Path) -> dict:
    """The report row of the run whose artifacts are in `d`."""
    m = _read_artifact(d / "metrics.json", _run_record)
    prep = 0.0
    for extra in ("staging.json", "allocation_metrics.json"):
        f = d / extra
        if f.is_file():
            prep += _read_artifact(f, _run_record).get("runtime_s", 0.0)
    return {
        "run": d.name,
        "robots": m.get("robots", ""),
        "preprocessing_s": round(prep, 3),
        "predicted_makespan": m.get("predicted_makespan", ""),
        "execution_makespan": m.get("execution_makespan", ""),
        "runtime_s": round(m.get("runtime_s", 0.0), 3),
    }


def cmd_report(args) -> int:
    out = Path(args.out)
    candidates = [out] + sorted(p for p in out.glob("*") if p.is_dir()) if out.is_dir() else []
    rows = [_report_row(d) for d in candidates if (d / "metrics.json").is_file()]
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
        sp.add_argument("--seed", type=int, default=0, help=(
            "seeds plan: the transport-unit search, the fleet positions when plan "
            "draws the fleet, and the part-source ring when the input embeds no "
            "params; allocate, simulate and report accept it and ignore it"))

    sp = sub.add_parser("plan", help="staging + transport + partial schedule")
    common(sp, needs_input=True)
    sp.add_argument("--robots", type=int, default=None)
    sp.add_argument("--radius", type=float, default=0.25)
    sp.add_argument("--vmax", type=float, default=1.0)
    sp.add_argument("--vmin", type=float, default=0.2)
    sp.add_argument("--vfactor", type=float, default=0.25)
    sp.add_argument("--buffer", type=float, default=None,
                    help="staging buffer radius (default: the input's, else 0.25)")
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


# control characters print escaped (a newline as `\n`): one line per line
_ESCAPED = {c: chr(c).encode("unicode_escape").decode()
            for c in [*range(0x20), *range(0x7f, 0xa0), 0x2028, 0x2029]}


def main(argv=None) -> int:
    """Runs a command; the one writer of its errors to stderr, and of the
    exit codes of CommandError, model.ArtifactError and AllocationError."""
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        failure = exc
    except model.ArtifactError as exc:
        failure = CommandError(EXIT_BAD_INPUT, f"error: {exc}")
    except allocation.AllocationError as exc:
        failure = CommandError(EXIT_FAILURE, f"error: {exc}")
    for line in failure.lines:
        print(line.translate(_ESCAPED), file=sys.stderr)
    return failure.code


if __name__ == "__main__":
    sys.exit(main())
