"""Pipeline benchmark: plan -> allocate -> simulate, driven through `cli.main`
in one process, as a user runs the stages back to back.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke --seconds 1 --trace 0|1

Load is a closed loop with one client: the workload's stages run in order,
then again, until S seconds are used (at least one pass); a stage shorter
than MIN_STAGE_SHARE x S is invoked again until it has filled that time.
BLAS runs on one thread. Times are wall times at the nominal host speed:
hostspeed.py samples the shared host's changing CPU speed while the stages
run and divides it out (`host_slowdown` in the report is the median factor).
The seed generates the inputs (fleet positions through `--seed`, and the
synthetic project); the program receives only the generated files. Every
pass checks its artifacts; a crash, an unexpected exit code or a failed
check counts as a failed stage invocation.

With --trace 0 the line before the last is a report with every end-to-end
metric of the workload, its unit, and the SHA-256 of the compared artifacts;
the last line holds the metrics that BENCHMARK.json gates. Those must exist
on every workload, so they are the set-up time, the wait for a complete
schedule (plan + allocate), the time of a whole pass (its simulation counted
at a fixed number of steps, as a seed moves the length of a run) and the
peak RSS. With --trace 1 each stage runs untraced, then with every public
module function wrapped (tracing.py), then untraced again, and the last line
holds the per-layer metrics.
`--smoke` runs the toy project with 2 robots through every stage and check.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import assemblyforge  # noqa: E402
from assemblyforge import allocation, cli, model, projects, schedule  # noqa: E402

if Path(assemblyforge.__file__).parent != ROOT / "src" / "assemblyforge":
    sys.exit(f"assemblyforge imported from {assemblyforge.__file__}, not from this checkout")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from setup_probe import load_input  # noqa: E402

SETUP_REPEATS = 9
BNB_MAX_NODES = 2000
# Completed tractor-15 runs took 3,100-5,800 steps; this cap (half the CLI's
# default) bounds the time a livelocked run spends before it is reported as
# failed.
STEP_CAP = 10_000
# A stage shorter than this share of --seconds is invoked again, back to
# back, until its invocations add up to that share, so that short stages are
# timed over enough samples to smooth machine noise.
MIN_STAGE_SHARE = 0.15
# 50 s simulated: the first DepositCargo came at 15-38 s simulated on the
# seeds tried, so formed transport units are in the crowd by the horizon;
# check_simulation fails a run that has delivered nothing by then.
CROWD_STEPS = 1000
ARTIFACTS = ("schedule_partial.json", "transport_units.json", "schedule_complete.json",
             "model.lp", "trace.csv", "events.jsonl")  # deterministic outputs


@dataclass(frozen=True)
class Workload:
    source: str  # tractor | synthetic | toy
    robots: int
    prep: tuple[str, ...]  # stages that make the input, before the timed passes
    stages: tuple[str, ...]  # stages of one timed pass
    # simulation step cap; a complete run must finish before it, others are
    # expected to stop there (exit 4)
    max_steps: int = STEP_CAP
    complete: bool = True
    # pass_s counts the simulation at this many steps, so that a seed's
    # longer or shorter run does not move it
    pass_steps: int = 0


WORKLOADS = {
    # 4,210 steps: the complete run of seed 0 at the time the benchmark was added
    "tractor-15": Workload("tractor", 15, (), ("plan", "bnb", "simulate"), pass_steps=4210),
    "synthetic-400-plan": Workload("synthetic", 32, (), ("plan", "greedy", "export-lp")),
    "synthetic-400-crowd": Workload("synthetic", 32, ("plan", "greedy"), ("simulate",),
                                    max_steps=CROWD_STEPS, complete=False,
                                    pass_steps=CROWD_STEPS),
}
# the toy run takes 300 steps
SMOKE = Workload("toy", 2, (), ("plan", "bnb", "export-lp", "simulate"), pass_steps=300)
STAGE_METRIC = {"plan": "plan_s", "bnb": "allocate_s", "greedy": "allocate_s",
                "export-lp": "lp_export_s", "simulate": "simulate_s"}


def stage_argv(stage: str, wl: Workload, inp: Path, out: Path, seed: int) -> list[str]:
    common = ["--out", str(out), "--seed", str(seed)]
    if stage == "plan":
        return ["plan", "--input", str(inp), "--robots", str(wl.robots), *common]
    if stage == "bnb":  # node cap, no time limit: the same work on every run
        return ["allocate", "--method", "bnb", "--max-nodes", str(BNB_MAX_NODES),
                "--time-limit", "inf", *common]
    if stage in ("greedy", "export-lp"):
        return ["allocate", "--method", stage, *common]
    return ["simulate", "--max-steps", str(wl.max_steps), *common]


def write_input(wl: Workload, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True)
    if wl.source == "tractor":
        path = directory / "tractor.mpd"
        path.write_text(resources.files("assemblyforge.data").joinpath("tractor.mpd").read_text())
        return path
    spec = (projects.synthetic_project(seed, clusters=16, parts_per_cluster=25)
            if wl.source == "synthetic" else projects.toy_project())
    path = directory / "project.json"
    path.write_text(json.dumps(model.project_to_jsonable(spec), sort_keys=True))
    return path


def measure_setup(inp: Path, sampler: hostspeed.Sampler) -> float:
    """Median seconds, at nominal host speed, from spawning a fresh
    interpreter to the input validated."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(inp)],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds = float(proc.stdout.split()[-1]) - t0
        samples.append(sampler.corrected(start, start + seconds))
    return statistics.median(samples)


# -- one pass over the stages ------------------------------------------------


class Invocation(NamedTuple):
    stage: str
    code: int | None  # None: the stage raised
    seconds: float  # wall time at nominal host speed (hostspeed.py)
    wall: float


def run_stages(stages, wl, inp, out, seed, sampler, min_stage_s=0.0):
    """Invokes each stage until its invocations add up to `min_stage_s`, at
    least once; stops at the first crash."""
    runs: list[Invocation] = []
    for stage in stages:
        spent = 0.0
        while True:
            gc.collect()  # each invocation starts without the previous one's garbage
            t0 = time.perf_counter()
            try:
                code = cli.main(stage_argv(stage, wl, inp, out, seed))
            except Exception:  # a crash is a failed operation, not a harness error
                traceback.print_exc()
                code = None
            t1 = time.perf_counter()
            seconds = sampler.corrected(t0, t1)
            runs.append(Invocation(stage, code, seconds, t1 - t0))
            spent += t1 - t0
            if code != cli.EXIT_OK or spent >= min_stage_s:
                break
        if code is None:
            break
    return runs


def _json(path: Path):
    return json.loads(path.read_text())


def _fleet(out: Path):
    return model.project_from_jsonable(_json(out / "project.json"))[1]


def check_complete_schedule(out: Path, problems: list[str]) -> float:
    """validate_schedule(complete) passes and the allocation's predicted
    makespan equals evaluate_schedule on the written schedule."""
    graph = schedule.schedule_from_jsonable(_json(out / "schedule_complete.json"))
    for v in schedule.validate_schedule(graph, "complete"):
        problems.append(f"complete schedule invalid at {v.node}: {v.message}")
    predicted = schedule.evaluate_schedule(graph, _fleet(out))[2]
    reported = _json(out / "allocation_metrics.json")["predicted_makespan"]
    if reported != predicted:
        problems.append(f"allocation predicted makespan {reported} != evaluated {predicted}")
    return predicted


def lp_binaries(data: bytes) -> int:
    start = data.rindex(b"\nBinary\n")
    return data.count(b"\n", start + 1, data.rindex(b"\nEnd\n"))


def check_pass(runs, wl, out, predicted, problems_by_run):
    """Checks a pass's exit codes and, after the last invocation of each
    stage, the artifacts it wrote; returns the pass's observations."""
    obs = {"hashes": {}}
    for i, (stage, code, *_) in enumerate(runs):
        problems = problems_by_run.setdefault(i, [])
        if code is None:
            problems.append(f"{stage} crashed")
            continue
        if stage != "simulate" and code != cli.EXIT_OK:
            problems.append(f"{stage} exit {code}")
            continue
        if i + 1 < len(runs) and runs[i + 1].stage == stage:
            continue  # a repeated invocation: the next one wrote the artifacts
        if stage in ("bnb", "greedy"):
            predicted = check_complete_schedule(out, problems)
            obs["predicted_makespan_s"] = predicted
        elif stage == "export-lp":
            data = (out / "model.lp").read_bytes()
            obs["lp_binaries"] = lp_binaries(data)
            obs["lp_bytes"] = len(data)
        elif stage == "simulate":
            obs.update(check_simulation(code, wl, out, predicted, problems))
    for name in ARTIFACTS:
        if (out / name).is_file():
            obs["hashes"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return obs


def check_simulation(code, wl, out, predicted, problems) -> dict:
    metrics = _json(out / "metrics.json")
    if metrics["predicted_makespan"] != predicted:
        problems.append(f"simulate predicted makespan {metrics['predicted_makespan']} "
                        f"!= evaluated {predicted}")
    if metrics["deadlocked"]:
        if wl.complete or code != cli.EXIT_DEADLOCK or metrics["steps"] != wl.max_steps:
            problems.append(f"simulation did not finish: exit {code}, "
                            f"{metrics['steps']} steps")
    elif code != cli.EXIT_OK:
        problems.append(f"simulate exit {code}")
    elif metrics["execution_makespan"] < predicted:
        problems.append(f"executed makespan {metrics['execution_makespan']} "
                        f"< predicted {predicted}")
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    delivered = sum(1 for e in events if e["type"] == "task_complete"
                    and e["node"].startswith("DepositCargo:"))
    if not wl.complete and delivered == 0:
        problems.append(f"no payload delivered in {metrics['steps']} steps: the horizon "
                        "ends before the first DepositCargo")
    with open(out / "trace.csv", "rb") as fh:
        agent_steps = sum(1 for _ in fh) - 1
    return {
        "steps": metrics["steps"],
        "swaps": metrics["swap_count"],
        "penetrations": metrics["collision_count"],
        "executed_makespan_s": None if metrics["deadlocked"] else metrics["execution_makespan"],
        "delivered": delivered,
        "agent_steps": agent_steps,
        "trace_bytes": (out / "trace.csv").stat().st_size,
    }


# -- the run -----------------------------------------------------------------


class Run:
    """Stage invocations, their failures, and the artifact hashes seen."""

    def __init__(self, wl, inp, out, seed, sampler, min_stage_s):
        self.wl, self.inp, self.out, self.seed = wl, inp, out, seed
        self.sampler = sampler
        self.min_stage_s = min_stage_s
        self.attempted = 0
        self.failed = 0  # stage invocations with a crash, bad exit or failed check
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.predicted = None

    def execute(self, stages):
        """Run and check one pass; returns (stage times, observations)."""
        runs = run_stages(stages, self.wl, self.inp, self.out, self.seed, self.sampler,
                          self.min_stage_s)
        return runs, self.check(runs)

    def check(self, runs):
        problems: dict[int, list[str]] = {}
        obs = check_pass(runs, self.wl, self.out, self.predicted, problems)
        self.predicted = obs.get("predicted_makespan_s", self.predicted)
        for name, digest in obs["hashes"].items():
            if self.hashes.setdefault(name, digest) != digest:
                problems.setdefault(len(runs) - 1, []).append(
                    f"{name} differs between repetitions")
        self.fail([p for ps in problems.values() for p in ps],
                  sum(1 for ps in problems.values() if ps))
        self.attempted += len(runs)
        return obs

    def fail(self, messages, stages=1):
        self.failures += messages
        self.failed += stages if messages else 0


def median(values):
    return statistics.median(values) if values else None


def stage_times(passes):
    """metric -> seconds of every invocation in the passes."""
    times: dict[str, list[float]] = {}
    for runs, _ in passes:
        for r in runs:
            times.setdefault(STAGE_METRIC[r.stage], []).append(r.seconds)
    return times


def end_to_end(run, prep, passes, setup_s, peak_rss_mb):
    """Every end-to-end metric the workload has: name -> (value, unit)."""
    wl = run.wl
    stage_s = {name: median(ts) for name, ts in stage_times(prep + passes).items()}
    # plan + allocate: the wait for a complete schedule (the CLI report's
    # preprocessing_s); crowd pays it in its input preparation. A stage that
    # a crash kept from running counts 0 s.
    m = {"setup_s": (setup_s, "s"),
         "preprocessing_s": (stage_s.get("plan_s", 0.0) + stage_s.get("allocate_s", 0.0), "s")}
    m.update({name: (seconds, "s") for name, seconds in stage_s.items()})
    sims = [(r.seconds, obs["steps"]) for runs, obs in passes
            for r in runs if r.stage == "simulate" and "steps" in obs]
    if sims:
        m["sim_step_ms"] = (median([s * 1e3 / steps for s, steps in sims]), "ms")
    # the timed stages of one pass, the simulation at the workload's pass_steps
    m["pass_s"] = (sum(stage_s.get(STAGE_METRIC[st], 0.0) for st in wl.stages
                       if st != "simulate")
                   + (m["sim_step_ms"][0] * wl.pass_steps / 1e3 if sims else 0.0), "s")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    # wall time over the times above, for the median invocation
    m["host_slowdown"] = (median([r.wall / r.seconds for runs, _ in prep + passes
                                  for r in runs]), "ratio")
    last = passes[-1][1]
    m["predicted_makespan_s"] = (run.predicted, "sim_s")
    if last.get("executed_makespan_s") is not None:
        m["executed_makespan_s"] = (last["executed_makespan_s"], "sim_s")
    if "steps" in last:
        m["penetrations"] = (last["penetrations"], "count")
        m["delivered"] = (last["delivered"], "count")
    return m


def traced_pass(run, recorder):
    """Each stage untraced, traced, then untraced again, back to back; stops
    at the first failure. Returns the three invocations of every stage run
    and the observations of the traced ones."""
    triples, obs = [], {}
    for stage in run.wl.stages:
        triple = []
        for traced in (False, True, False):
            with tracing.instrumented(recorder) if traced else contextlib.nullcontext():
                runs = run_stages((stage,), run.wl, run.inp, run.out, run.seed, run.sampler)
            stage_obs = run.check(runs)
            if traced:
                obs.update(stage_obs)
            triple += runs
            if run.failures:
                return triples, obs
        triples.append(triple)
    return triples, obs


def per_layer(run, recorder, triples, obs, declared):
    """The declared per-layer metrics: name -> (value, unit). The tracing
    overhead of a stage is its traced time minus the mean of the two untraced
    invocations around it, which cancels a steady drift of the host's speed;
    their difference is the noise that an overhead has to exceed. Where the
    host's noise hides it, trace.wrapper_s (tracing.py) still shows what the
    wrappers cost."""
    by_metric = {STAGE_METRIC[triple[0].stage]: triple for triple in triples}
    simulate = by_metric.get("simulate_s")
    # spans are wall times, so the share is of the traced stage's wall time
    values = tracing.layer_metrics(recorder, simulate[1].wall if simulate else 0.0)
    for stage in ("plan", "allocate", "lp_export", "simulate"):
        triple = by_metric.get(f"{stage}_s")
        before, traced, after = [r.seconds for r in triple] if triple else (0.0,) * 3
        values[f"trace.{stage}_overhead_s"] = traced - (before + after) / 2
        values[f"trace.{stage}_noise_s"] = abs(after - before)
    complete = run.out / "schedule_complete.json"
    graph = _json(complete) if complete.is_file() else {"nodes": [], "edges": []}
    values.update({
        "schedule.nodes": len(graph["nodes"]),
        "schedule.edges": len(graph["edges"]),
        "allocation.lp_bytes": obs.get("lp_bytes", 0),
        "sim.steps": obs.get("steps", 0),
        "sim.agent_steps": obs.get("agent_steps", 0),
        "sim.swaps": obs.get("swaps", 0),
        "cli.trace_bytes": obs.get("trace_bytes", 0),
    })
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def check_lp_variables(run, passes):
    """model.lp declares one binary per candidate edge of build_milp."""
    lp_counts = {obs["lp_binaries"] for _, obs in passes if "lp_binaries" in obs}
    if not lp_counts:
        return
    graph = schedule.schedule_from_jsonable(_json(run.out / "schedule_partial.json"))
    expected = len(allocation.build_milp(graph, _fleet(run.out)).variables)
    if lp_counts != {expected}:
        run.fail([f"model.lp binaries {sorted(lp_counts)} != {expected} candidate edges"])


def source_digest() -> str:
    """Digest of the program and of the benchmark, whose settings (such as
    the crowd horizon) shape the artifacts too."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"), *HERE.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_recorded_hashes(run, key: str, record: Path):
    """Repetitions of one workload and seed in other runs of the same source
    must have produced the same artifacts."""
    known = json.loads(record.read_text()) if record.is_file() else {}
    for name, digest in run.hashes.items():
        previous = known.setdefault(key, {}).setdefault(name, digest)
        if previous != digest:
            run.fail([f"{name} differs from an earlier run of {key}"])
    record.write_text(json.dumps(known, indent=1, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--smoke", action="store_true",
                   help="toy project, 2 robots, every stage and check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.smoke == (args.workload is not None):
        p.error("give exactly one of --workload and --smoke")
    name = "smoke" if args.smoke else args.workload
    wl = SMOKE if args.smoke else WORKLOADS[name]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    report = None
    work_root = HERE / ".work"
    work = work_root / f"{name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    with hostspeed.Sampler() as sampler:
        try:
            inp = write_input(wl, args.seed, work / "input")
            # a traced run times nothing that is gated: one invocation per stage
            min_stage_s = 0.0 if args.trace else MIN_STAGE_SHARE * args.seconds
            run = Run(wl, inp, work / "out", args.seed, sampler, min_stage_s)
            prep = [run.execute(wl.prep)] if wl.prep else []
            if args.trace:
                recorder = tracing.SpanRecorder()
                with tracing.instrumented(recorder):
                    load_input(inp)
                triples, obs = traced_pass(run, recorder)
                passes = [triples]
                recorder.write(work_root / f"spans-{name}.npz")
                report = per_layer(run, recorder, triples, obs, bench["per_layer"])
            else:
                setup = measure_setup(inp, sampler)
                passes = []
                t_begin = time.perf_counter()
                while not run.failures:
                    passes.append(run.execute(wl.stages))
                    elapsed = time.perf_counter() - t_begin
                    if elapsed + elapsed / len(passes) > args.seconds:
                        break
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if passes:
                    check_lp_variables(run, passes)
                    report = end_to_end(run, prep, passes, setup, peak_rss_mb)
            check_recorded_hashes(run, f"{name}/seed{args.seed}/{source_digest()[:16]}",
                                  work_root / "sha256.json")
        finally:
            shutil.rmtree(work, ignore_errors=True)

    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if report is None:  # the input preparation failed: nothing was measured
        return 1
    print(json.dumps({
        "workload": name, "seed": args.seed, "passes": len(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "sha256": run.hashes,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
