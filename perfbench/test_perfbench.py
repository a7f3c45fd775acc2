"""Tests of the benchmark itself, on the toy project (a few seconds):

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def sampler():
    with hostspeed.Sampler() as s:
        yield s


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(trace, section):
    proc = _bench("--smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    report = json.loads(report_line)
    assert {"trace.csv", "events.jsonl", "model.lp"} <= set(report["sha256"])
    if trace:
        layers = report["metrics"]
        assert layers["allocation.bnb_nodes"]["value"] > 0
        assert layers["allocation.milp_vars"]["value"] > 0
        assert 0.5 < layers["sim.layers_share"]["value"] <= 1.0
        assert layers["trace.wrapper_s"]["value"] > 0
        assert all(layers[f"trace.{s}_noise_s"]["value"] > 0
                   for s in ("plan", "allocate", "lp_export", "simulate"))
    else:
        stages = {"plan_s", "allocate_s", "lp_export_s", "simulate_s", "sim_step_ms",
                  "executed_makespan_s", "penetrations", "delivered", "host_slowdown"}
        assert stages <= set(report["metrics"])


def test_checks_catch_a_wrong_predicted_makespan(tmp_path, sampler):
    inp = run.write_input(run.SMOKE, 0, tmp_path / "input")
    out = tmp_path / "out"
    codes = [r.code for r in run.run_stages(("plan", "greedy"), run.SMOKE, inp, out, 0, sampler)]
    assert codes == [0, 0]
    problems: list[str] = []
    run.check_complete_schedule(out, problems)
    assert problems == []
    doc = json.loads((out / "allocation_metrics.json").read_text())
    doc["predicted_makespan"] += 1e-9
    (out / "allocation_metrics.json").write_text(json.dumps(doc))
    run.check_complete_schedule(out, problems)
    assert len(problems) == 1 and "predicted makespan" in problems[0]


def test_checks_catch_a_horizon_before_the_first_delivery(tmp_path, sampler):
    short = run.Workload("toy", 2, (), ("plan", "greedy", "simulate"), max_steps=5,
                         complete=False)
    inp = run.write_input(short, 0, tmp_path / "input")
    out = tmp_path / "out"
    codes = [r.code for r in run.run_stages(short.stages, short, inp, out, 0, sampler)]
    assert codes == [0, 0, run.cli.EXIT_DEADLOCK]
    problems: list[str] = []
    predicted = run.check_complete_schedule(out, problems)
    obs = run.check_simulation(codes[-1], short, out, predicted, problems)
    assert obs["delivered"] == 0
    assert len(problems) == 1 and "no payload delivered" in problems[0]


def test_host_speed_correction():
    s = hostspeed.Sampler()
    s.samples = [(1.0, 2.0), (1.1, 4.0), (1.2, 2.5), (1.3, 1.0), (5.0, 9.0)]
    assert s.slowdown(0.95, 1.35) == 2.25  # median of the four inside
    assert s.corrected(0.95, 1.35) == pytest.approx(0.4 / 2.25)
    assert s.slowdown(1.19, 1.21) == 2.5  # the three nearest its middle: 4.0, 2.5, 1.0
    with hostspeed.Sampler() as live:
        assert 0.2 < live.slowdown(0.0, time.perf_counter()) < 5.0


def test_instrumented_restores_every_binding():
    from assemblyforge import allocation, schedule, sim

    before = (sim.rvo_resolve, allocation.evaluate_schedule, schedule.evaluate_schedule,
              sim.topological_order, schedule.ScheduleGraph.__dict__["adjacency"])
    recorder = tracing.SpanRecorder()
    with tracing.instrumented(recorder):
        assert allocation.evaluate_schedule is schedule.evaluate_schedule
        assert allocation.evaluate_schedule is not before[1]
        assert sim.topological_order.__wrapped__ is before[3]
    after = (sim.rvo_resolve, allocation.evaluate_schedule, schedule.evaluate_schedule,
             sim.topological_order, schedule.ScheduleGraph.__dict__["adjacency"])
    assert after == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "tractor-15", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
