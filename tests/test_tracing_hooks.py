"""The traced benchmark's hold on the package, checked without editing it.

`perfbench/tracing.py` wraps each function named in its TRACED table by
looking it up in its module's (or class's) `__dict__`, and its
`_count_constraints` hook reads the shares matrix as the sixth positional
argument of `sim.rvo_resolve`. A rename or a moved function breaks
`perfbench/run.py --trace 1`; these tests fail first.
"""

import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

from assemblyforge import sim

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    for mname, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"assemblyforge.{mname}")
        for fname in funcs:
            owner = module
            *path, attr = fname.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert callable(owner.__dict__.get(attr)), f"{mname}.{fname}"


def test_hooked_and_grouped_names_are_traced(tracing):
    traced = {f"{m}.{f}" for m, funcs in tracing.TRACED.items() for f in funcs}
    assert set(tracing.HOOKS) <= traced
    assert tracing.L2 <= traced
    assert tracing.ARTIFACT_IO <= traced


def test_rvo_resolve_takes_shares_sixth():
    params = list(inspect.signature(sim.rvo_resolve).parameters.values())
    assert params[5].name == "shares"
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:6])


def test_instrumented_toy_run(tracing, pipeline, toy_spec, params):
    data = pipeline(toy_spec, "toy", 2)
    original = sim.field_radius
    recorder = tracing.SpanRecorder()
    with tracing.instrumented(recorder):
        trace = sim.simulate(data["greedy"].graph, data["plan"], data["configs"],
                             data["fleet"], params, io.StringIO(), max_steps=200)
    assert sim.field_radius is original  # the wrappers are gone again
    layers = tracing.layer_metrics(recorder, None)
    assert layers["sim.l1_s"] > 0
    assert layers["sim.l1_calls"] == trace.steps  # one batched L1 span per step
    assert layers["sim.l2_s"] > 0
    assert layers["sim.l2_force_calls"] >= trace.steps  # one field_radius per step
    assert layers["sim.l3_s"] > 0
    # the constrained pairs of the 200 L3 calls: a change to what rvo_resolve
    # is handed must not change what this per-layer count means
    assert layers["sim.l3_constraints"] == 326
