import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import assemblyforge
from assemblyforge import allocation, cli, model, projects, sim


@pytest.fixture()
def toy_input(tmp_path):
    path = tmp_path / "toy.json"
    doc = model.project_to_jsonable(projects.toy_project(), projects.default_fleet(2),
                                    model.PlanParams(buffer_radius=0.25))
    path.write_text(json.dumps(doc))
    return path


def _plan(toy_input, out):
    return cli.main(["plan", "--input", str(toy_input), "--out", str(out)])


def _drop_robot_go(path, payload):
    """Removes the RobotGo nodes of `payload`, and their edges, from the
    schedule JSON at `path`."""
    doc = json.loads(path.read_text())
    gone = {n["id"] for n in doc["nodes"] if n["kind"] == "RobotGo" and n["subject"] == payload}
    assert gone
    doc["nodes"] = [n for n in doc["nodes"] if n["id"] not in gone]
    doc["edges"] = [e for e in doc["edges"] if not gone & set(e)]
    path.write_text(json.dumps(doc))


def _node(doc, nid):
    """The record of node `nid` in the schedule JSON `doc`."""
    return next(n for n in doc["nodes"] if n["id"] == nid)


def _rename_node(doc, old, new):
    """Renames node `old` to `new`, in its record and its edges, in the
    schedule JSON `doc`."""
    _node(doc, old)["id"] = new
    doc["edges"] = [[new if x == old else x for x in e] for e in doc["edges"]]


def _slot_out_of_range(doc):
    """Moves brick@1's slot 1, pickup and dropoff, to slot 5."""
    for role in ("pickup", "dropoff"):
        _node(doc, f"RobotGo:brick@1:1:{role}")["slot"] = 5


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = cli.main(["plan", "--input", str(tmp_path / "nope.mpd"),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT

    def test_malformed_mpd(self, tmp_path):
        bad = tmp_path / "bad.mpd"
        bad.write_text("1 16 0 0\n")
        code = cli.main(["plan", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("text", [
        "0 FILE main.ldr\n1 16 0 0 0 1 0 0 0 1 0 0 0 1 main.ldr\n",
        "0 FILE a.ldr\n1 16 0 0 0 1 0 0 0 1 0 0 0 1 b.ldr\n"
        "0 FILE b.ldr\n1 16 0 0 0 1 0 0 0 1 0 0 0 1 a.ldr\n",
    ], ids=["self", "cycle"])
    def test_section_reference_cycle(self, tmp_path, capsys, text):
        bad = tmp_path / "cycle.mpd"
        bad.write_text(text)
        code = cli.main(["plan", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "reference cycle" in err[0]

    def test_project_missing_key(self, tmp_path, capsys):
        doc = model.project_to_jsonable(projects.toy_project())
        del doc["parts"]
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'parts'" in err[0]

    @pytest.mark.parametrize("key,value", [
        (None, []), ("assemblies", []), ("vertices", "oops"), ("units_per_meter", "abc"),
        ("units_per_meter", None), ("root", ["toy"]), ("component", ["x"]), ("member", 7),
        ("units_per_meter", math.nan),
    ], ids=["top-level-list", "assemblies-list", "vertices-string", "units-string",
            "units-null", "root-list", "component-id-list", "member-number", "units-nan"])
    def test_project_wrong_structure(self, tmp_path, capsys, key, value):
        doc = model.project_to_jsonable(projects.toy_project())
        asm = next(iter(doc["assemblies"].values()))
        if key in ("vertices", "units_per_meter"):
            next(iter(doc["parts"].values()))[key] = value
        elif key == "component":
            asm["components"][0]["id"] = value
        elif key == "member":
            asm["build_phases"][0]["members"][0] = value
        elif key is not None:
            doc[key] = value
        else:
            doc = value
        bad = tmp_path / "wrong.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed input:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("x,units_per_meter", [
        (1e300, 80.0), (math.nextafter(model.MAX_COORDINATE_M, math.inf), 1.0),
    ], ids=["1e300", "past-bound"])
    def test_huge_vertex(self, tmp_path, capsys, x, units_per_meter):
        """A vertex so far out that the hull perimeter would overflow is an
        invalid project, not a traceback."""
        doc = model.project_to_jsonable(projects.toy_project())
        part = doc["parts"]["brick@1"]
        assert part["units_per_meter"] == 80.0
        part.update(vertices=[[x, 0, 0], [-x, 0, 0], [0, x, 0]], units_per_meter=units_per_meter)
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "out"),
                         "--robots", "2"])
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err.splitlines() == [
            "invalid project: [geometry-finite] brick@1: part has a vertex beyond 1e+100 m"]

    @pytest.mark.parametrize("x", [1e300, math.nextafter(model.MAX_COORDINATE_M, math.inf)],
                             ids=["1e300", "past-bound"])
    def test_huge_translation(self, tmp_path, capsys, x):
        """A component placed so far out that a dropoff lands at infinity is
        an invalid project, not a plan that `allocate` then rejects."""
        doc = model.project_to_jsonable(projects.tractor_project())
        first = doc["assemblies"][doc["root"]]["components"][0]
        first["transform"]["translation"] = [x, 0, 0]
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "out"),
                         "--robots", "5"])
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err.splitlines() == [
            f"invalid project: [transform-bounded] {first['id']}: placed beyond 1e+100 m by "
            f"{doc['root']}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case,message", [
        ("missing-root", "project JSON is missing key 'root'"),
        ("assemblies-list",
         "project JSON has assemblies [], not an object"),
        ("negative-radius", "robot radius must be positive"),
        ("zero-rvo-horizon", "rvo_horizon must be positive"),
        ("negative-boundary-tol", "boundary_tol must be non-negative"),
        ("huge-buffer", "buffer_radius must be at most 1e+100 m"),
        ("huge-v-max", "v_max must be at most 1e+30 m/s"),
        ("huge-dt", "dt_sim must be at most 1e+30 s"),
    ])
    def test_project_error_lines(self, toy_input, tmp_path, capsys, case, message):
        """The same document error gives the same one line as `plan`'s input
        and as the `project.json` that `allocate` and `simulate` read."""
        doc = json.loads(toy_input.read_text())
        if case == "missing-root":
            del doc["root"]
        elif case == "assemblies-list":
            doc["assemblies"] = []
        elif case == "zero-rvo-horizon":
            doc["params"]["rvo_horizon"] = 0
        elif case == "negative-boundary-tol":
            doc["params"]["boundary_tol"] = -0.1
        elif case == "huge-buffer":
            doc["params"]["buffer_radius"] = 1e300
        elif case == "huge-v-max":  # the simulator overflowed
            doc["fleet"]["v_max"] = 1e300
        elif case == "huge-dt":
            doc["params"]["dt_sim"] = 1e300
        else:
            doc["fleet"]["radius"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "bad")])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: malformed input: {message}\n"
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        (out / "project.json").write_text(json.dumps(doc))
        capsys.readouterr()
        for command in ("allocate", "simulate"):
            assert cli.main([command, "--out", str(out)]) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == (
                f"error: malformed artifact project.json: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section,field,value,message", [
        ("fleet", "v_max", 1e100, "v_max must be at most 1e+30 m/s"),
        ("params", "dt_sim", 1e100, "dt_sim must be at most 1e+30 s"),
        ("params", "rvo_horizon", 1e-300, "rvo_horizon must be at least 1e-30 s"),
        ("fleet", "v_max", model.MAX_SIM_SCALE, None),
        ("params", "dt_sim", model.MAX_SIM_SCALE, None),
        ("params", "rvo_horizon", 1 / model.MAX_SIM_SCALE, None),
    ], ids=["v-max-1e100", "dt-1e100", "rvo-horizon-1e-300", "v-max-at-bound",
            "dt-at-bound", "rvo-horizon-at-bound"])
    def test_simulator_scale_bound(self, toy_input, tmp_path, capsys, section, field, value,
                                   message):
        """A project.json value that made the simulator overflow is one
        `error:` line; at the bound, 30 steps run without a warning."""
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "project.json").read_text())
        doc[section][field] = value
        (out / "project.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["simulate", "--max-steps", "30", "--out", str(out)])
        if message is not None:
            assert code == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == f"error: malformed artifact project.json: {message}\n"
            assert not (out / "trace.csv").exists()
        else:
            assert code in (cli.EXIT_OK, cli.EXIT_DEADLOCK)  # done, or stopped at the cap
            assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be a whole number >= 0, got -1"),
        (0.5, "project JSON has params.seed 0.5, not a whole number"),
        (1e300, "project JSON has params.seed 1e+300, not a whole number"),
    ], ids=["negative", "half", "1e300"])
    def test_project_seed(self, toy_input, tmp_path, capsys, seed, message):
        # numpy's generators, which the seed feeds, raised on each of these
        doc = json.loads(toy_input.read_text())
        doc["params"]["seed"] = seed
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: malformed input: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_plan_negative_seed_option(self, tmp_path, capsys):
        # the fleet and the carry search take --seed even where the input
        # embeds its own parameters; an MPD embeds none
        mpd = tmp_path / "tractor.mpd"
        mpd.write_text(projects._data_text("tractor.mpd"))
        code = cli.main(["plan", "--input", str(mpd), "--out", str(tmp_path / "out"),
                         "--seed", "-1"])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: invalid option: --seed must be at least 0, got -1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suffix", [".json", ".mpd"])
    def test_input_not_utf8(self, tmp_path, capsys, suffix):
        bad = tmp_path / f"binary{suffix}"
        bad.write_bytes(b"\xff\xfe\x00bad")
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed input:")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["plan", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT

    def test_invalid_project(self, tmp_path):
        doc = model.project_to_jsonable(projects.toy_project())
        doc["root"] = "missing"
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_FAILURE

    def test_part_named_like_an_assembly(self, tmp_path, capsys):
        # else only the schedule grammar catches it, with a message about a node
        doc = model.project_to_jsonable(projects.tractor_project())
        doc["parts"]["axle_front.ldr@1"] = doc["parts"]["3001.dat@1"]
        bad = tmp_path / "both.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            "invalid project: [part-or-assembly] axle_front.ldr@1: "
            "names both a part and an assembly\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pid,shown", [
        ("bri\nck", "bri\\nck"), ("bri\x1bck", "bri\\x1bck"),
        ("bri\u2028ck", "bri\\u2028ck"), ("bri\x85ck", "bri\\x85ck"),
    ], ids=["newline", "escape", "line-separator", "next-line"])
    def test_control_character_in_part_id(self, toy_input, tmp_path, capsys, pid, shown):
        doc = json.loads(toy_input.read_text())
        doc["parts"][pid] = dict(doc["parts"]["brick@1"], units_per_meter="x")
        bad = tmp_path / "control.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["plan", "--input", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: malformed input: project JSON: part {shown} has units_per_meter 'x', "
            "not a finite number\n")

    @pytest.mark.parametrize("option", [["--radius", "-1"], ["--vmin", "2"],
                                        ["--robots", "-3"], ["--robots", "0"],
                                        ["--radius", "inf"], ["--vmax", "inf"],
                                        ["--vfactor", "nan"]],
                             ids=["radius", "vmin", "robots-negative", "robots-zero",
                                  "radius-inf", "vmax-inf", "vfactor-nan"])
    def test_plan_invalid_fleet_option(self, toy_input, tmp_path, capsys, option):
        # a repeated option takes its last value
        code = cli.main(["plan", "--input", str(toy_input), "--out", str(tmp_path / "out"),
                         "--robots", "2", *option])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid option:")

    def test_simulate_invalid_dt(self, toy_input, tmp_path, capsys):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["simulate", "--out", str(out), "--dt", "-1"]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "dt_sim must be positive" in err[0]
        assert not (out / "trace.csv").exists()

    def test_plan_non_finite_buffer(self, tmp_path, capsys):
        # --buffer sets the parameters of an input that carries none, as an MPD
        mpd = tmp_path / "tractor.mpd"
        mpd.write_text(projects._data_text("tractor.mpd"))
        code = cli.main(["plan", "--input", str(mpd), "--out", str(tmp_path / "out"),
                         "--buffer", "nan"])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid option:")

    @pytest.mark.parametrize("buffer", ["1e300", repr(math.nextafter(1e100, math.inf))],
                             ids=["1e300", "past-bound"])
    def test_plan_huge_buffer(self, toy_input, tmp_path, capsys, buffer):
        # beyond the coordinate bound the unit durations overflowed to inf
        code = cli.main(["plan", "--input", str(toy_input), "--out", str(tmp_path / "out"),
                         "--robots", "2", "--buffer", buffer])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: invalid option: buffer_radius must be at most 1e+100 m\n")
        assert not (tmp_path / "out").exists()
        out = tmp_path / "at-bound"
        assert cli.main(["plan", "--input", str(toy_input), "--out", str(out),
                         "--robots", "2", "--buffer", "1e100"]) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK

    @pytest.mark.parametrize("radius", ["1e300", repr(math.nextafter(1e100, math.inf))],
                             ids=["1e300", "past-bound"])
    def test_plan_huge_radius(self, toy_input, tmp_path, capsys, radius):
        # at 1e300 staging found no feasible tier; at 1e150 it overflowed
        code = cli.main(["plan", "--input", str(toy_input), "--out", str(tmp_path / "out"),
                         "--robots", "2", "--radius", radius])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: invalid option: robot radius must be at most 1e+100 m\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("start", 1e300, "initial position coordinates must be at most 1e+100 m"),
        ("start", math.nextafter(1e100, math.inf),
         "initial position coordinates must be at most 1e+100 m"),
        ("start", -math.nextafter(1e100, math.inf),
         "initial position coordinates must be at most 1e+100 m"),
        ("radius", 1e300, "robot radius must be at most 1e+100 m"),
        ("radius", math.nextafter(1e100, math.inf), "robot radius must be at most 1e+100 m"),
        ("start", 1e100, None),
        ("radius", 1e100, None),
    ], ids=["start-1e300", "start-past-bound", "start-past-negative-bound", "radius-1e300",
            "radius-past-bound", "start-at-bound", "radius-at-bound"])
    def test_project_fleet_bound(self, toy_input, tmp_path, capsys, field, value, message):
        # a start at 1e300 planned and allocated to a makespan of 1e+300
        doc = json.loads(toy_input.read_text())
        if field == "start":
            doc["fleet"]["initial_positions"][0] = [value, 0.0]
        else:  # one robot, so that no other start is within 2r
            doc["fleet"].update(count=1, radius=value, initial_positions=[[0.0, 0.0]])
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = cli.main(["plan", "--input", str(path), "--out", str(out)])
        if message is not None:
            assert code == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == f"error: malformed input: {message}\n"
            assert not out.exists()
        else:
            assert code == cli.EXIT_OK
            assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK

    def test_buffer_overrides_embedded_params(self, toy_input, tmp_path, capsys):
        # the input embeds params with buffer 0.25; --buffer replaces it
        code = cli.main(["plan", "--input", str(toy_input), "--out", str(tmp_path / "nan"),
                         "--buffer", "nan"])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid option:")
        for buffer, want in (([], 0.25), (["--buffer", "1.5"], 1.5)):
            out = tmp_path / f"out{want}"
            assert cli.main(["plan", "--input", str(toy_input), "--out", str(out),
                             *buffer]) == cli.EXIT_OK
            assert json.loads((out / "staging.json").read_text())["buffer_radius"] == want
            doc = json.loads((out / "project.json").read_text())
            assert doc["params"]["buffer_radius"] == want

    @pytest.mark.parametrize("option", [["--max-steps", "0"], ["--max-steps", "-5"],
                                        ["--dt", "nan"], ["--dt", "inf"]],
                             ids=["steps-zero", "steps-negative", "dt-nan", "dt-inf"])
    def test_simulate_invalid_option(self, toy_input, tmp_path, capsys, option):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["simulate", "--out", str(out), *option]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid option:")
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("option", [["--max-nodes", "0"], ["--max-nodes", "-5"],
                                        ["--time-limit", "nan"], ["--time-limit", "-1"],
                                        ["--time-limit", "0"]],
                             ids=["nodes-zero", "nodes-negative", "time-nan",
                                  "time-negative", "time-zero"])
    def test_allocate_invalid_option(self, toy_input, tmp_path, capsys, option):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        capsys.readouterr()
        code = cli.main(["allocate", "--out", str(out), "--method", "bnb", *option])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid option:")
        for name in ("schedule_complete.json", "allocation_metrics.json", "allocation.json"):
            assert not (out / name).exists(), name

    def test_allocate_reads_no_staging(self, toy_input, tmp_path, capsys):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        (out / "staging.json").unlink()
        (out / "transport_units.json").unlink()
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        (out / "schedule_partial.json").unlink()
        capsys.readouterr()
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_MISSING_ARTIFACTS
        assert "schedule_partial.json" in capsys.readouterr().err

    def test_simulate_reads_no_partial_schedule(self, toy_input, tmp_path, capsys):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        (out / "schedule_partial.json").unlink()
        assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_OK
        (out / "transport_units.json").unlink()
        capsys.readouterr()
        assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_MISSING_ARTIFACTS
        assert "transport_units.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,command,name,key", [
        *((damage, *case) for case in [
            ("allocate", "project.json", "fleet"),
            ("allocate", "schedule_partial.json", "team_sizes"),
            ("simulate", "project.json", "params"),
            ("simulate", "staging.json", "buffer_radius"),
            ("simulate", "transport_units.json", "speed_limit"),
            ("simulate", "schedule_complete.json", "team_sizes"),
        ] for damage in ["missing-key", "not-json", "not-utf8"]),
        # JSON allows an integer beyond the float range; `key` is the path
        # to the number it replaces
        ("huge-int", "allocate", "project.json", "fleet.initial_positions.0.0"),
        ("huge-int", "allocate", "schedule_partial.json", "nodes.RobotStart:robot0.origin.1"),
        ("huge-int", "simulate", "schedule_complete.json",
         "nodes.RobotGo:brick@1:0:dropoff.origin.0"),
        ("huge-int", "simulate", "staging.json", "assemblies.toy.center.0"),
        ("huge-int", "simulate", "transport_units.json", "brick@1.bounding_prism.offsets.3"),
        ("huge-int", "simulate", "project.json",
         "assemblies.toy.components.0.transform.rotation.1.2"),
    ])
    def test_malformed_artifact(self, toy_input, tmp_path, capsys, command, name, key,
                                damage):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        path = out / name
        if damage == "not-json":
            path.write_text("{bad")
        elif damage == "not-utf8":
            path.write_bytes(b"\xff\xfe{")
        elif damage == "huge-int":
            doc = json.loads(path.read_text())
            *steps, last = key.split(".")
            at = doc
            for step in steps:  # a list index, a schedule node id, or a key
                at = (at[int(step)] if isinstance(at, list) and step.isdigit()
                      else _node(doc, step) if isinstance(at, list) else at[step])
            at[int(last)] = 10**400
            path.write_text(json.dumps(doc))
        else:
            doc = json.loads(path.read_text())
            # transport_units.json maps each payload to its unit
            del (next(iter(doc.values())) if name == "transport_units.json" else doc)[key]
            path.write_text(json.dumps(doc))
        for written in ("trace.csv", "allocation.json"):
            (out / written).unlink(missing_ok=True)
        capsys.readouterr()
        assert cli.main([command, "--out", str(out)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: malformed artifact {name}: ")
        if damage == "missing-key":
            assert repr(key) in err[0]
        assert not (out / "trace.csv").exists() and not (out / "allocation.json").exists()

    @pytest.mark.parametrize("method", ["greedy", "bnb", "export-lp"])
    def test_allocate_invalid_partial_schedule(self, toy_input, tmp_path, capsys, method):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        _drop_robot_go(out / "schedule_partial.json", "brick@1")
        capsys.readouterr()
        assert cli.main(["allocate", "--out", str(out), "--method", method]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("invalid schedule: ") for line in err)
        assert "invalid schedule: DepositCargo:brick@1: expected 2 RobotGo" in err[0]
        for name in ("schedule_complete.json", "allocation.json", "model.lp"):
            assert not (out / name).exists(), name

    @pytest.mark.parametrize("method", ["greedy", "bnb", "export-lp"])
    def test_allocate_rejects_preassigned_pickups(self, toy_input, tmp_path, capsys, method):
        # the partial grammar gives a pickup no predecessor: allocation
        # assigns every pickup itself
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        path = out / "schedule_partial.json"
        doc = json.loads(path.read_text())
        doc["edges"] += [["RobotStart:robot1", "RobotGo:brick@1:0:pickup"],
                         ["RobotStart:robot0", "RobotGo:brick@1:1:pickup"]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["allocate", "--out", str(out), "--method", method]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.splitlines() == [
            "invalid schedule: RobotGo:brick@1:0:pickup: unexpected RobotStart predecessor (1)",
            "invalid schedule: RobotGo:brick@1:1:pickup: unexpected RobotStart predecessor (1)"]
        for name in ("schedule_complete.json", "allocation.json", "model.lp"):
            assert not (out / name).exists(), name

    def test_newline_in_payload_id(self, toy_input, tmp_path, capsys):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        path = out / "schedule_partial.json"
        # `\\n` in the JSON text is a newline in the id it decodes to
        doc = json.loads(path.read_text().replace("brick@1", "bri\\nck"))
        doc["edges"] += [["RobotStart:robot1", "RobotGo:bri\nck:0:pickup"],
                         ["RobotStart:robot0", "RobotGo:bri\nck:1:pickup"]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            "invalid schedule: RobotGo:bri\\nck:0:pickup: unexpected RobotStart predecessor (1)\n"
            "invalid schedule: RobotGo:bri\\nck:1:pickup: unexpected RobotStart predecessor (1)\n")
        assert not (out / "schedule_complete.json").exists()

    @pytest.mark.parametrize("name,damage,line", [
        ("staging.json", lambda d: d["assemblies"].update(
            {"to\ny": dict(d["assemblies"]["toy"], final_radius="x")}),
         "staging JSON: assembly to\\ny has final_radius 'x', "
         "not a finite number from 0 to 1e+150 m"),
        ("transport_units.json", lambda d: d.update({"bri\nck": d["brick@1"]}),
         "transport unit bri\\nck has payload_id 'brick@1'"),
    ], ids=["staging-assembly", "unit-key"])
    def test_newline_in_artifact_key(self, toy_input, tmp_path, capsys, name, damage, line):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / name).read_text())
        damage(doc)
        (out / name).write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: malformed artifact {name}: {line}\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("command,name,damage,message", [
        ("allocate", "schedule_partial.json", lambda d: d.update(terminal_nodes=[]),
         "terminal nodes must be schedule nodes, got []"),
        ("allocate", "schedule_partial.json", lambda d: d.update(terminal_nodes=["Nope"]),
         "terminal nodes must be schedule nodes, got ['Nope']"),
        ("allocate", "schedule_partial.json",
         lambda d: _node(d, "RobotGo:brick@1:0:pickup").update(destination=None),
         "node RobotGo:brick@1:0:pickup has no destination"),
        ("allocate", "schedule_partial.json",
         lambda d: _node(d, "DepositCargo:brick@1").update(duration=None),
         "node DepositCargo:brick@1 has no duration"),
        ("allocate", "schedule_partial.json",
         lambda d: _node(d, "RobotStart:robot1").update(origin=None),
         "node RobotStart:robot1 has no origin"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "TransportUnitGo:brick@1").update(destination=None),
         "node TransportUnitGo:brick@1 has no destination"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "RobotGo:brick@1:1:dropoff").update(origin=None, duration=None),
         "node RobotGo:brick@1:1:dropoff has no origin or duration"),
        ("allocate", "schedule_partial.json",
         lambda d: _node(d, "RobotStart:robot0").update(origin=[1.0]),
         "node RobotStart:robot0 has origin [1.0], not two finite numbers of at most 1e+150 m"),
        ("allocate", "schedule_partial.json",
         lambda d: _node(d, "RobotGo:brick@1:0:pickup").update(duration=50.0),
         "node RobotGo:brick@1:0:pickup has duration 50.0, "
         "not null: a pickup's time is its travel"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "RobotStart:robot0").update(origin=["a", "b"]),
         "node RobotStart:robot0 has origin ['a', 'b'], "
         "not two finite numbers of at most 1e+150 m"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "DepositCargo:brick@1").update(duration="NaN"),
         "node DepositCargo:brick@1 has duration 'NaN', not a finite number >= 0"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "LiftIntoPlace:brick@1").update(duration=math.inf),
         "node LiftIntoPlace:brick@1 has duration inf, not a finite number >= 0"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "LiftIntoPlace:brick@1").update(duration=-100.0),
         "node LiftIntoPlace:brick@1 has duration -100.0, not a finite number >= 0"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "RobotGo:brick@1:0:pickup").update(duration=50.0),
         "node RobotGo:brick@1:0:pickup has duration 50.0, "
         "not null: a pickup's time is its travel"),
        ("allocate", "schedule_partial.json", _slot_out_of_range,
         "payload brick@1 has dropoff slots [0, 5], not 0..1"),
        ("simulate", "schedule_complete.json", _slot_out_of_range,
         "payload brick@1 has dropoff slots [0, 5], not 0..1"),
        ("simulate", "schedule_complete.json",
         lambda d: _node(d, "RobotGo:brick@1:1:pickup").update(slot=0),
         "payload brick@1 has pickup slots [0, 0], not 0..1"),
        ("allocate", "schedule_partial.json",
         lambda d: _rename_node(d, "TransportUnitGo:brick@1", "TUGo"),
         "node TUGo has the kind, subject, slot and role of TransportUnitGo:brick@1"),
        ("simulate", "schedule_complete.json",
         lambda d: _rename_node(d, "TransportUnitGo:brick@1", "TUGo"),
         "node TUGo has the kind, subject, slot and role of TransportUnitGo:brick@1"),
        ("simulate", "transport_units.json", lambda d: d.clear(), "no config for brick@1"),
        ("simulate", "transport_units.json", lambda d: d["brick@1"].update(payload_id="brick@2"),
         "transport unit brick@1 has payload_id 'brick@2'"),
        ("simulate", "staging.json", lambda d: d["assemblies"].clear(),
         "no staging circle for toy:1"),
        ("simulate", "staging.json", lambda d: d["assemblies"]["toy"].update(phase_radii=[]),
         "no staging circle for toy:1"),
        ("simulate", "staging.json", lambda d: d["assemblies"]["toy"].update(phase_radii=["a"]),
         "assembly toy has phase_radii[0] 'a', not a finite number from 0 to 1e+150 m"),
        ("simulate", "staging.json", lambda d: d["assemblies"]["toy"].update(center=[1.0]),
         "assembly toy has center [1.0], not two finite numbers of at most 1e+150 m"),
        ("simulate", "transport_units.json",
         lambda d: d["brick@1"]["bounding_circle"].update(radius="x"),
         "transport unit JSON has bounding_circle.radius 'x', not a finite number > 0"),
        ("simulate", "transport_units.json", lambda d: d["brick@1"].update(speed_limit="a"),
         "transport unit JSON has speed_limit 'a', not a finite number > 0"),
        ("simulate", "transport_units.json", lambda d: d["brick@1"].update(speed_limit=0.0),
         "transport unit JSON has speed_limit 0.0, not a finite number > 0"),
        ("simulate", "schedule_complete.json",
         lambda d: d["phase_members"].update({"toy:1": ["brick@2"]}),
         "payload brick@1 is a member of 0 build phases, not 1"),
        ("allocate", "schedule_partial.json",
         lambda d: d["phase_members"]["toy:1"].append("brick@1"),
         "payload brick@1 is a member of 2 build phases, not 1"),
        ("allocate", "schedule_partial.json",
         lambda d: d["phase_members"]["toy:1"].append("brick@9"),
         "phase member brick@9 is not a payload"),
        ("allocate", "schedule_partial.json", lambda d: d["team_sizes"].update({"brick@1": 1.5}),
         "schedule JSON has team_sizes.brick@1 1.5, not a whole number >= 1"),
        ("allocate", "schedule_partial.json", lambda d: d["team_sizes"].update({"brick@1": True}),
         "schedule JSON has team_sizes.brick@1 True, not a whole number >= 1"),
        ("allocate", "project.json", lambda d: d["fleet"].update(count=2.0),
         "project JSON has fleet.count 2.0, not a whole number"),
        ("allocate", "schedule_partial.json",
         lambda d: d.update(terminal_nodes="ProjectComplete:toy"),
         "schedule JSON has terminal_nodes 'ProjectComplete:toy', not a list"),
        ("simulate", "staging.json", lambda d: d["assemblies"]["toy"].update(final_radius="x"),
         "staging JSON: assembly toy has final_radius 'x', not a finite number from 0 to 1e+150 m"),
        ("simulate", "staging.json",
         lambda d: d["assemblies"]["toy"]["dropoffs"]["brick@1"].update(radius="x"),
         "staging JSON: dropoff brick@1 has radius 'x', not a finite number from 0 to 1e+150 m"),
        ("simulate", "staging.json",
         lambda d: d["assemblies"]["toy"]["dropoffs"]["brick@1"].update(phase="x"),
         "staging JSON: dropoff brick@1 has phase 'x', not a whole number"),
        ("simulate", "transport_units.json", lambda d: d["brick@1"].update(n="x"),
         "transport unit JSON has n 'x', not a whole number >= 1"),
        ("simulate", "transport_units.json",
         lambda d: d["brick@1"]["bounding_cylinder"].update(z_min="x"),
         "transport unit JSON has bounding_cylinder.z_min 'x', not a finite number"),
        # allocation and the simulator overflowed on these
        ("allocate", "schedule_partial.json",
         lambda d: _node(d, "RobotStart:robot0").update(origin=[1e300, 0.0]),
         "node RobotStart:robot0 has origin [1e+300, 0.0], not two finite numbers of at most "
         "1e+150 m"),
        ("simulate", "staging.json", lambda d: d["assemblies"]["toy"].update(phase_radii=[1e300]),
         "assembly toy has phase_radii[0] 1e+300, not a finite number from 0 to 1e+150 m"),
        ("allocate", "schedule_partial.json",
         lambda d: d["phase_members"].update({"toy-1": d["phase_members"].pop("toy:1")}),
         "schedule JSON has key 'toy-1' in phase_members, not an assembly:phase key"),
    ], ids=["no-terminal", "unknown-terminal", "pickup-destination", "deposit-duration",
            "start-origin", "unit-destination", "dropoff-origin", "short-origin",
            "pickup-duration-partial", "text-origin", "text-duration", "infinite-duration",
            "negative-duration", "pickup-duration", "slot-range-partial", "slot-range",
            "pickup-slot-twice", "renamed-node-partial", "renamed-node", "no-unit-config",
            "wrong-payload-id", "no-staging-assembly", "no-phase-radius", "text-phase-radius",
            "short-center", "text-unit-radius", "text-speed-limit", "zero-speed-limit",
            "phase-member-dropped", "phase-member-twice", "phase-member-unknown",
            "fractional-team-size", "bool-team-size", "fractional-fleet-count",
            "text-terminal-nodes", "text-final-radius", "text-dropoff-radius",
            "text-dropoff-phase", "text-unit-n", "text-cylinder-z-min", "huge-origin",
            "huge-phase-radius", "phase-key"])
    def test_inconsistent_artifact(self, toy_input, tmp_path, capsys, command, name, damage,
                                   message):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        path = out / name
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        (out / "allocation.json").unlink()
        capsys.readouterr()
        assert cli.main([command, "--out", str(out)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: malformed artifact {name}: ")
        assert err[0].endswith(message), err[0]
        assert not (out / "trace.csv").exists() and not (out / "allocation.json").exists()

    @pytest.mark.parametrize("command", ["allocate", "simulate"])
    def test_terminal_node_not_project_complete(self, toy_input, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        path = out / ("schedule_partial.json" if command == "allocate"
                      else "schedule_complete.json")
        doc = json.loads(path.read_text())
        doc["terminal_nodes"] = ["ObjectStart:brick@1"]
        path.write_text(json.dumps(doc))
        (out / "allocation.json").unlink()
        capsys.readouterr()
        assert cli.main([command, "--out", str(out)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.splitlines() == [
            "invalid schedule: ObjectStart:brick@1: "
            "terminal node must be a ProjectComplete, not ObjectStart"]
        assert not (out / "trace.csv").exists() and not (out / "allocation.json").exists()

    def test_allocate_rejects_team_size_below_one(self, toy_input, tmp_path, capsys):
        # without its RobotGo nodes, a payload of team size 0 validates
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        path = out / "schedule_partial.json"
        _drop_robot_go(path, "brick@1")
        doc = json.loads(path.read_text())
        doc["team_sizes"]["brick@1"] = 0
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: malformed artifact schedule_partial.json: ")
        assert err[0].endswith("schedule JSON has team_sizes.brick@1 0, not a whole number >= 1")
        assert not (out / "schedule_complete.json").exists()

    @pytest.mark.parametrize("name", ["metrics.json", "staging.json",
                                      "allocation_metrics.json"])
    @pytest.mark.parametrize("damage", ["not-json", "not-utf8", "list", "text-runtime",
                                        "text-robots"])
    def test_report_malformed_artifact(self, tmp_path, capsys, name, damage):
        run = tmp_path / "run1"
        run.mkdir()
        for written in ("metrics.json", "staging.json", "allocation_metrics.json"):
            (run / written).write_text(json.dumps({"robots": 2, "runtime_s": 1.5}))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "run1,2,3.0,,,1.5"
        damaged = {"not-json": b"{bad", "not-utf8": b"\xff\xfe{", "list": b"[1, 2]",
                   "text-runtime": b'{"runtime_s": "1.5"}', "text-robots": b'{"robots": "2"}'}[damage]
        (run / name).write_bytes(damaged)
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: malformed artifact {name}: ")
        assert captured.out == ""

    def test_allocate_without_plan(self, tmp_path):
        assert cli.main(["allocate", "--out", str(tmp_path / "empty")]) == \
            cli.EXIT_MISSING_ARTIFACTS

    def test_simulate_without_allocation(self, toy_input, tmp_path):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["simulate", "--out", str(out)]) == \
            cli.EXIT_MISSING_ARTIFACTS

    def test_simulate_deadlock_budget(self, toy_input, tmp_path):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        code = cli.main(["simulate", "--out", str(out), "--max-steps", "5"])
        assert code == cli.EXIT_DEADLOCK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["deadlocked"] is True
        # the trace of the 5 steps is complete: a header and 2 robots per step
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 5 * 2
        assert not (out / "trace.csv.tmp").exists()


class TestFullChain:
    def test_artifacts_and_report(self, toy_input, tmp_path, capsys):
        out = tmp_path / "run2"
        assert _plan(toy_input, out) == cli.EXIT_OK
        for name in ("staging.json", "staging.svg", "transport_units.json",
                     "schedule_partial.json", "schedule_partial.dot",
                     "project.json"):
            assert (out / name).is_file(), name

        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        for name in ("schedule_complete.json", "allocation_metrics.json",
                     "allocation.json"):
            assert (out / name).is_file(), name
        alloc = json.loads((out / "allocation_metrics.json").read_text())
        assert alloc["method"] == "greedy"
        assert alloc["predicted_makespan"] == pytest.approx(
            10.273791780023945, abs=1e-9)

        assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_OK
        for name in ("trace.csv", "events.jsonl", "metrics.json"):
            assert (out / name).is_file(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["collision_count"] == 0
        assert metrics["execution_makespan"] >= metrics["predicted_makespan"]
        assert metrics["robots"] == 2

        capsys.readouterr()
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(cli.REPORT_COLUMNS)
        assert any(line.startswith("run2,2,") for line in lines[1:])

    def test_bnb_method_improves_or_matches_greedy(self, toy_input, tmp_path):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        greedy = json.loads((out / "allocation_metrics.json").read_text())
        assert cli.main(["allocate", "--out", str(out),
                         "--method", "bnb"]) == cli.EXIT_OK
        bnb = json.loads((out / "allocation_metrics.json").read_text())
        assert bnb["method"] == "bnb"
        assert bnb["predicted_makespan"] <= greedy["predicted_makespan"] + 1e-9

    def test_bnb_reports_its_search(self, toy_input, tmp_path):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        assert "bnb_nodes" not in json.loads((out / "allocation_metrics.json").read_text())
        for max_nodes in ("1", "200000"):
            assert cli.main(["allocate", "--out", str(out), "--method", "bnb",
                             "--max-nodes", max_nodes]) == cli.EXIT_OK
            doc = json.loads((out / "allocation_metrics.json").read_text())
            root = doc["bnb_root_bound"]
            assert 0 < root <= doc["predicted_makespan"]
            if max_nodes == "1":
                assert (doc["status"], doc["bnb_nodes"]) == ("incumbent", 1)
                assert doc["bnb_gap"] == (doc["predicted_makespan"] - root) / doc["predicted_makespan"]
                assert doc["bnb_gap"] > 0
            else:
                assert doc["status"] == "optimal" and doc["bnb_nodes"] > 1
                assert doc["bnb_gap"] == 0.0

    def test_export_lp(self, toy_input, tmp_path):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out),
                         "--method", "export-lp"]) == cli.EXIT_OK
        text = (out / "model.lp").read_text()
        assert text.splitlines()[1] == "Minimize"
        assert text.rstrip().endswith("End")

    def test_failed_export_lp_leaves_no_file(self, toy_input, tmp_path, monkeypatch):
        """A writer that raises partway leaves neither a partial model.lp
        nor its temporary file."""
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        before = sorted(p.name for p in out.iterdir())
        export_lp = allocation.export_lp

        class FailingFile:
            def __init__(self, f):
                self.f, self.rows = f, 0

            def write(self, text):
                self.rows += 1
                if self.rows > 5:
                    raise OSError("disk full")
                return self.f.write(text)

        monkeypatch.setattr(allocation, "export_lp",
                            lambda milp, f: export_lp(milp, FailingFile(f)))
        with pytest.raises(OSError, match="disk full"):
            cli.main(["allocate", "--out", str(out), "--method", "export-lp"])
        assert sorted(p.name for p in out.iterdir()) == before

    def test_failed_simulate_leaves_no_trace(self, toy_input, tmp_path, monkeypatch):
        """A simulation that raises partway leaves neither a partial
        trace.csv nor its temporary file."""
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
        before = sorted(p.name for p in out.iterdir())
        step = sim.step

        def failing_step(world):
            if world.steps == 50:
                assert (out / "trace.csv.tmp").is_file()  # the trace is streaming
                raise RuntimeError("step failed")
            return step(world)

        monkeypatch.setattr(sim, "step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            cli.main(["simulate", "--out", str(out)])
        assert sorted(p.name for p in out.iterdir()) == before

    def test_trace_is_deterministic_across_runs(self, toy_input, tmp_path):
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _plan(toy_input, out) == cli.EXIT_OK
            assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
            assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_OK
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("names", [("brick@1", "brick@2"), ('b"r<i>&ck', "brick\\")],
                             ids=["plain", "quote-and-backslash"])
    def test_dot_lines_are_statements(self, tmp_path, names):
        """Each line of `schedule_partial.dot` is one statement whose quoted
        strings are balanced, also for part names holding a quote or ending
        in a backslash, and each id reads back as the schedule's. A plain
        id is written as it is."""
        toy = projects.toy_project()
        asm = model.Assembly("toy", tuple(
            (name, model.Transform(np.eye(3), [x, 0.0, 0.0])) for name, x in zip(names, (0, 2))),
            (model.BuildPhase(1, names),))
        part = toy.parts_catalog["brick@1"]
        spec = model.ProjectSpec({"toy": asm}, "toy", {name: part for name in names})
        inp = tmp_path / "project.json"
        inp.write_text(json.dumps(model.project_to_jsonable(
            spec, projects.default_fleet(2), model.PlanParams(buffer_radius=0.25))))
        out = tmp_path / "out"
        assert _plan(inp, out) == cli.EXIT_OK
        text = (out / "schedule_partial.dot").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[:2] == ["digraph schedule {", "  rankdir=LR;"] and lines[-1] == "}"
        quoted = r'"((?:[^"\\\n]|\\.)*)"'
        node = re.compile(rf"  {quoted} \[label={quoted}, shape=(?:box|ellipse)\];")
        edge = re.compile(rf"  {quoted} -> {quoted};")
        ids, edges = set(), set()
        for line in lines[2:-1]:
            if m := node.fullmatch(line):
                ids.add(re.sub(r"\\(.)", r"\1", m[1]))
            else:
                m = edge.fullmatch(line)
                assert m, line
                edges.add(tuple(re.sub(r"\\(.)", r"\1", g) for g in m.groups()))
        doc = json.loads((out / "schedule_partial.json").read_text())
        assert ids == {n["id"] for n in doc["nodes"]}
        assert edges == {tuple(e) for e in doc["edges"]}
        assert any(names[0] in nid for nid in ids)
        if names[0] == "brick@1":
            assert all(f'"{nid}"' in text for nid in ids)

    @pytest.mark.parametrize("name", ["modèle.mpd", "jouet.json"], ids=["mpd", "json"])
    def test_utf8_whatever_the_locale(self, tmp_path, name):
        """Non-ASCII names in a UTF-8 input are read and written as UTF-8
        under the C locale with UTF-8 mode off."""
        inp = tmp_path / name
        if name.endswith(".mpd"):
            inp.write_text("0 FILE modèle.ldr\n1 16 0 0 0 1 0 0 0 1 0 0 0 1 3001.dat\n",
                           encoding="utf-8")
        else:
            toy = projects.toy_project()
            asm = dataclasses.replace(toy.assemblies["toy"], id="jouet_é")
            spec = model.ProjectSpec({"jouet_é": asm}, "jouet_é", toy.parts_catalog)
            inp.write_text(json.dumps(model.project_to_jsonable(spec)))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(assemblyforge.__file__).parents[1]))
        out = tmp_path / "out"
        for argv in (["plan", "--input", str(inp), "--robots", "3"], ["allocate"],
                     ["simulate"]):
            proc = subprocess.run([sys.executable, "-m", "assemblyforge.cli", *argv,
                                   "--out", str(out)],
                                  capture_output=True, env=env, timeout=300, check=False)
            assert proc.returncode == cli.EXIT_OK, proc.stderr.decode("utf-8", "replace")
        root = "modèle.ldr" if name.endswith(".mpd") else "jouet_é"
        assert root in (out / "schedule_partial.dot").read_text(encoding="utf-8")

    def test_mpd_input(self, tmp_path):
        mpd = tmp_path / "tractor.mpd"
        mpd.write_text(projects._data_text("tractor.mpd"))
        out = tmp_path / "out"
        code = cli.main(["plan", "--input", str(mpd), "--out", str(out),
                         "--robots", "5"])
        assert code == cli.EXIT_OK
        doc = json.loads((out / "project.json").read_text())
        assert doc["fleet"]["count"] == 5
