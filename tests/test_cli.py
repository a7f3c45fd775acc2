import json

import pytest

from assemblyforge import cli, model, projects


@pytest.fixture()
def toy_input(tmp_path):
    path = tmp_path / "toy.json"
    model.save_project(path, projects.toy_project(), projects.default_fleet(2),
                       projects.default_params(buffer_radius=0.25))
    return path


def _plan(toy_input, out):
    return cli.main(["plan", "--input", str(toy_input), "--out", str(out)])


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

    def test_export_lp(self, toy_input, tmp_path):
        out = tmp_path / "out"
        assert _plan(toy_input, out) == cli.EXIT_OK
        assert cli.main(["allocate", "--out", str(out),
                         "--method", "export-lp"]) == cli.EXIT_OK
        text = (out / "model.lp").read_text()
        assert text.splitlines()[1] == "Minimize"
        assert text.rstrip().endswith("End")

    def test_trace_is_deterministic_across_runs(self, toy_input, tmp_path):
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _plan(toy_input, out) == cli.EXIT_OK
            assert cli.main(["allocate", "--out", str(out)]) == cli.EXIT_OK
            assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_OK
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_mpd_input(self, tmp_path):
        mpd = tmp_path / "tractor.mpd"
        mpd.write_text(projects._data_text("tractor.mpd"))
        out = tmp_path / "out"
        code = cli.main(["plan", "--input", str(mpd), "--out", str(out),
                         "--robots", "5"])
        assert code == cli.EXIT_OK
        doc = json.loads((out / "project.json").read_text())
        assert doc["fleet"]["count"] == 5
