"""Golden artifacts: the SHA-256 of every deterministic artifact that
`cli.main` writes for seven fixed runs (of `staging.json` without its
wall-clock `runtime_s`), and their `metrics.json` values.

A refactor that claims to change no output keeps these hashes. The values
were recorded with Python 3.11.7 and numpy 2.4.6; another toolchain may
round floats differently, so a mismatch there is a prompt to re-record on
the parent commit, not a proof of a behaviour change.
"""

import hashlib
import json
from functools import partial

import pytest

from assemblyforge import cli, model, projects

ARTIFACTS = ("staging.json", "staging.svg", "schedule_partial.json", "transport_units.json",
             "schedule_complete.json", "model.lp", "trace.csv", "events.jsonl")

# name: (project, robots, allocate method args, simulate args and exit code or None)
RUNS = {
    "toy-2": (
        projects.toy_project, 2,
        [["bnb"], ["export-lp"]], ([], cli.EXIT_OK),
    ),
    "tractor-5": (
        projects.tractor_project, 5,
        [["bnb", "--max-nodes", "200", "--time-limit", "inf"], ["export-lp"]],
        ([], cli.EXIT_OK),
    ),
    "tractor-10": (
        projects.tractor_project, 10,
        [["greedy"]], ([], cli.EXIT_OK),
    ),
    # the simulator benchmark's workload, simulated to the end
    "tractor-15": (
        projects.tractor_project, 15,
        [["greedy"]], ([], cli.EXIT_OK),
    ),
    # 8 robots livelock on this project; the cap pins the first 2,000 steps
    "synthetic-8": (
        partial(projects.synthetic_project, 0), 8,
        [["greedy"], ["export-lp"]], (["--max-steps", "2000"], cli.EXIT_DEADLOCK),
    ),
    # a dense crowd that reaches the simulator's least-violation fallback (the
    # LP's third phase) 45 times in 400 steps; its one penetration is pinned
    # as it is
    "synthetic-48": (
        partial(projects.synthetic_project, 0), 48,
        [["greedy"]], (["--max-steps", "400"], cli.EXIT_DEADLOCK),
    ),
    # the 400-part scale the planning speedups are measured at: planning, the
    # 138 MB LP (256,016 binaries), and the benchmark's 32-agent crowd for its
    # first 1,000 steps, whose 4 penetrations are pinned as they are
    "synthetic-400": (
        partial(projects.synthetic_project, 0, clusters=16, parts_per_cluster=25), 32,
        [["greedy"], ["export-lp"]], (["--max-steps", "1000"], cli.EXIT_DEADLOCK),
    ),
}

GOLDEN = {
    "toy-2": {
        "staging.json": "75c4e7f0bcd8f869c0d64fda8313cf49886fbf4e8b33d6292123e7f72c17f4ab",
        "staging.svg": "809974e453862e1cfb04e889924be5e6f0430c81b3761e80d82352dc6adbd573",
        "schedule_partial.json": "bbb796c9319043e33169d6751faca7ee74b68553bc2398a163f29072aa24f0b4",
        "transport_units.json": "1120be3e0f88336efb83144d5a6c6b98be4108d527dbe6db7724b1b119a515ec",
        "schedule_complete.json": "73efea44a1b6069d5b61bc5379fdbf1a4b495304067f2f58117c65cdddabe6c9",
        "model.lp": "ce3db9d65e24b7aead047d098724146878746538eba245d7f69f391c43eae6ea",
        "trace.csv": "551d9dc8befad510bae8025e119d20f9b9ba77541952b7c43606e6d8c1262468",
        "events.jsonl": "0c0be461c5f580e3d16258274eef549ecf0f79beb0e17047d9646de621ad7db4",
    },
    "tractor-5": {
        "staging.json": "0329b8c77e554bc39125b86171a9a729d9a1bbf99f16f2841f98a4d60f72e4f2",
        "staging.svg": "2980d7679cd5d274b5198032f2147c3e207a8ee2e3234947188e83710a7b1a28",
        "schedule_partial.json": "3e690df0b26331ce8d3d58822c009f1a84e1998a732a2c41aa2b2be275df47fe",
        "transport_units.json": "b22a590dddea2e855d012496a996944026ef4d69f50366efdaaa1f9136713879",
        "schedule_complete.json": "3ffdc6804766598e3b21d2f53b8f6a3f72292db7504cf0bb2a9a98d5552de846",
        "model.lp": "d34756d89155cb1d50b5857e2ba379125151d15e2af59ded36402d6786928351",
        "trace.csv": "bdebbafe5ec88412dc820aaa09be09c95779e1db350a25e9debe27081c2a77d4",
        "events.jsonl": "ab9539f5d180aa4f2227dfa5f10baca641693116097792527cace4c952d40e52",
    },
    "tractor-10": {
        "staging.json": "0329b8c77e554bc39125b86171a9a729d9a1bbf99f16f2841f98a4d60f72e4f2",
        "staging.svg": "2980d7679cd5d274b5198032f2147c3e207a8ee2e3234947188e83710a7b1a28",
        "schedule_partial.json": "d1369fd50824965b3c19ab6365b7c7a8809e9b22b04d6638143ebdfab7f5d43c",
        "transport_units.json": "b22a590dddea2e855d012496a996944026ef4d69f50366efdaaa1f9136713879",
        "schedule_complete.json": "683d67f10f01b36e4803f47cfc0899b847f4f9db9633a945e46aa297a98ad821",
        "trace.csv": "d7d650ba93700b080e7a3b6599bace0ea07a3b9e463d6ecd6cea64f1a7b3a1b9",
        "events.jsonl": "27afac5ceba1675a946ef687c88498912507b730ee24075d6a56542d82990bb1",
    },
    "tractor-15": {
        "staging.json": "0329b8c77e554bc39125b86171a9a729d9a1bbf99f16f2841f98a4d60f72e4f2",
        "staging.svg": "2980d7679cd5d274b5198032f2147c3e207a8ee2e3234947188e83710a7b1a28",
        "schedule_partial.json": "dade7424fbbfa74845d7607c9824d6f58166d6ed6ce4517c92f07fad6dfe9404",
        "transport_units.json": "b22a590dddea2e855d012496a996944026ef4d69f50366efdaaa1f9136713879",
        "schedule_complete.json": "e9eb2eb05a510d4c4bc424447d2bd2ed8cd4f0ecdb447a5a770d2fa8e6adfb6e",
        "trace.csv": "0759cc00726bc4372adc6ac64367391ce8b09159a911794392ef5de0d546dc62",
        "events.jsonl": "e70a6bcd6f232165c61deae509dc2cfdc63ead7b2aa028b6606de15eedf16873",
    },
    "synthetic-8": {
        "staging.json": "8d0246da0b1a21613b7133d9fbf8745dceb8b0abe570b5bc3bed18f8be0954e3",
        "staging.svg": "3ea0eeb901511b922b11fbf690ae13f15d2492452470ecc4a5b3beb3391a9a6e",
        "schedule_partial.json": "a5ffd353744c14ad434a3e0c196ea68075846a5a43fc628e86fb19e162d3f6a3",
        "transport_units.json": "ffd90b35977b5cc15da270984591db6b49bf469bafa72d73bc7bdbe6db0721c8",
        "schedule_complete.json": "464bb0889ffdd7504c3d85fdf19e3ac0564a76254cd5ba64c7304e9dac7476e2",
        "model.lp": "4e5304d5cd02f5acedd02ae5495e2fa197f4016d7dba6d6a9396268111fa5fd5",
        "trace.csv": "8fb934f152a1ac9cd6f96f74007637d445280ba9a1b7d7408f798a33bc163bae",
        "events.jsonl": "4a181ed2803f3a108a34f9184ff3ce1af64959bf274f37d76899b15f64d8598f",
    },
    "synthetic-48": {
        "staging.json": "8d0246da0b1a21613b7133d9fbf8745dceb8b0abe570b5bc3bed18f8be0954e3",
        "staging.svg": "3ea0eeb901511b922b11fbf690ae13f15d2492452470ecc4a5b3beb3391a9a6e",
        "schedule_partial.json": "8a2d20fd4378da4d7ffe7825db5265bfe8604c3c77aa90a40ecd2e9a1d6f9cee",
        "transport_units.json": "ffd90b35977b5cc15da270984591db6b49bf469bafa72d73bc7bdbe6db0721c8",
        "schedule_complete.json": "29a979fd3ff2ab4125fcea7fd56e4ac21bbba071b92cef24b45c52aaf270916f",
        "trace.csv": "36124ff46f0fee18a458ed08ad24849842d301e1a4d2766bb14c17c706d214ce",
        "events.jsonl": "cf5d05bf8ad4fb0284855e1b3a0f8dc97d9ac02e1625d37d64d810e763f711c8",
    },
    "synthetic-400": {
        "staging.json": "23f59e79d7969bdb90ab6bde6d5d3daa3be786c1736580c4e336d64abe6dc5d3",
        "staging.svg": "1ef590c7c7954dbffeeecc8585972b183ea4d3adf92d8c01706f935751aec8c1",
        "schedule_partial.json": "a7e9ef1224a64338c1cdbfcd20dc6bea4f75d3a307fa0be3970c5e25fc9ea5f8",
        "transport_units.json": "c4e8a138d3d7802fb71f6cc5bce2d94b6123a143b4ca830bc0f53463f6bba070",
        "schedule_complete.json": "e7e060bdaca557690058515055820e339c57bd39e4fb86d7a721c502f27ea3b4",
        "model.lp": "29867a90542f80d20c06dbe97b62baac9db656cb39b7198c6657bfecebfbf04b",
        "trace.csv": "ca7d31a667c6e10f2d5526ac0866924cd2b4ce089da94ea2ab18ed856e75906d",
        "events.jsonl": "efa5fd314465b16129d985d564ba5b8565a5dd0147db6de0fd93bfab2f58f9a2",
    },
}

# metrics.json of each simulated run, without the wall-clock `runtime_s`
GOLDEN_METRICS = {
    "toy-2": {
        "collision_count": 0, "deadlocked": False, "execution_makespan": 15.000000000000078,
        "predicted_makespan": 10.273791780023945, "robots": 2, "steps": 300,
        "swap_count": 0,
    },
    "tractor-5": {
        "collision_count": 0, "deadlocked": False, "execution_makespan": 430.5000000000636,
        "predicted_makespan": 357.5042436789421, "robots": 5, "steps": 8610,
        "swap_count": 22,
    },
    "tractor-10": {
        "collision_count": 0, "deadlocked": False, "execution_makespan": 221.35000000001608,
        "predicted_makespan": 189.2795477017098, "robots": 10, "steps": 4427,
        "swap_count": 28,
    },
    "tractor-15": {
        "collision_count": 0, "deadlocked": False, "execution_makespan": 210.5000000000136,
        "predicted_makespan": 161.90861368485565, "robots": 15, "steps": 4210,
        "swap_count": 57,
    },
    "synthetic-8": {
        "collision_count": 0, "deadlocked": True, "execution_makespan": float("inf"),
        "predicted_makespan": 376.86175981359054, "robots": 8, "steps": 2000,
        "swap_count": 0,
    },
    "synthetic-48": {
        "collision_count": 1, "deadlocked": True, "execution_makespan": float("inf"),
        "predicted_makespan": 94.86517866752928, "robots": 48, "steps": 400,
        "swap_count": 0,
    },
    "synthetic-400": {
        "collision_count": 4, "deadlocked": True, "execution_makespan": float("inf"),
        "predicted_makespan": 622.3067791839786, "robots": 32, "steps": 1000,
        "swap_count": 0,
    },
}


def _digest(path) -> str:
    """SHA-256 of an artifact. A JSON artifact must be one line with sorted
    keys; `staging.json` is hashed without its wall-clock `runtime_s`,
    re-dumped with sorted keys, and every other JSON artifact re-dumped
    with `indent=2`, the layout its pin was recorded in, so each pin still
    proves the same document."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        assert data.decode() == json.dumps(doc, sort_keys=True) + "\n", path.name
        if path.name == "staging.json":
            del doc["runtime_s"]
            data = json.dumps(doc, sort_keys=True).encode()
        else:
            data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_artifacts(name, tmp_path):
    make_spec, robots, allocations, simulate = RUNS[name]
    project = tmp_path / "project.json"
    project.write_text(json.dumps(model.project_to_jsonable(
        make_spec(), projects.default_fleet(robots), model.PlanParams(buffer_radius=0.25))))
    out = tmp_path / "out"
    assert cli.main(["plan", "--input", str(project), "--out", str(out)]) == cli.EXIT_OK
    for method in allocations:
        assert cli.main(["allocate", "--out", str(out), "--method", *method]) == cli.EXIT_OK
    if simulate is not None:
        sim_args, exit_code = simulate
        assert cli.main(["simulate", "--out", str(out), *sim_args]) == exit_code
        metrics = json.loads((out / "metrics.json").read_text())
        del metrics["runtime_s"]
        assert metrics == GOLDEN_METRICS[name]
    got = {a: _digest(out / a) for a in ARTIFACTS if (out / a).is_file()}
    assert got == GOLDEN[name]
