"""Fuzz every artifact reader through `cli.main`.

The inputs are real documents: the toy run (2 robots, greedy, simulated to
the end), the tractor partial schedule at 5 robots, and the toy project JSON
that `plan` reads. Each example changes one place in one document: it
deletes a key, replaces a value (null, a string, one holding a newline, a
bool, `[]`, `{}`, 0, -1, NaN, +-inf, +-1e300, an int beyond the float
range, 0.5 or a node id), or
duplicates or drops a list entry. The commands that read the document then
run on a copy of the run directory.

Property: `cli.main` returns a code from 0 to 4 and raises nothing (a numpy
RuntimeWarning raises under this suite's settings). A run that exits 2
prints exactly one line, `error: ...`. A greedy or B&B `allocate` that exits
0 writes a complete schedule that reads back and validates.

Every field named in a reader's table occurs in the toy artifacts (checked
below), so a new field is fuzzed by construction.

An example draws a pattern and a change first (a pattern is a path with
list indices, and the keys of maps, which are ids rather than names,
replaced by `*`), then one path of that pattern, so a field that occurs once
is drawn as often as a vertex coordinate that occurs hundreds of times.
Hypothesis runs derandomized with a fixed example count, so every run draws
the same examples.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from assemblyforge import cli, model, projects, schedule, staging, transport

VALUES = [None, "x", "x\ny", True, [], {}, 0, -1, math.nan, math.inf, -math.inf, 1e300,
          -1e300, 10**400, 0.5]
ALLOCATE = [["allocate"], ["allocate", "--method", "bnb", "--max-nodes", "50"],
            ["allocate", "--method", "export-lp"]]
SIMULATE = [["simulate", "--max-steps", "30"]]
REPORT = [["report"]]
# the commands that read each artifact of a run
READERS = {
    "project.json": ALLOCATE + SIMULATE,
    "schedule_partial.json": ALLOCATE,
    "schedule_complete.json": SIMULATE,
    "staging.json": SIMULATE + REPORT,
    "transport_units.json": SIMULATE,
    "metrics.json": REPORT,
    "allocation_metrics.json": REPORT,
}
FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=list(HealthCheck))


def places(doc, path=()):
    """(path, pattern) of every value in `doc` below the root. A list index,
    and a dict key that is not an identifier (an id, not a field name),
    are `*` in the pattern."""
    items = (enumerate(doc) if isinstance(doc, list)
             else doc.items() if isinstance(doc, dict) else ())
    for key, value in items:
        here = (*path, key)
        yield here, tuple("*" if not (isinstance(k, str) and k.isidentifier()) else k
                          for k in here)
        yield from places(value, here)


def patterns(doc) -> dict:
    """Pattern -> the paths of `doc` that have it, both in document order."""
    out: dict = {}
    for path, pattern in places(doc):
        out.setdefault(pattern, []).append(path)
    return out


def node_ids(run: Path) -> list[str]:
    return sorted(n["id"] for n in
                  json.loads((run / "schedule_complete.json").read_text())["nodes"])


# the changes an example makes: a value from VALUES, another node's id, or
# on a key, a list entry, what the name says
CHANGES = [("value", v) for v in VALUES] + [("id",), ("delete",), ("duplicate",), ("drop",)]


def applies(change, path, value) -> bool:
    """Whether `change` can be made to `value`, found at `path`."""
    if change[0] == "delete":
        return isinstance(path[-1], str)
    if change[0] in ("duplicate", "drop"):
        return isinstance(value, list) and bool(value)
    return True


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, change, arg, ids: list[str]):
    """A copy of `doc` with `change` made at `path`; `arg` indexes `ids` for
    an id, or the list at `path` for a duplicated or dropped entry."""
    doc = json.loads(json.dumps(doc))
    *up, last = path
    parent = value_at(doc, up)
    if change[0] == "value":
        parent[last] = change[1]
    elif change[0] == "id":
        parent[last] = ids[arg]
    elif change[0] == "delete":
        del parent[last]
    elif change[0] == "duplicate":
        parent[last].insert(arg, parent[last][arg])
    else:
        del parent[last][arg]
    return doc


def changes(doc, ids: list[str], under: str | None = None):
    """Strategy: a copy of `doc` with one change, below its key `under` if
    given. It draws a (pattern, change) pair, where the change applies to
    some path of the pattern, then such a path and the change's argument."""
    table = {pattern: paths for pattern, paths in patterns(doc).items()
             if under is None or pattern[0] == under}
    space = [(pattern, change) for pattern, paths in sorted(table.items()) for change in CHANGES
             if any(applies(change, p, value_at(doc, p)) for p in paths)]

    @st.composite
    def changed(draw):
        pattern, change = draw(st.sampled_from(space))
        path = draw(st.sampled_from([p for p in table[pattern]
                                     if applies(change, p, value_at(doc, p))]))
        at = value_at(doc, path)
        arg = draw(st.integers(0, len(ids) - 1) if change[0] == "id"
                   else st.integers(0, len(at) - 1) if change[0] in ("duplicate", "drop")
                   else st.just(None))
        return mutated(doc, path, change, arg, ids)

    return changed()


def run_cli(argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of `cli.main(argv)`; checks the property."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in range(5), (argv, code, lines)
    if code == cli.EXIT_BAD_INPUT:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code, lines


def check_commands(base: Path, name: str, doc, commands):
    """Runs each of `commands` on a fresh copy of the run `base` whose
    artifact `name` is `doc`."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(commands):
            run = Path(tmp) / str(i)
            shutil.copytree(base, run)
            (run / name).write_text(json.dumps(doc))
            if command[0] == "allocate":  # the complete schedule it writes is checked
                (run / "schedule_complete.json").unlink(missing_ok=True)
            code, _ = run_cli([*command, "--out", str(run)])
            if command[0] == "allocate" and code == cli.EXIT_OK and "export-lp" not in command:
                graph = schedule.schedule_from_jsonable(
                    json.loads((run / "schedule_complete.json").read_text()))
                assert schedule.validate_schedule(graph, "complete") == []


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The toy run (planned with 2 robots, greedy, simulated) and the
    tractor-5 plan, each planned once for the module."""
    root = tmp_path_factory.mktemp("fuzz")
    toy = root / "toy.json"
    toy.write_text(json.dumps(model.project_to_jsonable(
        projects.toy_project(), projects.default_fleet(2),
        model.PlanParams(buffer_radius=0.25))))
    mpd = root / "tractor.mpd"
    mpd.write_text(projects._data_text("tractor.mpd"))
    for argv in (["plan", "--input", str(toy), "--out", str(root / "toy")],
                 ["allocate", "--out", str(root / "toy")],
                 ["simulate", "--out", str(root / "toy")],
                 ["plan", "--input", str(mpd), "--robots", "5", "--out", str(root / "tractor")]):
        assert run_cli(argv)[0] == cli.EXIT_OK
    return {"input": toy, "toy": root / "toy", "tractor": root / "tractor",
            "ids": node_ids(root / "toy")}


@pytest.mark.parametrize("name", sorted(READERS))
def test_toy_run_artifact(runs, name):
    base = runs["toy"]

    @settings(FUZZ, max_examples=45)
    @given(changes(json.loads((base / name).read_text()), runs["ids"]))
    def fuzz(doc):
        check_commands(base, name, doc, READERS[name])

    fuzz()


def test_tractor_partial_schedule(runs):
    base = runs["tractor"]
    doc = json.loads((base / "schedule_partial.json").read_text())

    @settings(FUZZ, max_examples=60)
    @given(changes(doc, sorted(n["id"] for n in doc["nodes"])))
    def fuzz(doc):
        check_commands(base, "schedule_partial.json", doc, ALLOCATE)

    fuzz()


@pytest.mark.parametrize("section", ["root", "assemblies", "parts", "fleet", "params"])
def test_plan_input(runs, tmp_path_factory, section):
    root = tmp_path_factory.mktemp("plan")

    @settings(FUZZ, max_examples=160)
    @given(changes(json.loads(runs["input"].read_text()), runs["ids"], section))
    def fuzz(doc):
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            inp = Path(tmp) / "input.json"
            inp.write_text(json.dumps(doc))
            run_cli(["plan", "--input", str(inp), "--out", str(Path(tmp) / "out")])

    fuzz()


def named(kind, path=()):
    """Each field path of the table `kind`, `*` standing for a list entry or
    a map key, and each (path, key) of a Variant's tables, None for its
    default."""
    cls = type(kind)
    if cls is dict:
        for key, sub in kind.items():
            yield (*path, key)
            yield from named(sub, (*path, key))
    elif cls is model.Optional:
        yield from named(kind.kind, path)
    elif cls in (model.ListOf, model.MapOf):
        yield from named(kind.kind, (*path, "*"))
    elif cls is model.Variant:
        for key, table in [*kind.tables.items(), (None, kind.default)]:
            yield path, key
            yield from named(table, path)


def found(doc, kind, path=()):
    """What `named` gives of `kind` for the fields that `doc`, which keeps to
    it, holds with a value other than null."""
    cls = type(kind)
    if cls is dict:
        for key, sub in kind.items():
            if doc.get(key) is not None:
                yield (*path, key)
                yield from found(doc[key], sub, (*path, key))
    elif cls is model.Optional:
        yield from found(doc, kind.kind, path)
    elif cls in (model.ListOf, model.MapOf):
        for entry in (doc.values() if cls is model.MapOf else doc):
            yield from found(entry, kind.kind, (*path, "*"))
    elif cls is model.Variant:
        key = kind.select(doc)
        yield path, key if key in kind.tables else None
        yield from found(doc, kind.tables.get(key, kind.default), path)


def test_every_table_field_occurs_in_the_toy_artifacts(runs):
    def doc(name):
        return json.loads((runs["toy"] / name).read_text())

    units = doc("transport_units.json")
    cases = [(model.PROJECT, [doc("project.json")]), (cli._PLANNED, [doc("project.json")]),
             (schedule.SCHEDULE, [doc("schedule_partial.json"), doc("schedule_complete.json")]),
             (staging.STAGING, [doc("staging.json")]), (transport.UNIT, list(units.values())),
             (cli._UNITS, [units]),
             (cli._RUN_RECORD, [doc(n) for n in ("metrics.json", "allocation_metrics.json",
                                                 "staging.json")])]
    for table, docs in cases:
        for d in docs:  # each keeps to its table
            model.reading_artifact("toy artifact", table)(lambda d: d)(d)
        assert set(named(table)) == {f for d in docs for f in found(d, table)}
