"""Source checks over the package and the tests, with the stdlib `ast`.

Unused imports: a name bound by an import must be read somewhere in the same
module. The package's `__init__.py` files re-export and are skipped, as are
`__future__` imports.

Node ids: `schedule.py` is the only package module that writes or parses a
schedule node id (`Kind:subject[:slot][:role]`); the others use
`schedule.node_id` and the graph's lookups.

JSON numbers: in the package, `model.is_a` and `model.is_finite` are called
only by the artifact table checker in `model.py` (its kinds and their
helpers), so that no reader checks a field's kind on its own.

JSON writing: in the package, `json.dumps` is called only by
`cli._json_text`, which writes every JSON artifact, and by
`sim.events_to_jsonl`, which writes the event log's lines; both use the C
encoder's one-line layout with sorted keys.

Error output: in the package, only `cli.main` writes to `sys.stderr`, by
`print(..., file=sys.stderr)` or `sys.stderr.write`; commands raise, and
`main` prints each error line and picks the exit code. Logging is exempt.

Single writer: outside the methods of `sim.World`, no package code assigns,
deletes or mutates (a method such as `pop`, `append` or `setdefault`, a heapq
push or pop, an item assignment) a world's node states, timers, completion
times, pending counts, ready queue, unit tasks, open phases, agent presence,
mission indices or itineraries, nor its epoch or the cache of what it builds per
epoch; `World.start`, `World.complete` and `World.swap` make every transition
and step the epoch, so nothing kept for an epoch can go stale.
"""

import ast
from pathlib import Path

import pytest

from assemblyforge.schedule import _DOT_SHORT

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py")
PACKAGE = sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "schedule.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used():
    source = "import os\nimport os.path as osp\nfrom math import pi, tau\nprint(os, tau)\n"
    assert unused_imports(source) == ["line 2: osp", "line 3: pi"]


def node_id_uses(source: str) -> list[str]:
    """Lines that write a node id by hand (a string or f-string part that
    starts with a node kind and a colon) or split a string on ':'."""
    prefixes = tuple(f"{kind}:" for kind in _DOT_SHORT)
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith(prefixes)):
            found.append((node.lineno, f"node id {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("split", "rsplit") and node.args
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == ":"):
            found.append((node.lineno, f"{node.func.attr}(':')"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_schedule_writes_node_ids(path):
    assert node_id_uses(path.read_text()) == []


def test_node_id_checker_flags_ids_and_colon_splits():
    source = (
        'drop = f"RobotGo:{p}:{s}:dropoff"\n'
        'dep = "DepositCargo:" + p\n'
        'kind, subject = task.split(":", 1)\n'
        'aid, k = key.rsplit(":")\n'
        'uid = f"unit:{p}"\n'
        'name = ref.rsplit("@", 1)\n'
        'msg = f"{nid}: RobotGo: no chain"\n'
    )
    assert node_id_uses(source) == [
        "line 1: node id 'RobotGo:'", "line 2: node id 'DepositCargo:'",
        "line 3: split(':')", "line 4: rsplit(':')"]


JSON_WRITERS = {"cli._json_text", "sim.events_to_jsonl"}


def calls(source: str, module: str, match) -> list[str]:
    """The `module.function` of each call in `source` for which
    `match(call)` holds; `module.<module>` for a call outside any function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        elif isinstance(node, ast.Call) and match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), f"{module}.<module>")
    return found


def callers(source: str, module: str, owner: str, names: set[str]) -> list[str]:
    """The `module.function` of each call in `source` of `owner.<name>`, or
    of `<name>` imported bare, for a name in `names`."""
    return calls(source, module, lambda call: (
        isinstance(call.func, ast.Attribute) and call.func.attr in names
        and isinstance(call.func.value, ast.Name) and call.func.value.id == owner
        or isinstance(call.func, ast.Name) and call.func.id in names))


def json_dumps_callers(source: str, module: str) -> list[str]:
    return callers(source, module, "json", {"dumps"})


def test_json_has_two_writers():
    callers = sorted(c for p in (ROOT / "src").rglob("*.py")
                     for c in json_dumps_callers(p.read_text(), p.stem))
    assert callers == sorted(JSON_WRITERS)


def test_json_writer_checker_names_the_function():
    source = (
        "import json\n"
        "from json import dumps\n"
        "HEADER = json.dumps({})\n"
        "def write(doc):\n"
        "    def inner():\n"
        "        return dumps(doc)\n"
        "    return json.dumps(doc, indent=2) + inner()\n"
        "def read(text):\n"
        "    return json.loads(text)\n"
    )
    assert json_dumps_callers(source, "m") == ["m.<module>", "m.inner", "m.write"]


def _is_stderr(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "stderr"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
            or isinstance(node, ast.Name) and node.id == "stderr")


def stderr_writers(source: str, module: str) -> list[str]:
    """The `module.function` of each `print(..., file=sys.stderr)` and
    `sys.stderr.write` or `writelines` call in `source`."""
    return calls(source, module, lambda call: (
        any(k.arg == "file" and _is_stderr(k.value) for k in call.keywords)
        if isinstance(call.func, ast.Name) and call.func.id == "print"
        else isinstance(call.func, ast.Attribute) and _is_stderr(call.func.value)
        and call.func.attr in ("write", "writelines")))


def test_stderr_has_one_writer():
    found = sorted(c for p in (ROOT / "src").rglob("*.py")
                   for c in stderr_writers(p.read_text(), p.stem))
    assert found == ["cli.main"]


def test_stderr_checker_flags_a_command():
    source = (
        "import sys\n"
        "from sys import stderr\n"
        "def cmd_plan(args):\n"
        "    print('error: invalid option', file=sys.stderr)\n"
        "    print('run,robots', file=sys.stdout)\n"
        "    print('done')\n"
        "    log.warning('slow')\n"
        "def _report(lines):\n"
        "    stderr.write(lines[0])\n"
        "    sys.stderr.writelines(lines)\n"
        "def main(argv):\n"
        "    print(argv, file=stderr)\n"
    )
    assert stderr_writers(source, "cli") == [
        "cli.cmd_plan", "cli._report", "cli._report", "cli.main"]


# The JSON number tests are called only by the artifact table checker in
# model.py: its kinds, declared at module level, and the functions they call.
NUMBER_TESTS = {"is_a", "is_finite"}
CHECKER = {"model.<module>", "model.is_finite", "model._coordinate"}


def test_number_tests_only_in_the_checker():
    found = {c for p in (ROOT / "src").rglob("*.py")
             for c in callers(p.read_text(), p.stem, "model", NUMBER_TESTS)}
    assert found <= CHECKER


def test_number_test_checker_flags_a_reader():
    source = (
        "from .model import is_finite\n"
        "POSITIVE = Kind('a number > 0', lambda v: model.is_finite(v) and v > 0)\n"
        "@reading_artifact('unit JSON', UNIT)\n"
        "def unit_from_jsonable(d):\n"
        "    if not is_finite(d['speed']):\n"
        "        raise ValueError('speed')\n"
        "    return Unit(d['speed'], model.is_a(d['n'], int), isfinite(d['n']))\n"
    )
    assert callers(source, "transport", "model", NUMBER_TESTS) == [
        "transport.<module>", "transport.unit_from_jsonable", "transport.unit_from_jsonable"]


WORLD_STATE = {"status", "timers", "complete_time", "remaining", "ready", "unit_task",
               "open_phase", "present", "mission_idx", "itineraries", "epoch", "cache"}
MUTATORS = {"pop", "popitem", "append", "extend", "insert", "remove", "setdefault", "update",
            "clear", "heappush", "heappop", "heapify", "heapreplace", "heappushpop"}


def _state_written(target) -> str | None:
    """The world-state attribute that an assignment or `del` of `target`
    writes, directly or through item assignment, or None."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return next(filter(None, map(_state_written, target.elts)), None)
    if isinstance(target, ast.Starred):
        return _state_written(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr in WORLD_STATE:
        return target.attr
    return None


def world_state_writes(source: str) -> list[str]:
    """Lines outside `class World` that write one of its WORLD_STATE
    attributes: assigned, deleted, item-assigned, or passed to a MUTATORS
    method or heapq function."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "World":
            return
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            # a method of the attribute, or heapq's function on it
            on = node.func.value
            heap = isinstance(on, ast.Name) and on.id == "heapq"
            targets = node.args[:1] if heap else [on]
        for target in targets:
            attr = _state_written(target)
            if attr is not None:
                found.append((node.lineno, attr))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return [f"line {line}: {attr}" for line, attr in sorted(found)]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_world_writes_world_state(path):
    assert world_state_writes(path.read_text()) == []


def test_world_state_checker_flags_writes_outside_world():
    source = (
        "class World:\n"
        "    def complete(self, nid):\n"
        "        self.status[nid] = 'complete'\n"
        "        self.timers.pop(nid, None)\n"
        "def finish(world, nid):\n"
        "    del world.timers[nid]\n"
        "    world.status[nid] = 'active'\n"
        "    world.present[world.row[nid]] = False\n"
        "    world.mission_idx[nid] += 1\n"
        "    world.unit_task.pop(nid, None)\n"
        "    world.open_phase.setdefault(nid, 0)\n"
        "    heapq.heappush(world.ready, (0, nid))\n"
        "    world.pos[0], world.complete_time = 1.0, {}\n"
        "    world.itineraries[nid][0], picks = nid, []\n"
        "    world.epoch += 1\n"
        "    world.cache[build] = (world.epoch, None)\n"
        "    world.cache.clear()\n"
        "    world.events.append(nid)\n"
        "    log.append(world.status)\n"
        "    done = world.status[nid] == 'complete' and nid in world.remaining\n"
        "    keys = sorted(world.timers.items())\n"
        "    rows = world.per_epoch(build) if world.cache.get(build) else world.epoch\n"
    )
    assert world_state_writes(source) == [
        "line 6: timers", "line 7: status", "line 8: present", "line 9: mission_idx",
        "line 10: unit_task", "line 11: open_phase", "line 12: ready",
        "line 13: complete_time", "line 14: itineraries", "line 15: epoch", "line 16: cache",
        "line 17: cache"]
