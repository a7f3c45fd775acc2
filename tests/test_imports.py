"""Source checks over the package and the tests, with the stdlib `ast`.

Unused imports: a name bound by an import must be read somewhere in the same
module. The package's `__init__.py` files re-export and are skipped, as are
`__future__` imports.

Node ids: `schedule.py` is the only package module that writes or parses a
schedule node id (`Kind:subject[:slot][:role]`); the others use
`schedule.node_id` and the graph's lookups.
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
