"""The README's library example reads only names that exist."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The `python` block under the README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def unresolved(source: str) -> list[str]:
    """Every `module.attr` that `source` reads from an `assemblyforge`
    module it imports and that the module does not define."""
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "assemblyforge":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"assemblyforge.{alias.name}")
    assert modules, "the example imports no assemblyforge module"
    return sorted(
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and not hasattr(modules[node.value.id], node.attr))


def test_library_example_names_resolve():
    assert unresolved(library_example()) == []


def test_checker_flags_a_missing_name():
    source = "from assemblyforge import model, projects\nmodel.PlanParams\nprojects.nope()\n"
    assert unresolved(source) == ["projects.nope"]
