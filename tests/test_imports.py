"""Every name a package module imports is used in that module, every private
module-level definition is used somewhere in the package, and every public
function and class has a caller outside the unit tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reinfog"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as "queue.Queue"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == \
        ["Sequence (line 2)"]
    assert unused_imports('import queue\nq: "queue.Queue" = None\n') == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _loaded_names(tree: ast.AST) -> Counter:
    """Names read, attributes taken and names imported anywhere in `tree`."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions, classes and assignments that no
    code of the package uses outside their own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = sum((_loaded_names(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _loaded_names(node)
            dead += [f"{module}: {name} (line {node.lineno})" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and used[name] - own[name] == 0]
    return sorted(dead)


def test_dead_definition_check_sees_an_unused_private_name():
    sources = {
        "a.py": "_used = 1\n_unused = 2\ndef _recursive():\n    return _recursive()\n"
                "class _Imported:\n    pass\nx = _used\n",
        "b.py": "from .a import _Imported\n",
    }
    assert dead_definitions(sources) == ["a.py: _recursive (line 3)", "a.py: _unused (line 2)"]


def test_package_has_no_dead_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources) == []


def uncalled_public_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Module-level public functions and classes that neither the package,
    outside their own definition, nor any of the `readers` sources names."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = sum((_loaded_names(tree) for tree in [*trees.values(), *map(ast.parse, readers)]),
               Counter())
    return sorted(f"{module}: {node.name} (line {node.lineno})"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and used[node.name] == _loaded_names(node)[node.name])


def test_uncalled_definition_check_sees_a_public_name_only_its_definition_names():
    sources = {"a.py": "def called():\n    pass\ndef recursive():\n    return recursive()\n"
                       "class Exported:\n    pass\n_private = called\n",
               "__init__.py": "from .a import Exported\n"}
    assert uncalled_public_definitions(sources, []) == ["a.py: recursive (line 3)"]
    assert uncalled_public_definitions(sources, ["a.recursive()"]) == []


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    # perfbench and the acceptance criteria count as callers; the other tests do not
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in [*sorted((ROOT / "perfbench").glob("*.py")),
                                       ROOT / "tests" / "test_acceptance.py"]]
    assert uncalled_public_definitions(sources, readers) == []
