"""API integrity: every exported name exists once, and no import goes unused.

``from randlr import *`` and tools that walk the layers (such as a tracer
wrapping every public function) call ``getattr`` on each ``__all__`` name,
so a stale export breaks them; an import left behind by a deletion is dead
code.
"""

import ast
import importlib
from pathlib import Path

import pytest

import randlr

LAYERS = ("core", "rangefinder", "planner", "baselines", "experiments", "io", "cli")
MODULES = ["randlr"] + [f"randlr.{layer}" for layer in LAYERS]
SOURCES = sorted(Path(randlr.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES, ids=lambda name: name.rpartition(".")[2])
def test_all_names_resolve_and_are_unique(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never loads.  Strings listed in
    ``__all__`` count as uses, since they re-export the name."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_an_orphan():
    tree = ast.parse("import json\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert unused_imports(tree) == ["json", "path"]


def unreferenced_privates(trees: list[ast.Module]) -> list[str]:
    """Private top-level functions, classes and constants that no module
    of ``trees`` names again, as a load or an attribute."""
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    used = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    return [name for name in private if name not in used]


def test_every_private_name_has_a_caller():
    assert unreferenced_privates([ast.parse(path.read_text()) for path in SOURCES]) == []


def test_private_name_check_sees_an_orphan():
    helpers = ast.parse("_TOL = 1.0\ndef _used(): return _TOL\ndef _orphan(): pass\nclass _Gone: pass\n")
    caller = ast.parse("from m import _used\n_used()\n")
    assert unreferenced_privates([helpers, caller]) == ["_orphan", "_Gone"]


def writing_opens(tree: ast.Module) -> list[str]:
    """Literal modes of the ``open(...)`` calls in ``tree`` that write:
    a mode that contains ``w``, ``a``, ``x`` or ``+``."""
    modes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            args = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            modes += [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return [mode for mode in modes if set(mode) & set("wax+")]


NOT_IO = [p for p in SOURCES if p.name != "io.py"]


@pytest.mark.parametrize("path", NOT_IO, ids=[p.name for p in NOT_IO])
def test_only_io_opens_files_for_writing(path):
    # every output file goes through io._writing, whose errors name the file
    assert writing_opens(ast.parse(path.read_text())) == []


def test_writing_open_check_sees_a_writer():
    tree = ast.parse("open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\n")
    assert writing_opens(tree) == ["w", "ab", "r+"]


REPO = Path(__file__).resolve().parents[1]
PYTHON_FILES = sorted(path for top in ("src", "tests", "demos") for path in (REPO / top).rglob("*.py"))
PAST_PYTHON_310 = {"tomllib", "StrEnum", "ExceptionGroup", "TaskGroup", "datetime.UTC"}


def names_past_python_310(tree: ast.Module) -> list[str]:
    """Names in ``tree`` that Python 3.10 lacks: modules, classes and
    attributes new in 3.11, named bare, as an attribute or in an import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(f"datetime.{node.attr}" if getattr(node.value, "id", None) == "datetime" else node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
            names += [f"datetime.{alias.name}" for alias in node.names]
    return [name for name in names if name in PAST_PYTHON_310]


def test_every_file_parses_and_names_only_what_python_310_has():
    # pyproject and CI promise 3.10: its grammar must parse every file, and a
    # 3.11 name would fail only when the line runs
    assert len(PYTHON_FILES) > 20
    for path in PYTHON_FILES:
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        assert names_past_python_310(tree) == [], path


def test_python_310_check_sees_newer_code():
    tree = ast.parse("import tomllib\nfrom datetime import UTC\nx = enum.StrEnum\ny = datetime.UTC\n"
                     "async def f():\n    async with asyncio.TaskGroup():\n        raise ExceptionGroup('', [])\n")
    assert sorted(names_past_python_310(tree)) == ["ExceptionGroup", "StrEnum", "TaskGroup", "datetime.UTC",
                                                   "datetime.UTC", "tomllib"]
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
