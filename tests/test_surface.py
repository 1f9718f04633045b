import ast
import importlib
import pathlib

import pytest

import permshape

PACKAGE_DIR = pathlib.Path(permshape.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))
WITH_ALL = [
    name
    for name in MODULES
    if hasattr(importlib.import_module(f"permshape.{name}"), "__all__")
]


@pytest.mark.parametrize("name", WITH_ALL)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"permshape.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_cli_writes_text():
    # The library returns values; cli.py alone turns them into JSON or CSV.
    writers = {
        path.name: sorted(set(_imported_modules(path)) & {"json", "csv", "io"})
        for path in PACKAGE_DIR.glob("*.py")
        if path.name != "cli.py"
    }
    assert {name: found for name, found in writers.items() if found} == {}


def test_verify_has_one_error_boundary():
    # One try statement in verify.py, the boundary's: no per-call wrapper and
    # no suppress() may come back beside it.
    tree = ast.parse((PACKAGE_DIR / "verify.py").read_text())
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))  # except* from 3.11 on
    owners = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, tries)
    ]
    assert owners == ["_boundary"]
    assert sum(isinstance(node, tries) for node in ast.walk(tree)) == 1
    names = {
        getattr(node, field)
        for node in ast.walk(tree)
        for field in ("id", "attr", "name")
        if isinstance(getattr(node, field, None), str)
    }
    assert "suppress" not in names
