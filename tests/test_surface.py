import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import permshape

PACKAGE_DIR = pathlib.Path(permshape.__file__).parent
SOURCE = str(PACKAGE_DIR.parent)
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))
WITH_ALL = [
    name
    for name in MODULES
    if hasattr(importlib.import_module(f"permshape.{name}"), "__all__")
]


# The package's public names, sorted: the ones README's module list describes.
PUBLIC = """
    Distribution FilledTableau InconsistentFillingError InvalidFillingError
    InvalidPermutationError MomentReport ParityTable Permutation PosetReport
    QuadPolynomial SeriesReport ShapePartition StatVector UniPolynomial
    all_shapes avoiders_132 avoiders_231 borders_from_shape bruhat_covers
    bruhat_leq count_permutations_with_shape decode_tableau distribution
    encode_tableau enumerate_sn lbsum_polynomial moments parity_table
    parse_permutation path_from_shape q_catalan q_catalan_alt quad_polynomial
    shape shape_census shape_contains shape_from_path tableau_from_json
    tableau_to_json tangent_numbers verify_poset_equivalence
    verify_series_identities
""".split()


def test_the_public_surface_is_pinned():
    assert sorted(permshape.__all__) == PUBLIC


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


def _private_oracle_names(tree):
    """The underscore names a module reads through ``oracle.`` or imports from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "oracle" and node.attr.startswith("_"):
                yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "oracle":
            yield from (a.name for a in node.names if a.name.startswith("_"))


def test_oracle_alone_owns_the_walk():
    # No other module starts processes, and none reads a private name of
    # oracle.
    others = [path for path in PACKAGE_DIR.glob("*.py") if path.name != "oracle.py"]
    starts = [p.name for p in others if "multiprocessing" in _imported_modules(p)]
    assert starts == []
    reads = {
        path.name: names
        for path in PACKAGE_DIR.glob("*.py")
        if (names := list(_private_oracle_names(ast.parse(path.read_text()))))
    }
    assert reads == {}


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


def _fresh(code):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SOURCE},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Printed after an import: what it left loaded of permshape and two of the
# heavier standard modules the package uses.
LOADED = """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith("permshape") or name in ("multiprocessing", "fractions")
)))
"""


def test_importing_the_package_runs_only_its_init():
    assert _fresh("import permshape" + LOADED) == ["permshape"]


def test_a_name_loads_only_the_submodule_defining_it():
    loaded = _fresh("from permshape import parse_permutation, shape" + LOADED)
    assert loaded == ["permshape", "permshape.permutations", "permshape.shapes"]


def test_package_names_are_their_submodules_names():
    # Every name's first lookup goes through the package's __getattr__.
    rows = _fresh(
        """
        import json, sys, permshape
        rows = []
        for name in permshape.__all__:
            value = getattr(permshape, name)
            module = sys.modules[value.__module__]
            rows.append([
                module.__name__,
                name in module.__all__,
                getattr(module, name) is value,
                vars(permshape)[name] is value,
            ])
        print(json.dumps(rows))
        """
    )
    assert len(rows) == len(set(permshape.__all__)) == len(permshape.__all__)
    for module, listed, same, kept in rows:
        assert module.startswith("permshape.") and listed and same and kept


def test_submodules_resolve_and_unknown_names_do_not():
    resolved, missing = _fresh(
        """
        import json, permshape
        try:
            permshape.no_such_name
        except AttributeError as error:
            print(json.dumps([permshape.oracle.__name__, str(error)]))
        """
    )
    assert resolved == "permshape.oracle"
    assert missing == "module 'permshape' has no attribute 'no_such_name'"
    assert {"oracle", "verify", "cli", "shape"} <= set(dir(permshape))


def test_spawned_workers_import_what_they_need():
    # Under spawn a worker starts from a bare interpreter and imports the
    # submodules its pickled work names; its checks must equal the serial
    # run's.
    methods, serial, parallel = _fresh(
        """
        import json, multiprocessing, multiprocessing.process, os
        from permshape.verify import run_suite

        methods, real = [], multiprocessing.process.BaseProcess.start
        def recording(self):
            methods.append(self._start_method)
            return real(self)
        multiprocessing.process.BaseProcess.start = recording
        multiprocessing.get_all_start_methods = lambda: ["spawn"]
        os.cpu_count = lambda: 2
        serial, parallel = run_suite("stats", 7, 1), run_suite("stats", 7, 2)
        print(json.dumps([
            methods, [serial.passed, serial.checks], [parallel.passed, parallel.checks]
        ]))
        """
    )
    assert methods == ["spawn"]
    assert serial == parallel == [True, 17740]
