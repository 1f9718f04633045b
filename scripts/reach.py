#!/usr/bin/env python3
"""List the library functions that a fixed set of CLI calls never reaches.

Runs fifteen ``permshape`` command lines in this process under the
standard library's ``trace`` module, stdout discarded: ``map`` of the word
53148276 in the three formats, nine ``dist`` forms at ``--n`` (``des``,
``maj`` and ``maxdes`` among them, and one shape by ``--shape``),
``verify all`` at ``--max-n``, ``verify bijection`` at ``--max-n`` in
JSON and ``verify series`` at ``--order``.  Then it prints every
function and method of ``src/permshape`` (nested ones included) none of
whose lines ran, with its line span, and their total, each line counted
once.  What is listed is code only a library user or the tests call: a
candidate to delete, or a name to keep with a reason.  Every call must
exit 0, otherwise the script says which and exits 1.
Example: ``scripts/reach.py --max-n 6``.
"""
import argparse
import ast
import contextlib
import importlib
import io
import pathlib
import sys
import trace

import permshape
from permshape import cli

PACKAGE = pathlib.Path(permshape.__file__).resolve().parent
WORD = "53148276"


def calls(n: int, max_n: int, order: int) -> list[list[str]]:
    dist = ["dist", "--n", str(n), "--stat"]
    return [
        ["map", WORD],
        ["map", WORD, "--format", "json"],
        ["map", WORD, "--format", "csv"],
        [*dist, "lbsum", "--check"],
        [*dist, "lbsum", "--parity"],
        [*dist, "lbsum", "--avoid", "132", "--check"],
        [*dist, "shape", "--check"],
        [*dist, "inv", "--format", "csv"],
        [*dist, "des", "--check"],
        [*dist, "maj"],  # no polynomial predicts maj, so no --check
        [*dist, "maxdes", "--check"],
        [*dist, "shape", "--shape", ",".join(["0"] * (n - 1)), "--check"],
        ["verify", "all", "--max-n", str(max_n)],
        ["verify", "bijection", "--max-n", str(max_n), "--format", "json"],
        ["verify", "series", "--order", str(order)],
    ]


def functions(path: pathlib.Path):
    """(qualified name, def line, last line, body lines) of each function."""
    tree = ast.parse(path.read_text())

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    body = child.body
                    if len(body) > 1 and isinstance(body[0], ast.Expr):
                        body = body[1:]  # a docstring runs no line
                    first = min(stmt.lineno for stmt in body)
                    yield name, child.lineno, child.end_lineno, range(first, child.end_lineno + 1)
                yield from walk(child, f"{name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=6, help="the n of each dist call")
    parser.add_argument("--max-n", type=int, default=6, help="verify all's depth")
    parser.add_argument("--order", type=int, default=8, help="verify series' order")
    args = parser.parse_args()
    modules = sorted(PACKAGE.glob("*.py"))
    for path in modules:  # defined before tracing, so no def line counts
        importlib.import_module(f"permshape.{path.stem}")
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    for argv in calls(args.n, args.max_n, args.order):
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.runfunc(cli.main, argv)
        if code != 0:
            print(f"permshape {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    ran = {
        (pathlib.Path(filename).resolve(), line)
        for filename, line in tracer.results().counts
    }
    unreached = []
    lines = set()
    for path in modules:
        for name, start, end, body in functions(path):
            if not any((path, line) in ran for line in body):
                unreached.append(f"{path.name}:{start} {name} ({end - start + 1} lines)")
                lines.update((path, line) for line in range(start, end + 1))
    print("\n".join(unreached))
    print(f"{len(unreached)} functions, {len(lines)} lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
