#!/usr/bin/env python3
"""Time what importing permshape costs a fresh interpreter, and what it loads.

For each import below the script starts ``--runs`` fresh interpreters and
prints the median milliseconds from starting one until the import has
returned, cold and warm, then the ``permshape`` submodules and which of
``multiprocessing``, ``fractions`` and ``dataclasses`` the import loaded:

- the bare interpreter, which imports nothing;
- ``import permshape``;
- ``from permshape import parse_permutation, encode_tableau, shape``, the
  names ``permshape map`` works with;
- ``import permshape.cli``, what every command line run imports.

A cold run imports a copy of the package that has no bytecode, with
``-B``, so each run compiles every permshape module from source, as a fresh
checkout does under ``PYTHONDONTWRITEBYTECODE``; a warm run imports a copy
whose bytecode one earlier run wrote.  Both copies live in temporary
directories, so nothing is written into the source tree, and the standard
library reads its installed bytecode either way.  (An empty
``PYTHONPYCACHEPREFIX`` would hide that too and time the compiling of the
interpreter's own start-up modules.)  Example:
``scripts/import_cost.py --runs 15``.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import permshape

IMPORTS = {
    "bare interpreter": "",
    "import permshape": "import permshape",
    "map-style import": (
        "from permshape import parse_permutation, encode_tableau, shape"
    ),
    "import permshape.cli": "import permshape.cli",
}
WATCHED = ("multiprocessing", "fractions", "dataclasses")

# The import, then the clock, then what it left in sys.modules.
PROBE = """{statement}
import sys, time, json
print(time.monotonic())
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith("permshape.") or name in {watched!r}
)))
"""


def one_run(statement: str, env: dict, *flags: str) -> tuple[float, list[str]]:
    """Seconds until ``statement`` returned, and the modules it loaded."""
    code = PROBE.format(statement=statement, watched=WATCHED)
    started = time.monotonic()
    # -P: the working directory must not shadow the copy on PYTHONPATH.
    proc = subprocess.run(
        [sys.executable, "-P", *flags, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        sys.exit(f"{statement or 'bare interpreter'} failed: {proc.stderr.strip()}")
    stamp, loaded = proc.stdout.splitlines()[:2]
    return float(stamp) - started, json.loads(loaded)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    package = os.path.dirname(os.path.abspath(permshape.__file__))
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    print(f"median of {args.runs} fresh interpreters, cpu_count {os.cpu_count()}")
    print(f"{'import':<22} {'cold ms':>8} {'warm ms':>8}  loaded")
    for label, statement in IMPORTS.items():
        with tempfile.TemporaryDirectory() as scratch:
            cold, warm = (os.path.join(scratch, side) for side in ("cold", "warm"))
            for copy in (cold, warm):
                shutil.copytree(
                    package,
                    os.path.join(copy, "permshape"),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            cold_env = {**env, "PYTHONPATH": cold}
            warm_env = {**env, "PYTHONPATH": warm}
            one_run(statement, warm_env)  # writes the warm copy's bytecode
            cold_s, warm_s = [], []
            for _ in range(args.runs):
                seconds, loaded = one_run(statement, cold_env, "-B")
                cold_s.append(seconds)
                warm_s.append(one_run(statement, warm_env)[0])
        cold_ms, warm_ms = (1000 * statistics.median(s) for s in (cold_s, warm_s))
        loads = " ".join(loaded) or "-"
        print(f"{label:<22} {cold_ms:>8.1f} {warm_ms:>8.1f}  {loads}")


if __name__ == "__main__":
    main()
