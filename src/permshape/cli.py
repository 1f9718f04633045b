"""
Command line front end.

Subcommands:

* ``map PERM``     - Dyck word, shape, borders, statistics and tableau of one
                     permutation.
* ``dist``         - exact distribution tables over S_n (or an avoidance
                     class), shape censuses, parity summaries, and optional
                     cross-checks against the generating polynomials.
* ``verify``       - run the exhaustive verification suites.

This is the one module that turns results into text: the library returns
values, and every byte permshape prints, in every format, is written here.
Output goes to stdout, diagnostics to stderr.  Exit codes: 0 on success;
1 when a verification suite fails (any exception raised inside a suite is
its failed check) or the reader closes stdout early; 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import oracle, verify
from .genfun import lbsum_polynomial, q_catalan, quad_polynomial
from .permutations import (
    Permutation,
    _stat_vector,
    left_borders,
    parse_permutation,
    right_borders,
)
from .shapes import ShapePartition, count_permutations_with_shape, dyck_word
from .tableaux import _encode_word, tableau_to_json

__all__ = ["main", "map_report", "predicted_distribution"]

FORMATS = ("plain", "json", "csv")
# The largest n that ``map`` accepts: its tableau masks and dot lists grow as n^2.
MAP_MAX_N = 1500


def map_report(p: Permutation) -> dict:
    """
    Everything the ``map`` subcommand prints, as one plain dict.  One pass
    of the left borders serves the statistics, the report and the tableau.
    """
    word = p.entries
    borders = left_borders(word)
    sv = _stat_vector(word, borders)
    t = _encode_word(word, {}, borders)
    return {
        "permutation": list(word),
        "dyck_word": dyck_word(word),
        "shape": t.shape.to_text(),
        "left_borders": list(borders),
        "right_borders": list(right_borders(word)),
        "stats": {
            "des": sv.des,
            "maj": sv.maj,
            "lrmax": sv.lrmax,
            "maxdes": sv.maxdes,
            "lbsum": sv.lbsum,
            "inv": sv.inv,
            "descent_set": sorted(sv.descent_set),
        },
        "tableau": tableau_to_json(t),
    }


def predicted_distribution(
    n: int, statistic: str, avoid: str | None
) -> dict[int, int] | None:
    """
    The generating-polynomial prediction for a distribution, or None when no
    closed recursion covers the requested combination.
    """
    if statistic == "lbsum" and avoid is None:
        return lbsum_polynomial(n).to_counts()
    if statistic == "lbsum" and avoid in ("132", "231"):
        return q_catalan(n).to_counts()
    if statistic == "inv" and avoid == "132":
        return q_catalan(n).to_counts()
    if avoid is None and statistic in ("des", "maxdes", "lrmax"):
        variable = {"des": "y", "maxdes": "p", "lrmax": "q"}[statistic]
        marginal = quad_polynomial(n).marginal(variable).to_counts()
        if statistic == "lrmax":
            return {n - e: c for e, c in marginal.items()}
        return marginal
    return None


def _write_csv(header: list[str], rows) -> None:
    """The header and rows as CSV on stdout, in one write."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _print_map(args: argparse.Namespace) -> int:
    p = parse_permutation(args.permutation)
    if p.n > MAP_MAX_N:
        raise ValueError(f"map supports n <= {MAP_MAX_N}, got n={p.n}")
    report = map_report(p)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    elif args.format == "csv":
        _write_csv(
            ["field", "value"],
            ([key, json.dumps(report[key], sort_keys=True)] for key in sorted(report)),
        )
    else:
        for key in (
            "permutation",
            "dyck_word",
            "shape",
            "left_borders",
            "right_borders",
        ):
            value = report[key]
            if isinstance(value, list):
                value = ",".join(map(str, value))
            print(f"{key}: {value}")
        stats = report["stats"]
        print(
            "stats: "
            + " ".join(f"{k}={stats[k]}" for k in ("des", "maj", "lrmax", "maxdes", "lbsum", "inv"))
        )
        print(f"descent_set: {','.join(map(str, stats['descent_set']))}")
        print(f"tableau: {json.dumps(report['tableau'], sort_keys=True)}")
    return 0


def _dist_rows(args: argparse.Namespace) -> tuple[list[tuple[str, int]], dict]:
    """(sorted rows of (key, count), metadata) for the dist subcommand."""
    meta: dict = {"n": args.n, "statistic": args.stat, "filter": args.avoid}
    if args.stat == "shape":
        for flag, given in (("--avoid", args.avoid is not None), ("--parity", args.parity)):
            if given:
                raise ValueError(f"{flag} does not apply to --stat shape")
        census = oracle.shape_census(args.n, workers=args.workers)
        if args.shape is not None:
            wanted = [ShapePartition.from_text(args.shape, n=args.n)]
        else:
            wanted = [ShapePartition(parts, args.n) for parts in sorted(census)]
        rows = [(s.to_text(), census.get(s.parts, 0)) for s in wanted]
        if args.check:
            predicted = [count_permutations_with_shape(s) for s in wanted]
            meta["check"] = {
                "source": "rectangle binomial product",
                "match": all(p == c for p, (_, c) in zip(predicted, rows)),
            }
            meta["predicted"] = {k: str(p) for p, (k, _) in zip(predicted, rows)}
        return rows, meta
    if args.shape is not None:
        raise ValueError(f"--shape applies only to --stat shape, not to --stat {args.stat}")
    if args.check:
        oracle.enumerate_sn(args.n)  # a bad n is named first, as the walk names it
        predicted = predicted_distribution(args.n, args.stat, args.avoid)
        if predicted is None:
            raise ValueError(
                f"no generating-polynomial prediction for statistic "
                f"{args.stat!r} with filter {args.avoid!r}"
            )
    dist = oracle.distribution(
        args.n, args.stat, avoid=args.avoid, workers=args.workers
    )
    rows = [(str(v), c) for v, c in sorted(dist.counts.items())]
    if args.parity:
        even, odd = dist.parity_split()
        meta["parity"] = {"even": str(even), "odd": str(odd), "delta": str(even - odd)}
    if args.check:
        meta["check"] = {
            "source": "generating polynomial",
            "match": predicted == dist.counts,
        }
        meta["predicted"] = {str(v): str(c) for v, c in sorted(predicted.items())}
    return rows, meta


def _print_dist(args: argparse.Namespace) -> int:
    rows, meta = _dist_rows(args)
    if args.format == "json":
        payload = dict(meta)
        payload["rows"] = [[key, str(count)] for key, count in rows]
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        _write_csv(["value", "count"], ([key, str(count)] for key, count in rows))
    else:
        width = max(5, max((len(key) for key, _ in rows), default=5))
        print(f"{'value'.ljust(width)}  count")
        for key, count in rows:
            print(f"{key.ljust(width)}  {count}")
        if "parity" in meta:
            p = meta["parity"]
            print(f"parity: even={p['even']} odd={p['odd']} delta={p['delta']}")
        if "check" in meta:
            verdict = "match" if meta["check"]["match"] else "MISMATCH"
            print(f"check against {meta['check']['source']}: {verdict}")
    if meta.get("check", {}).get("match") is False:
        return 1
    return 0


def report_to_json(results: list[verify.SuiteResult]) -> str:
    return json.dumps(
        {
            "passed": all(r.passed for r in results),
            "suites": [
                {
                    "name": r.name,
                    "max_n": r.max_n,
                    "passed": r.passed,
                    "checks": r.checks,
                    "failures": r.failures,
                    "seconds": round(r.seconds, 3),
                }
                for r in results
            ],
        },
        sort_keys=True,
    )


def _print_verify(args: argparse.Namespace) -> int:
    # A bare default string, because argparse checks it against the choices.
    selection = [args.selection] if isinstance(args.selection, str) else args.selection
    results = verify.run_suites(selection, args.max_n, args.workers, args.order)
    if args.format == "json":
        print(report_to_json(results))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name:<11} checks={r.checks:<9} {r.seconds:.2f}s")
            for message in r.failures:
                print(f"     first counterexample: {message}")
        print("result:", "ok" if all(r.passed for r in results) else "FAILED")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permshape",
        description="Permutation statistics through Dyck paths and shapes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_map = sub.add_parser("map", help="map one permutation to all its views")
    p_map.add_argument("permutation", help="one-line notation, e.g. 53148276")
    p_map.add_argument("--format", choices=FORMATS, default="plain")
    p_map.set_defaults(workers=1, max_n=0)

    p_dist = sub.add_parser("dist", help="exact distribution tables")
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument(
        "--stat",
        required=True,
        choices=sorted(oracle.STATISTICS) + ["shape"],
    )
    p_dist.add_argument("--avoid", choices=["132", "231"], default=None)
    p_dist.add_argument("--shape", default=None, help="restrict to one shape")
    p_dist.add_argument("--format", choices=FORMATS, default="plain")
    p_dist.add_argument("--check", action="store_true")
    p_dist.add_argument("--parity", action="store_true")
    p_dist.add_argument("--workers", type=int, default=1)
    p_dist.set_defaults(max_n=0)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument(
        "selection",
        nargs="*",
        default="all",
        choices=list(verify.SUITE_NAMES) + ["all"],
    )
    p_verify.add_argument("--max-n", type=int, default=7)
    p_verify.add_argument("--order", type=int, default=8)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--format", choices=("plain", "json"), default="plain")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        if args.max_n < 0:
            raise ValueError(f"--max-n must be at least 0, got {args.max_n}")
        run = {"map": _print_map, "dist": _print_dist}.get(args.subcommand, _print_verify)
        code = run(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: stdout to devnull, so exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
