"""
The part of the benchmark that runs inside a fresh interpreter.

``python3 perfbench/jobs.py '<task json>'`` runs one task and prints one
JSON object as the last line of its standard output.  A task is either a
workload body (verify, map, and genfun, which only the traced run uses), run
traced or untraced, or the layer probe, which times each module's public functions on fixed inputs.

Only the body is timed, as a whole and per operation (a suite, a
polynomial, a request).  Correctness gates run after it, outside the timed
region, and mark each operation ok or failed; the parent process turns those
marks into ``attempted``/``failed``.  With tracing on, every public call the
benchmark makes is wrapped in a span kept in memory and returned at the end.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import sys
import time
from math import comb, factorial

from permshape import cli
from permshape.bruhat import upper_covers, verify_poset_equivalence
from permshape.genfun import (
    lbsum_polynomial,
    q_catalan,
    quad_polynomial,
    verify_series_identities,
)
from permshape.oracle import all_shapes, distribution, enumerate_sn, permutation_range
from permshape.permutations import (
    Permutation,
    decreasing_tree_word,
    inversion_count,
    left_borders,
    parse_permutation,
    stat_vector,
)
from permshape.shapes import (
    borders_from_shape,
    count_permutations_with_shape,
    dyck_word,
    shape_parts,
)
from permshape.tableaux import decode_tableau, encode_tableau, tableau_from_json

perf = time.perf_counter

# The running example of the paper, served by the map workload as-is.
RUNNING_EXAMPLE = "53148276"


class Tracer:
    """Spans ``[id, parent, name, start, end]`` recorded around public calls."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [sid, parent, name, perf(), 0.0]
        self.spans.append(span)
        self._open.append(sid)
        try:
            return fn(*args)
        finally:
            span[4] = perf()
            self._open.pop()


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``permshape <argv>`` in process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def digest(items) -> str:
    """A short sha256 of a canonical JSON rendering of sorted coefficients."""
    text = json.dumps(sorted(items), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op(name: str, ok: bool, note: str = "") -> dict:
    return {"name": name, "ok": ok, "note": note}


# ---------------------------------------------------------------------------
# workload bodies: each returns (body seconds, operations, extra)
# ---------------------------------------------------------------------------


def body_verify(cfg: dict, tracer: Tracer, workers: int, **_) -> tuple:
    """`permshape verify all`, one CLI call per suite so each is timed alone."""
    outputs = []
    started = perf()
    for suite in cfg["checks"]:
        max_n = str(cfg.get("max_n_of", {}).get(suite, cfg["max_n"]))
        argv = ["verify", suite, "--max-n", max_n, "--workers", str(workers),
                "--format", "json"]
        t0 = perf()
        rc, out = tracer.call(f"verify.{suite}", run_cli, argv)
        outputs.append((suite, rc, out, perf() - t0))
    wall = perf() - started
    ops = []
    for suite, rc, out, seconds in outputs:
        report = json.loads(out) if rc in (0, 1) else {}
        checks = report.get("suites", [{}])[0].get("checks") if report else None
        ok = rc == 0 and report.get("passed") is True and checks == cfg["checks"][suite]
        note = "" if ok else f"rc={rc} checks={checks} expected={cfg['checks'][suite]}"
        ops.append(op(suite, ok, note) | {"checks": checks, "seconds": seconds})
    return wall, ops, {}


def body_genfun(cfg: dict, tracer: Tracer, **_) -> tuple:
    """The three generating polynomials and the series identities, cold."""
    calls = [
        ("lbsum", "genfun.lbsum_polynomial", lbsum_polynomial, cfg["lbsum"]),
        ("quad", "genfun.quad_polynomial", quad_polynomial, cfg["quad"]),
        ("qcat", "genfun.q_catalan", q_catalan, cfg["qcat"]),
        ("series", "genfun.series", verify_series_identities, cfg["series"]),
    ]
    results, seconds = {}, {}
    started = perf()
    for key, span, fn, arg in calls:
        t0 = perf()
        results[key] = tracer.call(span, fn, arg)
        seconds[key] = perf() - t0
    wall = perf() - started

    f, g, q = results["lbsum"], results["quad"], results["qcat"]
    n_f, n_g, n_q = cfg["lbsum"], cfg["quad"], cfg["qcat"]
    f_counts = f.to_counts()
    digests = {
        "lbsum": digest(f_counts.items()),
        "quad": digest((list(k), c) for k, c in g.terms()),
        "qcat": digest(q.to_counts().items()),
    }
    checks = {
        "lbsum": sum(f_counts.values()) == factorial(n_f)
        and max(f_counts) == comb(n_f, 2),
        "quad": g.marginal("x").to_counts() == lbsum_polynomial(n_g).to_counts(),
        "qcat": sum(q.to_counts().values()) == catalan(n_q),
        "series": results["series"].ok,
    }
    ops = []
    for key in results:
        ok = checks[key] and digests.get(key, "") == cfg["digests"].get(key, "")
        note = "" if ok else f"check={checks[key]} digest={digests.get(key, '')}"
        ops.append(op(key, ok, note) | {"seconds": seconds[key]})
    extra = {
        # Polynomial products the recursions perform from an empty cache:
        # F_m and q-Catalan C_m take m each, G_m takes m - 1 (G_0, G_1 given).
        "products": n_f * (n_f + 1) // 2 + n_g * (n_g - 1) // 2 + n_q * (n_q + 1) // 2,
        "coeff_terms": len(f_counts) + len(g.terms()) + len(q.to_counts()),
    }
    return wall, ops, extra


def make_request(rng: random.Random, ns: list[int]) -> str:
    """One `permshape map` argument: mostly random, sometimes structured."""
    n = rng.choice(ns)
    kind = rng.random()
    if kind < 0.02:
        entries = list(range(1, n + 1))
    elif kind < 0.04:
        entries = list(range(n, 0, -1))
    elif kind < 0.05:
        return RUNNING_EXAMPLE
    else:
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
    if n <= 9 and rng.random() < 0.5:
        return "".join(map(str, entries))
    return rng.choice([",", " ", ", "]).join(map(str, entries))


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def serve(tracer: Tracer, text: str) -> str:
    """One map request: parse, build the report, render it as JSON."""
    p = tracer.call("permutations.parse_permutation", parse_permutation, text)
    report = tracer.call("cli.map_report", cli.map_report, p)
    return tracer.call("cli.json", render, report)


def naive_left_borders(entries: list[int]) -> list[int]:
    return [
        max((j + 1 for j in range(i) if entries[j] > entries[i]), default=0)
        for i in range(len(entries))
    ]


def check_map_output(text: str, out: str) -> bool:
    """Round trip through the tableau, and shape == sorted left borders."""
    tokens = re.split(r"[,\s]+", text) if re.search(r"[,\s]", text) else list(text)
    expected = [int(t) for t in tokens]
    data = json.loads(out)
    borders = data["left_borders"]
    decoded = decode_tableau(tableau_from_json(data["tableau"]))
    return (
        data["permutation"] == expected
        and list(decoded.entries) == expected
        and borders == naive_left_borders(expected)
        and data["shape"] == ",".join(map(str, sorted(borders[1:], reverse=True)))
    )


def body_map(cfg: dict, tracer: Tracer, seed: int, seconds: float,
             chunks: int | None = None, **_) -> tuple:
    """
    Closed loop, one client: serve seeded requests back to back in chunks of
    ``cfg["chunk"]`` until ``seconds`` have passed on the clock, gates
    included (or ``chunks`` chunks).  Every request is fresh; the gates check
    each output after its chunk, outside the timed region.
    """
    begun = time.monotonic()
    rng = random.Random(seed)
    latencies_ns: list[int] = []
    chunk_walls: list[float] = []
    ops_ok = ops_failed = 0
    first_failure = ""
    clock = time.perf_counter_ns
    while True:
        texts = [make_request(rng, cfg["ns"]) for _ in range(cfg["chunk"])]
        outputs = []
        started = perf()
        for text in texts:
            t0 = clock()
            outputs.append(tracer.call("request", serve, tracer, text))
            latencies_ns.append(clock() - t0)
        chunk_walls.append(perf() - started)
        for text, out in zip(texts, outputs):
            try:
                ok, why = check_map_output(text, out), "wrong output"
            except (ValueError, KeyError, TypeError) as exc:
                ok, why = False, repr(exc)
            if ok:
                ops_ok += 1
            else:
                ops_failed += 1
                first_failure = first_failure or f"{text}: {why}"
        if chunks is not None and len(chunk_walls) >= chunks:
            break
        if chunks is None and time.monotonic() - begun >= seconds:
            break
    wall = sum(chunk_walls)
    ops = [op("requests", ops_failed == 0, first_failure)
           | {"attempted": ops_ok + ops_failed, "failed": ops_failed}]
    extra = {"latencies_us": [ns / 1000.0 for ns in latencies_ns],
             "chunk_walls": chunk_walls}
    return wall, ops, extra


BODIES = {
    "verify": body_verify,
    "genfun": body_genfun,
    "map": body_map,
}


# ---------------------------------------------------------------------------
# layer probe: µs per call of each module's public functions on fixed inputs
# ---------------------------------------------------------------------------


class Probe:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.ops: list[dict] = []

    def per_item(self, name: str, fn, items) -> list:
        """Time fn over every item in one span; record µs per item."""
        t0 = perf()
        out = self.tracer.call(name, lambda: [fn(x) for x in items])
        self.metrics[name + "_us"] = ((perf() - t0) / len(items) * 1e6, "us")
        return out

    def check(self, name: str, ok: bool, note: str = "") -> None:
        self.ops.append(op(name, bool(ok), note))


def run_probe(cfg: dict, tracer: Tracer, workers: int, **_) -> tuple:
    pr = Probe(tracer)
    m = pr.metrics

    n = cfg["words_n"]
    words = list(itertools.permutations(range(1, n + 1)))
    perms = [Permutation(w) for w in words]
    lb = pr.per_item("permutations.left_borders", left_borders, words)
    lbsum_counts: dict[int, int] = {}
    for b in lb:
        lbsum_counts[sum(b)] = lbsum_counts.get(sum(b), 0) + 1
    pr.check("left_borders", lbsum_counts == lbsum_polynomial(n).to_counts())
    inv = pr.per_item("permutations.inversion_count", inversion_count, words)
    pr.check("inversion_count", sum(inv) == factorial(n) * comb(n, 2) // 2)
    sv = pr.per_item("permutations.stat_vector", stat_vector, words)
    pr.check("stat_vector", [s.inv for s in sv] == inv)
    trees = pr.per_item("permutations.decreasing_tree_word", decreasing_tree_word, words)
    pr.check("decreasing_tree_word",
             all(t.inorder_values() == w for t, w in zip(trees, words)))
    dyck = pr.per_item("shapes.dyck_word", dyck_word, words)
    pr.check("dyck_word", len(set(dyck)) == catalan(n))
    parts = pr.per_item("shapes.shape_parts", shape_parts, words)
    pr.check("shape_parts", len(set(parts)) == catalan(n))
    tableaux = pr.per_item("tableaux.encode_tableau", encode_tableau, perms)
    back = pr.per_item("tableaux.decode_tableau", decode_tableau, tableaux)
    pr.check("tableau_round_trip", back == perms)

    shapes = list(all_shapes(cfg["shapes_n"]))
    borders = pr.per_item("shapes.borders_from_shape", borders_from_shape, shapes)
    pr.check("borders_from_shape", all(
        tuple(sorted(b[1:], reverse=True)) == s.parts for b, s in zip(borders, shapes)))
    counts = pr.per_item("shapes.count_permutations_with_shape",
                         count_permutations_with_shape, shapes)
    pr.check("count_permutations_with_shape",
             sum(counts) == factorial(cfg["shapes_n"]) and len(shapes) == catalan(cfg["shapes_n"]))

    rng = random.Random(0)
    big_n = cfg["big_n"]
    big_words = []
    for _ in range(cfg["big_count"]):
        w = list(range(1, big_n + 1))
        rng.shuffle(w)
        big_words.append(tuple(w))
    big_perms = [Permutation(w) for w in big_words]
    big_dyck = pr.per_item("shapes.dyck_word_n64", dyck_word, big_words)
    pr.check("dyck_word_n64", all(d.count("u") == big_n == d.count("r") for d in big_dyck))
    big_tab = pr.per_item("tableaux.encode_tableau_n64", encode_tableau, big_perms)
    big_back = pr.per_item("tableaux.decode_tableau_n64", decode_tableau, big_tab)
    pr.check("tableau_round_trip_n64", big_back == big_perms)

    t0 = perf()
    report = tracer.call("bruhat.verify_poset_equivalence",
                         verify_poset_equivalence, cfg["poset_n"])
    m["bruhat.verify_poset_equivalence_s"] = (perf() - t0, "s")
    c = catalan(cfg["poset_n"])
    pr.check("verify_poset_equivalence",
             report.equivalence_holds and report.pairs_checked == c * (c - 1))
    small = list(itertools.permutations(range(1, cfg["covers_n"] + 1)))
    covers = pr.per_item("bruhat.upper_covers", upper_covers, small)
    pr.check("upper_covers", all(
        inversion_count(v) == inversion_count(w) + 1 for w, cs in zip(small, covers) for v in cs))

    en = cfg["enum_n"]
    t0 = perf()
    seen = tracer.call("oracle.enumerate_sn", lambda: sum(1 for _ in enumerate_sn(en)))
    m["oracle.enumerate_sn_us"] = ((perf() - t0) / factorial(en) * 1e6, "us")
    t0 = perf()
    ranged = tracer.call("oracle.permutation_range",
                         lambda: sum(1 for _ in permutation_range(en, 0, factorial(en))))
    m["oracle.permutation_range_us"] = ((perf() - t0) / factorial(en) * 1e6, "us")
    pr.check("enumeration_counts", seen == ranged == factorial(en))

    t0 = perf()
    pool_dist = tracer.call("oracle.distribution.pool", distribution,
                            cfg["pool_n"], "lbsum", None, workers)
    m["oracle.pool_start_ms"] = ((perf() - t0) * 1e3, "ms")
    pr.check("pool_distribution", pool_dist.total == factorial(cfg["pool_n"]))
    fn_ = cfg["fanout_n"]
    t0 = perf()
    serial = tracer.call("oracle.distribution.serial", distribution, fn_, "lbsum", None, 1)
    t_serial = perf() - t0
    cpu0 = cpu_seconds()
    t0 = perf()
    fanned = tracer.call("oracle.distribution.fanout", distribution, fn_, "lbsum", None, workers)
    t_fanned = perf() - t0
    m["oracle.cpu_s"] = (cpu_seconds() - cpu0, "s")
    m["oracle.fanout_speedup"] = (t_serial / t_fanned, "x")
    pr.check("fanout_merge", serial.counts == fanned.counts
             and serial.total == factorial(fn_))

    rng = random.Random(0)
    texts = [make_request(rng, [8, 16, 32, 64]) for _ in range(cfg["requests"])]
    parsed = pr.per_item("permutations.parse_permutation", parse_permutation, texts)
    reports = pr.per_item("cli.map_report", cli.map_report, parsed)
    rendered = pr.per_item("cli.json", render, reports)
    pr.check("map_round_trip", all(check_map_output(t, o) for t, o in zip(texts, rendered)))
    return 0.0, pr.ops, {"metrics": pr.metrics}


# ---------------------------------------------------------------------------


def main() -> None:
    task = json.loads(sys.argv[1])
    workers = task["workers"]
    if not 1 <= workers <= (os.cpu_count() or 1):
        raise SystemExit(f"worker ceiling: {workers} workers on {os.cpu_count()} CPUs")
    tracer = Tracer(task["trace"])
    fn = run_probe if task["job"] == "probe" else BODIES[task["job"]]
    wall, ops, extra = fn(
        task["cfg"],
        tracer,
        workers=workers,
        seed=task["seed"],
        seconds=task["seconds"],
        chunks=task.get("chunks"),
    )
    result = {
        "wall": wall,
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops,
        "extra": extra,
        "spans": tracer.spans,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
