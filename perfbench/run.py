"""
The permshape benchmark: one command, two workloads, every output checked.

    python3 perfbench/run.py --workload {verify,map} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the library is imported from
``src/``.  Every repetition runs in a fresh interpreter (``jobs.py``), because
the generating-function module keeps module-level caches and a command-line
user pays them cold in every process.  The worker count handed to the
library is ``min(2, os.cpu_count())``.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time (a
fresh interpreter until ``import permshape`` returns, median of several),
the wall time of the workload body, per-operation latency (p50 and p99) and
peak RSS.  With ``--trace 1`` it runs the body once untraced and once traced,
then the layer probe, and reports the per-layer metrics.  The names and units
of both sets are those of ``BENCHMARK.json``.

Human-readable lines and a provenance record come first; the last line of
standard output is the JSON result ``{correct, attempted, failed, metrics}``.
Failed correctness gates count into ``failed``; a crash or a missing source
tree exits non-zero without a result.  Traced runs write their spans to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

SETUP_SAMPLES = 11
MIN_REPS = 3
DEADLINE_S = 170.0
MAX_WORKERS = 2
IMPORT_PROBE = "import permshape, time; print(time.monotonic()); print(permshape.__file__)"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_count() -> int:
    """The worker ceiling: never more worker processes than CPUs."""
    return max(1, min(MAX_WORKERS, os.cpu_count() or 1))


class Runner:
    """Spawns fresh interpreters against ``src/`` under one overall deadline."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.deadline = time.monotonic() + DEADLINE_S
        if not (self.src / "permshape" / "__init__.py").is_file():
            raise BenchError(f"no permshape sources under {self.src}")
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("PYTHONSTARTUP", None)

    def python(self, *args: str) -> str:
        """Run ``python3 args`` to completion and return its standard output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting the next interpreter")
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(args)[:120]}") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
        return out

    def setup_seconds(self) -> float:
        """Interpreter start until ``import permshape`` returns, in seconds."""
        started = time.monotonic()
        stamp, module = self.python("-c", IMPORT_PROBE).split("\n")[:2]
        if not Path(module).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"permshape imported from {module}, not from {self.src}")
        return float(stamp) - started

    def job(self, job: str, cfg: dict, *, seed: int, seconds: float, trace: bool,
            chunks: int | None = None) -> dict:
        task = {"job": job, "cfg": cfg, "workers": worker_count(), "seed": seed,
                "seconds": seconds, "trace": trace, "chunks": chunks}
        out = self.python(str(BENCH / "jobs.py"), json.dumps(task))
        result = json.loads(out.strip().splitlines()[-1])
        result["label"] = job + (".traced" if trace else "")
        return result


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every operation of every child."""
    attempted = failed = 0
    notes = []
    for r in results:
        for o in r["ops"]:
            attempted += o.get("attempted", 1)
            failed += o.get("failed", 0 if o["ok"] else 1)
            if not o["ok"]:
                notes.append(f"{r['label']}:{o['name']}: {o['note']}")
    return attempted, failed, notes


def measure(runner: Runner, workload: str, sizes: dict, seed: int,
            seconds: float) -> tuple[dict, list[dict], dict]:
    """
    Untraced run: the end-to-end metrics.  Set-up is sampled before every
    repetition and after the last, so that one run's median spans the whole
    run.  The verify workload repeats its body, each time in a fresh
    interpreter, until ``seconds`` have passed and at least ``MIN_REPS``
    times; map serves chunks of requests in
    one interpreter for ``seconds``.  Every timing is a mean over the
    repetitions (chunks): the host switches between a fast and a slower state
    for seconds to minutes at a time, and a median or a low percentile over
    repetitions jumps with the share of slow time where the mean moves in
    proportion.  Latency is per operation: p50 and p99 (nearest rank) of the
    operations of each repetition, mean over repetitions.  On map an
    operation is a request and a chunk of 1000 leaves ten beyond p99; on the
    verify workload it is a suite, so p99 is the slowest suite.
    """
    runner.setup_seconds()  # writes the bytecode caches; not a sample
    setup: list[float] = []
    reps: list[dict] = []
    started = time.monotonic()
    while not reps or (workload != "map" and (
            len(reps) < MIN_REPS or time.monotonic() - started < seconds)):
        setup.append(runner.setup_seconds())
        reps.append(runner.job(workload, sizes[workload], seed=seed,
                               seconds=seconds, trace=False))
    setup += [runner.setup_seconds() for _ in range(max(1, SETUP_SAMPLES - len(setup)))]
    if workload == "map":
        chunk = sizes["map"]["chunk"]
        served = reps[0]["extra"]["latencies_us"]
        windows = [served[i:i + chunk] for i in range(0, len(served), chunk)]
        walls = reps[0]["extra"]["chunk_walls"]
    else:
        walls = [r["wall"] for r in reps]
        windows = [[o["seconds"] * 1e6 for o in r["ops"]] for r in reps]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "latency_p50_us": (statistics.fmean(map(statistics.median, windows)), "us"),
        "latency_p99_us": (statistics.fmean(map(p99, windows)), "us"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    samples = {"setup": len(setup), "repetitions": len(reps), "walls": len(walls),
               "latencies": sum(map(len, windows)), "latency_windows": len(windows)}
    raw = {"setup_s": setup, "walls_s": walls,
           "window_p50_us": [statistics.median(w) for w in windows],
           "window_p99_us": [p99(w) for w in windows],
           "ops_us": windows if workload != "map" else []}
    return metrics, reps, {"samples": samples, "raw": raw}


def span_seconds(result: dict) -> dict[str, float]:
    return {name: end - start for _, _, name, start, end in result["spans"]}


def trace(runner: Runner, workload: str, sizes: dict, seed: int,
          seconds: float) -> tuple[dict, list[dict], dict]:
    """Traced run: the per-layer metrics."""
    chunks = sizes["map"]["traced_chunks"] if workload == "map" else None
    common = {"seed": seed, "seconds": seconds, "chunks": chunks}
    plain = runner.job(workload, sizes[workload], trace=False, **common)
    traced = runner.job(workload, sizes[workload], trace=True, **common)
    children = [plain, traced]
    by_body = {workload: traced}
    for body in ("verify", "genfun"):
        if body not in by_body:
            by_body[body] = runner.job(body, sizes[body], trace=True, **common)
            children.append(by_body[body])
    probe = runner.job("probe", sizes["probe"], trace=True, **common)
    children.append(probe)

    metrics = dict((k, tuple(v)) for k, v in probe["extra"]["metrics"].items())
    verify_spans = span_seconds(by_body["verify"])
    for o in by_body["verify"]["ops"]:
        metrics[f"verify.{o['name']}_s"] = (verify_spans[f"verify.{o['name']}"], "s")
        metrics[f"verify.{o['name']}_checks"] = (o["checks"] or 0, "count")
    gen = by_body["genfun"]
    gen_spans = span_seconds(gen)
    for name in ("lbsum_polynomial", "quad_polynomial", "q_catalan", "series"):
        metrics[f"genfun.{name}_s"] = (gen_spans[f"genfun.{name}"], "s")
    products = gen["extra"]["products"]
    product_s = sum(gen_spans[f"genfun.{n}"]
                    for n in ("lbsum_polynomial", "quad_polynomial", "q_catalan"))
    metrics["genfun.products"] = (products, "count")
    metrics["genfun.coeff_terms"] = (gen["extra"]["coeff_terms"], "count")
    metrics["genfun.ms_per_product"] = (product_s / products * 1e3, "ms")
    metrics["trace.overhead_pct"] = ((traced["wall"] / plain["wall"] - 1) * 100, "%")
    return metrics, children, {"spans": {c["label"]: c["spans"] for c in children}}


def host_loop_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: a gauge of how fast the host
    runs right now, recorded beside the results (never applied to them)."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1e3


def provenance(workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = "unknown"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace_on),
        "cpu_count": os.cpu_count(),
        "workers": worker_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "loadavg_before": list(os.getloadavg()),
        "host_loop_ms_before": host_loop_ms(),
    }


def catalog(trace_on: bool) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    key = "per_layer" if trace_on else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def run(workload: str, seed: int, seconds: float, trace_on: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    sizes = sizes or spec.profile("full")
    prov = provenance(workload, seed, seconds, trace_on)
    runner = Runner(ROOT)
    if trace_on:
        metrics, children, detail = trace(runner, workload, sizes, seed, seconds)
    else:
        metrics, children, detail = measure(runner, workload, sizes, seed, seconds)
    attempted, failed, notes = tally(children)
    if trace_on:
        metrics["error_rate"] = (failed / attempted, "ratio")
    prov["loadavg_after"] = list(os.getloadavg())
    prov["host_loop_ms_after"] = host_loop_ms()
    promised = catalog(trace_on)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != promised:
        missing = sorted(set(promised) - set(emitted))
        extra = sorted(set(emitted) - set(promised))
        wrong = sorted(k for k in set(promised) & set(emitted) if promised[k] != emitted[k])
        raise BenchError(f"metric catalog mismatch: missing={missing} extra={extra} unit={wrong}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(provenance=prov, error_rate=failed / attempted, failures=notes[:20])
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"provenance": detail["provenance"],
                                    "spans": detail.pop("spans")}))
        detail["trace_file"] = str(path.relative_to(ROOT))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"workers={worker_count()} cpu_count={os.cpu_count()}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    if "error_rate" not in result["metrics"]:
        print(f"  {'error_rate':<42} {detail['error_rate']:>14.6g} ratio")
        print("  samples: " + " ".join(f"{k}={v}" for k, v in detail["samples"].items()))
    print(f"  {result['failed']}/{result['attempted']} operations failed")
    for note in detail["failures"]:
        print(f"  FAILED {note}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
