"""
Repeat the benchmark over several seeds and summarise it as one trajectory
point.

    python3 perfbench/collect.py --seeds 10 --out perfbench/results/NAME.json \
        [--traced] [--against perfbench/results/OLD.json]

For each workload it runs ``run.py`` once per seed (seeds 1..N, untraced) and
reports, per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  ``--traced`` adds one traced run per workload for
the per-layer metrics.  ``--against`` compares the medians with an earlier
file: a metric is flagged when it got worse by more than its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def summarise(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    out: dict = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(workload, seed, bench["run_seconds"], 0)
                for seed in range(1, args.seeds + 1)]
        entry: dict = {
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "provenance": [d["provenance"] for _, d in runs],
            "end_to_end": {},
        }
        print(f"{workload}: {entry['failed']}/{entry['attempted']} operations failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            s = entry["end_to_end"][name] = summarise(values, bound)
            s["unit"] = runs[0][0]["metrics"][name]["unit"]
            flag = "" if s["spread"] < bound / 3 else "  spread >= bound/3"
            line = (f"  {name:<16} median {s['median']:>12.6g} {s['unit']:<3} "
                    f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} "
                    f"spread {s['spread']:.4f} bound {bound}{flag}")
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                change = s["median"] / before - 1
                worse = change if better[name] == "lower" else -change
                line += f"  vs earlier {change:+.2%}{'  WORSE' if worse > bound else ''}"
            print(line)
        if args.traced:
            result, detail = one_run(workload, 1, bench["run_seconds"], 1)
            entry["per_layer"] = result["metrics"]
            entry["traced_failed"] = result["failed"]
            entry["traced_provenance"] = detail["provenance"]
        out["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
