"""
Self-test of the benchmark harness at tiny sizes; runs in a few seconds.

    python3 perfbench/selftest.py

It checks that
1. every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit and a numeric value, and passes
   its correctness gates;
2. a deliberately wrong expected count is reported as a failed operation
   (``failed`` > 0, ``correct`` false, a non-zero error rate), not as a crash;
3. a tree without the library's sources is refused before anything runs.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import sys

import run
import spec


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for trace_on in (False, True):
        promised = {m["name"]: m["unit"]
                    for m in bench["per_layer" if trace_on else "end_to_end"]}
        for workload in spec.WORKLOADS:
            label = f"{workload} trace={int(trace_on)}"
            try:
                result, _ = run.run(workload, 1, 0.001, trace_on, spec.profile("tiny"))
            except run.BenchError as exc:
                problems.append(f"{label}: {exc}")
                continue
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != promised:
                problems.append(f"{label}: emitted {sorted(emitted.items())}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: gates failed at tiny sizes")
            print(f"ok   {label}: {len(emitted)} metrics, {result['attempted']} operations")

    sizes = spec.profile("tiny")
    sizes["verify"]["checks"]["stats"] += 1
    try:
        result, detail = run.run("verify", 1, 0.001, False, sizes)
    except run.BenchError as exc:
        problems.append(f"wrong expected count crashed the harness: {exc}")
    else:
        # The stats suite fails once in every repetition, and nothing else does.
        reps = detail["samples"]["repetitions"]
        if result["correct"] or result["failed"] != reps or not detail["error_rate"] > 0:
            problems.append(f"wrong expected count not reported: {result}")
        else:
            print(f"ok   wrong expected count: failed={result['failed']} "
                  f"error_rate={detail['error_rate']:.4f}")

    try:
        run.Runner(run.BENCH)
        problems.append("a tree without src/permshape was accepted")
    except run.BenchError:
        print("ok   a tree without src/permshape is refused")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
