#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark (about 30 s).

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload at n = 50 for a fraction of a second, untraced and
traced, and asserts that each emits exactly the metrics BENCHMARK.json
names, each with its unit and a finite value, and that the checks pass.
n = 50 keeps delta_plus within the 10% reference gate of run.py.
"""

from __future__ import annotations

import json
import math
import sys

import run

TINY_N = 50


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            label = f"{workload['name']} trace={int(trace)}"
            result, _ = run.run(workload["name"], seed=1, seconds=0.3, trace=trace,
                                n=TINY_N, setup_reps=1)
            json.dumps(result)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected[trace]:
                problems.append(f"{label}: emitted {sorted(emitted.items())}, "
                                f"expected {sorted(expected[trace].items())}")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} = {m['value']}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"{label}: {len(emitted)} metrics", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
