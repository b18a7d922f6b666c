#!/usr/bin/env python3
"""Smoke-test the result line of every benchmark workload.

    python3 scripts/bench_smoke.py

Run from anywhere in a torusconf checkout. For each workload declared in
``BENCHMARK.json`` this runs ``bench/run.py --seconds 2`` once with
``--trace 0`` and once with ``--trace 1``. A run passes when it exits 0 and
the last line of its stdout is a strict JSON object (no bare ``NaN`` or
``Infinity``) with ``"correct": true`` whose metrics each have a finite
number as their value. A ``null`` value fails in both modes: the benchmark
prints it for a span of ``bench/layers.py`` that the package no longer
defines, so its metric measures nothing. Exits 1 if any run fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str):
    raise ValueError(f"bare {name} is not strict JSON")


def result_line_problems(line: str) -> list[str]:
    """What is wrong with one benchmark result line; empty if nothing."""
    try:
        result = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON ({exc}): {line[:200]!r}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {line[:200]!r}"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f'"correct" is {result.get("correct")!r}, not true')
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ['no "metrics" object']
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or "value" not in metric:
            problems.append(f"{name} is not a value-and-unit object")
            continue
        value = metric["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{name} = {value!r} is not a finite number")
    return problems


def smoke(workload: str, trace: int) -> list[str]:
    """Run one short benchmark and return its problems."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.splitlines()
    if not lines:
        return ["no stdout"]
    return result_line_problems(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = smoke(workload, trace)
            print(f"{'FAIL' if problems else 'ok'}  {workload} --trace {trace}")
            for problem in problems:
                print(f"      {problem}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
