#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny input size.

Runs every workload of BENCHMARK.json once untraced and once traced with
`--size tiny`, and checks that each result names exactly the metrics
BENCHMARK.json lists, that its failed_ratio is 0 and its outputs correct,
and that the exact quantizer's object-dtype path runs on requant-exact only.
Takes about half a minute.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, names: list[str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(names):
        errors.append(f"metric names differ: {sorted(set(names) ^ set(result['metrics']))}")
    if record["failed_ratio"] != 0 or not result["correct"] or result["attempted"] < 1:
        errors.append(f"failed_ratio {record['failed_ratio']}, problems {record['problems']}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            errors.append(f"{name} is not a number: {metric['value']!r}")
    if trace:
        object_calls = result["metrics"]["quantizer.object_calls"]["value"]
        if (object_calls > 0) != (workload == "requant-exact"):
            errors.append(f"quantizer.object_calls is {object_calls}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, names[trace])
            failed = failed or bool(errors)
            print(f"{'FAIL' if errors else 'ok  '}  {workload} trace={trace}", flush=True)
            for error in errors:
                print(f"      {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
