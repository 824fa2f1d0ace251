"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py [--size tiny|full] [--seed N]

For each workload this makes one untraced run and two traced runs with
the same seed, and fails unless every run is correct, every metric that
BENCHMARK.json names is present with its unit, and every count metric
of the two traced runs is identical.  Exit status 0 means all passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "bits", "lines")


def run(workload: str, seed: int, trace: int, size: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for label, trace in (("untraced", 0), ("traced", 1), ("traced again", 1)):
            result = results[label] = run(workload, args.seed, trace, args.size)
            group = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} {label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} {label}: {result['failed']} of"
                                f" {result['attempted']} operations failed")
            for metric in group:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} {label}: metric {metric['name']} is {got}")
        first, second = results["traced"]["metrics"], results["traced again"]["metrics"]
        for metric in spec["per_layer"]:
            name = metric["name"]
            if metric["unit"] in COUNT_UNITS and first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: count {name} went from"
                                f" {first[name]['value']} to {second[name]['value']}")
        print(f"{workload}: checked", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
