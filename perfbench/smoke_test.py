"""Smoke test of the benchmark itself: every workload, both modes, tiny inputs.

Usage (from the root of a source checkout):

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --smoke on each workload with --trace 0 and --trace 1
and fails unless the run is correct and emits every metric that
BENCHMARK.json names for that mode. Takes under a minute.
"""

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed: {proc.stderr[-400:]}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(wanted[trace]) - set(emitted))
            extra = sorted(set(emitted) - set(wanted[trace]))
            wrong_unit = sorted(k for k in wanted[trace] if k in emitted and emitted[k] != wanted[trace][k])
            for what, names in (("missing", missing), ("not in BENCHMARK.json", extra), ("wrong unit", wrong_unit)):
                if names:
                    problems.append(f"{label}: {what}: {', '.join(names)}")
            print(f"{label}: {len(emitted)} metrics, {result['attempted']} checks", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
