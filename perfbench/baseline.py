"""Run every workload over several seeds and record the results as one JSON file.

Usage (from the root of a source checkout):

    python3 perfbench/baseline.py --out perfbench/baseline.json [--seeds 21-30]

For each workload in BENCHMARK.json it makes one untraced run per seed and
one traced run at the first seed, each for the run_seconds it fixes. It stores every run's result and record lines, and for each
end-to-end metric the median, the quartiles, and the spread: the distance
between the quartiles as a share of the median. Use the same script and
seeds for the before and after files of a performance change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="21-30", help="a range like 21-30 or a list like 1,5,9")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            record, result = one_run(name, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "wall_s": record["wall_s"], "setup_s": record["setup_s"]})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['metrics'].get('wall_s', {}).get('value')}", file=sys.stderr, flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs
                      if metric["name"] in r["result"]["metrics"]]
            if len(values) >= 2:
                q1, median, q3 = statistics.quantiles(values, n=4)
                summary[metric["name"]] = {
                    "median": median, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / median, "bound": metric["bound"],
                    "unit": metric["unit"], "n": len(values),
                }
        record, result = one_run(name, seeds[0], seconds, 1)
        report["machine"] = record["machine"]
        report["workloads"][name] = {
            "end_to_end": summary,
            "all_correct": all(r["result"]["correct"] for r in runs) and result["correct"],
            "runs": runs,
            "traced": {"seed": seeds[0], "result": result, "checks": record["checks"]},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
