"""radsgd benchmark: repeated CLI commands on seeded configs, with output checks.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in a fresh interpreter (perfbench/child.py), one after the
other, for S seconds. With --trace 0 the last stdout line reports the
end-to-end metrics as medians over the commands; with --trace 1 it reports
the per-layer metrics of traced commands, which alternate with untraced ones
so that the tracing overhead is measured too. The line before it records the
machine, the thread setting, every sample and the outcome of every check.
BLAS and OpenMP threads are pinned to 1. See perfbench/NOTES.md.

End-to-end times are given at reference speed: each command's measured time
is scaled by CALIBRATION_REF_S over the time of a fixed calibration kernel
that the same process runs around the call. On a shared virtual machine the
CPU speed can drift by 10-40 % over minutes; the kernel drifts with it, so
the scaled times stay comparable between runs. The raw times are on the
record line.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
from tracer import SIMULATED_COUNTS
from workloads import GOLDEN_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s; stop starting commands well before that.
RUN_BUDGET_S = 150.0
MIN_SAMPLES = 3
# The calibration kernel's typical time on the reference machine (it ranged
# over 0.021-0.031 s there). Only a constant scale: comparisons between runs
# do not depend on its value.
CALIBRATION_REF_S = 0.025


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Session:
    """The commands of one benchmark run, in a scratch directory of their own."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def check(self, results):
        self.checks.extend(results)

    def invoke(self, command: str, config: str, trace: bool, datasets: bool):
        """Run one radsgd command in a fresh interpreter; None if it failed."""
        self.count += 1
        base = os.path.join(self.workdir, f"cmd{self.count:03d}")
        os.makedirs(base)
        out_dir = os.path.join(base, "out")
        spec = {
            "src": SRC,
            "config": config,
            "argv": [command, "--config", config, "--out", out_dir],
            "datasets": datasets,
            "trace": trace,
            "spans": os.path.join(base, "spans.json"),
            "stdout": os.path.join(base, "stdout.txt"),
            "result": os.path.join(base, "result.json"),
        }
        spec_path = os.path.join(base, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(os.path.join(base, "stderr.txt"), "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path], cwd=base, env=self.env,
                stdin=subprocess.DEVNULL, stdout=err, stderr=err, start_new_session=True,
            )
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        name = f"{command} command #{self.count}{' traced' if trace else ''}"
        result = None
        if proc.returncode == 0 and os.path.exists(spec["result"]):
            with open(spec["result"], encoding="utf-8") as handle:
                result = json.load(handle)
        if result is None or result["exit_code"] != 0:
            with open(os.path.join(base, "stderr.txt"), encoding="utf-8") as handle:
                tail = handle.read()[-400:].strip().replace("\n", " | ")
            code = proc.returncode if result is None else result["exit_code"]
            self.check([(name, False, f"exit {code}: {tail}")])
            return None
        inside = os.path.commonpath([os.path.abspath(result["module"]), SRC]) == SRC
        self.check([(name, inside, f"radsgd from {os.path.relpath(result['module'], ROOT)}")])
        if not inside:
            return None
        result["out_dir"] = out_dir
        result["stdout"] = spec["stdout"]
        result["digest"] = digest(out_dir)
        return result


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for entry in sorted(os.listdir(out_dir)):
        h.update(entry.encode())
        with open(os.path.join(out_dir, entry), "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def at_reference_speed(result: dict, key: str) -> float:
    """A command's measured time, scaled to the calibration kernel's reference speed."""
    return result[key] * CALIBRATION_REF_S / result["calibration_s"]


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values), "all": values}


def write_config(session: Session, workload, seed: int, smoke: bool) -> str:
    path = os.path.join(session.workdir, f"seed{seed}.cfg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(workload.config_text(seed, smoke))
    return path


def output_checks(workload, result: dict, topology_dir: str | None, smoke: bool) -> list:
    if workload.command == "analyze":
        grid_step = float(workload.settings(smoke)["grid_step"])
        edges = os.path.join(topology_dir, "edges.txt")
        return checks.analyze_checks(result["out_dir"], topology_dir, grid_step) + checks.gap_check(
            result["stdout"], edges
        )
    return checks.sweep_checks(
        result["out_dir"], workload.probabilities(smoke), workload.cells(smoke),
        workload.checkpoints(smoke), workload.keys["task"] == "classification",
    )


def work_units(workload, result: dict, smoke: bool) -> tuple[int, str]:
    if workload.command == "analyze":
        _, rows = checks.read_csv(os.path.join(result["out_dir"], "analyze.csv"))
        return len(rows), "grid points"
    n = int(workload.settings(smoke)["n"])
    return workload.cells(smoke) * workload.iterations(smoke) * n, "node-slots"


def trace_metrics(session: Session, workload, traced: list[dict], untraced: list[dict], units: tuple) -> dict:
    """Per-layer medians over the traced commands, with their consistency checks."""
    summaries = [r["trace"] for r in traced]
    first = summaries[0]
    if first["missing"]:
        print(f"perfbench: wrapped names missing, their metrics are left out: {first['missing']}", file=sys.stderr)
    if first["hook_errors"]:
        print(f"perfbench: trace hooks failed, their metrics are left out: {first['hook_errors']}", file=sys.stderr)
    names = [name for name in first["metrics"] if all(name in s["metrics"] for s in summaries)]
    metrics = {
        name: {
            "value": statistics.median(s["metrics"][name]["value"] for s in summaries),
            "unit": first["metrics"][name]["unit"],
        }
        for name in names
    }
    counts = [name for name in SIMULATED_COUNTS if name in metrics]
    repeated = all(s["metrics"][name]["value"] == first["metrics"][name]["value"] for s in summaries for name in counts)
    session.check([(
        "simulated counts repeat at a fixed seed",
        repeated,
        f"{len(summaries)} traced commands, counts {', '.join(counts)}",
    )])
    for s in summaries:
        session.check(s["checks"])

    n_slots = sum(cell["slots"] * cell["n"] for cell in first["cells"])
    metrics["experiments.node_slots"] = {"value": n_slots, "unit": "count"}
    metrics["experiments.grid_points"] = {"value": units[0] if workload.command == "analyze" else 0, "unit": "count"}
    traced_wall = statistics.median(at_reference_speed(r, "wall_s") for r in traced)
    plain_wall = statistics.median(at_reference_speed(r, "wall_s") for r in untraced)
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace_overhead_frac"] = {"value": (traced_wall - plain_wall) / plain_wall, "unit": "ratio"}
    return metrics


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    session = Session(workdir, time.monotonic() + RUN_BUDGET_S)
    datasets = workload.command == "sweep"
    try:
        # Warm-up at the golden seed: fills the bytecode and page caches and
        # compares the outputs with the pinned references.
        golden_cfg = write_config(session, workload, GOLDEN_SEED, args.smoke)
        warm = session.invoke(workload.command, golden_cfg, False, datasets)
        if warm is not None and not args.smoke:
            session.check(checks.golden_checks(workload.name, workload.command, warm["out_dir"]))

        config = write_config(session, workload, args.seed, args.smoke)
        topology_dir = None
        if workload.command == "analyze":
            topo = session.invoke("topology", config, False, False)
            topology_dir = topo["out_dir"] if topo is not None else None

        samples, traced = [], []
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            enough = len(samples) >= MIN_SAMPLES and (not args.trace or len(traced) >= 2)
            if (elapsed >= args.seconds and enough) or time.monotonic() > session.deadline:
                break
            trace = bool(args.trace) and len(traced) < len(samples)
            result = session.invoke(workload.command, config, trace, datasets)
            if result is None:
                break  # the same command would fail again
            if not samples and (topology_dir is not None or workload.command == "sweep"):
                session.check(output_checks(workload, result, topology_dir, args.smoke))
            (traced if trace else samples).append(result)
        measured = time.monotonic() - start

        everyone = samples + traced
        if everyone:
            session.check([(
                "outputs identical across commands at one seed",
                len({r["digest"] for r in everyone}) == 1,
                f"{len(everyone)} commands",
            )])
        if not samples or (args.trace and not traced):
            session.check([("enough commands completed", False, f"{len(samples)} untraced, {len(traced)} traced")])
            metrics = {}
            units = (0, "")
        else:
            units = work_units(workload, samples[0], args.smoke)
            if args.trace:
                metrics = trace_metrics(session, workload, traced, samples, units)
            else:
                wall = statistics.median(at_reference_speed(r, "wall_s") for r in samples)
                setup = statistics.median(at_reference_speed(r, "setup_s") for r in samples)
                metrics = {
                    "wall_s": {"value": wall, "unit": "s"},
                    "setup_s": {"value": setup, "unit": "s"},
                    "work_per_s": {"value": units[0] / wall, "unit": "1/s"},
                    "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in samples), "unit": "MB"},
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in session.checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: FAILED {name}: {detail}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_info(),
        "closed_loop": "one caller; each command starts after the previous one ends",
        "measured_s": measured,
        "work_units": {"count": units[0], "unit": units[1]},
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_s": quartiles([r["calibration_s"] for r in everyone]) if everyone else None,
        "wall_s": quartiles([r["wall_s"] for r in samples]) if samples else None,
        "setup_s": quartiles([r["setup_s"] for r in samples]) if samples else None,
        "traced_wall_s": quartiles([r["wall_s"] for r in traced]) if traced else None,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in session.checks],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(session.checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no golden comparison")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "radsgd", "__init__.py")):
        print(f"perfbench: no radsgd source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
