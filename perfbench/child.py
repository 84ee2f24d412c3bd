"""One radsgd command in a fresh interpreter, timed from inside.

Usage: python3 child.py SPEC.json

SPEC names the source tree, the config file, the CLI arguments, whether to
trace, and where to write the command's stdout and this script's result.
The result holds setup_s (import radsgd, parse the config, build the graph
and, for sweeps, the datasets), wall_s (the radsgd.cli.main call alone),
calibration_s (the mean time of a fixed numpy kernel run just before and
just after the call, a measure of the machine's speed at that moment), the
exit code, peak RSS, and with tracing on the per-layer summary.
Interpreter start-up and this script's own imports are not timed.
"""

import contextlib
import json
import resource
import sys
from time import perf_counter


def calibration_s() -> float:
    """Time of a fixed kernel that does not depend on radsgd.

    It mixes small-array numpy calls, as in a training slot, with dense
    eigen-solves, as in analyze, so that it slows down with the machine in
    the same way the workloads do.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((20, 100)), rng.random((100, 4))
    m = rng.random((100, 100))
    m = m + m.T
    start = perf_counter()
    for _ in range(1000):
        z = a @ b
        z -= z.max(axis=1, keepdims=True)
        np.exp(z).sum()
    for _ in range(4):
        np.linalg.eigvals(m)
    return perf_counter() - start


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    t0 = perf_counter()
    sys.path.insert(0, spec["src"])
    import radsgd
    from radsgd import cli, experiments

    config = experiments.parse_config(spec["config"])
    g = experiments.build_graph(config)
    if spec["datasets"]:
        experiments.build_datasets(config, g.n)
    setup_s = perf_counter() - t0
    before = calibration_s()

    tracer = None
    if spec["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        cli.main = tracer.span(ROOT, cli.main)

    with open(spec["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        t1 = perf_counter()
        code = cli.main(spec["argv"])
        wall_s = perf_counter() - t1
    after = calibration_s()

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "module": radsgd.__file__,
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": (before + after) / 2.0,
        "peak_rss_mb": kib / 1024.0,
    }
    if tracer is not None:
        from tracer import summarize

        spans = tracer.spans()
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
        summary = summarize(spans, tracer.installed, set(tracer.hook_errors))
        summary["missing"] = tracer.missing
        summary["hook_errors"] = tracer.hook_errors
        result["trace"] = summary
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
