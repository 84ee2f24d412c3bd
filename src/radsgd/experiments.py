"""Reproducible experiment driver.

Commands are pure functions of their configuration: graphs, datasets, and
per-run RNG streams all derive from seeds recorded in the config file, so
rerunning a command reproduces its output files byte for byte. Sweep runs
are embarrassingly parallel across (p, replicate) pairs and produce the
same CSV content whether executed sequentially or in a process pool; the
full-batch pairs at p = 0 and p = 1, where no link is ever decoded, share
one run.

Per-run seed streams are keyed by (master seed, replicate, bit pattern of
p), so extending the sweep grid never changes the stream of an existing
run. Dataset generation uses a separate stream keyed by (master seed,
data tag), shared by all runs of a sweep: every p value trains on the same
data, which is what makes losses comparable across the grid.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import os
import re
from collections.abc import Iterable

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, DomainError
from .mac import AccessPolicy, expected_throughput, optimal_access_probability
from .mixing import SCAN_POINT_BYTES, check_epsilon, consensus_rate_scan, default_epsilon, refine_spectral_minimum
from .topology import check_fits, complete, erdos_renyi, from_edge_list, ring, to_edge_list

# Distinguishes the dataset stream from per-run streams under one master seed.
DATA_STREAM_TAG = 0xDA7A

# Bytes a sweep holds per CSV row until it writes them, with a margin: its
# rows peak at about 440 bytes each, and each cell's job, outcome and trace
# at about 740 more, which the size check counts as two rows.
SWEEP_ROW_BYTES = 640
# Bytes analyze holds per grid point beyond the scan's SCAN_POINT_BYTES
# when it plots, with a margin: each SVG polyline's point strings, 116 in
# all by tracemalloc on ring(4). analyze.csv is written row by row.
PLOT_POINT_BYTES = 128
# n x n float arrays that topology holds at peak, with a margin: the
# Laplacian and eigvalsh's copy of it, 2.04 at n = 3000.
SPECTRUM_MATRICES = 3

_TOPOLOGIES = ("ring", "complete", "erdos_renyi", "edge_list")
_TASKS = ("regression", "classification")

# The names this module takes from learning. analyze and topology never
# train, so learning loads only for a config that names a task. parse_config
# binds these names here before the graph and data are built, which keeps a
# sweep's peak RSS below loading learning after them; _build and
# build_datasets bind them for callers that skip parse_config.
_LEARNING_NAMES = (
    "checkpoint_interval", "classification_task", "full_batch", "generate_classification_data",
    "generate_regression_data", "regression_task", "train",
)


def _bind_learning():
    """Bind learning's names into this module, keeping any already bound.

    A name replaced from outside (a wrapper around train, a test double)
    stays, and the calls here go through it.
    """
    from . import learning

    for name in _LEARNING_NAMES:
        globals().setdefault(name, getattr(learning, name))


def __getattr__(name):
    if name in _LEARNING_NAMES:
        _bind_learning()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated contents of one flat key=value config file.

    The fields are the config schema. A key is its field's name, except p,
    which sets probabilities; the annotation picks how the value parses.
    """

    topology: str
    n: int | None = None
    edge_prob: float | None = None
    graph_seed: int | None = None
    edge_list: str | None = None
    task: str | None = None
    eta: float = 0.01
    epsilon: float | None = None
    iterations: int = 200
    batch_size: int | None = None
    probabilities: tuple[float, ...] = ()
    replicates: int = 3
    seed: int = 0
    samples_per_node: int = 100
    checkpoint_every: int | None = None
    grid_step: float = 0.001
    plots: bool = False


def _to_int(field: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{field} must be an integer, got {value!r}")


def _to_float(field: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if not np.isfinite(number):
        raise ConfigError(f"{field} must be a finite number, got {value!r}")
    return number


def _to_bool(field: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{field} must be true or false, got {value!r}")


def _to_float_list(field: str, value: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in value.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{field} must list at least one value")
    return tuple(_to_float(field, piece) for piece in items)


# Parse rule per field annotation, with or without "| None" (annotations
# are strings under the __future__ import).
_PARSERS = {
    "int": _to_int, "float": _to_float, "bool": _to_bool,
    "str": lambda key, value: value, "tuple[float, ...]": _to_float_list,
}
# Config key -> (field name, parse rule), read off ExperimentConfig.
_SCHEMA = {
    "p" if f.name == "probabilities" else f.name: (f.name, _PARSERS[f.type.removesuffix(" | None")])
    for f in dataclasses.fields(ExperimentConfig)
}


# "#" opens a comment at the start of a line or after whitespace, so a "#"
# inside a value, as in the path a#b/edges.txt, is kept.
_COMMENT = re.compile(r"(?:^|\s)#")


def _read_pairs(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = _COMMENT.split(raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (piece.strip() for piece in line.split("=", 1))
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            if not value:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            pairs[key] = value
    return pairs


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config file.

    The accepted keys and their types are ExperimentConfig's fields (see
    the README for their meaning). Unknown keys are rejected outright and
    every error message names the offending field.
    """
    pairs = _read_pairs(path)
    if "topology" not in pairs:
        raise ConfigError("topology is required (ring, complete, erdos_renyi, edge_list)")
    kwargs: dict = {"topology": pairs.pop("topology")}
    if kwargs["topology"] not in _TOPOLOGIES:
        raise ConfigError(
            f"topology must be one of {', '.join(_TOPOLOGIES)}, got {kwargs['topology']!r}"
        )
    for key, value in pairs.items():
        name, parse = _SCHEMA[key]
        kwargs[name] = parse(key, value)
    config = ExperimentConfig(**kwargs)
    _validate(config)
    if config.task is not None:
        _bind_learning()
    return config


def _validate(config: ExperimentConfig):
    if config.topology in ("ring", "complete", "erdos_renyi"):
        if config.n is None:
            raise ConfigError(f"n is required for topology = {config.topology}")
        minimum = 3 if config.topology == "ring" else 2
        if config.n < minimum:
            raise ConfigError(f"n must be >= {minimum} for topology = {config.topology}")
    if config.topology == "erdos_renyi":
        if config.edge_prob is None:
            raise ConfigError("edge_prob is required for topology = erdos_renyi")
        if not 0.0 < config.edge_prob <= 1.0:
            raise ConfigError(f"edge_prob must lie in (0, 1], got {config.edge_prob}")
        if config.graph_seed is None:
            raise ConfigError("graph_seed is required for topology = erdos_renyi")
        if config.graph_seed < 0:
            raise ConfigError(f"graph_seed must be nonnegative, got {config.graph_seed}")
    if config.topology == "edge_list":
        if config.edge_list is None:
            raise ConfigError("edge_list (a file path) is required for topology = edge_list")
        if not os.path.isfile(config.edge_list):
            raise ConfigError(f"edge_list file not found: {config.edge_list}")
    if config.task is not None and config.task not in _TASKS:
        raise ConfigError(f"task must be regression or classification, got {config.task!r}")
    if config.eta < 0.0:
        raise ConfigError(f"eta must be nonnegative, got {config.eta}")
    for field in ("iterations", "batch_size", "replicates", "samples_per_node", "checkpoint_every"):
        value = getattr(config, field)
        if value is not None and value < 1:
            raise ConfigError(f"{field} must be >= 1, got {value}")
    for k, p in enumerate(config.probabilities):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p values must lie in [0, 1], got {p}")
        # -0.0 == 0.0, so -0.0 repeats 0.0, whose run seeds it shares.
        if p in config.probabilities[:k]:
            raise ConfigError(f"p values must differ, but {p} repeats an earlier one")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    if not 0.0 < config.grid_step <= 0.5:
        raise ConfigError(f"grid_step must lie in (0, 0.5], got {config.grid_step}")


def build_graph(config: ExperimentConfig):
    if config.topology == "ring":
        return ring(config.n)
    if config.topology == "complete":
        return complete(config.n)
    if config.topology == "erdos_renyi":
        return erdos_renyi(config.n, config.edge_prob, config.graph_seed)
    with open(config.edge_list, "r", encoding="utf-8") as handle:
        g = from_edge_list(handle.read())
    if g.n < 2:
        raise ConfigError(f"n must be >= 2 for topology = edge_list, but {config.edge_list} has {g.n} node")
    return g


def build_datasets(config: ExperimentConfig, n: int):
    """The stacked node data plus the shared test set, from the dedicated data stream."""
    _bind_learning()
    data_seed = np.random.SeedSequence([config.seed, DATA_STREAM_TAG])
    if config.task == "regression":
        return generate_regression_data(n, config.samples_per_node, data_seed)
    return generate_classification_data(n, config.samples_per_node, data_seed)


def run_seed(master: int, p: float, replicate: int) -> np.random.SeedSequence:
    """Per-run seed stream keyed by the replicate and the bit pattern of p.

    Adding 0.0 maps -0.0 to 0.0, so both spellings of zero share a stream.
    """
    bits = int(np.float64(p + 0.0).view(np.uint64))
    return np.random.SeedSequence(
        [master, replicate, bits & 0xFFFFFFFF, bits >> 32]
    )


def _fmt(x: float) -> str:
    return str(float(x))


def _write_csv(path: str, header: list[str], rows: Iterable[list[str]]):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _resolve_epsilon(config: ExperimentConfig, g) -> float:
    """The configured epsilon, checked against the graph, or the default."""
    if config.epsilon is None:
        return default_epsilon(g)
    try:
        return check_epsilon(g, config.epsilon)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def cmd_analyze(config: ExperimentConfig, out_dir: str = ".") -> dict:
    """Evaluate throughput and consensus rate over the p grid; locate both optima.

    Writes analyze.csv (columns p,expected_throughput,consensus_rate) and
    returns the two optimizers and their gap.
    """
    g = build_graph(config)
    epsilon = _resolve_epsilon(config, g)
    points = (1.0 + config.grid_step / 2.0) / config.grid_step
    point_bytes = SCAN_POINT_BYTES + (PLOT_POINT_BYTES if config.plots else 0)
    check_fits(point_bytes * points, f"analyze on the grid of step {config.grid_step}", DomainError)
    ps, rates = consensus_rate_scan(g, epsilon, config.grid_step)
    throughputs = expected_throughput(g, ps)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "analyze.csv")
    rows = ([_fmt(p), _fmt(t), _fmt(r)] for p, t, r in zip(ps, throughputs, rates))
    _write_csv(csv_path, ["p", "expected_throughput", "consensus_rate"], rows)

    p_throughput = optimal_access_probability(g)
    p_spectral = refine_spectral_minimum(g, epsilon, ps, rates)
    gap = abs(p_throughput - p_spectral)
    if config.plots:
        _svg_line_plot(
            os.path.join(out_dir, "analyze_throughput.svg"),
            ps, [("expected_throughput", throughputs)],
            "Expected throughput vs p", "p", "expected successful links",
        )
        _svg_line_plot(
            os.path.join(out_dir, "analyze_consensus.svg"),
            ps, [("consensus_rate", rates)],
            "Consensus rate vs p", "p", "spectral radius",
        )
    print(f"throughput-optimal p = {p_throughput:.6f}")
    print(f"spectral-optimal   p = {p_spectral:.6f}")
    print(f"gap                  = {gap:.6f}")
    print(f"wrote {csv_path}")
    return {
        "throughput_optimal": p_throughput,
        "spectral_optimal": p_spectral,
        "gap": gap,
        "csv_path": csv_path,
    }


@functools.lru_cache(maxsize=1)
def _build(config: ExperimentConfig):
    """Task, graph, epsilon and datasets of a training config, memoized.

    Every (p, replicate) cell of a sweep trains on the same graph and data,
    so a serial sweep builds them once and each pool worker once. Workers
    build from the config, which pickles, where a TaskSpec's closures do
    not. cmd_sweep and cmd_train clear the cache first, so an edge-list
    file is read as it is when the command starts.
    """
    if config.task is None:
        raise ConfigError("task is required for this command (regression or classification)")
    _bind_learning()
    task = regression_task() if config.task == "regression" else classification_task()
    g = build_graph(config)
    epsilon = _resolve_epsilon(config, g)
    data, test = build_datasets(config, g.n)
    return task, g, epsilon, data, test


def _run_once(config: ExperimentConfig, p: float, replicate: int):
    task, g, epsilon, data, test = _build(config)
    return train(
        g, AccessPolicy.uniform(g.n, p), task, data, test, iterations=config.iterations, step_size=config.eta,
        epsilon=epsilon, batch_size=config.batch_size, seed=run_seed(config.seed, p, replicate),
        checkpoint_every=config.checkpoint_every,
    )


def _sweep_worker(args):
    config, p, replicate = args
    try:
        return _run_once(config, p, replicate), None
    except DivergenceError as exc:
        return None, str(exc)


def _trace_rows(p: float, replicate: int | None, trace) -> list[list[str]]:
    rows = []
    for k in range(trace.iterations.shape[0]):
        acc = trace.accuracy[k]
        row = [
            str(int(trace.iterations[k])),
            _fmt(trace.avg_test_loss[k]),
            "" if np.isnan(acc) else _fmt(acc),
            _fmt(trace.consensus_distance[k]),
        ]
        if replicate is not None:
            row = [_fmt(p), str(replicate)] + row
        rows.append(row)
    return rows


def cmd_sweep(config: ExperimentConfig, out_dir: str = ".", parallel: int = 1) -> dict:
    """Train over every (p, replicate) pair and collect one tidy CSV.

    Each distinct run is trained once: the full-batch cells at p = 0 and
    p = 1 all have the trace of the first of them, and every other cell
    is its own run. Rows are ordered by (position of p in the grid,
    replicate, iteration).
    Runs that diverge are recorded in sweep_errors.csv and the sweep
    continues; successful rows are unaffected. The sweep holds every run's
    rows until it writes them, so one that would exceed physical memory
    fails before any job is built.
    """
    if not config.probabilities:
        raise ConfigError("p is required for sweep (comma-separated access probabilities)")
    _build.cache_clear()
    _build(config)  # fail fast on a config error; serial cells and forked workers reuse it
    cells = len(config.probabilities) * config.replicates
    # A run records each multiple of the interval and its last iteration.
    checkpoints = -(-config.iterations // checkpoint_interval(config.iterations, config.checkpoint_every))
    what = f"holding the results of {cells} runs of {checkpoints} checkpoint(s)"
    check_fits(cells * (checkpoints + 2) * SWEEP_ROW_BYTES, what, DimensionError)
    grid = [(p, replicate) for p in config.probabilities for replicate in range(config.replicates)]
    # Nobody broadcasts at p = 0 and nobody listens at p = 1, so a
    # full-batch run there is local gradient descent whatever its seed:
    # every such cell shares the run of the first one.
    isolated = full_batch(config.batch_size, config.samples_per_node)
    keys = ["isolated" if isolated and p in (0.0, 1.0) else (p, replicate) for p, replicate in grid]
    runs = {}
    for key, (p, replicate) in zip(keys, grid):
        runs.setdefault(key, (config, p, replicate))
    # ProcessPoolExecutor starts all its workers up front, whatever the
    # number of jobs, so an unbounded --parallel would fork that many.
    workers = min(parallel, len(runs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here so serial commands never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, runs.values()))
    else:
        outcomes = [_sweep_worker(job) for job in runs.values()]
    outcome_of = dict(zip(runs, outcomes))

    # Cells come in grid order, which is the rows' order.
    rows: list[list[str]] = []
    failures: list[tuple[float, int, str]] = []
    final_losses: dict[float, list[float]] = {p: [] for p in config.probabilities}
    for key, (p, replicate) in zip(keys, grid):
        trace, error = outcome_of[key]
        if error is not None:
            failures.append((p, replicate, error))
            continue
        rows.extend(_trace_rows(p, replicate, trace))
        final_losses[p].append(float(trace.avg_test_loss[-1]))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_csv(
        csv_path,
        ["p", "replicate", "iteration", "avg_test_loss", "accuracy", "consensus_distance"],
        rows,
    )
    errors_path = None
    if failures:
        errors_path = os.path.join(out_dir, "sweep_errors.csv")
        _write_csv(
            errors_path,
            ["p", "replicate", "error"],
            [[_fmt(p), str(r), msg] for p, r, msg in failures],
        )
        print(f"{len(failures)} run(s) diverged; details in {errors_path}")
    summary = {}
    for p in config.probabilities:
        if final_losses[p]:
            mean_loss = float(np.mean(final_losses[p]))
            summary[p] = mean_loss
            print(f"p = {_fmt(p)}: mean final loss over {len(final_losses[p])} replicate(s) = {mean_loss:.6f}")
    if config.plots and summary:
        xs = np.array(sorted(summary))
        _svg_line_plot(
            os.path.join(out_dir, "sweep_final_loss.svg"),
            xs, [("mean_final_loss", np.array([summary[p] for p in xs]))],
            "Mean final test loss vs p", "p", "loss",
        )
    print(f"wrote {csv_path}")
    return {
        "csv_path": csv_path,
        "errors_path": errors_path,
        "failures": failures,
        "mean_final_loss": summary,
    }


def cmd_train(config: ExperimentConfig, out_dir: str = ".") -> dict:
    """Single training run at one access probability; writes train.csv."""
    if len(config.probabilities) != 1:
        raise ConfigError(
            f"train requires exactly one p value, got {list(config.probabilities) or 'none'}"
        )
    p = config.probabilities[0]
    _build.cache_clear()
    trace = _run_once(config, p, replicate=0)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "train.csv")
    _write_csv(
        csv_path,
        ["iteration", "avg_test_loss", "accuracy", "consensus_distance"],
        _trace_rows(p, None, trace),
    )
    if config.plots:
        _svg_line_plot(
            os.path.join(out_dir, "train_loss.svg"),
            trace.iterations.astype(float),
            [("avg_test_loss", trace.avg_test_loss)],
            f"Test loss at p = {_fmt(p)}", "iteration", "loss",
        )
    print(f"final loss = {trace.avg_test_loss[-1]:.6f} after {int(trace.iterations[-1])} iterations")
    print(f"wrote {csv_path}")
    return {"csv_path": csv_path, "trace": trace}


def cmd_topology(config: ExperimentConfig, out_dir: str = ".") -> dict:
    """Materialize the configured graph: edge-list file plus a spectrum report."""
    g = build_graph(config)
    # GraphError before any output when the eigen-solve would not fit.
    check_fits(SPECTRUM_MATRICES * 8 * g.n ** 2, f"the spectrum of a {g.n}-node graph")
    os.makedirs(out_dir, exist_ok=True)
    edges_path = os.path.join(out_dir, "edges.txt")
    with open(edges_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(to_edge_list(g))
    degrees = g.degrees
    connectivity = float(np.linalg.eigvalsh(g.laplacian)[1])
    report_lines = [
        f"nodes: {g.n}",
        f"edges: {g.edge_count}",
        "degree histogram: " + ", ".join(f"{d}x{c}" for d, c in zip(*np.unique(degrees, return_counts=True))),
        f"algebraic connectivity: {connectivity!r}",
    ]
    report_path = os.path.join(out_dir, "topology_report.txt")
    with open(report_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(report_lines) + "\n")
    print("\n".join(report_lines))
    print(f"wrote {edges_path}")
    return {
        "edges_path": edges_path,
        "report_path": report_path,
        "degrees": degrees,
        "algebraic_connectivity": connectivity,
    }


def _svg_line_plot(path, xs, series, title, x_label, y_label):
    """Minimal self-contained SVG line chart (no plotting dependency)."""
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 40, 50
    xs = np.asarray(xs, dtype=float)
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(x):
        return left + (x - x_min) / (x_max - x_min) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_min) / (y_max - y_min) * (height - top - bottom)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="#333"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="#333"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="18" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2})">{y_label}</text>',
        f'<text x="{left}" y="{height - bottom + 16}" text-anchor="middle">{x_min:g}</text>',
        f'<text x="{width - right}" y="{height - bottom + 16}" text-anchor="middle">{x_max:g}</text>',
        f'<text x="{left - 6}" y="{height - bottom}" text-anchor="end">{y_min:.4g}</text>',
        f'<text x="{left - 6}" y="{top + 10}" text-anchor="end">{y_max:.4g}</text>',
    ]
    for index, (name, ys) in enumerate(series):
        color = colors[index % len(colors)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, np.asarray(ys, dtype=float)))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - right - 6}" y="{top + 14 + 16 * index}" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(parts) + "\n")
