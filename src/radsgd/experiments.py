"""Reproducible experiment driver.

Commands are pure functions of their configuration: graphs, datasets, and
per-run RNG streams all derive from seeds recorded in the config file, so
rerunning a command reproduces its output files byte for byte. Sweep runs
are embarrassingly parallel across (p, replicate) pairs and produce the
same CSV content whether executed sequentially or in a process pool.

Per-run seed streams are keyed by (master seed, replicate, bit pattern of
p), so extending the sweep grid never changes the stream of an existing
run. Dataset generation uses a separate stream keyed by (master seed,
data tag), shared by all runs of a sweep: every p value trains on the same
data, which is what makes losses comparable across the grid.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .learning import (
    TrainConfig,
    classification_task,
    generate_classification_data,
    generate_regression_data,
    regression_task,
    train,
)
from .mac import AccessPolicy, expected_throughput, optimal_access_probability
from .mixing import check_epsilon, consensus_rate, default_epsilon, refine_spectral_minimum
from .topology import complete, erdos_renyi, from_edge_list, laplacian, ring, to_edge_list

# Distinguishes the dataset stream from per-run streams under one master seed.
DATA_STREAM_TAG = 0xDA7A

_TOPOLOGIES = ("ring", "complete", "erdos_renyi", "edge_list")
_TASKS = ("regression", "classification")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated contents of one flat key=value config file."""

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
    sigma: float = 0.5
    noise_cov: float = 0.05
    classifier_bias: bool = True
    checkpoint_every: int | None = None
    grid_step: float = 0.001
    out: str | None = None
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


_KNOWN_KEYS = (
    "topology", "n", "edge_prob", "graph_seed", "edge_list", "task", "eta",
    "epsilon", "iterations", "batch_size", "p", "replicates", "seed",
    "samples_per_node", "sigma", "noise_cov", "classifier_bias",
    "checkpoint_every", "grid_step", "out", "plots",
)


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
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            if not value:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            pairs[key] = value
    return pairs


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config file.

    Unknown keys are rejected outright and every error message names the
    offending field. See the README for the full schema.
    """
    pairs = _read_pairs(path)
    if "topology" not in pairs:
        raise ConfigError("topology is required (ring, complete, erdos_renyi, edge_list)")
    kwargs: dict = {"topology": pairs.pop("topology")}
    if kwargs["topology"] not in _TOPOLOGIES:
        raise ConfigError(
            f"topology must be one of {', '.join(_TOPOLOGIES)}, got {kwargs['topology']!r}"
        )
    converters = {
        "n": lambda v: _to_int("n", v),
        "edge_prob": lambda v: _to_float("edge_prob", v),
        "graph_seed": lambda v: _to_int("graph_seed", v),
        "edge_list": str,
        "task": str,
        "eta": lambda v: _to_float("eta", v),
        "epsilon": lambda v: None if v.lower() == "auto" else _to_float("epsilon", v),
        "iterations": lambda v: _to_int("iterations", v),
        "batch_size": lambda v: _to_int("batch_size", v),
        "replicates": lambda v: _to_int("replicates", v),
        "seed": lambda v: _to_int("seed", v),
        "samples_per_node": lambda v: _to_int("samples_per_node", v),
        "sigma": lambda v: _to_float("sigma", v),
        "noise_cov": lambda v: _to_float("noise_cov", v),
        "classifier_bias": lambda v: _to_bool("classifier_bias", v),
        "checkpoint_every": lambda v: None if v.lower() == "auto" else _to_int("checkpoint_every", v),
        "grid_step": lambda v: _to_float("grid_step", v),
        "out": str,
        "plots": lambda v: _to_bool("plots", v),
    }
    for key, value in pairs.items():
        target = "probabilities" if key == "p" else key
        kwargs[target] = _to_float_list("p", value) if key == "p" else converters[key](value)
    config = ExperimentConfig(**kwargs)
    _validate(config)
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
    if config.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {config.iterations}")
    if config.batch_size is not None and config.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {config.batch_size}")
    for p in config.probabilities:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p values must lie in [0, 1], got {p}")
    if config.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {config.replicates}")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    if config.samples_per_node < 1:
        raise ConfigError(f"samples_per_node must be >= 1, got {config.samples_per_node}")
    if config.sigma < 0.0:
        raise ConfigError(f"sigma must be nonnegative, got {config.sigma}")
    if config.noise_cov < 0.0:
        raise ConfigError(f"noise_cov must be nonnegative, got {config.noise_cov}")
    if config.checkpoint_every is not None and config.checkpoint_every < 1:
        raise ConfigError(f"checkpoint_every must be >= 1, got {config.checkpoint_every}")
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


def _build_task(config: ExperimentConfig):
    if config.task is None:
        raise ConfigError("task is required for this command (regression or classification)")
    if config.task == "regression":
        return regression_task()
    return classification_task(bias=config.classifier_bias)


def build_datasets(config: ExperimentConfig, n: int):
    """Node datasets plus the shared test set, from the dedicated data stream."""
    data_seed = np.random.SeedSequence([config.seed, DATA_STREAM_TAG])
    if config.task == "regression":
        return generate_regression_data(
            n, config.samples_per_node, data_seed, sigma=config.sigma
        )
    return generate_classification_data(
        n, config.samples_per_node, data_seed, noise_cov=config.noise_cov
    )


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


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
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


def _rate_point(args) -> float:
    g, epsilon, p = args
    return consensus_rate(g, epsilon, p)


def cmd_analyze(config: ExperimentConfig, out_dir: str = ".", parallel: int = 1) -> dict:
    """Evaluate throughput and consensus rate over the p grid; locate both optima.

    Writes analyze.csv (columns p,expected_throughput,consensus_rate) and
    returns the two optimizers and their gap.
    """
    g = build_graph(config)
    epsilon = _resolve_epsilon(config, g)
    ps = np.arange(0.0, 1.0 + config.grid_step / 2.0, config.grid_step)
    jobs = [(g, epsilon, float(p)) for p in ps]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            rates = np.array(list(pool.map(_rate_point, jobs, chunksize=64)))
    else:
        rates = np.array([_rate_point(job) for job in jobs])
    throughputs = np.array([expected_throughput(g, float(p)) for p in ps])

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "analyze.csv")
    rows = [[_fmt(p), _fmt(t), _fmt(r)] for p, t, r in zip(ps, throughputs, rates)]
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


def _run_once(config: ExperimentConfig, p: float, replicate: int):
    g = build_graph(config)
    epsilon = _resolve_epsilon(config, g)
    task = _build_task(config)
    datasets, test = build_datasets(config, g.n)
    policy = AccessPolicy.uniform(g.n, p)
    train_config = TrainConfig(
        iterations=config.iterations,
        step_size=config.eta,
        epsilon=epsilon,
        batch_size=config.batch_size,
        seed=run_seed(config.seed, p, replicate),
        checkpoint_every=config.checkpoint_every,
    )
    return train(g, policy, task, datasets, test, train_config)


def _sweep_worker(args):
    config, p_index, p, replicate = args
    try:
        trace = _run_once(config, p, replicate)
    except DivergenceError as exc:
        return p_index, replicate, None, str(exc)
    return p_index, replicate, trace, None


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

    Rows are ordered by (position of p in the grid, replicate, iteration).
    Runs that diverge are recorded in sweep_errors.csv and the sweep
    continues; successful rows are unaffected.
    """
    if not config.probabilities:
        raise ConfigError("p is required for sweep (comma-separated access probabilities)")
    _build_task(config)  # fail fast on a missing task
    jobs = [
        (config, p_index, p, replicate)
        for p_index, p in enumerate(config.probabilities)
        for replicate in range(config.replicates)
    ]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))
    else:
        outcomes = [_sweep_worker(job) for job in jobs]
    outcomes.sort(key=lambda item: (item[0], item[1]))

    rows: list[list[str]] = []
    failures: list[tuple[float, int, str]] = []
    final_losses: dict[float, list[float]] = {p: [] for p in config.probabilities}
    for p_index, replicate, trace, error in outcomes:
        p = config.probabilities[p_index]
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


def cmd_train(config: ExperimentConfig, out_dir: str = ".", parallel: int = 1) -> dict:
    """Single training run at one access probability; writes train.csv."""
    if len(config.probabilities) != 1:
        raise ConfigError(
            f"train requires exactly one p value, got {list(config.probabilities) or 'none'}"
        )
    p = config.probabilities[0]
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


def cmd_topology(config: ExperimentConfig, out_dir: str = ".", parallel: int = 1) -> dict:
    """Materialize the configured graph: edge-list file plus a spectrum report."""
    g = build_graph(config)
    os.makedirs(out_dir, exist_ok=True)
    edges_path = os.path.join(out_dir, "edges.txt")
    with open(edges_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(to_edge_list(g))
    degrees = g.degrees
    lap_spectrum = np.linalg.eigvalsh(laplacian(g))
    connectivity = float(lap_spectrum[1])
    histogram = {int(d): int(count) for d, count in zip(*np.unique(degrees, return_counts=True))}
    report_lines = [
        f"nodes: {g.n}",
        f"edges: {g.edge_count}",
        "degree histogram: " + ", ".join(f"{d}x{c}" for d, c in sorted(histogram.items())),
        f"algebraic connectivity: {connectivity!r}",
    ]
    report_path = os.path.join(out_dir, "topology_report.txt")
    with open(report_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
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
