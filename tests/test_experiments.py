"""Config parsing, command, CSV, and CLI tests."""

import ast
import concurrent.futures
import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radsgd.cli
import radsgd.experiments
import radsgd.topology
from radsgd.cli import main
from radsgd.errors import ConfigError
from radsgd.learning import TaskSpec
from radsgd.experiments import (
    ExperimentConfig,
    build_graph,
    cmd_analyze,
    cmd_sweep,
    cmd_topology,
    cmd_train,
    parse_config,
    run_seed,
)
from radsgd.topology import from_edge_list


def _write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_SWEEP = """
topology = ring
n = 6
task = regression
eta = 0.01
iterations = 30
p = 0, 0.3333333333333333, 1
replicates = 2
seed = 7
samples_per_node = 20
"""


def test_parse_config_minimal(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 8\n")
    config = parse_config(path)
    assert config.topology == "ring"
    assert config.n == 8
    assert config.eta == 0.01
    assert config.epsilon is None


def test_parse_config_full(tmp_path):
    path = _write_config(tmp_path / "a.cfg", BASE_SWEEP)
    config = parse_config(path)
    assert config.probabilities == (0.0, 0.3333333333333333, 1.0)
    assert config.replicates == 2
    assert config.seed == 7


def test_parse_config_comments_and_inline(tmp_path):
    path = _write_config(
        tmp_path / "a.cfg", "# graph\ntopology = complete\nn = 5  # small\n"
    )
    config = parse_config(path)
    assert config.n == 5


def test_parse_config_rejects_unknown_key(tmp_path):
    # sigma, noise_cov and classifier_bias were config keys; their values
    # are now constants of the data setup.
    for key in ("bogus", "sigma", "noise_cov", "classifier_bias"):
        path = _write_config(tmp_path / "a.cfg", f"topology = ring\nn = 6\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(path)


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 6\nn = 7\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_config_rejects_bad_number(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = six\n")
    with pytest.raises(ConfigError, match="n must be an integer"):
        parse_config(path)


def test_parse_config_rejects_bad_task(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 6\ntask = clustering\n")
    with pytest.raises(ConfigError, match="task"):
        parse_config(path)


def test_parse_config_requires_er_fields(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = erdos_renyi\nn = 20\nedge_prob = 0.3\n")
    with pytest.raises(ConfigError, match="graph_seed"):
        parse_config(path)


def test_parse_config_requires_existing_edge_list(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = edge_list\nedge_list = missing.txt\n")
    with pytest.raises(ConfigError, match="edge_list"):
        parse_config(path)


def test_parse_config_rejects_out_of_range_p(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 6\np = 0.5, 1.5\n")
    with pytest.raises(ConfigError, match="p values"):
        parse_config(path)


# -0.0 repeats 0.0: run_seed gives both one stream, so the cells would repeat.
@pytest.mark.parametrize("values,repeated", [("0.3, 0.3", "0.3"), ("0, 0.5, -0.0", "-0.0")])
def test_parse_config_rejects_repeated_p(tmp_path, values, repeated):
    path = _write_config(tmp_path / "a.cfg", f"topology = ring\nn = 6\np = {values}\n")
    with pytest.raises(ConfigError, match=f"but {repeated} repeats"):
        parse_config(path)


def test_parse_config_rejects_negative_seed(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 6\nseed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(path)


@pytest.mark.parametrize("line", ["edge_prob = nan", "grid_step = inf", "eta = -inf"])
def test_parse_config_rejects_non_finite_numbers(tmp_path, line):
    path = _write_config(tmp_path / "a.cfg", f"topology = ring\nn = 6\n{line}\n")
    with pytest.raises(ConfigError, match=f"{line.split()[0]} must be a finite number"):
        parse_config(path)


def test_parse_config_edge_list_topology(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("n 3\n0 1\n1 2\n")
    path = _write_config(tmp_path / "a.cfg", f"topology = edge_list\nedge_list = {edges}\n")
    g = build_graph(parse_config(path))
    assert list(g.degrees) == [1, 2, 1]


# One non-default value per ExperimentConfig field; the edge-list path is
# set per test. A field added without a value here fails the round trip.
SCHEMA_SAMPLE = {
    "topology": "edge_list", "n": 7, "edge_prob": 0.4, "graph_seed": 5, "edge_list": None,
    "task": "classification", "eta": 0.02, "epsilon": 0.1, "iterations": 7, "batch_size": 3,
    "probabilities": (0.25, 0.5), "replicates": 2, "seed": 9, "samples_per_node": 11,
    "checkpoint_every": 2, "grid_step": 0.125, "plots": True,
}


def _render(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return str(value)


def test_every_config_field_round_trips(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("n 3\n0 1\n1 2\n")
    sample = dict(SCHEMA_SAMPLE, edge_list=str(edges))
    fields = dataclasses.fields(ExperimentConfig)
    assert sorted(sample) == sorted(f.name for f in fields)
    for f in fields:
        assert sample[f.name] != f.default, f.name
    text = "".join(
        f"{'p' if name == 'probabilities' else name} = {_render(value)}\n" for name, value in sample.items()
    )
    assert parse_config(_write_config(tmp_path / "a.cfg", text)) == ExperimentConfig(**sample)


@pytest.mark.parametrize("key", sorted(radsgd.experiments._SCHEMA))
def test_only_edge_list_takes_auto(tmp_path, key):
    # No value stands for a default; omitting the key takes it. So auto is
    # malformed for every key but the free-text edge_list, where it is a path.
    lines = {"topology": "ring", "n": "6", key: "auto"}
    path = _write_config(tmp_path / "a.cfg", "".join(f"{k} = {v}\n" for k, v in lines.items()))
    if key == "edge_list":
        assert parse_config(path).edge_list == "auto"
    else:  # epsilon = auto, for one, is "epsilon must be a number"
        with pytest.raises(ConfigError, match=f"^{key} must"):
            parse_config(path)


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert sorted(keys) == sorted(radsgd.experiments._SCHEMA)


def test_run_seed_reproducible_and_distinct():
    a = np.random.default_rng(run_seed(7, 0.25, 0)).random(4)
    b = np.random.default_rng(run_seed(7, 0.25, 0)).random(4)
    c = np.random.default_rng(run_seed(7, 0.25, 1)).random(4)
    d = np.random.default_rng(run_seed(7, 0.3, 0)).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_seed_negative_zero_is_zero():
    a = np.random.default_rng(run_seed(7, 0.0, 0)).random(4)
    b = np.random.default_rng(run_seed(7, -0.0, 0)).random(4)
    assert np.array_equal(a, b)


def test_cmd_topology_ring(tmp_path):
    config = ExperimentConfig(topology="ring", n=20)
    result = cmd_topology(config, out_dir=str(tmp_path))
    g = from_edge_list((tmp_path / "edges.txt").read_text())
    assert g.edge_count == 20
    assert np.all(g.degrees == 2)
    assert result["algebraic_connectivity"] > 0
    report = (tmp_path / "topology_report.txt").read_text()
    assert "degree histogram: 2x20" in report


def test_cmd_topology_deterministic_bytes(tmp_path):
    config = ExperimentConfig(topology="erdos_renyi", n=20, edge_prob=0.3, graph_seed=7)
    cmd_topology(config, out_dir=str(tmp_path / "a"))
    cmd_topology(config, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "edges.txt").read_bytes() == (tmp_path / "b" / "edges.txt").read_bytes()


def test_cmd_topology_complete(tmp_path):
    config = ExperimentConfig(topology="complete", n=5)
    cmd_topology(config, out_dir=str(tmp_path))
    g = from_edge_list((tmp_path / "edges.txt").read_text())
    assert g.edge_count == 10


def test_cmd_analyze_ring(tmp_path):
    config = ExperimentConfig(topology="ring", n=20, grid_step=0.01)
    result = cmd_analyze(config, out_dir=str(tmp_path))
    assert result["throughput_optimal"] == pytest.approx(1 / 3, abs=1e-6)
    assert result["spectral_optimal"] == pytest.approx(1 / 3, abs=1e-3)
    assert result["gap"] <= 1e-3
    lines = (tmp_path / "analyze.csv").read_text().splitlines()
    assert lines[0] == "p,expected_throughput,consensus_rate"
    assert len(lines) == 102  # header + inclusive grid 0..1 step 0.01
    rates = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(0.0 <= r <= 1.0 + 1e-9 for r in rates)


def test_cmd_analyze_deterministic_bytes(tmp_path):
    config = ExperimentConfig(topology="erdos_renyi", n=12, edge_prob=0.4, graph_seed=3, grid_step=0.02)
    cmd_analyze(config, out_dir=str(tmp_path / "a"))
    cmd_analyze(config, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "analyze.csv").read_bytes() == (tmp_path / "b" / "analyze.csv").read_bytes()


def test_cmd_analyze_inverts_once(tmp_path, monkeypatch):
    # The scan and the refinement share one L^+.
    inverses = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
    config = ExperimentConfig(topology="erdos_renyi", n=12, edge_prob=0.4, graph_seed=3, grid_step=0.02)
    cmd_analyze(config, out_dir=str(tmp_path))
    assert inverses == [(12, 12)]


def test_cli_analyze_counts_the_bytes_its_plots_hold(tmp_path, capsys, monkeypatch):
    # 10001 grid points take 0.32 MB at the scan's SCAN_POINT_BYTES, which
    # fits in 1 MiB, but plotting them holds 1.6 MB at PLOT_POINT_BYTES more.
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 1 << 20)
    config = _write_config(tmp_path / "t.cfg", "topology = ring\nn = 4\ngrid_step = 0.0001\nplots = true\n")
    capsys.readouterr()
    assert main(["analyze", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: analyze on the grid") and "physical memory" in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def _sweep_config(**overrides):
    base = dict(
        topology="ring",
        n=6,
        task="regression",
        eta=0.01,
        iterations=30,
        probabilities=(0.0, 1 / 3, 1.0),
        replicates=2,
        seed=7,
        samples_per_node=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_cmd_sweep_schema_and_grid_complete(tmp_path):
    cmd_sweep(_sweep_config(), out_dir=str(tmp_path))
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "p,replicate,iteration,avg_test_loss,accuracy,consensus_distance"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 2 * 30
    seen = {(row[0], row[1], row[2]) for row in rows}
    for p in ("0.0", "0.3333333333333333", "1.0"):
        for rep in ("0", "1"):
            for it in range(1, 31):
                assert (p, rep, str(it)) in seen
    # regression runs leave the accuracy column empty
    assert all(row[4] == "" for row in rows)


def test_cmd_sweep_deterministic_bytes(tmp_path):
    cmd_sweep(_sweep_config(), out_dir=str(tmp_path / "a"))
    cmd_sweep(_sweep_config(), out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def test_cmd_sweep_parallel_matches_sequential(tmp_path):
    cmd_sweep(_sweep_config(), out_dir=str(tmp_path / "seq"), parallel=1)
    cmd_sweep(_sweep_config(), out_dir=str(tmp_path / "par"), parallel=2)
    assert (tmp_path / "seq" / "sweep.csv").read_bytes() == (tmp_path / "par" / "sweep.csv").read_bytes()


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(radsgd.experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(radsgd.experiments, name, counted)
    return calls


@pytest.mark.parametrize("command", ["sweep", "train"])
def test_graph_and_datasets_built_once_per_command(tmp_path, monkeypatch, command):
    graphs = _count_calls(monkeypatch, "build_graph")
    datasets = _count_calls(monkeypatch, "build_datasets")
    if command == "sweep":
        cmd_sweep(_sweep_config(replicates=1), out_dir=str(tmp_path / "a"))
    else:
        cmd_train(_sweep_config(probabilities=(0.3,)), out_dir=str(tmp_path / "a"))
    assert (len(graphs), len(datasets)) == (1, 1)
    # The next command builds afresh, even from an equal config.
    cmd_sweep(_sweep_config(replicates=1), out_dir=str(tmp_path / "b"))
    assert (len(graphs), len(datasets)) == (2, 2)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


# Three interior probabilities: each of the 6 cells is a run of its own.
INTERIOR = (0.2, 1 / 3, 0.5)


@pytest.mark.parametrize("cpus, probabilities, want", [
    pytest.param(64, INTERIOR, 6, id="64-6"),
    pytest.param(4, INTERIOR, 4, id="4-4"),
    pytest.param(None, INTERIOR, None, id="None-None"),
    # The 4 cells at p = 0 and p = 1 share one run: 3 runs in all.
    pytest.param(64, (0.0, 1 / 3, 1.0), 3, id="64-isolated-3"),
])
def test_parallel_workers_capped_by_jobs_and_cpus(tmp_path, monkeypatch, cpus, probabilities, want):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    config = _sweep_config(probabilities=probabilities)
    cmd_sweep(config, out_dir=str(tmp_path / "sweep"), parallel=10_000)
    assert _SerialPool.sizes == ([] if want is None else [want])
    serial = tmp_path / "serial"
    cmd_sweep(config, out_dir=str(serial))
    assert (serial / "sweep.csv").read_bytes() == (tmp_path / "sweep" / "sweep.csv").read_bytes()


def _per_cell_outputs(config):
    """sweep.csv and sweep_errors.csv rows from training every cell on its own."""
    rows, errors = [], []
    for p in config.probabilities:
        for replicate in range(config.replicates):
            trace, error = radsgd.experiments._sweep_worker((config, p, replicate))
            if error is None:
                rows.extend(radsgd.experiments._trace_rows(p, replicate, trace))
            else:
                errors.append([radsgd.experiments._fmt(p), str(replicate), error])
    return rows, errors


def _csv_rows(path):
    if not path.exists():
        return []
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


@pytest.mark.parametrize("overrides, runs", [
    pytest.param({}, 3, id="full_batch"),
    pytest.param({"batch_size": 20}, 3, id="batch_of_every_sample"),
    pytest.param({"batch_size": 19}, 6, id="minibatch"),
    pytest.param({"eta": 1e9}, 3, id="diverging"),
])
def test_cmd_sweep_trains_each_distinct_run_once(tmp_path, monkeypatch, overrides, runs):
    # With the full local dataset in every slot, the 4 cells at p = 0 and
    # p = 1 (of 6) are one run, whose trace or divergence each of them
    # reports; a minibatch run draws its batches from its own seed, so
    # each cell trains.
    config = _sweep_config(**overrides)
    rows, errors = _per_cell_outputs(config)
    trained = _count_calls(monkeypatch, "train")
    cmd_sweep(config, out_dir=str(tmp_path))
    assert len(trained) == runs
    assert _csv_rows(tmp_path / "sweep.csv") == rows
    assert _csv_rows(tmp_path / "sweep_errors.csv") == errors
    assert len(errors) == (6 if "eta" in overrides else 0) and len(rows) == 30 * (6 - len(errors))


def test_serial_commands_load_no_pool_machinery_or_argparse(tmp_path):
    # A fresh interpreter: this test process has already imported the pool,
    # and pytest imports argparse. The CLI parses its flags with getopt.
    sweep = _write_config(tmp_path / "sweep.cfg", BASE_SWEEP)
    train = _write_config(tmp_path / "train.cfg", BASE_SWEEP.replace("p = 0, 0.3333333333333333, 1", "p = 0.3"))
    ring = _write_config(tmp_path / "ring.cfg", "topology = ring\nn = 6\ngrid_step = 0.25\n")
    runs = [
        [command, "--config", config, "--out", str(tmp_path / command)]
        for command, config in [("analyze", ring), ("train", train), ("topology", ring), ("sweep", sweep)]
    ]
    unwanted = ["concurrent.futures", "concurrent.futures.process", "multiprocessing", "argparse"]
    script = (
        "import json, sys\n"
        "from radsgd.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))\n"
    )
    src = os.path.dirname(os.path.dirname(radsgd.experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), json.dumps(unwanted)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


# The names experiments takes from learning when a command trains.
EXPERIMENTS_LEARNING_NAMES = (
    "checkpoint_interval", "classification_task", "full_batch", "generate_classification_data",
    "generate_regression_data", "regression_task", "train",
)


def test_analyze_and_topology_never_load_the_training_stack(tmp_path):
    # A fresh interpreter imports radsgd and runs analyze and topology,
    # then train and sweep, noting after each whether learning is loaded.
    # Then the package's exports: the lazy ones resolve, a star import
    # binds every name of __all__, and experiments calls learning's own
    # functions.
    sweep = _write_config(tmp_path / "sweep.cfg", BASE_SWEEP)
    train = _write_config(tmp_path / "train.cfg", BASE_SWEEP.replace("p = 0, 0.3333333333333333, 1", "p = 0.3"))
    ring = _write_config(tmp_path / "ring.cfg", "topology = ring\nn = 6\ngrid_step = 0.25\n")
    commands = [("analyze", ring), ("topology", ring), ("train", train), ("sweep", sweep)]
    runs = [[command, "--config", config, "--out", str(tmp_path / "late" / command)] for command, config in commands]
    script = (
        "import json, sys\n"
        "import radsgd\n"
        "from radsgd import experiments\n"
        "from radsgd.cli import main\n"
        "steps = [['import', 0, 'radsgd.learning' in sys.modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    steps.append([argv[0], main(argv), 'radsgd.learning' in sys.modules])\n"
        "unresolved = [name for name in radsgd.__all__ if getattr(radsgd, name, None) is None]\n"
        "star = {}\n"
        "exec('from radsgd import *', star)\n"
        "unbound = [name for name in radsgd.__all__ if star.get(name) is not getattr(radsgd, name)]\n"
        "from radsgd import learning\n"
        "foreign = [name for name in json.loads(sys.argv[2])\n"
        "           if getattr(experiments, name) is not getattr(learning, name)]\n"
        "print(json.dumps([steps, radsgd.__all__, unresolved, unbound, foreign]))\n"
    )
    src = os.path.dirname(os.path.dirname(radsgd.experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), json.dumps(EXPERIMENTS_LEARNING_NAMES)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    steps, exported, unresolved, unbound, foreign = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [
        ["import", 0, False], ["analyze", 0, False], ["topology", 0, False], ["train", 0, True], ["sweep", 0, True],
    ]
    assert {"LocalDataset", "MetricTrace", "TaskSpec", "train", "regression_task", "classification_task"} <= set(exported)
    assert (unresolved, unbound, foreign) == ([], [], [])
    # The commands that loaded learning late write what a run that loaded
    # it first writes.
    for command, config in commands[2:]:
        assert main([command, "--config", config, "--out", str(tmp_path / "early" / command)]) == 0
        late, early = tmp_path / "late" / command, tmp_path / "early" / command
        assert sorted(path.name for path in late.iterdir()) == sorted(path.name for path in early.iterdir())
        for path in late.iterdir():
            assert path.read_bytes() == (early / path.name).read_bytes(), path.name


def test_cmd_sweep_mixing_beats_endpoints(tmp_path):
    result = cmd_sweep(_sweep_config(iterations=100), out_dir=str(tmp_path))
    losses = result["mean_final_loss"]
    assert losses[1 / 3] < losses[0.0]
    assert losses[1 / 3] < losses[1.0]


def test_cmd_sweep_records_divergent_runs(tmp_path):
    result = cmd_sweep(_sweep_config(eta=1e9, probabilities=(0.3,), replicates=2), out_dir=str(tmp_path))
    assert len(result["failures"]) == 2
    lines = (tmp_path / "sweep_errors.csv").read_text().splitlines()
    assert lines[0] == "p,replicate,error"
    assert len(lines) == 3
    # main CSV still written, with only the header
    assert (tmp_path / "sweep.csv").read_text().splitlines() == [
        "p,replicate,iteration,avg_test_loss,accuracy,consensus_distance"
    ]


def test_cmd_sweep_requires_p(tmp_path):
    with pytest.raises(ConfigError, match="p is required"):
        cmd_sweep(_sweep_config(probabilities=()), out_dir=str(tmp_path))


def test_cmd_sweep_requires_task(tmp_path):
    with pytest.raises(ConfigError, match="task"):
        cmd_sweep(_sweep_config(task=None), out_dir=str(tmp_path))


def test_cmd_train_single_iteration_single_row(tmp_path):
    config = _sweep_config(iterations=1, probabilities=(0.3,))
    cmd_train(config, out_dir=str(tmp_path))
    lines = (tmp_path / "train.csv").read_text().splitlines()
    assert lines[0] == "iteration,avg_test_loss,accuracy,consensus_distance"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "1"


def test_cmd_train_requires_exactly_one_p(tmp_path):
    with pytest.raises(ConfigError, match="exactly one p"):
        cmd_train(_sweep_config(), out_dir=str(tmp_path))


def test_cmd_train_isolated_training_diverges_in_consensus(tmp_path):
    config = _sweep_config(iterations=60, probabilities=(0.0,))
    result = cmd_train(config, out_dir=str(tmp_path))
    trace = result["trace"]
    assert trace.consensus_distance[-1] > trace.consensus_distance[0]


def test_cmd_train_loss_decreases_at_good_p(tmp_path):
    config = _sweep_config(iterations=200, probabilities=(1 / 3,))
    result = cmd_train(config, out_dir=str(tmp_path))
    trace = result["trace"]
    assert trace.avg_test_loss[-1] < trace.avg_test_loss[0]


def test_cli_success_and_outputs(tmp_path):
    config = _write_config(
        tmp_path / "t.cfg", "topology = ring\nn = 8\n"
    )
    out = tmp_path / "results"
    assert main(["topology", "--config", config, "--out", str(out)]) == 0
    assert (out / "edges.txt").exists()


def test_cli_missing_config_file(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_bad_config_key(tmp_path):
    config = _write_config(tmp_path / "t.cfg", "topology = ring\nn = 8\nwat = 1\n")
    assert main(["analyze", "--config", config]) == 1


def test_cli_bad_usage_is_config_error():
    assert main(["analyze"]) == 1
    assert main(["frobnicate", "--config", "x"]) == 1


def test_cli_runtime_error_exit_code(tmp_path):
    config = _write_config(
        tmp_path / "t.cfg",
        "topology = ring\nn = 6\ntask = regression\neta = 1e12\niterations = 5\np = 0.3\nsamples_per_node = 10\n",
    )
    assert main(["train", "--config", config, "--out", str(tmp_path)]) == 2


def test_cli_bare_memory_error_has_a_message(tmp_path, capsys, monkeypatch):
    def out_of_memory(config, out_dir):
        raise MemoryError

    monkeypatch.setitem(radsgd.cli._COMMANDS, "topology", (out_of_memory, "raises MemoryError()"))
    config = _write_config(tmp_path / "t.cfg", "topology = ring\nn = 6\n")
    capsys.readouterr()
    assert main(["topology", "--config", config]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_cli_config_seed_changes_results(tmp_path):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP)
    reseeded = _write_config(tmp_path / "u.cfg", BASE_SWEEP.replace("seed = 7", "seed = 8"))
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", reseeded, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a != b


def test_cli_rejects_bad_parallel(tmp_path):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "out"), "--parallel", "0"]) == 1
    assert not (tmp_path / "out").exists()


def _assert_config_error(capsys, argv, field):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0], err
    assert err.count("error:") == 1


def test_cli_rejects_seed_flag(tmp_path, capsys):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP)
    _assert_config_error(capsys, ["sweep", "--config", config, "--out", str(tmp_path), "--seed", "3"], "--seed")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "line", ["sigma = 0.5", "noise_cov = 0.05", "classifier_bias = true", "p = 0, 0.3, -0.0", "out = x"]
)
def test_cli_removed_keys_and_repeated_p_are_config_errors(tmp_path, capsys, line):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP.replace("p = 0, 0.3333333333333333, 1", "") + line + "\n")
    field = "repeats" if line.startswith("p =") else f"unknown config key '{line.split()[0]}'"
    _assert_config_error(capsys, ["sweep", "--config", config, "--out", str(tmp_path)], field)
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "train", "topology"])
def test_cli_parallel_is_a_sweep_flag_only(tmp_path, capsys, command):
    config = _write_config(
        tmp_path / "t.cfg", "topology = ring\nn = 6\ntask = regression\np = 0.3\niterations = 2\n"
    )
    argv = [command, "--config", config, "--out", str(tmp_path / "out"), "--parallel", "2"]
    _assert_config_error(capsys, argv, "--parallel")
    assert not (tmp_path / "out").exists()


def test_cli_negative_graph_seed_is_config_error(tmp_path, capsys):
    config = _write_config(
        tmp_path / "t.cfg", "topology = erdos_renyi\nn = 10\nedge_prob = 0.5\ngraph_seed = -3\n"
    )
    _assert_config_error(capsys, ["topology", "--config", config, "--out", str(tmp_path)], "graph_seed")


@pytest.mark.parametrize("command", ["train", "sweep", "analyze"])
@pytest.mark.parametrize("epsilon", ["0.5", "0", "-0.1"])
def test_cli_epsilon_out_of_range_is_config_error(tmp_path, capsys, monkeypatch, command, epsilon):
    import radsgd.experiments

    def no_training(*args, **kwargs):
        raise AssertionError("training started despite an invalid epsilon")

    monkeypatch.setattr(radsgd.experiments, "train", no_training)
    # the ring has d_max = 2, so epsilon must lie in (0, 1/2)
    config = _write_config(
        tmp_path / "t.cfg",
        f"topology = ring\nn = 6\ntask = regression\niterations = 5\np = 0.3\n"
        f"samples_per_node = 10\ngrid_step = 0.1\nepsilon = {epsilon}\n",
    )
    _assert_config_error(capsys, [command, "--config", config, "--out", str(tmp_path)], "epsilon")


@pytest.mark.parametrize("command", ["analyze", "sweep", "topology"])
def test_cli_one_node_edge_list_is_config_error(tmp_path, capsys, command):
    edges = tmp_path / "one.txt"
    edges.write_text("n 1\n")
    config = _write_config(
        tmp_path / "t.cfg",
        f"topology = edge_list\nedge_list = {edges}\ntask = regression\niterations = 2\np = 0.3\n",
    )
    _assert_config_error(capsys, [command, "--config", config, "--out", str(tmp_path / "out")], "edge_list")


@pytest.mark.parametrize(
    "command, text, edges",
    [
        ("topology", "topology = ring\nn = 1000000000\n", None),
        ("topology", "topology = edge_list\nedge_list = {edges}\n", "n 1000000000\n0 1\n"),
        ("train", "topology = ring\nn = 4\ntask = regression\np = 0.3\nsamples_per_node = 100000000000000000\n", None),
        ("analyze", "topology = ring\nn = 4\ngrid_step = 1e-300\n", None),
        # numpy refuses an array of more than 2^63 bytes with a ValueError.
        ("analyze", "topology = ring\nn = 4\ngrid_step = 2e-19\n", None),
        ("topology", "topology = ring\nn = 1100000000\n", None),
        ("topology", "topology = complete\nn = 10000000000\n", None),
        ("topology", "topology = erdos_renyi\nn = 1100000000\nedge_prob = 0.5\ngraph_seed = 0\n", None),
        ("topology", "topology = edge_list\nedge_list = {edges}\n", "n 1100000000\n0 1\n"),
        ("topology", "topology = edge_list\nedge_list = {edges}\n", "n 10000000000\n0 1\n"),
        # Past 2^63 numpy refuses the dimension itself.
        ("topology", "topology = ring\nn = 100000000000000000000\n", None),
        ("train", "topology = ring\nn = 4\ntask = regression\np = 0.3\nsamples_per_node = 3000000000000000000\n", None),
        ("train", "topology = ring\nn = 4\ntask = regression\np = 0.3\nsamples_per_node = 10000000000000000000\n", None),
        ("train", "topology = ring\nn = 4\ntask = classification\np = 0.3\nsamples_per_node = 3000000000000000000\n", None),
        ("sweep", "topology = ring\nn = 4\ntask = regression\np = 0.3\nreplicates = 1000000000000\n", None),
    ],
    ids=[
        "ring_n", "edge_list_n", "samples_per_node", "grid_step", "grid_step_bytes",
        "ring_n_bytes", "complete_n_bytes", "erdos_renyi_n_bytes", "edge_list_n_bytes", "edge_list_n_bytes_10e9",
        "ring_n_dimension", "samples_per_node_bytes", "samples_per_node_dimension", "classification_samples_bytes",
        "replicates",
    ],
)
def test_cli_oversized_inputs_are_runtime_errors(tmp_path, capsys, command, text, edges):
    # The grid cases and the *_bytes and *_dimension cases, whose arrays numpy
    # cannot index, allocate nothing, nor does the sweep whose results would
    # exceed physical memory; in the others the first array asked for is far
    # above 2^47 bytes, so its allocation fails at once.
    if edges is not None:
        (tmp_path / "big.txt").write_text(edges)
    config = _write_config(tmp_path / "t.cfg", text.format(edges=tmp_path / "big.txt"))
    capsys.readouterr()
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


HUGE_GRAPHS = {
    "ring": "topology = ring\nn = 1000000000\n",
    "erdos_renyi": "topology = erdos_renyi\nn = 10000000\nedge_prob = 0.5\ngraph_seed = 0\n",
    "complete": "topology = complete\nn = 1000000\n",
}


@pytest.mark.parametrize(
    "command, graph",
    [("train", "ring"), ("sweep", "ring"), ("train", "erdos_renyi"), ("sweep", "erdos_renyi"),
     ("sweep", "complete"), ("analyze", "erdos_renyi")],
    ids=lambda value: value,
)
def test_cli_graphs_past_physical_memory_fail_in_every_command(tmp_path, capsys, command, graph):
    # Each graph would need far more than physical memory (or, for
    # erdos_renyi, days of draws); it fails before anything is allocated.
    config = _write_config(tmp_path / "t.cfg", HUGE_GRAPHS[graph] + "task = regression\np = 0.3\n")
    capsys.readouterr()
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "topology", "train", "sweep"])
@pytest.mark.parametrize("topology", ["ring", "edge_list", "ring_working_set"])
def test_cli_only_dense_commands_need_an_n_by_n_matrix(monkeypatch, tmp_path, capsys, command, topology):
    # With 2 MiB of physical memory the 2.88 MB Laplacian of a 600-node
    # graph does not fit, but the graph itself (about 150 KB) and one
    # sample per node (about 2 MB to generate and train on) do: analyze
    # and topology fail before writing anything, train and sweep run.
    # The 1.28 MB Laplacian of a 400-node ring fits, but the n x n arrays
    # that analyze inverts with or topology's eigen-solve holds do not.
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 2 << 20)
    edges = tmp_path / "path.txt"
    edges.write_text("n 600\n" + "".join(f"{i} {i + 1}\n" for i in range(599)))
    n = 400 if topology == "ring_working_set" else 600
    config = _write_config(
        tmp_path / "t.cfg",
        f"topology = {topology.removesuffix('_working_set')}\nn = {n}\nedge_list = {edges}\n"
        "task = regression\np = 0.3\niterations = 2\nsamples_per_node = 1\n",
    )
    capsys.readouterr()
    status = main([command, "--config", config, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command in ("analyze", "topology"):
        assert status == 2 and "physical memory" in err and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()
    else:
        assert status == 0, err


def test_edge_list_path_may_contain_hash(tmp_path):
    folder = tmp_path / "a#b"
    folder.mkdir()
    edges = folder / "edges.txt"
    edges.write_text("n 3\n0 1\n1 2\n")
    config = _write_config(tmp_path / "t.cfg", f"topology = edge_list\nedge_list = {edges}  # pinned\n")
    assert parse_config(config).edge_list == str(edges)
    assert main(["topology", "--config", config, "--out", str(tmp_path / "out")]) == 0


def test_cli_analyze_ring_1000_matches_circulant_closed_form(tmp_path):
    # The expected matrix of a ring is circulant, so the rate has a closed
    # form; n = 1000 is above the size the general eigensolver was capped at.
    n, eps = 1000, 1 / 3
    config = _write_config(tmp_path / "t.cfg", f"topology = ring\nn = {n}\ngrid_step = 0.25\n")
    assert main(["analyze", "--config", config, "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "analyze.csv", delimiter=",", skiprows=1)
    p, rate = rows[:, 0], rows[:, 2]
    assert len(p) == 5
    s = p * (1 - p) ** 2
    closed = np.maximum(np.abs(1 - eps * s * (2 - 2 * np.cos(2 * np.pi / n))), np.abs(1 - 4 * eps * s))
    np.testing.assert_allclose(rate, closed, rtol=0, atol=1e-12)


def test_cli_analyze_grid_ends_at_one(tmp_path):
    # arange(0, 1 + step/2, step) ends at 1.0002 for this step; the grid is
    # clamped to 1 where it is built.
    assert np.arange(0.0, 1.0 + 0.0003, 0.0006)[-1] > 1.0
    config = _write_config(tmp_path / "t.cfg", "topology = ring\nn = 6\ngrid_step = 0.0006\n")
    assert main(["analyze", "--config", config, "--out", str(tmp_path)]) == 0
    p = np.loadtxt(tmp_path / "analyze.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(p) == 1668
    assert p[-1] == 1.0 and np.all(np.diff(p) > 0)


@pytest.mark.parametrize("batch_size", [None, 4], ids=["full-batch", "batch4"])
def test_extending_the_p_grid_leaves_existing_cells_unchanged(tmp_path, batch_size):
    # A cell's streams are keyed by its p's bits and its replicate
    # (run_seed), its minibatches by its run seed: adding p = 0.2 to the
    # grid moves no byte of the rows at 0.1 and 0.3.
    text = (
        "topology = ring\nn = 8\ntask = classification\neta = 0.05\niterations = 20\nreplicates = 2\n"
        "seed = 7\nsamples_per_node = 12\ncheckpoint_every = 5\n"
        + ("" if batch_size is None else f"batch_size = {batch_size}\n")
    )
    rows = {}
    for grid in ("0.1, 0.3", "0.1, 0.2, 0.3"):
        config = _write_config(tmp_path / "t.cfg", text + f"p = {grid}\n")
        out = tmp_path / grid.replace(", ", "_")
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_bytes().splitlines(keepends=True)
        rows[grid] = [line for line in lines[1:] if not line.startswith(b"0.2,")]
    assert len(rows["0.1, 0.3"]) == 2 * 2 * 4
    assert rows["0.1, 0.2, 0.3"] == rows["0.1, 0.3"]


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0


def _set_posixly_correct(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("POSIXLY_CORRECT", raising=False)
    else:
        monkeypatch.setenv("POSIXLY_CORRECT", value)


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--help"], id="sweep-help"),
    pytest.param(["-h"], id="h"),
    pytest.param(["train", "--config", "x.cfg", "-h"], id="train-h"),
    pytest.param(["topology", "--he"], id="help-prefix"),
    # Help after a usage error still prints help: flags are read past strays.
    pytest.param(["sweep", "stray", "-h"], id="stray-h"),
    pytest.param(["frobnicate", "-h"], id="unknown-command-h"),
])
def test_cli_help_prints_every_command(monkeypatch, capsys, argv):
    # POSIXLY_CORRECT stops getopt.gnu_getopt at the first non-flag; the
    # CLI parses the same with and without it.
    for posix in (None, "1"):
        _set_posixly_correct(monkeypatch, posix)
        capsys.readouterr()
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for name, (_, help_text) in radsgd.cli._COMMANDS.items():
            assert f"radsgd {name} --config PATH [--out DIR]" in out and help_text in out, out
        assert "[--parallel K]" in out


def test_readme_shows_the_cli_usage(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "```text\n" + capsys.readouterr().out + "```" in section


@pytest.mark.parametrize("flags", [
    pytest.param("--config={config} --out={out}", id="equals"),
    pytest.param("--conf {config} --o {out}", id="prefixes"),
    pytest.param("--par 2 --config {config} --out {out}", id="parallel-prefix"),
    pytest.param("--out {other} --config {config} --out {out}", id="last-out-wins"),
])
def test_cli_flag_spellings_write_the_same_outputs(tmp_path, flags):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "want")]) == 0
    paths = {"config": config, "out": str(tmp_path / "out"), "other": str(tmp_path / "other")}
    assert main(["sweep", *(flag.format(**paths) for flag in flags.split())]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == (tmp_path / "want" / "sweep.csv").read_bytes()
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("argv, field", [
    pytest.param("", "no command", id="empty"),
    pytest.param("frobnicate --config {config}", "'frobnicate'", id="unknown-command"),
    pytest.param("sweep --config {config} --bogus", "--bogus", id="unknown-flag"),
    pytest.param("sweep --out {out} --config", "--config", id="no-value"),
    pytest.param("sweep --config {config} --out {out} stray", "'stray'", id="stray"),
    pytest.param("sweep --config {config} --out {out} --parallel x", "--parallel", id="parallel-x"),
])
def test_cli_usage_errors_exit_one_with_one_error_line(monkeypatch, tmp_path, capsys, argv, field):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP)
    paths = {"config": config, "out": str(tmp_path / "out")}
    for posix in (None, "1"):
        _set_posixly_correct(monkeypatch, posix)
        _assert_config_error(capsys, [arg.format(**paths) for arg in argv.split()], field)
        assert not (tmp_path / "out").exists()


def test_plots_emitted_when_enabled(tmp_path):
    config = ExperimentConfig(topology="ring", n=6, grid_step=0.05, plots=True)
    cmd_analyze(config, out_dir=str(tmp_path))
    svg = (tmp_path / "analyze_consensus.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_names_perfbench_wraps_resolve():
    # perfbench/tracer.py replaces each (module, attribute) of TARGETS by a
    # wrapper and wraps a task's loss and predict; a name that moved would
    # otherwise show only in perfbench's own smoke test. The one allowed
    # missing name is a row the tracer keeps after experiments stopped
    # importing consensus_rate.
    tracer = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value) for node in tracer.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    missing = {
        f"{module}.{attribute}" for _, module, attribute in targets
        if not callable(getattr(importlib.import_module(module), attribute, None))
    }
    assert missing <= {"radsgd.experiments.consensus_rate"}
    assert {"loss", "predict"} <= {f.name for f in dataclasses.fields(TaskSpec)}


# Per-layer metrics that perfbench/run.py adds to the tracer's summary; every
# other one comes from the summary of one traced command.
RUN_LEVEL_METRICS = {
    "experiments.node_slots", "experiments.grid_points", "trace.traced_wall_s", "trace.untraced_wall_s",
    "trace_overhead_frac",
}
TRACED_GRAPH = "topology = erdos_renyi\nn = 12\nedge_prob = 0.4\ngraph_seed = 1\nseed = 1\n"


@pytest.mark.parametrize("command, keys", [
    ("sweep", "task = classification\niterations = 20\np = 0, 0.2, 1\nreplicates = 1\ncheckpoint_every = 10\n"),
    ("analyze", "grid_step = 0.05\n"),
], ids=["sweep", "analyze"])
def test_traced_perfbench_command_passes_its_checks(tmp_path, command, keys):
    # perfbench/child.py runs one command under the tracer, as
    # `perfbench/run.py --trace 1` does, so a change that breaks what the
    # tracer wraps or reads fails here too.
    root = Path(__file__).parents[1]
    config = _write_config(tmp_path / "t.cfg", TRACED_GRAPH + keys)
    spec = {
        "src": str(root / "src"), "config": config,
        "argv": [command, "--config", config, "--out", str(tmp_path / "out")],
        "datasets": command == "sweep", "trace": True,
        "spans": str(tmp_path / "spans.json"), "stdout": str(tmp_path / "stdout.txt"),
        "result": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(tmp_path / "spec.json")],
        cwd=tmp_path, capture_output=True, text=True, env=dict(os.environ, **threads), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    trace = result["trace"]
    assert trace["hook_errors"] == {}
    assert set(trace["missing"]) <= {"radsgd.experiments.consensus_rate"}
    assert [check for check in trace["checks"] if not check[1]] == []
    per_layer = {m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
    assert sorted(per_layer - RUN_LEVEL_METRICS - set(trace["metrics"])) == []
    if command == "sweep":
        # The cells at p = 0 and p = 1 are one traced run.
        assert trace["metrics"]["experiments.cells"]["value"] == 2
        assert trace["metrics"]["learning.slots"]["value"] == 40
