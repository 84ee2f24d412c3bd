"""Config parsing, command, CSV, and CLI tests."""

import numpy as np
import pytest

from radsgd.cli import main
from radsgd.errors import ConfigError
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
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 6\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
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


def test_parse_config_rejects_negative_seed(tmp_path):
    path = _write_config(tmp_path / "a.cfg", "topology = ring\nn = 6\nseed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(path)


@pytest.mark.parametrize("line", ["sigma = nan", "noise_cov = inf", "eta = -inf"])
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


def test_cmd_analyze_parallel_matches_sequential(tmp_path):
    config = ExperimentConfig(topology="ring", n=8, grid_step=0.05)
    cmd_analyze(config, out_dir=str(tmp_path / "seq"), parallel=1)
    cmd_analyze(config, out_dir=str(tmp_path / "par"), parallel=2)
    assert (tmp_path / "seq" / "analyze.csv").read_bytes() == (tmp_path / "par" / "analyze.csv").read_bytes()


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


def test_cli_seed_override_changes_results(tmp_path):
    config = _write_config(tmp_path / "t.cfg", BASE_SWEEP)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "b"), "--seed", "8"]) == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a != b


def test_cli_rejects_bad_parallel(tmp_path):
    config = _write_config(tmp_path / "t.cfg", "topology = ring\nn = 8\n")
    assert main(["topology", "--config", config, "--parallel", "0"]) == 1


def _assert_config_error(capsys, argv, field):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0], err
    assert err.count("error:") == 1


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


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0


def test_plots_emitted_when_enabled(tmp_path):
    config = ExperimentConfig(topology="ring", n=6, grid_step=0.05, plots=True)
    cmd_analyze(config, out_dir=str(tmp_path))
    svg = (tmp_path / "analyze_consensus.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
