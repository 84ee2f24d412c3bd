"""Golden outputs of seeded runs, pinned to rtol 1e-9.

golden/final_losses.json holds the final losses of three training runs,
recorded before the training loop was batched over nodes. The analyze.csv
files, both optima of the two shipped analyze configs and the algebraic
connectivity of configs/topology_er.cfg were recorded before the consensus
rate moved from the general eigensolver to the symmetric reduction. Both
changes reorder floating-point sums, so a change may move the last bits
but nothing more. Rerecord with

    PYTHONPATH=src python tests/test_golden.py

only when a change of the outputs is intended, and say so where the
change is recorded.
"""

import csv
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from radsgd.experiments import ExperimentConfig, cmd_analyze, cmd_sweep, cmd_topology, cmd_train, parse_config

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "final_losses.json")
SPECTRAL_GOLDEN = os.path.join(GOLDEN_DIR, "spectral.json")
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
RTOL = 1e-9
# Absolute floor for entries at or near 0, as perfbench/checks.py uses.
ATOL = 1e-12

ANALYZE_RUNS = ("analyze_er", "analyze_ring")

RUNS = {
    # The benchmark's classification sweep: full-batch softmax gradients.
    "sweep_classification_er20": ("sweep", ExperimentConfig(
        topology="erdos_renyi", n=20, edge_prob=0.3, graph_seed=0,
        task="classification", eta=0.01, iterations=200,
        probabilities=(0.0, 0.1684, 0.5, 1.0), replicates=1, seed=0,
        checkpoint_every=50,
    )),
    "sweep_regression_er30": ("sweep", ExperimentConfig(
        topology="erdos_renyi", n=30, edge_prob=0.2, graph_seed=1,
        task="regression", eta=0.01, iterations=100,
        probabilities=(0.1, 0.3), replicates=2, seed=3,
        checkpoint_every=25,
    )),
    # Minibatches draw per-node indices from the run's stream in node order.
    "train_classification_batch8": ("train", ExperimentConfig(
        topology="erdos_renyi", n=20, edge_prob=0.3, graph_seed=0,
        task="classification", eta=0.05, iterations=200, batch_size=8,
        probabilities=(0.1684,), seed=5, checkpoint_every=50,
    )),
}


def final_values(kind: str, config: ExperimentConfig, out_dir: str) -> dict:
    """Final avg_test_loss and consensus_distance per cell, keyed "p,replicate"."""
    command = cmd_sweep if kind == "sweep" else cmd_train
    command(config, out_dir=out_dir)
    with open(os.path.join(out_dir, f"{kind}.csv"), encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    last = {}
    for row in rows:
        key = f"{row.get('p', config.probabilities[0])},{row.get('replicate', 0)}"
        last[key] = [float(row["avg_test_loss"]), float(row["consensus_distance"])]
    return last


def test_final_losses_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    assert sorted(want) == sorted(RUNS)
    for name, (kind, config) in RUNS.items():
        got = final_values(kind, config, str(tmp_path / name))
        assert sorted(got) == sorted(want[name]), name
        for key, values in want[name].items():
            np.testing.assert_allclose(got[key], values, rtol=RTOL, atol=0, err_msg=f"{name} {key}")


def analyze_csv_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.analyze.csv")


def spectral_values(out_dir: str) -> dict:
    """Both optima of each analyze config and the topology config's algebraic connectivity."""
    values = {}
    for name in ANALYZE_RUNS:
        result = cmd_analyze(parse_config(os.path.join(CONFIGS, f"{name}.cfg")), out_dir=os.path.join(out_dir, name))
        values[name] = {key: result[key] for key in ("throughput_optimal", "spectral_optimal")}
    result = cmd_topology(parse_config(os.path.join(CONFIGS, "topology_er.cfg")), out_dir=os.path.join(out_dir, "topology"))
    values["topology_er"] = {"algebraic_connectivity": result["algebraic_connectivity"]}
    return values


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def test_analyze_and_topology_match_golden(tmp_path):
    with open(SPECTRAL_GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    got = spectral_values(str(tmp_path))
    assert sorted(got) == sorted(want)
    for name, values in want.items():
        for key, value in values.items():
            np.testing.assert_allclose(got[name][key], value, rtol=RTOL, atol=ATOL, err_msg=f"{name} {key}")
    for name in ANALYZE_RUNS:
        want_header, want_rows = _read_csv(analyze_csv_path(name))
        got_header, got_rows = _read_csv(str(tmp_path / name / "analyze.csv"))
        assert got_header == want_header
        assert want_rows.shape == (1001, 3)
        np.testing.assert_allclose(got_rows, want_rows, rtol=RTOL, atol=ATOL, err_msg=name)


def record():
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            name: final_values(kind, config, os.path.join(tmp, name))
            for name, (kind, config) in RUNS.items()
        }
        spectral = spectral_values(tmp)
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for name in ANALYZE_RUNS:
            shutil.copyfile(os.path.join(tmp, name, "analyze.csv"), analyze_csv_path(name))
    for path, values in ((GOLDEN, golden), (SPECTRAL_GOLDEN, spectral)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    sys.exit(record())
