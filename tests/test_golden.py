"""Golden outputs: final losses of three seeded runs, pinned to rtol 1e-9.

The references in golden/final_losses.json were recorded before the
training loop was batched over nodes. Batching reorders floating-point
sums, so a change may move the last bits but nothing more. Rerecord with

    PYTHONPATH=src python tests/test_golden.py

only when a change of the outputs is intended, and say so where the
change is recorded.
"""

import csv
import json
import os
import sys
import tempfile

import numpy as np

from radsgd.experiments import ExperimentConfig, cmd_sweep, cmd_train

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "final_losses.json")
RTOL = 1e-9

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


def record():
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            name: final_values(kind, config, os.path.join(tmp, name))
            for name, (kind, config) in RUNS.items()
        }
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(record())
