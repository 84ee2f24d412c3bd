"""Golden outputs of seeded runs, pinned to rtol 1e-9.

golden/final_losses.json holds the final losses of three training runs,
recorded before the training loop was batched over nodes.
golden/checkpoints.json holds the test loss and the accuracy at every
checkpoint of the same runs, recorded before checkpoint evaluation moved
from a per-node loop to one evaluator per task. Accuracy is compared at
atol 1e-12, which pins the count of correct predictions (one prediction is
worth 1/(n * test size), far above 1e-12) but lets the float move by an
ulp: a count divided by n * test size is not the same sum as a mean of
per-node means. The analyze.csv
files, both optima of the two shipped analyze configs and the algebraic
connectivity of configs/topology_er.cfg were recorded before the consensus
rate moved from the general eigensolver to the symmetric reduction. Both
changes reorder floating-point sums, so a change may move the last bits
but nothing more. The train_classification_batch8 entries were recorded
again, alone, when the minibatch draw became one partial Fisher-Yates
shuffle of all nodes, which reads a different random stream, and again,
alone, when minibatches moved to a stream of their own, apart from the
channel's, drawn a block of slots at a time. The analyze_er and
analyze_ring entries were recorded again, alone, when the throughput
became a sum over the degree histogram instead of over the nodes: its
column moved by at most 6.2e-16 relative, and analyze_er's throughput
optimum by 1.15e-8 relative, past RTOL, because golden-section search at
tol 1e-9 cannot place the maximizer of a curve this flat at its top finer
than a few 1e-9 (both values lie within 5e-9 of the root of the
derivative). Their consensus_rate columns then took the current solver's
values, within 5.7e-15 of the eigensolver-era ones. Both optima of
analyze_er and analyze_ring were recorded again, alone, when each became
the root of its stationarity condition, found to adjacent floats in place
of a golden-section maximum: each moved onto its dense reference (a
long-double bisection for the throughput optimum, a dense-eigh one for the
spectral optimum) or within an ulp of it, and the analyze.csv files kept
their bytes. Rerecord
the entries whose outputs a change is meant to move, and only those, with

    PYTHONPATH=src python tests/test_golden.py NAME...

where each NAME is a key of RUNS or of SPECTRAL_RUNS (analyze_er,
analyze_ring, topology_er); every other entry keeps its bytes. Say which
entries were recorded again where the change is recorded.
"""

import csv
import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from radsgd.experiments import ExperimentConfig, cmd_analyze, cmd_sweep, cmd_topology, cmd_train, parse_config

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "final_losses.json")
CHECKPOINT_GOLDEN = os.path.join(GOLDEN_DIR, "checkpoints.json")
SPECTRAL_GOLDEN = os.path.join(GOLDEN_DIR, "spectral.json")
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
RTOL = 1e-9
# Absolute floor for entries at or near 0, as perfbench/checks.py uses.
ATOL = 1e-12

ANALYZE_RUNS = ("analyze_er", "analyze_ring")
SPECTRAL_RUNS = ANALYZE_RUNS + ("topology_er",)

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
    # Minibatches draw per-node indices from the run's batch stream, slot by
    # slot and in node order; the channel keeps the run's own stream.
    "train_classification_batch8": ("train", ExperimentConfig(
        topology="erdos_renyi", n=20, edge_prob=0.3, graph_seed=0,
        task="classification", eta=0.05, iterations=200, batch_size=8,
        probabilities=(0.1684,), seed=5, checkpoint_every=50,
    )),
}


def cell_rows(kind: str, config: ExperimentConfig, out_dir: str) -> dict[str, list[dict]]:
    """Run one command and return its CSV rows per cell, keyed "p,replicate"."""
    command = cmd_sweep if kind == "sweep" else cmd_train
    command(config, out_dir=out_dir)
    with open(os.path.join(out_dir, f"{kind}.csv"), encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    cells: dict[str, list[dict]] = {}
    for row in rows:
        key = f"{row.get('p', config.probabilities[0])},{row.get('replicate', 0)}"
        cells.setdefault(key, []).append(row)
    return cells


def final_values(cells: dict[str, list[dict]]) -> dict:
    """Final avg_test_loss and consensus_distance per cell."""
    return {
        key: [float(rows[-1]["avg_test_loss"]), float(rows[-1]["consensus_distance"])]
        for key, rows in cells.items()
    }


def checkpoint_values(cells: dict[str, list[dict]]) -> dict:
    """Iteration, avg_test_loss and accuracy (None for regression) at every checkpoint."""
    return {
        key: {
            "iteration": [int(row["iteration"]) for row in rows],
            "avg_test_loss": [float(row["avg_test_loss"]) for row in rows],
            "accuracy": [float(row["accuracy"]) if row["accuracy"] else None for row in rows],
        }
        for key, rows in cells.items()
    }


@pytest.fixture(scope="module")
def run_cells(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    return {name: cell_rows(kind, config, str(out_dir / name)) for name, (kind, config) in RUNS.items()}


def test_final_losses_match_golden(run_cells):
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    assert sorted(want) == sorted(RUNS)
    for name, cells in run_cells.items():
        got = final_values(cells)
        assert sorted(got) == sorted(want[name]), name
        for key, values in want[name].items():
            np.testing.assert_allclose(got[key], values, rtol=RTOL, atol=0, err_msg=f"{name} {key}")


def test_checkpoints_match_golden(run_cells):
    with open(CHECKPOINT_GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    assert sorted(want) == sorted(RUNS)
    for name, cells in run_cells.items():
        got = checkpoint_values(cells)
        assert sorted(got) == sorted(want[name]), name
        for key, values in want[name].items():
            label = f"{name} {key}"
            assert got[key]["iteration"] == values["iteration"], label
            np.testing.assert_allclose(
                got[key]["avg_test_loss"], values["avg_test_loss"], rtol=RTOL, atol=0, err_msg=label
            )
            if values["accuracy"][0] is None:
                assert got[key]["accuracy"] == values["accuracy"], label
            else:
                np.testing.assert_allclose(
                    got[key]["accuracy"], values["accuracy"], rtol=0, atol=ATOL, err_msg=label
                )


def analyze_csv_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.analyze.csv")


def spectral_entry(name: str, out_dir: str) -> dict:
    """Both optima of an analyze config, or the topology config's algebraic connectivity."""
    config = parse_config(os.path.join(CONFIGS, f"{name}.cfg"))
    if name in ANALYZE_RUNS:
        result = cmd_analyze(config, out_dir=os.path.join(out_dir, name))
        return {key: result[key] for key in ("throughput_optimal", "spectral_optimal")}
    result = cmd_topology(config, out_dir=os.path.join(out_dir, name))
    return {"algebraic_connectivity": result["algebraic_connectivity"]}


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def test_analyze_and_topology_match_golden(tmp_path):
    with open(SPECTRAL_GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    got = {name: spectral_entry(name, str(tmp_path)) for name in SPECTRAL_RUNS}
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


def _update(path: str, entries: dict):
    """Replace the given entries of one golden JSON file and keep the others."""
    if not entries:
        return
    with open(path, encoding="utf-8") as handle:
        values = json.load(handle)
    values.update(entries)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(values, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record(names: list[str]):
    """Record the named golden entries again from the current build; leave every other entry as it is."""
    known = [*RUNS, *SPECTRAL_RUNS]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        raise SystemExit(
            f"usage: test_golden.py NAME..., each NAME one of {', '.join(known)}"
            + (f"; unknown: {', '.join(unknown)}" if unknown else "")
        )
    with tempfile.TemporaryDirectory() as tmp:
        cells = {name: cell_rows(*RUNS[name], os.path.join(tmp, name)) for name in names if name in RUNS}
        spectral = {name: spectral_entry(name, tmp) for name in names if name in SPECTRAL_RUNS}
        for name in set(names) & set(ANALYZE_RUNS):
            shutil.copyfile(os.path.join(tmp, name, "analyze.csv"), analyze_csv_path(name))
    _update(GOLDEN, {name: final_values(rows) for name, rows in cells.items()})
    _update(CHECKPOINT_GOLDEN, {name: checkpoint_values(rows) for name, rows in cells.items()})
    _update(SPECTRAL_GOLDEN, spectral)


def test_record_rewrites_only_the_named_entries(tmp_path, monkeypatch):
    # Every golden copy holds markers that a re-record would overwrite; only
    # the named run's entries may lose theirs.
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN_DIR", str(tmp_path))
    names = {}
    for constant in ("GOLDEN", "CHECKPOINT_GOLDEN", "SPECTRAL_GOLDEN"):
        path = getattr(module, constant)
        with open(path, encoding="utf-8") as handle:
            names[os.path.basename(path)] = sorted(json.load(handle))
        copy = tmp_path / os.path.basename(path)
        copy.write_text(json.dumps(dict.fromkeys(names[copy.name], "marker")), encoding="utf-8")
        monkeypatch.setattr(module, constant, str(copy))
    for name in ANALYZE_RUNS:
        (tmp_path / f"{name}.analyze.csv").write_text("marker\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    with pytest.raises(SystemExit, match="unknown: bogus"):
        record(["sweep_regression_er30", "bogus"])
    with pytest.raises(SystemExit, match="usage"):
        record([])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    record(["sweep_regression_er30"])
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)
    for file in ("final_losses.json", "checkpoints.json"):
        got = json.loads(after[file])
        assert sorted(got) == names[file]
        assert {name for name, value in got.items() if value != "marker"} == {"sweep_regression_er30"}
        assert sorted(got["sweep_regression_er30"]) == ["0.1,0", "0.1,1", "0.3,0", "0.3,1"]
    for file in ("spectral.json", *(f"{name}.analyze.csv" for name in ANALYZE_RUNS)):
        assert after[file] == before[file], file


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
