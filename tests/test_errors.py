"""The library's entry points raise RadsgdError subclasses for bad arguments."""

import numpy as np
import pytest

import radsgd.topology
from radsgd.errors import ConfigError, DimensionError, DomainError, GraphError, RadsgdError
from radsgd.learning import (
    LocalDataset,
    generate_classification_data,
    generate_regression_data,
    regression_task,
    train,
)
from radsgd.mac import AccessPolicy, expected_throughput, sign_change
from radsgd.mixing import consensus_rate, consensus_rate_scan, spectral_optimal_probability
from radsgd.topology import complete, erdos_renyi, from_edge_list, ring


def _train(**keywords):
    g = ring(4)
    data, test = generate_regression_data(4, 6, seed=0)
    return train(g, AccessPolicy.uniform(4, 0.3), regression_task(), data, test, **keywords)


CASES = {
    "erdos_renyi_negative_seed": (GraphError, lambda: erdos_renyi(5, 0.5, -1)),
    "ring_n_bytes": (GraphError, lambda: ring(1_100_000_000)),
    "ring_n_dimension": (GraphError, lambda: ring(10 ** 20)),
    "complete_n_bytes": (GraphError, lambda: complete(10 ** 10)),
    "erdos_renyi_n_bytes": (GraphError, lambda: erdos_renyi(1_100_000_000, 0.5, 0)),
    "edge_list_n_bytes": (GraphError, lambda: from_edge_list("n 1100000000\n0 1\n")),
    "scan_grid_step_zero": (DomainError, lambda: consensus_rate_scan(ring(4), 0.25, 0.0)),
    "scan_grid_step_negative": (DomainError, lambda: consensus_rate_scan(ring(4), 0.25, -0.1)),
    "scan_grid_step_nan": (DomainError, lambda: consensus_rate_scan(ring(4), 0.25, np.nan)),
    "scan_grid_step_inf": (DomainError, lambda: consensus_rate_scan(ring(4), 0.25, np.inf)),
    "optimum_grid_step_zero": (DomainError, lambda: spectral_optimal_probability(ring(4), 0.25, grid_step=0)),
    "optimum_grid_step_negative": (DomainError, lambda: spectral_optimal_probability(ring(4), 0.25, grid_step=-0.1)),
    "optimum_grid_step_nan": (DomainError, lambda: spectral_optimal_probability(ring(4), 0.25, grid_step=np.nan)),
    "rate_p_array_nan": (DomainError, lambda: consensus_rate(ring(4), 0.25, np.array([0.2, np.nan]))),
    "rate_p_array_inf": (DomainError, lambda: consensus_rate(ring(4), 0.25, np.array([0.2, np.inf]))),
    "rate_p_array_negative_inf": (DomainError, lambda: consensus_rate(ring(4), 0.25, np.array([-np.inf, 0.2]))),
    "rate_p_array_above_one": (DomainError, lambda: consensus_rate(ring(4), 0.25, np.array([0.2, 1.5]))),
    "rate_p_array_negative": (DomainError, lambda: consensus_rate(ring(4), 0.25, np.array([[0.2], [-0.1]]))),
    "throughput_p_array_nan": (DomainError, lambda: expected_throughput(ring(4), np.array([0.2, np.nan]))),
    "throughput_p_array_above_one": (DomainError, lambda: expected_throughput(ring(4), np.array([[0.2], [1.5]]))),
    "search_hi_inf": (DomainError, lambda: sign_change(lambda x: -x, 0.0, np.inf)),
    "search_lo_negative_inf": (DomainError, lambda: sign_change(lambda x: -x, -np.inf, 1.0)),
    "search_lo_nan": (DomainError, lambda: sign_change(lambda x: -x, np.nan, 1.0)),
    "search_hi_nan": (DomainError, lambda: sign_change(lambda x: -x, 0.0, np.nan)),
    "search_lo_above_hi": (DomainError, lambda: sign_change(lambda x: -x, 1.0, 0.0)),
    "dataset_nan_feature": (DomainError, lambda: LocalDataset(np.full((2, 1), np.nan), np.zeros(2))),
    "dataset_inf_label": (DomainError, lambda: LocalDataset(np.zeros((2, 1)), np.array([0.0, np.inf]))),
    "regression_samples_bytes": (DimensionError, lambda: generate_regression_data(4, 3 * 10 ** 18, 0)),
    "regression_samples_dimension": (DimensionError, lambda: generate_regression_data(4, 10 ** 19, 0)),
    "classification_samples_bytes": (DimensionError, lambda: generate_classification_data(4, 3 * 10 ** 18, 0)),
    "classification_samples_dimension": (DimensionError, lambda: generate_classification_data(4, 10 ** 19, 0)),
    "train_iterations_float": (ConfigError, lambda: _train(iterations=1.5)),
    "train_iterations_str": (ConfigError, lambda: _train(iterations="3")),
    "train_checkpoint_every_float": (ConfigError, lambda: _train(iterations=5, checkpoint_every=2.5)),
    "train_batch_size_float": (ConfigError, lambda: _train(iterations=2, batch_size=1.5)),
    "train_batch_size_zero": (ConfigError, lambda: _train(iterations=2, batch_size=0)),
    "train_batch_size_negative": (ConfigError, lambda: _train(iterations=2, batch_size=-3)),
    "train_seed_negative": (ConfigError, lambda: _train(iterations=2, seed=-1)),
    "train_seed_float": (ConfigError, lambda: _train(iterations=2, seed=1.5)),
    "train_seed_str": (ConfigError, lambda: _train(iterations=2, seed="3")),
    "train_seed_generator": (ConfigError, lambda: _train(iterations=2, seed=np.random.default_rng(0))),
    "regression_seed_negative": (ConfigError, lambda: generate_regression_data(4, 5, -1)),
    "regression_seed_float": (ConfigError, lambda: generate_regression_data(4, 5, 1.5)),
    "classification_seed_negative": (ConfigError, lambda: generate_classification_data(4, 5, -1)),
    "classification_seed_float": (ConfigError, lambda: generate_classification_data(4, 5, 1.5)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_arguments_raise_radsgd_errors(name):
    error, call = CASES[name]
    assert issubclass(error, RadsgdError)
    with pytest.raises(error):
        call()


def test_expected_throughput_checks_physical_memory(monkeypatch):
    # 200000 points of one distinct degree take 1.6 MB of terms.
    ps = np.full(200_000, 0.3)
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 1 << 20)
    with pytest.raises(DomainError, match="physical memory"):
        expected_throughput(ring(4), ps)
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 4 << 20)
    assert expected_throughput(ring(4), ps).shape == ps.shape


def test_train_takes_numpy_integers():
    trace = _train(iterations=np.int64(4), batch_size=np.int32(3), checkpoint_every=np.uint8(2))
    assert list(trace.iterations) == [2, 4]


@pytest.mark.parametrize(
    "make",
    [
        lambda: ring(5),
        lambda: AccessPolicy.uniform(5, 0.3),
        lambda: generate_regression_data(4, 6, seed=0)[0],
        lambda: _train(iterations=2),
    ],
    ids=["graph", "access_policy", "local_dataset", "metric_trace"],
)
def test_array_holding_values_compare_and_hash_by_identity(make):
    # A generated __eq__ would compare numpy arrays and raise ValueError.
    a, b = make(), make()
    assert a == a and a != b and len({a, b}) == 2
