"""Task, dataset, and training-loop tests."""

import numpy as np
import pytest

from radsgd.errors import ConfigError, DimensionError, DivergenceError, DomainError
from radsgd.learning import (
    LocalDataset,
    TrainConfig,
    TrainState,
    classification_task,
    dsgd_step,
    generate_classification_data,
    generate_regression_data,
    local_gradient,
    regression_task,
    train,
)
from radsgd.mac import AccessPolicy
from radsgd.mixing import base_weight_matrix
from radsgd.topology import complete, ring


def _finite_difference(task, params, features, labels, step=1e-6):
    grad = np.zeros_like(params)
    for k in range(params.shape[0]):
        up = params.copy()
        down = params.copy()
        up[k] += step
        down[k] -= step
        grad[k] = (task.loss(up, features, labels) - task.loss(down, features, labels)) / (2 * step)
    return grad


def test_regression_data_noiseless_equals_bias():
    datasets, _ = generate_regression_data(4, 10, seed=0, sigma=0.0)
    for ds in datasets:
        assert np.all(ds.labels == ds.labels[0])
        assert -1.0 <= ds.labels[0] <= 5.0


def test_regression_data_default_test_size():
    _, test = generate_regression_data(20, 100, seed=1)
    assert test.size == 2000


def test_regression_data_deterministic():
    a_local, a_test = generate_regression_data(6, 30, seed=5)
    b_local, b_test = generate_regression_data(6, 30, seed=5)
    for a, b in zip(a_local, b_local):
        assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_regression_test_set_balanced_across_biases():
    datasets, test = generate_regression_data(5, 10, seed=2, sigma=0.0, test_per_node=7)
    biases = np.array([ds.labels[0] for ds in datasets])
    assert test.size == 35
    for i, bias in enumerate(biases):
        assert np.all(test.labels[7 * i : 7 * (i + 1)] == bias)


def test_classification_data_nodes_per_class():
    datasets, _ = generate_classification_data(20, 100, seed=3)
    class_of = [int(ds.labels[0]) for ds in datasets]
    assert class_of == [i % 4 for i in range(20)]
    for cls in range(4):
        assert class_of.count(cls) == 5


def test_classification_data_noiseless_equals_center():
    datasets, _ = generate_classification_data(8, 5, seed=4, noise_cov=0.0)
    for ds in datasets:
        assert np.all(ds.features == ds.features[0])
    # nodes of the same class share the center
    assert np.allclose(datasets[0].features[0], datasets[4].features[0])


def test_classification_test_histogram_balanced():
    _, test = generate_classification_data(20, 100, seed=6)
    _, counts = np.unique(test.labels, return_counts=True)
    assert list(counts) == [500, 500, 500, 500]


def test_classification_data_rejects_indivisible_nodes():
    with pytest.raises(ConfigError):
        generate_classification_data(10, 100, seed=0)


def test_classification_data_deterministic():
    a_local, a_test = generate_classification_data(8, 20, seed=9)
    b_local, b_test = generate_classification_data(8, 20, seed=9)
    for a, b in zip(a_local, b_local):
        assert np.array_equal(a.features, b.features)
    assert np.array_equal(a_test.features, b_test.features)


def test_local_dataset_validation():
    with pytest.raises(DimensionError):
        LocalDataset(0, np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        LocalDataset(0, np.full((2, 1), np.nan), np.zeros(2))


def test_regression_gradient_stationary_at_batch_mean():
    task = regression_task()
    labels = np.array([1.0, 2.0, 6.0])
    features = np.zeros((3, 0))
    grad = local_gradient(task, np.array([labels.mean()]), features, labels)
    assert grad[0] == pytest.approx(0.0, abs=1e-15)


def test_regression_gradient_direct_value():
    task = regression_task()
    grad = local_gradient(task, np.array([1.0]), np.zeros((1, 0)), np.array([0.0]))
    assert grad[0] == pytest.approx(2.0, abs=1e-15)


def test_local_gradient_rejects_empty_batch():
    task = regression_task()
    with pytest.raises(DomainError):
        local_gradient(task, np.array([1.0]), np.zeros((0, 0)), np.zeros(0))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    reg = regression_task()
    for _ in range(10):
        params = rng.standard_normal(1)
        labels = rng.standard_normal(12)
        grad = reg.gradient(params, np.zeros((12, 0)), labels)
        fd = _finite_difference(reg, params, np.zeros((12, 0)), labels)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1e-8, np.linalg.norm(fd))
    for task in (classification_task(), classification_task(bias=False)):
        for _ in range(10):
            params = rng.standard_normal(task.dim)
            features = rng.standard_normal((15, 2))
            labels = rng.integers(0, 4, 15)
            grad = task.gradient(params, features, labels)
            fd = _finite_difference(task, params, features, labels)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1e-8, np.linalg.norm(fd))


def _regression_setup(n, seed=0):
    task = regression_task()
    datasets, test = generate_regression_data(n, 20, seed=seed)
    return task, datasets, test


def _stacked(datasets):
    return np.stack([d.features for d in datasets]), np.stack([d.labels for d in datasets])


def _matrix(w):
    return lambda z: w @ z


def test_dsgd_step_identity_mixing_zero_step_is_noop():
    task, datasets, _ = _regression_setup(4)
    state = TrainState(np.array([[1.0], [2.0], [3.0], [4.0]]), 0, 0.0, np.random.default_rng(0))
    out = dsgd_step(state, _matrix(np.eye(4)), *_stacked(datasets), task)
    assert np.array_equal(out.params, state.params)
    assert out.iteration == 1


def test_dsgd_step_full_averaging_zero_step():
    task, datasets, _ = _regression_setup(4)
    params = np.array([[1.0], [2.0], [3.0], [4.0]])
    state = TrainState(params.copy(), 0, 0.0, np.random.default_rng(0))
    out = dsgd_step(state, _matrix(np.full((4, 4), 0.25)), *_stacked(datasets), task)
    assert np.allclose(out.params, 2.5)


def test_dsgd_step_zero_step_is_linear_map():
    task, datasets, _ = _regression_setup(5)
    rng = np.random.default_rng(1)
    w = rng.uniform(0, 1, (5, 5))
    w /= w.sum(axis=1, keepdims=True)
    params = rng.standard_normal((5, 1))
    state = TrainState(params.copy(), 0, 0.0, np.random.default_rng(0))
    out = dsgd_step(state, _matrix(w), *_stacked(datasets), task)
    assert np.allclose(out.params, w @ params, atol=1e-14)


def test_dsgd_step_rejects_mismatched_mixing():
    task, datasets, _ = _regression_setup(4)
    state = TrainState(np.zeros((4, 1)), 0, 0.01, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        dsgd_step(state, lambda z: np.eye(3) @ z[:3], *_stacked(datasets), task)


def test_dsgd_step_preserves_mean_under_full_success():
    # with the doubly stochastic base matrix (all links successful), the
    # node average moves exactly by the average gradient half-step
    g = ring(6)
    w = base_weight_matrix(g, 1 / 3)
    task, datasets, _ = _regression_setup(6, seed=3)
    rng = np.random.default_rng(2)
    state = TrainState(rng.standard_normal((6, 1)), 0, 0.05, rng)
    grads = np.stack(
        [task.gradient(state.params[j], datasets[j].features, datasets[j].labels) for j in range(6)]
    )
    expected_mean = state.params.mean(axis=0) - 0.05 * grads.mean(axis=0)
    out = dsgd_step(state, _matrix(w), *_stacked(datasets), task)
    assert np.abs(out.params.mean(axis=0) - expected_mean).max() <= 1e-10


def test_batch_sampling_is_without_replacement():
    task = regression_task()
    labels = np.arange(10, dtype=float)
    datasets = [LocalDataset(0, np.zeros((10, 0)), labels)]
    # batch = dataset size keeps the full batch, so the gradient is exact
    state = TrainState(np.array([[0.0]]), 0, 0.5, np.random.default_rng(0))
    out = dsgd_step(state, _matrix(np.eye(1)), *_stacked(datasets), task, batch_size=10)
    assert out.params[0, 0] == pytest.approx(0.5 * 2 * labels.mean(), abs=1e-14)


def test_train_deterministic_bitwise():
    g = ring(6)
    task, datasets, test = _regression_setup(6, seed=7)
    config = TrainConfig(iterations=40, step_size=0.01, seed=21)
    policy = AccessPolicy.uniform(6, 1 / 3)
    a = train(g, policy, task, datasets, test, config)
    b = train(g, policy, task, datasets, test, config)
    assert np.array_equal(a.avg_test_loss, b.avg_test_loss)
    assert np.array_equal(a.consensus_distance, b.consensus_distance)
    assert np.array_equal(a.iterations, b.iterations)


def test_train_divergence_detection():
    g = ring(6)
    task, datasets, test = _regression_setup(6, seed=7)
    config = TrainConfig(iterations=10, step_size=1e9, seed=0)
    with pytest.raises(DivergenceError):
        train(g, AccessPolicy.uniform(6, 0.3), task, datasets, test, config)


def test_train_endpoint_probabilities_use_identity_mixing():
    # at p = 0 and p = 1 nothing is ever decoded, so training is purely
    # local; both traces must be identical to isolated SGD
    g = ring(6)
    task, datasets, test = _regression_setup(6, seed=8)
    traces = []
    for p in (0.0, 1.0):
        config = TrainConfig(iterations=30, step_size=0.01, seed=5)
        traces.append(train(g, AccessPolicy.uniform(6, p), task, datasets, test, config))
    assert np.array_equal(traces[0].avg_test_loss, traces[1].avg_test_loss)
    assert traces[0].consensus_distance[-1] > 0  # non-IID local optima drift apart


def test_train_noiseless_complete_graph_reaches_mean_bias():
    g = complete(4)
    task = regression_task()
    datasets, test = generate_regression_data(4, 10, seed=5, sigma=0.0)
    biases = np.array([ds.labels[0] for ds in datasets])
    w = base_weight_matrix(g, 0.25)
    state = TrainState(np.zeros((4, 1)), 0, 0.01, np.random.default_rng(0))
    features, labels = _stacked(datasets)
    for _ in range(2000):
        state = dsgd_step(state, _matrix(w), features, labels, task)
    assert np.abs(state.params - biases.mean()).max() <= 1e-3


def test_train_mixing_beats_isolated_training():
    g = ring(6)
    task, datasets, test = _regression_setup(6, seed=11)
    finals = {}
    consensus = {}
    for p in (0.0, 1 / 3):
        config = TrainConfig(iterations=100, step_size=0.01, seed=3)
        trace = train(g, AccessPolicy.uniform(6, p), task, datasets, test, config)
        finals[p] = trace.avg_test_loss[-1]
        consensus[p] = trace.consensus_distance[-1]
    assert finals[1 / 3] < finals[0.0]
    assert consensus[1 / 3] < consensus[0.0]


def test_train_checkpoint_rules():
    g = ring(6)
    task, datasets, test = _regression_setup(6, seed=9)
    policy = AccessPolicy.uniform(6, 0.3)
    one = train(g, policy, task, datasets, test, TrainConfig(iterations=1, seed=0))
    assert list(one.iterations) == [1]
    spaced = train(
        g, policy, task, datasets, test,
        TrainConfig(iterations=25, seed=0, checkpoint_every=10),
    )
    assert list(spaced.iterations) == [10, 20, 25]
    auto = train(g, policy, task, datasets, test, TrainConfig(iterations=12, seed=0))
    assert list(auto.iterations) == list(range(1, 13))


def test_train_accuracy_reported_for_classification():
    g = ring(8)
    task = classification_task()
    datasets, test = generate_classification_data(8, 20, seed=3)
    trace = train(
        g, AccessPolicy.uniform(8, 0.3), task, datasets, test,
        TrainConfig(iterations=5, seed=1),
    )
    assert np.all((trace.accuracy >= 0) & (trace.accuracy <= 1))
    reg_trace = train(
        g, AccessPolicy.uniform(8, 0.3), regression_task(),
        *_regression_setup(8, seed=2)[1:], TrainConfig(iterations=5, seed=1),
    )
    assert np.all(np.isnan(reg_trace.accuracy))
