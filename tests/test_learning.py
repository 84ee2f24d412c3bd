"""Task, dataset, and training-loop tests."""

import tracemalloc

import numpy as np
import pytest

import radsgd.learning
import radsgd.topology
from radsgd.errors import ConfigError, DimensionError, DivergenceError, DomainError
from radsgd.learning import (
    LocalDataset,
    _draw_batch,
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
from radsgd.topology import complete, erdos_renyi, ring


def _finite_difference(task, params, features, labels, step=1e-6):
    grad = np.zeros_like(params)
    for k in range(params.shape[0]):
        up = params.copy()
        down = params.copy()
        up[k] += step
        down[k] -= step
        grad[k] = (task.loss(up, features, labels) - task.loss(down, features, labels)) / (2 * step)
    return grad


def test_regression_data_noiseless_equals_bias(monkeypatch):
    monkeypatch.setattr(radsgd.learning, "REGRESSION_NOISE", 0.0)
    data, _ = generate_regression_data(4, 10, seed=0)
    assert data.features.shape == (4, 10, 0)
    for labels in data.labels:
        assert np.all(labels == labels[0])
        assert -1.0 <= labels[0] <= 5.0


def test_regression_data_default_test_size():
    _, test = generate_regression_data(20, 100, seed=1)
    assert test.size == 2000


def test_regression_data_deterministic():
    a_local, a_test = generate_regression_data(6, 30, seed=5)
    b_local, b_test = generate_regression_data(6, 30, seed=5)
    assert np.array_equal(a_local.labels, b_local.labels)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_regression_test_set_balanced_across_biases(monkeypatch):
    monkeypatch.setattr(radsgd.learning, "REGRESSION_NOISE", 0.0)
    data, test = generate_regression_data(5, 10, seed=2, test_per_node=7)
    biases = data.labels[:, 0]
    assert test.size == 35
    for i, bias in enumerate(biases):
        assert np.all(test.labels[7 * i : 7 * (i + 1)] == bias)


def test_classification_data_nodes_per_class():
    data, _ = generate_classification_data(20, 100, seed=3)
    assert data.features.shape == (20, 100, 2)
    assert np.all(data.labels == data.labels[:, :1])
    class_of = [int(labels[0]) for labels in data.labels]
    assert class_of == [i % 4 for i in range(20)]
    for cls in range(4):
        assert class_of.count(cls) == 5


def test_classification_data_noiseless_equals_center(monkeypatch):
    monkeypatch.setattr(radsgd.learning, "CLUSTER_COV", 0.0)
    data, _ = generate_classification_data(8, 5, seed=4)
    for features in data.features:
        assert np.all(features == features[0])
    # nodes of the same class share the center
    assert np.allclose(data.features[0][0], data.features[4][0])


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
    assert np.array_equal(a_local.features, b_local.features)
    assert np.array_equal(a_test.features, b_test.features)


def test_local_dataset_validation():
    with pytest.raises(DimensionError):
        LocalDataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DomainError):
        LocalDataset(np.full((2, 1), np.nan), np.zeros(2))


def test_local_dataset_stacked_validation():
    data = LocalDataset(np.zeros((4, 3, 2)), np.zeros((4, 3)))
    assert data.size == 3
    assert not data.features.flags.writeable and not data.labels.flags.writeable
    for features, labels in (
        (np.zeros((4, 3, 2)), np.zeros((4, 2))),  # sample axes differ
        (np.zeros((4, 3, 2)), np.zeros((3, 3))),  # node axes differ
        (np.zeros((4, 3, 2)), np.zeros(3)),  # node axis missing from the labels
        (np.zeros((4, 0, 2)), np.zeros((4, 0))),  # no samples
        (np.zeros(3), np.zeros(())),  # no sample axis
    ):
        with pytest.raises(DimensionError):
            LocalDataset(features, labels)
    with pytest.raises(DomainError):
        LocalDataset(np.zeros((4, 3, 2)), np.full((4, 3), np.inf))
    features = np.zeros((4, 3, 2))
    features[2, 1, 0] = np.nan
    with pytest.raises(DomainError):
        LocalDataset(features, np.zeros((4, 3)))


def test_regression_gradient_stationary_at_batch_mean():
    task = regression_task()
    labels = np.array([1.0, 2.0, 6.0])
    features = np.zeros((3, 0))
    grad = local_gradient(task.gradient(features, labels), np.array([labels.mean()]))
    assert grad[0] == pytest.approx(0.0, abs=1e-15)


def test_regression_gradient_direct_value():
    task = regression_task()
    grad = local_gradient(task.gradient(np.zeros((1, 0)), np.array([0.0])), np.array([1.0]))
    assert grad[0] == pytest.approx(2.0, abs=1e-15)


def test_local_gradient_rejects_empty_batch():
    # The batch is checked when the gradient is bound to it.
    for task, f in ((regression_task(), 0), (classification_task(), 2)):
        with pytest.raises(DomainError):
            task.gradient(np.zeros((0, f)), np.zeros(0, dtype=np.int64))
        with pytest.raises(DomainError):
            task.gradient(np.zeros((3, 0, f)), np.zeros((3, 0), dtype=np.int64))


def test_local_gradient_rejects_a_gradient_of_another_shape():
    params = np.zeros((4, 1))
    with pytest.raises(DimensionError, match=r"\(4, 1\)"):
        local_gradient(lambda x: x[:3], params)
    with pytest.raises(DimensionError):
        local_gradient(lambda x: x.ravel(), params)
    # Bound to two nodes' data, the regression gradient broadcasts one
    # node's params to a (2, 1) result.
    bound = regression_task().gradient(np.zeros((2, 5, 0)), np.ones((2, 5)))
    with pytest.raises(DimensionError):
        local_gradient(bound, np.zeros((1, 1)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    reg = regression_task()
    for _ in range(10):
        params = rng.standard_normal(1)
        labels = rng.standard_normal(12)
        grad = reg.gradient(np.zeros((12, 0)), labels)(params)
        fd = _finite_difference(reg, params, np.zeros((12, 0)), labels)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1e-8, np.linalg.norm(fd))
    task = classification_task()
    for _ in range(10):
        params = rng.standard_normal(task.dim)
        features = rng.standard_normal((15, 2))
        labels = rng.integers(0, 4, 15)
        grad = task.gradient(features, labels)(params)
        fd = _finite_difference(task, params, features, labels)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1e-8, np.linalg.norm(fd))


def _regression_setup(n, seed=0):
    task = regression_task()
    data, test = generate_regression_data(n, 20, seed=seed)
    return task, data, test


def _matrix(w):
    return lambda z: w @ z


def test_dsgd_step_identity_mixing_zero_step_is_noop():
    task, data, _ = _regression_setup(4)
    params = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = dsgd_step(params, 0.0, _matrix(np.eye(4)), task.gradient(data.features, data.labels))
    assert np.array_equal(out, params)


def test_dsgd_step_full_averaging_zero_step():
    task, data, _ = _regression_setup(4)
    params = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = dsgd_step(params.copy(), 0.0, _matrix(np.full((4, 4), 0.25)), task.gradient(data.features, data.labels))
    assert np.allclose(out, 2.5)


def test_dsgd_step_zero_step_is_linear_map():
    task, data, _ = _regression_setup(5)
    rng = np.random.default_rng(1)
    w = rng.uniform(0, 1, (5, 5))
    w /= w.sum(axis=1, keepdims=True)
    params = rng.standard_normal((5, 1))
    out = dsgd_step(params.copy(), 0.0, _matrix(w), task.gradient(data.features, data.labels))
    assert np.allclose(out, w @ params, atol=1e-14)


def test_dsgd_step_rejects_mismatched_mixing():
    task, data, _ = _regression_setup(4)
    with pytest.raises(DimensionError):
        dsgd_step(np.zeros((4, 1)), 0.01, lambda z: np.eye(3) @ z[:3], task.gradient(data.features, data.labels))


def test_dsgd_step_preserves_mean_under_full_success():
    # with the doubly stochastic base matrix (all links successful), the
    # node average moves exactly by the average gradient half-step
    g = ring(6)
    w = base_weight_matrix(g, 1 / 3)
    task, data, _ = _regression_setup(6, seed=3)
    rng = np.random.default_rng(2)
    params = rng.standard_normal((6, 1))
    grads = np.stack(
        [task.gradient(data.features[j], data.labels[j])(params[j]) for j in range(6)]
    )
    expected_mean = params.mean(axis=0) - 0.05 * grads.mean(axis=0)
    out = dsgd_step(params, 0.05, _matrix(w), task.gradient(data.features, data.labels))
    assert np.abs(out.mean(axis=0) - expected_mean).max() <= 1e-10


def test_batch_sampling_is_without_replacement():
    labels = np.arange(10, dtype=float)
    data = LocalDataset(np.zeros((3, 10, 0)), np.tile(labels, (3, 1)))
    rng = np.random.default_rng(0)
    for size in (1, 4, 9):
        _, batch = _draw_batch(data.features, data.labels, size, rng, 5)
        assert batch.shape == (5, 3, size)
        assert all(len(np.unique(row)) == size for row in batch.reshape(-1, size))
    # batch >= dataset size keeps the full batch, so the gradient is exact
    # and the run equals the full-batch one bit for bit.
    g = ring(6)
    task, data, test = _regression_setup(6, seed=4)
    policy = AccessPolicy.uniform(6, 0.3)
    full = train(g, policy, task, data, test, iterations=20, seed=2)
    for size in (20, 25):
        trace = train(g, policy, task, data, test, iterations=20, seed=2, batch_size=size)
        assert np.array_equal(trace.avg_test_loss, full.avg_test_loss)
        assert np.array_equal(trace.consensus_distance, full.consensus_distance)


@pytest.mark.parametrize("size", [1, 4, 9])
def test_batch_draws_every_index_equally_often(size):
    # Each of the m indices is in a node's batch with probability size / m;
    # over `draws` slots, one block, its count is binomial, so its frequency
    # lies within 4 standard errors of size / m at every node.
    n, m, draws = 5, 10, 2000
    data = LocalDataset(np.zeros((n, m, 0)), np.tile(np.arange(m, dtype=float), (n, 1)))
    rng = np.random.default_rng(7)
    counts = np.zeros((n, m))
    _, batch = _draw_batch(data.features, data.labels, size, rng, draws)
    np.add.at(counts, (np.arange(n)[:, np.newaxis], batch.astype(int)), 1)
    p = size / m
    se = np.sqrt(p * (1 - p) / draws)
    assert np.abs(counts / draws - p).max() <= 4 * se


def test_train_deterministic_bitwise():
    g = ring(6)
    task, data, test = _regression_setup(6, seed=7)
    config = dict(iterations=40, step_size=0.01, seed=21)
    policy = AccessPolicy.uniform(6, 1 / 3)
    a = train(g, policy, task, data, test, **config)
    b = train(g, policy, task, data, test, **config)
    assert np.array_equal(a.avg_test_loss, b.avg_test_loss)
    assert np.array_equal(a.consensus_distance, b.consensus_distance)
    assert np.array_equal(a.iterations, b.iterations)


@pytest.mark.parametrize(
    "generate",
    [lambda: generate_regression_data(400, 100, seed=0), lambda: generate_classification_data(100, 20, seed=0)],
    ids=["regression", "classification"],
)
def test_generators_check_physical_memory(monkeypatch, generate):
    # 400 * 200 samples at 32 bytes and 100 * 120 at 160 bytes: about 2 MB each.
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 1 << 20)
    with pytest.raises(DimensionError, match="physical memory"):
        generate()
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 4 << 20)
    generate()


def test_graph_and_training_allocate_no_n_by_n_array():
    # An n x n int64 matrix at n = 4000 takes 128 MB; tracemalloc sees
    # numpy's buffers, so any such array would show in the peak.
    n = 4000
    data, test = generate_regression_data(n, 4, seed=0, test_per_node=1)
    tracemalloc.start()
    try:
        g = erdos_renyi(n, 0.003, seed=0)
        train(g, AccessPolicy.uniform(n, 0.1), regression_task(), data, test, iterations=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 10, peak


@pytest.mark.parametrize("samples, batch_size", [(15, 8), (400, 3)])
def test_minibatch_draw_stays_within_the_block_bound(monkeypatch, samples, batch_size):
    # A block's _draw_batch call holds its swap positions, its (slots * n, m)
    # index rows and its batches; train sizes the block so that they and the
    # block's decoder codes fit in DECODE_BLOCK_BYTES. At m = 400 the index
    # rows dominate: a block holds 3 slots.
    g = erdos_renyi(20, 0.3, seed=2)
    data, test = generate_classification_data(20, samples, seed=4)
    draws, draw = [], radsgd.learning._draw_batch

    def drawing(features, labels, size, rng, slots):
        tracemalloc.start()
        try:
            batch = draw(features, labels, size, rng, slots)
            draws.append((slots, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return batch

    monkeypatch.setattr(radsgd.learning, "_draw_batch", drawing)
    train(g, AccessPolicy.uniform(20, 0.2), classification_task(), data, test, iterations=100,
          step_size=0.05, batch_size=batch_size)
    assert sum(slots for slots, _ in draws) == 100 and len(draws) > 1
    assert max(slots for slots, _ in draws) > 1
    assert max(peak for _, peak in draws) <= radsgd.learning.DECODE_BLOCK_BYTES, draws


def test_train_divergence_detection():
    g = ring(6)
    task, data, test = _regression_setup(6, seed=7)
    with pytest.raises(DivergenceError):
        train(g, AccessPolicy.uniform(6, 0.3), task, data, test, iterations=10, step_size=1e9, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_divergence_detection_catches_non_finite_params(monkeypatch, value):
    def mix(z, *args):
        out = z.copy()
        out[2] = value
        return out

    monkeypatch.setattr("radsgd.learning.mix_slot", mix)
    g = ring(6)
    task, data, test = _regression_setup(6, seed=7)
    with pytest.raises(DivergenceError, match="iteration 1 "):
        train(g, AccessPolicy.uniform(6, 0.3), task, data, test, iterations=3)


def test_train_endpoint_probabilities_use_identity_mixing():
    # at p = 0 and p = 1 nothing is ever decoded, so training is purely
    # local; both traces must be identical to isolated SGD
    g = ring(6)
    task, data, test = _regression_setup(6, seed=8)
    traces = []
    for p in (0.0, 1.0):
        traces.append(train(g, AccessPolicy.uniform(6, p), task, data, test, iterations=30, step_size=0.01, seed=5))
    assert np.array_equal(traces[0].avg_test_loss, traces[1].avg_test_loss)
    assert traces[0].consensus_distance[-1] > 0  # non-IID local optima drift apart


def test_train_noiseless_complete_graph_reaches_mean_bias(monkeypatch):
    monkeypatch.setattr(radsgd.learning, "REGRESSION_NOISE", 0.0)
    g = complete(4)
    task = regression_task()
    data, test = generate_regression_data(4, 10, seed=5)
    biases = data.labels[:, 0]
    w = base_weight_matrix(g, 0.25)
    params = np.zeros((4, 1))
    gradient = task.gradient(data.features, data.labels)
    for _ in range(2000):
        params = dsgd_step(params, 0.01, _matrix(w), gradient)
    assert np.abs(params - biases.mean()).max() <= 1e-3


def test_train_mixing_beats_isolated_training():
    g = ring(6)
    task, data, test = _regression_setup(6, seed=11)
    finals = {}
    consensus = {}
    for p in (0.0, 1 / 3):
        trace = train(g, AccessPolicy.uniform(6, p), task, data, test, iterations=100, step_size=0.01, seed=3)
        finals[p] = trace.avg_test_loss[-1]
        consensus[p] = trace.consensus_distance[-1]
    assert finals[1 / 3] < finals[0.0]
    assert consensus[1 / 3] < consensus[0.0]


@pytest.mark.parametrize("field, value", [
    ("checkpoint_every", 0),
    ("checkpoint_every", -3),
    ("step_size", -0.1),
    ("step_size", float("nan")),
    ("step_size", float("inf")),
])
def test_train_rejects_bad_config(field, value):
    g = ring(6)
    task, data, test = _regression_setup(6, seed=9)
    with pytest.raises(ConfigError, match=field):
        train(g, AccessPolicy.uniform(6, 0.3), task, data, test, iterations=12, seed=0, **{field: value})


def test_train_checkpoint_rules():
    g = ring(6)
    task, data, test = _regression_setup(6, seed=9)
    policy = AccessPolicy.uniform(6, 0.3)
    one = train(g, policy, task, data, test, iterations=1, seed=0)
    assert list(one.iterations) == [1]
    spaced = train(g, policy, task, data, test, iterations=25, seed=0, checkpoint_every=10)
    assert list(spaced.iterations) == [10, 20, 25]
    auto = train(g, policy, task, data, test, iterations=12, seed=0)
    assert list(auto.iterations) == list(range(1, 13))


def test_train_accuracy_reported_for_classification():
    g = ring(8)
    task = classification_task()
    data, test = generate_classification_data(8, 20, seed=3)
    trace = train(g, AccessPolicy.uniform(8, 0.3), task, data, test, iterations=5, seed=1)
    assert np.all((trace.accuracy >= 0) & (trace.accuracy <= 1))
    reg_trace = train(
        g, AccessPolicy.uniform(8, 0.3), regression_task(),
        *_regression_setup(8, seed=2)[1:], iterations=5, seed=1,
    )
    assert np.all(np.isnan(reg_trace.accuracy))
