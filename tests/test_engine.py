"""The node-batched training engine against its per-node and dense oracles."""

import numpy as np
import pytest

from radsgd.errors import DimensionError
from radsgd.learning import (
    LocalDataset,
    TrainConfig,
    classification_task,
    generate_classification_data,
    regression_task,
    train,
)
from radsgd.mac import AccessPolicy, decoding_links, sample_broadcast, transmission_matrix
from radsgd.mixing import base_weight_matrix, compensate, default_epsilon, mask_by_transmission, mix_slot
from radsgd.topology import erdos_renyi, ring

TASKS = {
    "regression": (regression_task(), 0),
    "classification": (classification_task(), 2),
    "classification_no_bias": (classification_task(bias=False), 2),
}


@pytest.mark.parametrize("name", sorted(TASKS))
def test_stacked_calls_equal_per_node_calls(name):
    task, f = TASKS[name]
    rng = np.random.default_rng(4)
    n, m = 7, 13
    params = rng.standard_normal((n, task.dim))
    features = rng.standard_normal((n, m, f))
    labels = rng.integers(0, 4, (n, m)) if f else rng.standard_normal((n, m))

    loss = task.loss(params, features, labels)
    grad = task.gradient(params, features, labels)
    assert loss.shape == (n,)
    assert grad.shape == (n, task.dim)
    assert np.ndim(task.loss(params[0], features[0], labels[0])) == 0
    want_loss = np.array([task.loss(params[i], features[i], labels[i]) for i in range(n)])
    want_grad = np.stack([task.gradient(params[i], features[i], labels[i]) for i in range(n)])
    np.testing.assert_allclose(loss, want_loss, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-14, atol=1e-15)
    if task.predict is not None:
        want = np.stack([task.predict(params[i], features[i]) for i in range(n)])
        assert np.array_equal(task.predict(params, features), want)


@pytest.mark.parametrize("graph", ["ring", "erdos_renyi"])
@pytest.mark.parametrize("p", [0.0, 0.17, 0.5, 1.0])
def test_sparse_slot_update_equals_dense_chain(graph, p):
    g = ring(12) if graph == "ring" else erdos_renyi(20, 0.3, seed=2)
    epsilon = default_epsilon(g)
    w = base_weight_matrix(g, epsilon)
    policy = AccessPolicy.uniform(g.n, p)
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = sample_broadcast(policy, rng)
        z = rng.standard_normal((g.n, 3))
        dense = compensate(mask_by_transmission(w, transmission_matrix(g, b))) @ z
        receivers, senders = decoding_links(g, b)
        assert np.abs(mix_slot(z, receivers, senders, epsilon) - dense).max() <= 1e-15


def test_decoding_links_follow_the_collision_rule():
    g = erdos_renyi(30, 0.2, seed=5)
    policy = AccessPolicy.uniform(g.n, 0.2)
    rng = np.random.default_rng(3)
    for _ in range(200):
        b = sample_broadcast(policy, rng)
        loads = g.adjacency @ b
        decodes = np.flatnonzero((b == 0) & (loads == 1))
        receivers, senders = decoding_links(g, b)
        assert np.array_equal(receivers, decodes)
        assert np.all(g.adjacency[receivers, senders] == 1)
        assert np.all(b[senders] == 1)


def test_train_rejects_unequal_dataset_sizes():
    g = ring(4)
    datasets, test = generate_classification_data(4, 10, seed=0)
    short = LocalDataset(3, datasets[3].features[:5], datasets[3].labels[:5])
    with pytest.raises(DimensionError):
        train(g, AccessPolicy.uniform(4, 0.3), classification_task(), datasets[:3] + [short], test,
              TrainConfig(iterations=2))
