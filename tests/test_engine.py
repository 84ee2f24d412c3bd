"""The node-batched training engine against its per-node and dense oracles."""

import numpy as np
import pytest

from radsgd import learning, mac
from radsgd.errors import DimensionError
from radsgd.experiments import run_seed
from radsgd.learning import (
    DECODE_BLOCK_BYTES,
    EVAL_BLOCK_BYTES,
    LocalDataset,
    classification_task,
    generate_classification_data,
    generate_regression_data,
    regression_task,
    train,
)
from radsgd.mac import AccessPolicy, decoding_links, link_decoder, sample_broadcast, transmission_matrix
from radsgd.mixing import base_weight_matrix, compensate, default_epsilon, mask_by_transmission, mix_slot
from radsgd.topology import Graph, complete, erdos_renyi, ring

TASKS = {
    "regression": (regression_task(), 0),
    "classification": (classification_task(), 2),
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
    grad = task.gradient(features, labels)(params)
    assert loss.shape == (n,)
    assert grad.shape == (n, task.dim)
    assert np.ndim(task.loss(params[0], features[0], labels[0])) == 0
    want_loss = np.array([task.loss(params[i], features[i], labels[i]) for i in range(n)])
    want_grad = np.stack([task.gradient(features[i], labels[i])(params[i]) for i in range(n)])
    np.testing.assert_allclose(loss, want_loss, rtol=1e-14, atol=1e-15)
    assert np.array_equal(grad, want_grad)
    if task.predict is not None:
        want = np.stack([task.predict(params[i], features[i]) for i in range(n)])
        assert np.array_equal(task.predict(params, features), want)
    # Two leading node axes: each (i, j) node as its own call.
    params, features, labels = params[:6].reshape(2, 3, -1), features[:6].reshape(2, 3, m, f), labels[:6].reshape(2, 3, m)
    grad = task.gradient(features, labels)(params)
    assert grad.shape == (2, 3, task.dim)
    want_grad = np.stack([
        np.stack([task.gradient(features[i, j], labels[i, j])(params[i, j]) for j in range(3)]) for i in range(2)
    ])
    assert np.array_equal(grad, want_grad)


def _per_call_gradient(name, params, features, labels):
    """The gradient as it was computed per call before it was bound to its batch."""
    if name == "regression":
        return 2.0 * np.mean(params[..., :1] - labels, axis=-1, keepdims=True)
    f = features.shape[-1]
    w = params.reshape(params.shape[:-1] + (f + 1, 4))
    z = np.swapaxes(w[..., :f, :], -1, -2) @ np.swapaxes(features, -1, -2)
    z = z + w[..., f, :, np.newaxis]
    probs = np.exp(z - z.max(axis=-2, keepdims=True))
    probs /= probs.sum(axis=-2, keepdims=True)
    probs -= labels[..., np.newaxis, :] == np.arange(4)[:, np.newaxis]
    grad = np.concatenate([probs @ features, probs.sum(axis=-1, keepdims=True)], axis=-1)
    grad = np.swapaxes(grad, -1, -2) / labels.shape[-1]
    return grad.reshape(grad.shape[:-2] + (-1,))


def _samples(f, rng, shape):
    features = rng.standard_normal(shape + (f,))
    labels = rng.integers(0, 4, shape) if f else rng.standard_normal(shape)
    return features, labels


@pytest.mark.parametrize("name", sorted(TASKS))
@pytest.mark.parametrize("stacked", [True, False])
def test_bound_gradient_matches_finite_differences(name, stacked):
    task, f = TASKS[name]
    rng = np.random.default_rng(17)
    lead = (5,) if stacked else ()
    step = 1e-6
    for _ in range(5):
        features, labels = _samples(f, rng, lead + (11,))
        params = rng.standard_normal(lead + (task.dim,))
        grad = task.gradient(features, labels)(params)
        assert grad.shape == params.shape
        fd = np.empty_like(grad)
        for k in range(task.dim):
            delta = np.zeros(task.dim)
            delta[k] = step
            fd[..., k] = (task.loss(params + delta, features, labels)
                          - task.loss(params - delta, features, labels)) / (2 * step)
        assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("name", sorted(TASKS))
@pytest.mark.parametrize("scale", [0.0, 1.0, 300.0])
def test_bound_gradient_matches_per_call_formula(name, scale):
    task, f = TASKS[name]
    rng = np.random.default_rng(21)
    n, m = 9, 40
    features, labels = _samples(f, rng, (n, m))
    params = scale * rng.standard_normal((n, task.dim))
    if f and scale:
        logits = np.abs(params.reshape(n, -1, 4)[:, :f].swapaxes(-1, -2) @ features.swapaxes(-1, -2))
        assert logits.max() > 3.0 * scale  # about 1e3 at scale 300
    bound = task.gradient(features, labels)
    want = _per_call_gradient(name, params, features, labels)
    np.testing.assert_allclose(bound(params), want, rtol=1e-12, atol=0)
    # One node's params against its own samples, through the same binding rule.
    np.testing.assert_allclose(
        task.gradient(features[2], labels[2])(params[2]), want[2], rtol=1e-12, atol=0,
    )
    # The binding holds no state between calls.
    np.testing.assert_array_equal(bound(params), bound(params))


def _batch_stream(seed):
    """The generator train draws a minibatch run's batches from: the seed's child keyed by BATCH_STREAM_TAG."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(learning.BATCH_STREAM_TAG,)))


@pytest.mark.parametrize("name", ["classification", "regression"])
def test_minibatch_run_draws_the_per_call_batches(name):
    task, _ = TASKS[name]
    g = erdos_renyi(8, 0.5, seed=1)
    if name == "regression":
        data, test = generate_regression_data(8, 12, seed=3)
    else:
        data, test = generate_classification_data(8, 12, seed=3)
    policy = AccessPolicy.uniform(g.n, 0.2)
    iterations, step_size, seed = 30, 0.05, 9
    trace = train(g, policy, task, data, test, iterations=iterations, step_size=step_size, batch_size=5,
                  seed=seed, checkpoint_every=1)
    # The loop train ran before the gradient was bound, slot by slot: the
    # channel from the run's stream, the batches from its batch stream, one
    # swap position per node and step of a partial Fisher-Yates shuffle,
    # shuffled here node by node.
    rng, batch_rng = np.random.default_rng(seed), _batch_stream(seed)
    epsilon = default_epsilon(g)
    evaluate = task.evaluator(test.features, test.labels)
    params = np.zeros((g.n, task.dim))
    rows = np.arange(g.n)[:, np.newaxis]
    for t in range(iterations):
        receivers, senders = decoding_links(g, sample_broadcast(policy, rng))
        picks = batch_rng.integers(np.arange(5), 12, size=(g.n, 5))
        idx = np.empty((g.n, 5), dtype=np.int64)
        for i in range(g.n):
            order = list(range(12))
            for k, j in enumerate(picks[i]):
                order[k], order[j] = order[j], order[k]
            idx[i] = order[:5]
        grad = _per_call_gradient(name, params, data.features[rows, idx], data.labels[rows, idx])
        params = mix_slot(params - step_size * grad, receivers, senders, epsilon)
        loss, acc = evaluate(params)
        np.testing.assert_allclose(trace.avg_test_loss[t], loss, rtol=1e-12)
        if name == "classification":
            assert round(trace.accuracy[t] * g.n * test.size) == round(acc * g.n * test.size)
        center = params.mean(axis=0)
        np.testing.assert_allclose(trace.consensus_distance[t], ((params - center) ** 2).sum(), rtol=1e-10)


@pytest.mark.parametrize("batch_size", [None, 4])
def test_one_local_gradient_call_per_slot(monkeypatch, batch_size):
    calls = []
    apply = learning.local_gradient

    def counting(gradient, params):
        calls.append(params.shape)
        return apply(gradient, params)

    monkeypatch.setattr("radsgd.learning.local_gradient", counting)
    data, test = generate_classification_data(8, 10, seed=0)
    train(ring(8), AccessPolicy.uniform(8, 0.3), classification_task(), data, test,
          iterations=7, batch_size=batch_size)
    assert calls == [(8, 12)] * 7


@pytest.mark.parametrize("batch_size", [None, 4])
def test_one_sample_broadcast_call_per_block_on_the_run_stream(monkeypatch, batch_size):
    events = []
    sample, draw = learning.sample_broadcast, learning._draw_batch
    fresh = np.random.default_rng(5).bit_generator.state

    def sampling(policy, rng, *slots):
        events.append(("channel", policy, rng, rng.bit_generator.state, slots))
        return sample(policy, rng, *slots)

    def drawing(features, labels, size, rng, *slots):
        events.append(("batch", None, rng, rng.bit_generator.state, slots))
        return draw(features, labels, size, rng, *slots)

    monkeypatch.setattr("radsgd.learning.sample_broadcast", sampling)
    monkeypatch.setattr("radsgd.learning._draw_batch", drawing)
    data, test = generate_classification_data(8, 10, seed=0)
    policy = AccessPolicy.uniform(8, 0.3)
    train(ring(8), policy, classification_task(), data, test, iterations=7, batch_size=batch_size, seed=5)
    # Every run draws its one block of 7 slots in one call, on the run's
    # generator: seeded by seed and untouched before the first slot.
    (channel,) = [event for event in events if event[0] == "channel"]
    assert channel[4] == (7,) and channel[3] == fresh and channel[1] is policy
    batches = [event for event in events if event[0] == "batch"]
    if batch_size is None:
        assert batches == []
    else:
        # The block's batches: one call on a generator of their own, fresh
        # from the batch stream.
        assert [(rng is channel[2], state, slots) for _, _, rng, state, slots in batches] == [
            (False, _batch_stream(5).bit_generator.state, (7,))
        ]


def test_minibatch_run_draws_the_full_batch_channel(monkeypatch):
    # The channel depends on the policy, the graph and the seed alone: a
    # minibatch run, whose blocks hold fewer slots, draws the broadcast rows
    # of the full-batch run with the same seed.
    g = erdos_renyi(20, 0.3, seed=2)
    data, test = generate_classification_data(20, 15, seed=4)
    sample = learning.sample_broadcast
    rows = {}

    def sampling(policy, rng, slots):
        rows[batch_size].append(sample(policy, rng, slots))
        return rows[batch_size][-1]

    monkeypatch.setattr("radsgd.learning.sample_broadcast", sampling)
    monkeypatch.setattr(learning, "DECODE_BLOCK_BYTES", 1 << 16)
    for batch_size in (None, 8):
        rows[batch_size] = []
        train(g, AccessPolicy.uniform(20, 0.2), classification_task(), data, test, iterations=100,
              step_size=0.05, batch_size=batch_size, seed=3)
    assert len(rows[None]) < len(rows[8])
    assert np.array_equal(np.concatenate(rows[None]), np.concatenate(rows[8]))


def test_runs_on_one_seed_sequence_repeat():
    # train derives the batch stream without spawn, which would count a
    # child on the caller's SeedSequence and give its next run other
    # batches; an integer seed runs as the SeedSequence it seeds.
    data, test = generate_classification_data(8, 10, seed=0)
    seed = np.random.SeedSequence(11)
    first, second, third = (
        train(ring(8), AccessPolicy.uniform(8, 0.3), classification_task(), data, test, iterations=20,
              step_size=0.05, batch_size=4, seed=run)
        for run in (seed, seed, 11)
    )
    assert seed.n_children_spawned == 0
    _assert_same_trace(second, first)
    _assert_same_trace(third, first)


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


def _collision_rule(g, b):
    """Receivers and senders by the rule itself, one node at a time."""
    receivers, senders = [], []
    for i in range(g.n):
        loud = [j for j in g.neighbors(i) if b[j] != 0]
        if b[i] == 0 and len(loud) == 1:
            receivers.append(i)
            senders.append(loud[0])
    return receivers, senders


DECODER_GRAPHS = {
    "one_node": Graph(1, np.zeros((0, 2), dtype=np.int64)),
    "star": Graph(6, [(0, j) for j in range(1, 6)]),
    "ring3": ring(3),
    "complete7": complete(7),
    "er40": erdos_renyi(40, 0.15, seed=5),
}


@pytest.mark.parametrize("name", sorted(DECODER_GRAPHS))
def test_decoding_links_follow_the_collision_rule(name):
    g = DECODER_GRAPHS[name]
    decode = link_decoder(g)
    rng = np.random.default_rng(3)
    vectors = [np.zeros(g.n, dtype=np.int64), np.ones(g.n, dtype=np.int64)]
    for p in (0.1, 0.3, 0.6):
        vectors += [sample_broadcast(AccessPolicy.uniform(g.n, p), rng) for _ in range(50)]
    # Any nonzero entry is a broadcast: 2, -1 and True count as 1.
    for b in vectors[2:12]:
        vectors.append(np.where(b != 0, rng.choice([2, -1, 1], size=g.n), 0))
        vectors.append(b != 0)
    # The same vectors as one block, and each as a block of one slot.
    block = np.array(vectors)
    rows = decode(block)
    assert len(rows) == len(vectors)
    assert decode(block[:0]) == []
    for k, b in enumerate(vectors):
        want_receivers, want_senders = _collision_rule(g, b)
        [one_slot] = decode(block[k:k + 1])
        for receivers, senders in (decoding_links(g, b), rows[k], one_slot):
            assert receivers.dtype == np.int64 and senders.dtype == np.int64
            assert receivers.tolist() == want_receivers
            assert senders.tolist() == want_senders
            assert np.all(np.diff(receivers) > 0)


@pytest.mark.parametrize("name", sorted(DECODER_GRAPHS))
def test_decoder_code_width_leaves_the_links_unchanged(monkeypatch, name):
    # At a limit equal to the graph's bound 2n(d_max + 1) on a node's code
    # sum, the decoder computes in int64, as on a graph too large for int32.
    g = DECODER_GRAPHS[name]
    bound = 2 * g.n * (int(g.degrees.max()) + 1)
    rng = np.random.default_rng(6)
    block = np.concatenate(
        [np.zeros((1, g.n), dtype=np.int64), np.ones((1, g.n), dtype=np.int64)]
        + [sample_broadcast(AccessPolicy.uniform(g.n, p), rng, 40) for p in (0.1, 0.3, 0.6)]
    )
    decoded = {}
    for limit, width in ((bound + 1, np.int32), (bound, np.int64)):
        monkeypatch.setattr(mac, "INT32_CODE_LIMIT", limit)
        assert mac.code_dtype(g) == width
        decoded[width] = link_decoder(g)(block)
    assert len(decoded[np.int32]) == len(decoded[np.int64]) == len(block)
    for (receivers, senders), (wide_receivers, wide_senders) in zip(decoded[np.int32], decoded[np.int64]):
        for links in (receivers, senders, wide_receivers, wide_senders):
            assert links.dtype == np.int64
        assert np.array_equal(receivers, wide_receivers)
        assert np.array_equal(senders, wide_senders)


def _slot_by_slot(g, policy, task, data, test, iterations, step_size, seed, batch_size=None):
    """train's run replayed one slot at a time: channel, batch, decode, step, checkpoint."""
    rng, batch_rng = np.random.default_rng(seed), _batch_stream(seed)
    epsilon = default_epsilon(g)
    gradient = task.gradient(data.features, data.labels)
    evaluate = task.evaluator(test.features, test.labels)
    params = np.zeros((g.n, task.dim))
    losses, accs, consensus = [], [], []
    for _ in range(iterations):
        receivers, senders = decoding_links(g, sample_broadcast(policy, rng))
        if batch_size is not None:
            features, labels = learning._draw_batch(data.features, data.labels, batch_size, batch_rng, 1)
            gradient = task.gradient(features[0], labels[0])
        params = mix_slot(params - step_size * gradient(params), receivers, senders, epsilon)
        loss, acc = evaluate(params)
        losses.append(loss)
        accs.append(acc)
        consensus.append(((params - params.mean(axis=0)) ** 2).sum())
    return np.array(losses), np.array(accs), np.array(consensus)


@pytest.mark.parametrize("size, p, batch_size", [
    pytest.param("small", 0.2, None, id="small"),
    pytest.param("large", 0.2, None, id="large"),
    pytest.param("one_slot_blocks", 0.2, None, id="one_slot_blocks"),
    # No slot decodes a link: train passes the half-steps through unmixed.
    pytest.param("small", 0.0, None, id="small-p0"),
    pytest.param("small", 1.0, None, id="small-p1"),
    pytest.param("large", 0.0, None, id="large-p0"),
    pytest.param("large", 1.0, None, id="large-p1"),
    # Minibatches: one block draw equals one-slot draws on the batch stream.
    pytest.param("small", 0.2, 8, id="small-batch8"),
])
def test_block_run_equals_slot_by_slot_replay(monkeypatch, size, p, batch_size):
    if size == "small":
        g, task = erdos_renyi(20, 0.3, seed=2), classification_task()
        data, test = generate_classification_data(20, 15, seed=4)
    else:
        n, edge_prob = (400, 0.025) if size == "large" else (2000, 0.01)
        g, task = erdos_renyi(n, edge_prob, seed=2), regression_task()
        data, test = generate_regression_data(n, 15, seed=4)
    # train's block length: DECODE_BLOCK_BYTES over one decoder integer per arc and node.
    block = max(1, DECODE_BLOCK_BYTES // (mac.code_dtype(g).itemsize * (g.arcs[0].size + g.n)))
    assert {"small": block > 100, "large": 1 < block < 20, "one_slot_blocks": block == 1}[size]
    iterations = 2 * block + 3  # with blocks longer than one slot, the last block is short
    policy = AccessPolicy.uniform(g.n, p)
    losses, accs, consensus = _slot_by_slot(g, policy, task, data, test, iterations, 0.05, 7, batch_size)
    # A minibatch slot holds its draw too, so its blocks are shorter; these
    # bounds give them 1 slot, some and all of the run.
    for decode_bytes in (DECODE_BLOCK_BYTES,) if batch_size is None else (3000, DECODE_BLOCK_BYTES, 1 << 24):
        monkeypatch.setattr(learning, "DECODE_BLOCK_BYTES", decode_bytes)
        trace = train(g, policy, task, data, test, iterations=iterations, step_size=0.05, batch_size=batch_size,
                      seed=7, checkpoint_every=1)
        assert np.array_equal(trace.iterations, np.arange(1, iterations + 1))
        assert np.array_equal(trace.avg_test_loss, losses)
        assert np.array_equal(trace.accuracy, accs, equal_nan=True)
        assert np.array_equal(trace.consensus_distance, consensus)


def _assert_same_trace(got, want):
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.avg_test_loss, want.avg_test_loss)
    assert np.array_equal(got.accuracy, want.accuracy, equal_nan=True)
    assert np.array_equal(got.consensus_distance, want.consensus_distance)


def test_isolated_runs_at_p0_and_p1_are_equal():
    # Nobody broadcasts at p = 0 and everybody does at p = 1, so no link is
    # decoded in either run: both are local gradient descent at every node,
    # whatever the run's seed, as long as every slot takes the full local
    # dataset. A sweep trains one run for all such cells.
    tasks = [
        (classification_task(), generate_classification_data),
        (regression_task(), generate_regression_data),
    ]
    for g in (erdos_renyi(20, 0.3, seed=2), ring(12)):
        for task, generate in tasks:
            data, test = generate(g.n, 15, seed=4)
            first, *rest = (
                train(
                    g, AccessPolicy.uniform(g.n, p), task, data, test, iterations=60, step_size=0.05,
                    batch_size=batch_size, seed=run_seed(master, p, replicate), checkpoint_every=5,
                )
                for p in (0.0, -0.0, 1.0)
                for master, replicate in ((7, 0), (7, 1), (8, 2))
                for batch_size in (None, 15)
            )
            for trace in rest:
                _assert_same_trace(trace, first)
            assert first.consensus_distance[-1] > 0.0


@pytest.mark.parametrize("run", ["classification", "classification_batch8", "regression"])
def test_block_constants_leave_the_trace_unchanged(monkeypatch, run):
    # EVAL_BLOCK_BYTES and DECODE_BLOCK_BYTES only set how much work one
    # numpy call does. Over these ranges the evaluator holds 1, 2 or all 20
    # nodes per block, and a decoder call holds 1 slot, some or all 250.
    g = erdos_renyi(20, 0.3, seed=2)
    if run == "regression":
        task, (data, test) = regression_task(), generate_regression_data(20, 15, seed=4)
    else:
        task, (data, test) = classification_task(), generate_classification_data(20, 15, seed=4)
    batch_size = 8 if run == "classification_batch8" else None
    policy = AccessPolicy.uniform(20, 0.2)
    traces = []
    for eval_bytes in (1 << 12, 1 << 17, 1 << 22):
        for decode_bytes in (1 << 9, 1 << 18, 1 << 24):
            monkeypatch.setattr(learning, "EVAL_BLOCK_BYTES", eval_bytes)
            monkeypatch.setattr(learning, "DECODE_BLOCK_BYTES", decode_bytes)
            traces.append(train(
                g, policy, task, data, test,
                iterations=250, step_size=0.05, batch_size=batch_size, seed=7, checkpoint_every=10,
            ))
    for trace in traces[1:]:
        _assert_same_trace(trace, traces[0])


def test_train_blocks_follow_the_code_width(monkeypatch):
    # ring(8) decodes 24 arcs a slot: a 384-byte block holds 4 slots of
    # int32 codes and 2 of int64 ones, drawn in one call each.
    g = ring(8)
    data, test = generate_regression_data(8, 5, seed=0)
    monkeypatch.setattr(learning, "DECODE_BLOCK_BYTES", 384)
    calls, sample = [], learning.sample_broadcast

    def sampling(policy, rng, slots):
        calls.append(slots)
        return sample(policy, rng, slots)

    monkeypatch.setattr("radsgd.learning.sample_broadcast", sampling)
    traces = []
    for limit, blocks in ((mac.INT32_CODE_LIMIT, [4, 4, 1]), (1, [2, 2, 2, 2, 1])):
        monkeypatch.setattr(mac, "INT32_CODE_LIMIT", limit)
        calls.clear()
        traces.append(train(
            g, AccessPolicy.uniform(8, 0.3), regression_task(), data, test,
            iterations=9, step_size=0.05, seed=3, checkpoint_every=1,
        ))
        assert calls == blocks
    _assert_same_trace(traces[1], traces[0])


@pytest.mark.parametrize("shape", [(0,), (5,), (7,), (6, 1), (), (2, 5), (0, 7), (1, 6, 1), (2, 2, 6), (6,)])
def test_decoders_reject_a_wrongly_shaped_broadcast_vector(shape):
    g = DECODER_GRAPHS["star"]
    b = np.zeros(shape, dtype=np.int64)
    if shape != (6,):  # one vector is what decoding_links takes, and link_decoder does not
        with pytest.raises(DimensionError, match="does not match n=6"):
            decoding_links(g, b)
    with pytest.raises(DimensionError, match="does not match n=6"):
        link_decoder(g)(b)


def test_decoding_links_takes_one_vector_only():
    g = DECODER_GRAPHS["star"]
    with pytest.raises(DimensionError, match=r"\(1, 6\) does not match n=6"):
        decoding_links(g, np.zeros((1, 6), dtype=np.int64))
    with pytest.raises(DimensionError):
        transmission_matrix(g, np.zeros((2, 6), dtype=np.int64))


def test_train_rejects_data_not_stacked_over_the_graph():
    g = ring(4)
    task = classification_task()
    data, test = generate_classification_data(8, 10, seed=0)
    with pytest.raises(DimensionError, match="n=4"):
        train(g, AccessPolicy.uniform(4, 0.3), task, data, test, iterations=2)
    # One node's (m, f) / (m,) samples, even with m = n, are not node data.
    one_node = LocalDataset(data.features[0, :4], data.labels[0, :4])
    with pytest.raises(DimensionError, match="n=4"):
        train(g, AccessPolicy.uniform(4, 0.3), task, one_node, test, iterations=2)
    four, _ = generate_classification_data(4, 10, seed=0)
    stacked_test = LocalDataset(test.features.reshape(4, -1, 2), test.labels.reshape(4, -1))
    with pytest.raises(DimensionError, match="test labels"):
        train(g, AccessPolicy.uniform(4, 0.3), task, four, stacked_test, iterations=2)


def _per_node_metrics(task, params, features, labels):
    """The evaluator's oracle: one loss and predict call per node."""
    loss = np.mean([task.loss(x, features, labels) for x in params])
    if task.predict is None:
        return loss, np.nan
    return loss, np.mean([np.mean(task.predict(x, features) == labels) for x in params])


def _assert_matches_oracle(task, params, features, labels):
    loss, acc = task.evaluator(features, labels)(params)
    want_loss, want_acc = _per_node_metrics(task, params, features, labels)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
    if task.predict is None:
        assert np.isnan(acc)
    else:
        # Equal counts of correct predictions; the two means may round apart.
        assert round(acc * labels.size * len(params)) == round(want_acc * labels.size * len(params))
        np.testing.assert_allclose(acc, want_acc, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(TASKS))
@pytest.mark.parametrize("scale", [1.0, 300.0])
def test_evaluator_matches_per_node_loop(name, scale):
    task, f = TASKS[name]
    rng = np.random.default_rng(8)
    n, size = 9, 500
    params = scale * rng.standard_normal((n, task.dim))
    features = rng.standard_normal((size, f))
    labels = rng.integers(0, 4, size) if f else rng.standard_normal(size)
    if f:
        logits = np.abs(params.reshape(n, -1, 4)[:, :f].swapaxes(-1, -2) @ features.T)
        assert logits.max() > 3.0 * scale  # about 1e3 at scale 300
    _assert_matches_oracle(task, params, features, labels)


def test_evaluator_zero_params_ties_every_class():
    # eta = 0 keeps every model at zero: all four classes tie, argmax picks
    # class 0, and the balanced test set is right on exactly a quarter.
    task = classification_task()
    data, test = generate_classification_data(8, 5, seed=1)
    loss, acc = task.evaluator(test.features, test.labels)(np.zeros((8, task.dim)))
    np.testing.assert_allclose(loss, np.log(4.0), rtol=1e-15)
    assert acc == 0.25
    trace = train(ring(8), AccessPolicy.uniform(8, 0.3), task, data, test,
                  iterations=3, step_size=0.0)
    np.testing.assert_allclose(trace.avg_test_loss, np.log(4.0), rtol=1e-15)
    assert np.all(trace.accuracy == 0.25)


def test_evaluator_breaks_exact_ties_like_argmax():
    # Small integer weights and inputs make exact ties for the top score
    # common, between every pair of classes and with the label on either side.
    task = classification_task()
    rng = np.random.default_rng(2)
    size = 400
    features = rng.integers(-2, 3, (size, 2)).astype(float)
    labels = rng.integers(0, 4, size)
    params = rng.integers(-1, 2, (12, task.dim)).astype(float)
    inputs = np.column_stack([features, np.ones(size)])
    z = params.reshape(12, 3, 4).swapaxes(-1, -2) @ inputs.T
    top = z == z.max(axis=1, keepdims=True)
    label_tied = top[:, labels, np.arange(size)] & (top.sum(axis=1) > 1)
    assert label_tied.mean() > 0.1
    _assert_matches_oracle(task, params, features, labels)


def test_evaluator_blocks_need_not_divide_n():
    task = classification_task()
    rng = np.random.default_rng(6)
    size = 1000
    block = EVAL_BLOCK_BYTES // (4 * size * 8)
    assert block >= 3
    features = rng.standard_normal((size, 2))
    labels = rng.integers(0, 4, size)
    for n in (1, block - 1, block + 1, 2 * block + 1):
        _assert_matches_oracle(task, rng.standard_normal((n, task.dim)), features, labels)


def test_regression_evaluator_keeps_digits_for_large_labels():
    task = regression_task()
    rng = np.random.default_rng(5)
    offset = 1e8
    labels = offset + rng.uniform(-1.0, 5.0, 1000) + 0.5 * rng.standard_normal(1000)
    features = np.zeros((1000, 0))
    params = offset + np.concatenate([rng.standard_normal((6, 1)), 2.0 + 1e-3 * rng.standard_normal((6, 1))])
    _assert_matches_oracle(task, params, features, labels)
    _assert_matches_oracle(task, np.zeros((3, 1)), features, labels)
    # The uncentred expansion theta^2 - 2 theta mean(y) + mean(y^2) cancels
    # here, so this case does tell the forms apart.
    theta = params[:, 0]
    uncentred = np.mean(theta ** 2 - 2.0 * theta * labels.mean() + np.mean(labels ** 2))
    want, _ = _per_node_metrics(task, params, features, labels)
    assert abs(uncentred / want - 1.0) > 1e-6
