"""Decentralized SGD with broadcast transmission over the random-access channel.

Two tasks are provided, both deliberately small and non-IID across nodes:

* regression: each node holds noisy copies of its own bias value and fits a
  single scalar by squared error; only inter-node mixing can pull the
  estimates toward the global mean of the biases.
* classification: linear softmax over 2-D features in four Gaussian
  clusters, each node seeing exactly one class, so isolated training cannot
  learn the other three.

The update is adapt-then-combine: every node first takes a local gradient
half-step on its own batch, then averages the already-updated models with
its row of the compensated mixing matrix. This is the ordering consistent
with broadcasting one packet per slot (a node sends its post-gradient
model).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, DomainError
from .mac import AccessPolicy, link_decoder, sample_broadcast, slots_per_word
from .mixing import check_epsilon, default_epsilon, mix_slot

# The dense per-slot chain that mix_slot replaces in train. perfbench wraps
# these names in this module (perfbench/tracer.py), so they stay importable
# from here.
from .mac import transmission_matrix  # noqa: F401
from .mixing import compensate, mask_by_transmission  # noqa: F401
from .topology import Graph, check_fits

DIVERGENCE_LIMIT = 1e9
# Bound on the logits block a classification evaluator holds; it sets how
# many nodes share one (k, N_CLASSES, T) product. Chosen by timing at 20
# nodes x 2000 test samples: 4 nodes a block beat 2 and 16, and tied 8.
EVAL_BLOCK_BYTES = 1 << 18
# Bound on what train holds for a block of slots drawn ahead of their steps,
# which sets how many slots share one decoder call: each slot's draws, its
# bool broadcast row (1 byte per node) and minibatches (see _draw_batch),
# and the decode call (mac.link_decoder). That holds whole words of
# mac.slots_per_word(g) slots and per word, by tracemalloc, the larger of its
# two stages plus 1.5 KiB of array objects: the gather and segmented sum, 8
# bytes per arc of the 2|E| + n and per node; or the record, per slot 8 bytes
# per node of unpacked sums, 16 per link (at most one per node), 16 for bounds.
DECODE_BLOCK_BYTES = 1 << 18
# Keys a run's minibatch stream off its seed, apart from its channel stream.
BATCH_STREAM_TAG = 0xBA7C
# The two data setups: N_CLASSES clusters in FEATURE_DIM dimensions, centres
# drawn from (CENTER_LOW, CENTER_HIGH), samples spread by N(0, CLUSTER_COV * I);
# regression biases from (BIAS_LOW, BIAS_HIGH), labels by N(0, REGRESSION_NOISE^2).
N_CLASSES, FEATURE_DIM, CENTER_LOW, CENTER_HIGH = 4, 2, -1.0, 1.0
BIAS_LOW, BIAS_HIGH = -1.0, 5.0
REGRESSION_NOISE, CLUSTER_COV = 0.5, 0.05
# Bytes per sample, train and test, that generating a dataset and training
# on it allocate at peak, with a margin: measured up to 23 for regression
# and 149 for classification, whose evaluator holds logits of the test set
# (132 when training samples dominate: the bound gradient keeps x and x / m).
REGRESSION_PEAK_BYTES, CLASSIFICATION_PEAK_BYTES = 32, 160


@dataclass(frozen=True)
class TaskSpec:
    """A differentiable learning task.

    loss takes (params, features, labels) over a batch and returns the mean
    loss. predict maps (params, features) to labels for accuracy reporting
    and is None for tasks without a notion of accuracy. Both work on
    stacked nodes: params has shape (..., dim), features (..., m, f) and
    labels (..., m), with the same leading node axes on all three. loss
    returns shape params.shape[:-1] and predict labels.shape, so one call
    serves a single node (params (dim,)) or all n nodes at once (params
    (n, dim) against stacked (n, m, f) features). They are the per-node
    oracle of gradient and evaluator.

    gradient binds a nonempty batch: gradient(features, labels) computes
    what depends on the data alone once and returns a function that maps
    params of the same leading node axes to the mean loss gradient, of
    shape params.shape. It is the exact derivative of loss (checked
    against finite differences in the tests). It raises DomainError for a
    batch without samples.

    evaluator is the checkpoint metric. evaluator(features, labels) takes
    the shared test set, (T, f) and (T,), once per run and returns a
    function that maps the (n, dim) params of all nodes to (the mean over
    nodes of loss on the test set, the fraction of (node, sample) pairs
    that predict gets right), or NaN for the accuracy when predict is None.
    It equals the per-node loss and predict calls to rounding, from
    statistics of the test set computed once and with bounded temporaries.
    The bound function may reuse work arrays made when it was bound, so it
    is not reentrant: one run calls it, one call at a time.
    """

    dim: int
    loss: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]
    evaluator: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], tuple[float, float]]]
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """Samples stacked along leading axes: features (..., m, f), labels (..., m).

    The nodes' local data is one (n, m, f) / (n, m) dataset, so every node
    holds the same number m of samples; the shared test set is (T, f) / (T,).
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.shape[:-1] != labs.shape or labs.ndim < 1:
            raise DimensionError(
                f"features {feats.shape} and labels {labs.shape} are inconsistent"
            )
        if labs.size < 1:
            raise DimensionError("a dataset needs at least one sample")
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(labs))):
            raise DomainError("dataset entries must be finite")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def size(self) -> int:
        """Samples per node, or in the test set."""
        return self.labels.shape[-1]


def _nonempty(labels: np.ndarray) -> np.ndarray:
    if labels.shape[-1] == 0:
        raise DomainError("gradient requires a nonempty batch")
    return labels


def regression_task() -> TaskSpec:
    """Scalar bias estimation: the model is one constant, loss (theta - y)^2."""

    def loss(params, features, labels):
        return np.mean((params[..., :1] - labels) ** 2, axis=-1)

    def gradient(features, labels):
        # d/dtheta mean (theta - y)^2 = 2 (theta - mean(y)).
        target = np.mean(_nonempty(labels), axis=-1, keepdims=True)

        def bound(params):
            return 2.0 * (params - target)

        return bound

    def evaluator(features, labels):
        # mean_t (theta - y_t)^2 = (theta - mean(y))^2 + var(y). The mean is
        # kept as a rounded centre plus the mean of the residuals about it,
        # so labels far from 0 against their spread lose no digits.
        centre = np.mean(labels)
        residuals = labels - centre
        shift = np.mean(residuals)
        spread = np.mean(residuals ** 2) - shift ** 2

        def evaluate(params):
            return float(np.mean((params[:, 0] - centre - shift) ** 2) + spread), np.nan

        return evaluate

    return TaskSpec(dim=1, loss=loss, gradient=gradient, evaluator=evaluator)


def classification_task() -> TaskSpec:
    """Linear softmax classifier with cross-entropy loss.

    Parameters are a (FEATURE_DIM + 1) x N_CLASSES matrix flattened
    row-major; the last row is the per-class bias, since cluster centers
    drawn near the origin are generally not separable by hyperplanes
    through the origin.

    Internally loss and predict lay the class scores out (..., N_CLASSES,
    m), class axis ahead of the sample axis: the softmax reductions then
    run over an outer axis, which numpy does far faster than over a short
    innermost one. The bound gradient goes further and stores them
    class-major, (N_CLASSES, ..., m), so its reductions run over axis 0
    across whole (..., m) planes of the stacked nodes. It normalizes the
    softmax by multiplying with one reciprocal of the class sum per (node,
    sample), and its second product takes the inputs divided by m when it
    binds, so a call divides nothing; the gradient may differ by an ulp
    from the divisions per call.
    """
    rows = FEATURE_DIM + 1
    classes = np.arange(N_CLASSES)[:, np.newaxis]

    def logits(params, features):
        w = params.reshape(params.shape[:-1] + (rows, N_CLASSES))
        z = np.swapaxes(w[..., :FEATURE_DIM, :], -1, -2) @ np.swapaxes(features, -1, -2)
        return z + w[..., FEATURE_DIM, :, np.newaxis]

    def loss(params, features, labels):
        z = logits(params, features)
        z = z - z.max(axis=-2, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-2, keepdims=True))
        picked = np.take_along_axis(logp, labels[..., np.newaxis, :], axis=-2)
        return -np.mean(picked[..., 0, :], axis=-1)

    def gradient(features, labels):
        # The gradient in the (rows, N_CLASSES) layout of params is
        # x^T (softmax(z) - onehot) / m for inputs x (..., m, rows) with a
        # ones column for the bias; the onehot half depends on the data
        # alone and is computed here.
        size = _nonempty(labels).shape[-1]
        features = np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)
        inputs = np.ascontiguousarray(np.swapaxes(features, -1, -2))  # (..., rows, m)
        onehot = (labels[..., np.newaxis, :] == classes).astype(float)  # (..., N_CLASSES, m)
        label_term = inputs @ np.swapaxes(onehot, -1, -2) / size  # (..., rows, N_CLASSES)
        scaled = inputs / size  # x / m, so the softmax half needs no division per call
        # The scores are stored class-major, (N_CLASSES, ..., m), so the
        # softmax reduces over axis 0: elementwise passes over whole
        # (..., m) planes instead of short rows of m samples. The products
        # see them through two transposed views, fixed here for the data's
        # leading node axes: (..., N_CLASSES, m) and (..., m, N_CLASSES).
        nodes = tuple(range(1, labels.ndim))
        as_scores, as_probs = nodes + (0, labels.ndim), nodes + (labels.ndim, 0)

        def bound(params):
            w = params.reshape(params.shape[:-1] + (rows, N_CLASSES))
            z = np.empty((N_CLASSES,) + params.shape[:-1] + (size,))
            np.matmul(w.swapaxes(-1, -2), inputs, out=z.transpose(as_scores))
            # The ufunc reductions skip the array methods' Python wrappers,
            # and one reciprocal per (node, sample) replaces a division of
            # every class entry.
            z -= np.maximum.reduce(z, axis=0)
            np.exp(z, out=z)
            total = np.add.reduce(z, axis=0)
            z *= np.reciprocal(total, out=total)
            grad = scaled @ z.transpose(as_probs)
            grad -= label_term
            return grad.reshape(grad.shape[:-2] + (-1,))

        return bound

    def predict(params, features):
        return np.argmax(logits(params, features), axis=-2)

    def evaluator(features, labels):
        size = labels.shape[0]
        inputs = np.vstack([features.T, np.ones(size)])  # (rows, T): the bias row multiplies ones
        # Position of each sample's label score in a flattened (N_CLASSES, T) block.
        label_at = labels * size + np.arange(size)
        # predict's argmax takes the first of tied maxima, so a sample is
        # right when its label scores the top and no earlier class reaches it.
        earlier = classes < labels  # (N_CLASSES, T)
        block = max(1, EVAL_BLOCK_BYTES // (N_CLASSES * size * 8))
        # One block's scores and tie mask, made once per bind and refilled
        # for every block of every call.
        scores = np.empty((block, N_CLASSES, size))
        tied = np.empty(scores.shape, dtype=bool)

        def evaluate(params):
            weights = np.swapaxes(params.reshape(-1, rows, N_CLASSES), -1, -2)
            # Each node's test losses are summed in its own row, so the
            # block length does not group the float sums.
            losses, right = np.empty(weights.shape[0]), 0
            for start in range(0, weights.shape[0], block):
                k = min(block, weights.shape[0] - start)
                z, ties = scores[:k], tied[:k]  # (k, N_CLASSES, T)
                np.matmul(weights[start:start + k], inputs, out=z)
                z -= np.maximum.reduce(z, axis=-2)[:, np.newaxis]
                # Shifted by its top score, a sample's scores are 0 exactly
                # where they tie the top, and its label's is z_label - top.
                shifted = np.take(z.reshape(k, -1), label_at, axis=1)  # (k, T)
                np.equal(z, 0.0, out=ties)
                ties &= earlier
                right += np.count_nonzero((shifted == 0.0) & ~np.logical_or.reduce(ties, axis=-2))
                # -log softmax of the label: log(sum exp(z - top)) - (z_label - top).
                np.exp(z, out=z)
                np.subtract(np.log(np.add.reduce(z, axis=-2)), shifted, out=shifted)
                np.add.reduce(shifted, axis=-1, out=losses[start:start + block])
            count = weights.shape[0] * size
            return float(losses.sum()) / count, right / count

        return evaluate

    return TaskSpec(
        dim=rows * N_CLASSES,
        loss=loss,
        gradient=gradient,
        evaluator=evaluator,
        predict=predict,
    )


def _check_sizes(n_nodes: int, samples_per_node: int, test_per_node: int, peak_bytes: int):
    """ConfigError for a size below 1; DimensionError for data, at peak_bytes per sample, that does not fit.

    peak_bytes covers every sample, train and test, while the data is
    generated and trained on; it is at least each array's bytes per sample,
    so passing check_fits also keeps every array indexable.
    """
    if n_nodes < 1 or samples_per_node < 1:
        raise ConfigError("n_nodes and samples_per_node must be positive")
    check_fits(
        int(n_nodes) * (int(samples_per_node) + int(test_per_node)) * peak_bytes,
        f"generating and training on {n_nodes} nodes of {samples_per_node} + {test_per_node} test samples",
        DimensionError,
    )


def generate_regression_data(
    n_nodes: int, samples_per_node: int, seed, test_per_node: int = 100
) -> tuple[LocalDataset, LocalDataset]:
    """Non-IID regression data: node i observes y = b_i + noise.

    Per-node bias values are drawn uniformly from (BIAS_LOW, BIAS_HIGH) and
    the noise is N(0, REGRESSION_NOISE^2). Returns the (n_nodes, samples_per_node)
    node data and the test set, which holds test_per_node samples for every
    bias value in node order, so each bias is equally represented. The
    features have no columns. Deterministic for a fixed seed.
    """
    _check_sizes(n_nodes, samples_per_node, test_per_node, REGRESSION_PEAK_BYTES)
    rng = np.random.default_rng(_seed_sequence(seed))
    biases = rng.uniform(BIAS_LOW, BIAS_HIGH, (n_nodes, 1))
    labels = biases + REGRESSION_NOISE * rng.standard_normal((n_nodes, samples_per_node))
    test_labels = (biases + REGRESSION_NOISE * rng.standard_normal((n_nodes, test_per_node))).ravel()
    return (
        LocalDataset(np.zeros(labels.shape + (0,)), labels),
        LocalDataset(np.zeros(test_labels.shape + (0,)), test_labels),
    )


def generate_classification_data(
    n_nodes: int, samples_per_node: int, seed, test_per_node: int = 100
) -> tuple[LocalDataset, LocalDataset]:
    """Non-IID clustered classification data; node i sees only class i mod N_CLASSES.

    One center per class is drawn uniformly from (CENTER_LOW, CENTER_HIGH)^FEATURE_DIM
    once per seed; samples are the center plus N(0, CLUSTER_COV * I) noise.
    n_nodes must be divisible by N_CLASSES so classes are represented by
    equally many nodes. Returns the (n_nodes, samples_per_node) node data
    and the test set, balanced with test_per_node * n_nodes / N_CLASSES
    samples per class in class order.
    """
    _check_sizes(n_nodes, samples_per_node, test_per_node, CLASSIFICATION_PEAK_BYTES)
    if n_nodes % N_CLASSES != 0:
        raise ConfigError(
            f"n_nodes must be divisible by {N_CLASSES} so each class has "
            f"equally many nodes, got {n_nodes}"
        )
    rng = np.random.default_rng(_seed_sequence(seed))
    centers = rng.uniform(CENTER_LOW, CENTER_HIGH, (N_CLASSES, FEATURE_DIM))
    scale = np.sqrt(CLUSTER_COV)
    size = (n_nodes, samples_per_node)
    labels = np.repeat(np.arange(n_nodes, dtype=np.int64) % N_CLASSES, samples_per_node).reshape(size)
    features = centers[labels] + scale * rng.standard_normal(size + (FEATURE_DIM,))
    test_labels = np.repeat(np.arange(N_CLASSES, dtype=np.int64), test_per_node * n_nodes // N_CLASSES)
    test_features = centers[test_labels] + scale * rng.standard_normal(test_labels.shape + (FEATURE_DIM,))
    return LocalDataset(features, labels), LocalDataset(test_features, test_labels)


def local_gradient(gradient: Callable[[np.ndarray], np.ndarray], params: np.ndarray) -> np.ndarray:
    """Apply a gradient bound to its batch (TaskSpec.gradient) to params, one node or stacked nodes.

    Raises DimensionError unless the gradient has the shape of params.
    """
    grad = gradient(params)
    if grad.shape != params.shape:
        raise DimensionError(f"gradient has shape {grad.shape}, expected {params.shape}")
    return grad


def _draw_batch(features: np.ndarray, labels: np.ndarray, batch_size: int, rng: np.random.Generator, slots: int):
    """A block of slots' per-node minibatches: features (slots, n, batch_size, f), labels (slots, n, batch_size).

    batch_size < m samples without replacement, by a partial Fisher-Yates
    shuffle of the indices 0..m-1 of all slots * n (slot, node) rows at
    once: step k swaps every row's position k with one drawn uniformly
    from k..m-1. One rng.integers call draws all positions, bit for bit
    what slots calls of n rows would draw, and leaves rng in the same
    state, so the block length moves no batch.
    """
    n, m = labels.shape
    picks = rng.integers(np.arange(batch_size), m, size=(slots * n, batch_size))
    idx = np.tile(np.arange(m), (slots * n, 1))
    rows = np.arange(slots * n)
    for k in range(batch_size):
        j = picks[:, k]
        idx[rows, k], idx[rows, j] = idx[rows, j], idx[rows, k]
    nodes, idx = rows[:, np.newaxis] % n, idx[:, :batch_size]
    shape = (slots, n, batch_size)
    return features[nodes, idx].reshape(shape + features.shape[2:]), labels[nodes, idx].reshape(shape)


def _block_length(g: Graph, draw_bytes: int) -> int:
    """How many slots train draws and decodes at once on g, for draw_bytes of minibatch draws per slot.

    A block holds whole words of mac.slots_per_word(g) slots, as many as
    fit in DECODE_BLOCK_BYTES with their draws, and at least one, since a
    partly filled word costs a decode call as much as a full one. Only when
    one word's draws alone break the bound does a block hold part of a
    word: as many slots as fit, at least one.
    """
    per_word, slot_draws = slots_per_word(g), g.n + draw_bytes
    word_bytes = max(8 * (g.arcs[0].size + 2 * g.n), per_word * (24 * g.n + 16)) + 1536
    full_word = word_bytes + per_word * slot_draws
    if full_word <= DECODE_BLOCK_BYTES or not draw_bytes:
        return per_word * max(1, DECODE_BLOCK_BYTES // full_word)
    return max(1, (DECODE_BLOCK_BYTES - word_bytes) // slot_draws)


def dsgd_step(
    params: np.ndarray,
    step_size: float,
    mix: Callable[[np.ndarray], np.ndarray],
    gradient: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """One adapt-then-combine iteration for all n nodes at once; returns the new (n, dim) params.

    gradient is the task's gradient bound to the nodes' stacked batches,
    task.gradient(features, labels) for features (n, m, f) and labels
    (n, m). Every node j computes its half-step z_j = x_j - eta * g_j(x_j)
    on its own batch, all in one local_gradient call; mix maps the stacked
    (n, dim) half-steps to the new models, for example lambda z: w @ z for
    a mixing matrix w. With identity mixing and eta = 0 the params are
    unchanged; with eta = 0 the step is exactly mix(params).
    """
    mixed = mix(params - step_size * local_gradient(gradient, params))
    if mixed.shape != params.shape:
        raise DimensionError(f"mixing returned shape {mixed.shape}, expected {params.shape}")
    return mixed


@dataclass(eq=False)
class MetricTrace:
    """Checkpointed metrics of one training run.

    accuracy is NaN for tasks without a predict function. The consensus
    distance is sum_i ||x_i - mean_j x_j||^2, the dispersion of node models
    around their average.
    """

    iterations: np.ndarray
    avg_test_loss: np.ndarray
    accuracy: np.ndarray
    consensus_distance: np.ndarray


def _integer(name: str, value, low: int) -> int:
    """value as an int of at least low (numpy integers pass), or ConfigError naming the field."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if number < low:
        raise ConfigError(f"{name} must be >= {low}, got {number}")
    return number


def _seed_sequence(seed) -> np.random.SeedSequence:
    """seed if a SeedSequence, else one seeded by seed; ConfigError unless seed is an integer >= 0."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_integer("seed", seed, 0))


def full_batch(batch_size: int | None, samples: int) -> bool:
    """Whether every slot takes all of a node's samples: batch_size None or at least samples.

    A full-batch run binds its gradient once and draws no minibatches.
    """
    return batch_size is None or batch_size >= samples


def checkpoint_interval(iterations: int, checkpoint_every: int | None) -> int:
    """checkpoint_every, or by default 1 up to 1000 iterations and 10 beyond."""
    if checkpoint_every is None:
        return 1 if iterations <= 1000 else 10
    return checkpoint_every


def train(
    g: Graph, policy: AccessPolicy, task: TaskSpec, data: LocalDataset, test: LocalDataset, *,
    iterations: int, step_size: float = 0.01, epsilon: float | None = None, batch_size: int | None = None,
    seed: int | np.random.SeedSequence = 0, checkpoint_every: int | None = None,
) -> MetricTrace:
    """Run D-SGD with random access and broadcast transmission.

    Per iteration: sample broadcast decisions, find the receivers that
    decode a packet and their senders (with mac.link_decoder, bound to g
    once per run), and apply one adapt-then-combine
    step in which only those receivers' rows mix (see mixing.mix_slot);
    in a slot that decodes no link the half-steps are the new params.
    All nodes start from the zero vector. data stacks the nodes' local
    samples, (n, m, f) / (n, m), so one gradient call per slot serves every
    node; test is the shared (T, f) / (T,) test set, to which the task's
    evaluator is bound once for all checkpoints. The task's gradient is
    bound to data once per run, or, with minibatches, to each slot's
    batch at that slot's step.

    The broadcasts depend on the policy and the graph alone, so the run
    goes in blocks of slots. A block's (slots, n) decisions are one
    sample_broadcast call on the generator seeded by seed, whose rows equal
    that many one-slot calls bit for bit; with minibatches, the block's
    batches are one _draw_batch call on a second generator, seeded by the
    child of seed keyed by BATCH_STREAM_TAG (built without spawn, which
    would count a child on a caller's SeedSequence). So the channel does
    not depend on the batch size, and the block length moves no draw.
    Then one decoder call decodes the block into one flat record, and each
    slot takes its step on its slice of the links, its divergence check
    and checkpoint. A block holds whole words of the decoder's packing
    (mac.slots_per_word), and its draws and decode call hold at most
    DECODE_BLOCK_BYTES unless the smallest block alone holds more (see _block_length).

    epsilon None means 1/(d_max + 1); batch_size None, or one at least the
    local dataset size, means the full local dataset; checkpoint_every None
    records every iteration up to 1000 total iterations and every 10th
    beyond that. The final iteration is always recorded. A non-integer
    iterations, batch_size or checkpoint_every, or one below 1, raises
    ConfigError, as does a seed that is not a SeedSequence or an integer >= 0.
    Bit-reproducible for fixed arguments and seed. Raises DivergenceError
    as soon as any parameter magnitude exceeds 1e9 or is NaN.
    """
    iterations = _integer("iterations", iterations, 1)
    if checkpoint_every is not None:
        _integer("checkpoint_every", checkpoint_every, 1)
    if batch_size is not None:
        batch_size = _integer("batch_size", batch_size, 1)
    if not 0.0 <= step_size < np.inf:
        raise ConfigError(f"step_size must be a nonnegative finite number, got {step_size}")
    if policy.n != g.n:
        raise DimensionError(f"policy size {policy.n} does not match n={g.n}")
    if data.labels.ndim != 2 or data.labels.shape[0] != g.n:
        raise DimensionError(f"data labels {data.labels.shape} do not stack n={g.n} nodes")
    if test.labels.ndim != 1:
        raise DimensionError(f"test labels {test.labels.shape} are not one (T,) set")
    seed = _seed_sequence(seed)
    epsilon = default_epsilon(g) if epsilon is None else check_epsilon(g, epsilon)
    evaluate = task.evaluator(test.features, test.labels)
    decode = link_decoder(g)
    rng = np.random.default_rng(seed)
    minibatch = not full_batch(batch_size, data.size)
    gradient = None if minibatch else task.gradient(data.features, data.labels)
    draw_bytes = 0
    if minibatch:
        key = seed.spawn_key + (BATCH_STREAM_TAG,)
        stream = np.random.SeedSequence(seed.entropy, spawn_key=key, pool_size=seed.pool_size)
        batch_rng = np.random.default_rng(stream)
        # A slot's share of _draw_batch, per node: batch_size swap positions,
        # m indices, 2 * batch_size index copies that numpy's gather makes
        # and 4 row temporaries, then its batch.
        rows = g.n * (3 * batch_size + data.size + 4) * np.dtype(np.intp).itemsize
        draw_bytes = rows + data.features[:, :batch_size].nbytes + data.labels[:, :batch_size].nbytes
    block = _block_length(g, draw_bytes)
    params = np.zeros((g.n, task.dim))
    every = checkpoint_interval(iterations, checkpoint_every)
    checkpoints = []  # (iteration, test loss, accuracy, consensus distance)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, iterations + 1, block):
            slots = min(block, iterations + 1 - first)
            decisions = sample_broadcast(policy, rng, slots)
            if minibatch:
                features, labels = _draw_batch(data.features, data.labels, batch_size, batch_rng, slots)
            receivers, senders, bounds = decode(decisions)
            for t, lo, hi in zip(range(first, first + slots), bounds.tolist(), bounds[1:].tolist()):
                if minibatch:
                    gradient = task.gradient(features[t - first], labels[t - first])
                # A slot that decodes no link mixes with the identity: the
                # half-steps, a new array, are the new params as they are.
                params = dsgd_step(
                    params, step_size,
                    lambda z: mix_slot(z, receivers[lo:hi], senders[lo:hi], epsilon) if hi > lo else z, gradient,
                )
                # NaN fails the comparison, so one pass catches NaN and +-inf too.
                if not (np.abs(params).max() <= DIVERGENCE_LIMIT):
                    raise DivergenceError(
                        f"parameter magnitude exceeded {DIVERGENCE_LIMIT:.0e} at iteration {t} "
                        f"(step_size={step_size})"
                    )
                if t % every == 0 or t == iterations:
                    # evaluate is the task's evaluator bound to the test set
                    # (TaskSpec): one call for all n nodes.
                    loss, acc = evaluate(params)
                    checkpoints.append((t, loss, acc, float(((params - params.mean(axis=0)) ** 2).sum())))
    steps, loss, acc, dist = (np.array(column) for column in zip(*checkpoints))
    return MetricTrace(steps.astype(np.int64), avg_test_loss=loss, accuracy=acc, consensus_distance=dist)
