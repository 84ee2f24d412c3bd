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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, DomainError
from .mac import AccessPolicy, decoding_links, sample_broadcast
from .mixing import check_epsilon, default_epsilon, mix_slot

# The dense per-slot chain that mix_slot replaces in train. perfbench wraps
# these names in this module (perfbench/tracer.py), so they stay importable
# from here.
from .mac import transmission_matrix  # noqa: F401
from .mixing import compensate, mask_by_transmission  # noqa: F401
from .topology import Graph

DIVERGENCE_LIMIT = 1e9


@dataclass(frozen=True)
class TaskSpec:
    """A differentiable learning task.

    loss and gradient take (params, features, labels) over a batch and
    return the mean loss / mean loss gradient; gradient is the exact
    derivative of loss (checked against finite differences in the tests).
    predict maps (params, features) to labels for accuracy reporting and is
    None for tasks without a notion of accuracy.

    Every callable works on stacked nodes: params has shape (..., dim),
    features (..., m, f) and labels (..., m), with the same leading node
    axes on all three. loss returns shape params.shape[:-1], gradient
    params.shape and predict labels.shape, so one call serves a single
    node (params (dim,)) or all n nodes at once (params (n, dim) against
    stacked (n, m, f) features).
    """

    kind: str
    dim: int
    loss: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class LocalDataset:
    """One node's samples; node -1 marks the shared test set."""

    node: int
    features: np.ndarray  # (m, f)
    labels: np.ndarray  # (m,)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2 or labs.ndim != 1 or feats.shape[0] != labs.shape[0]:
            raise DimensionError(
                f"features {feats.shape} and labels {labs.shape} are inconsistent"
            )
        if feats.shape[0] < 1:
            raise DimensionError("a dataset needs at least one sample")
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(labs))):
            raise ValueError("dataset entries must be finite")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def regression_task() -> TaskSpec:
    """Scalar bias estimation: the model is one constant, loss (theta - y)^2."""

    def loss(params, features, labels):
        return np.mean((params[..., :1] - labels) ** 2, axis=-1)

    def gradient(params, features, labels):
        return 2.0 * np.mean(params[..., :1] - labels, axis=-1, keepdims=True)

    return TaskSpec(kind="regression", dim=1, loss=loss, gradient=gradient)


def classification_task(n_classes: int = 4, feature_dim: int = 2, bias: bool = True) -> TaskSpec:
    """Linear softmax classifier with cross-entropy loss.

    Parameters are a (feature_dim + 1) x n_classes matrix flattened row-major
    when bias is enabled (the last row is the per-class bias), feature_dim x
    n_classes without. Cluster centers drawn near the origin are generally
    not separable by hyperplanes through the origin, hence the bias default.

    Internally the class scores are laid out (..., n_classes, m), class axis
    ahead of the sample axis: the softmax reductions then run over an outer
    axis, which numpy does far faster than over a short innermost one.
    """
    rows = feature_dim + (1 if bias else 0)
    classes = np.arange(n_classes)[:, np.newaxis]

    def logits(params, features):
        w = params.reshape(params.shape[:-1] + (rows, n_classes))
        z = np.swapaxes(w[..., :feature_dim, :], -1, -2) @ np.swapaxes(features, -1, -2)
        if bias:
            z = z + w[..., feature_dim, :, np.newaxis]
        return z

    def loss(params, features, labels):
        z = logits(params, features)
        z = z - z.max(axis=-2, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-2, keepdims=True))
        picked = np.take_along_axis(logp, labels[..., np.newaxis, :], axis=-2)
        return -np.mean(picked[..., 0, :], axis=-1)

    def gradient(params, features, labels):
        z = logits(params, features)
        probs = np.exp(z - z.max(axis=-2, keepdims=True))
        probs /= probs.sum(axis=-2, keepdims=True)
        probs -= labels[..., np.newaxis, :] == classes
        grad = probs @ features  # (..., n_classes, feature_dim)
        if bias:
            grad = np.concatenate([grad, probs.sum(axis=-1, keepdims=True)], axis=-1)
        grad = np.swapaxes(grad, -1, -2) / labels.shape[-1]
        return grad.reshape(grad.shape[:-2] + (-1,))

    def predict(params, features):
        return np.argmax(logits(params, features), axis=-2)

    return TaskSpec(
        kind="classification",
        dim=rows * n_classes,
        loss=loss,
        gradient=gradient,
        predict=predict,
    )


def generate_regression_data(
    n_nodes: int,
    samples_per_node: int,
    seed,
    sigma: float = 0.5,
    bias_low: float = -1.0,
    bias_high: float = 5.0,
    test_per_node: int = 100,
) -> tuple[list[LocalDataset], LocalDataset]:
    """Non-IID regression data: node i observes y = b_i + noise.

    Per-node bias values are drawn uniformly from (bias_low, bias_high) and
    the noise is N(0, sigma^2). The test set holds test_per_node samples for
    every bias value, so each bias is equally represented. Deterministic for
    a fixed seed.
    """
    if n_nodes < 1 or samples_per_node < 1:
        raise ConfigError("n_nodes and samples_per_node must be positive")
    rng = np.random.default_rng(seed)
    biases = rng.uniform(bias_low, bias_high, n_nodes)
    empty = np.zeros((samples_per_node, 0))
    locals_ = [
        LocalDataset(i, empty, biases[i] + sigma * rng.standard_normal(samples_per_node))
        for i in range(n_nodes)
    ]
    test_labels = np.concatenate(
        [biases[i] + sigma * rng.standard_normal(test_per_node) for i in range(n_nodes)]
    )
    test = LocalDataset(-1, np.zeros((test_labels.shape[0], 0)), test_labels)
    return locals_, test


def generate_classification_data(
    n_nodes: int,
    samples_per_node: int,
    seed,
    noise_cov: float = 0.05,
    n_classes: int = 4,
    feature_dim: int = 2,
    center_low: float = -1.0,
    center_high: float = 1.0,
    test_per_node: int = 100,
) -> tuple[list[LocalDataset], LocalDataset]:
    """Non-IID clustered classification data; node i sees only class i mod n_classes.

    One center per class is drawn uniformly from (center_low, center_high)^2
    once per seed; samples are the center plus N(0, noise_cov * I) noise.
    n_nodes must be divisible by n_classes so classes are represented by
    equally many nodes. The test set is balanced with test_per_node *
    n_nodes / n_classes samples per class.
    """
    if n_nodes < 1 or samples_per_node < 1:
        raise ConfigError("n_nodes and samples_per_node must be positive")
    if n_nodes % n_classes != 0:
        raise ConfigError(
            f"n_nodes must be divisible by {n_classes} so each class has "
            f"equally many nodes, got {n_nodes}"
        )
    if noise_cov < 0.0:
        raise ConfigError(f"noise_cov must be nonnegative, got {noise_cov}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(center_low, center_high, (n_classes, feature_dim))
    scale = np.sqrt(noise_cov)
    locals_ = []
    for i in range(n_nodes):
        cls = i % n_classes
        feats = centers[cls] + scale * rng.standard_normal((samples_per_node, feature_dim))
        locals_.append(LocalDataset(i, feats, np.full(samples_per_node, cls, dtype=np.int64)))
    per_class = test_per_node * n_nodes // n_classes
    test_feats = []
    test_labels = []
    for cls in range(n_classes):
        test_feats.append(centers[cls] + scale * rng.standard_normal((per_class, feature_dim)))
        test_labels.append(np.full(per_class, cls, dtype=np.int64))
    test = LocalDataset(-1, np.concatenate(test_feats), np.concatenate(test_labels))
    return locals_, test


def local_gradient(task: TaskSpec, params: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean loss gradient over a nonempty batch, for one node or stacked nodes."""
    if labels.shape[-1] == 0:
        raise DomainError("gradient requires a nonempty batch")
    return task.gradient(params, features, labels)


@dataclass
class TrainState:
    """Mutable training snapshot: one parameter row per node."""

    params: np.ndarray  # (n, task.dim)
    iteration: int
    step_size: float
    rng: np.random.Generator


def _draw_batch(features: np.ndarray, labels: np.ndarray, batch_size: int | None, rng: np.random.Generator):
    """Per-node minibatches without replacement, drawn in node order."""
    n, m = labels.shape
    if batch_size is None or batch_size >= m:
        return features, labels
    if batch_size < 1:
        raise DomainError(f"batch_size must be positive, got {batch_size}")
    idx = np.stack([rng.choice(m, size=batch_size, replace=False) for _ in range(n)])
    rows = np.arange(n)[:, np.newaxis]
    return features[rows, idx], labels[rows, idx]


def dsgd_step(
    state: TrainState,
    mix: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    labels: np.ndarray,
    task: TaskSpec,
    batch_size: int | None = None,
) -> TrainState:
    """One adapt-then-combine iteration for all n nodes at once.

    features (n, m, f) and labels (n, m) stack the nodes' equal-sized local
    datasets. Every node j computes its half-step z_j = x_j - eta * g_j(x_j)
    on its own batch, all in one local_gradient call; mix maps the stacked
    (n, dim) half-steps to the new models, for example lambda z: w @ z for
    a mixing matrix w. With identity mixing and eta = 0 the state is
    unchanged; with eta = 0 the step is exactly mix(params).
    """
    n, dim = state.params.shape
    if features.shape[0] != n or labels.shape[0] != n:
        raise DimensionError(
            f"features {features.shape} and labels {labels.shape} do not stack {n} nodes"
        )
    feats, labs = _draw_batch(features, labels, batch_size, state.rng)
    half = state.params - state.step_size * local_gradient(task, state.params, feats, labs)
    mixed = mix(half)
    if mixed.shape != (n, dim):
        raise DimensionError(f"mixing returned shape {mixed.shape}, expected {(n, dim)}")
    return TrainState(
        params=mixed,
        iteration=state.iteration + 1,
        step_size=state.step_size,
        rng=state.rng,
    )


@dataclass
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


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    epsilon None means 1/(d_max + 1); batch_size None means the full local
    dataset; checkpoint_every None records every iteration up to 1000 total
    iterations and every 10th beyond that, always including the final one.
    """

    iterations: int
    step_size: float = 0.01
    epsilon: float | None = None
    batch_size: int | None = None
    seed: int | np.random.SeedSequence = 0
    checkpoint_every: int | None = None


def _evaluate(task: TaskSpec, params: np.ndarray, test: LocalDataset):
    # One node per call on purpose: a stacked call builds (n, test size)
    # temporaries, which raise peak memory by more than the benchmark's
    # 5 % bound (see CHANGES.md).
    losses = [task.loss(x, test.features, test.labels) for x in params]
    if task.predict is None:
        acc = np.nan
    else:
        acc = float(
            np.mean([np.mean(task.predict(x, test.features) == test.labels) for x in params])
        )
    center = params.mean(axis=0)
    consensus = float(((params - center) ** 2).sum())
    return float(np.mean(losses)), acc, consensus


def train(
    g: Graph,
    policy: AccessPolicy,
    task: TaskSpec,
    datasets: list[LocalDataset],
    test: LocalDataset,
    config: TrainConfig,
) -> MetricTrace:
    """Run D-SGD with random access and broadcast transmission.

    Per iteration: sample broadcast decisions, find the receivers that
    decode a packet and their senders, and apply one adapt-then-combine
    step in which only those receivers' rows mix (see mixing.mix_slot).
    All nodes start from the zero vector. The local datasets must all have
    the same size; they are stacked once into (n, m, f) / (n, m) arrays so
    that one gradient call per slot serves every node. Bit-reproducible
    for a fixed config and seed. Raises DivergenceError as soon as any
    parameter magnitude exceeds 1e9.
    """
    if config.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {config.iterations}")
    if policy.n != g.n:
        raise DimensionError(f"policy size {policy.n} does not match n={g.n}")
    if len(datasets) != g.n:
        raise DimensionError(f"expected {g.n} local datasets, got {len(datasets)}")
    if len({dataset.size for dataset in datasets}) != 1:
        raise DimensionError("local datasets must all have the same size")
    features = np.stack([dataset.features for dataset in datasets])
    labels = np.stack([dataset.labels for dataset in datasets])
    epsilon = default_epsilon(g) if config.epsilon is None else check_epsilon(g, config.epsilon)
    rng = np.random.default_rng(config.seed)
    state = TrainState(
        params=np.zeros((g.n, task.dim)),
        iteration=0,
        step_size=config.step_size,
        rng=rng,
    )
    every = config.checkpoint_every
    if every is None:
        every = 1 if config.iterations <= 1000 else 10
    checkpoints, losses, accs, consensus = [], [], [], []
    for t in range(1, config.iterations + 1):
        receivers, senders = decoding_links(g, sample_broadcast(policy, rng))
        with np.errstate(over="ignore", invalid="ignore"):
            state = dsgd_step(
                state, lambda z: mix_slot(z, receivers, senders, epsilon),
                features, labels, task, config.batch_size,
            )
        if not np.all(np.isfinite(state.params)) or np.max(np.abs(state.params)) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"parameter magnitude exceeded {DIVERGENCE_LIMIT:.0e} at iteration {t} "
                f"(step_size={config.step_size})"
            )
        if t % every == 0 or t == config.iterations:
            loss, acc, dist = _evaluate(task, state.params, test)
            checkpoints.append(t)
            losses.append(loss)
            accs.append(acc)
            consensus.append(dist)
    return MetricTrace(
        iterations=np.array(checkpoints, dtype=np.int64),
        avg_test_loss=np.array(losses),
        accuracy=np.array(accs),
        consensus_distance=np.array(consensus),
    )
