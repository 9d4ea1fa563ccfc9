"""Synthetic classification task, linear softmax model, and data poisoning.

The learning task is a desk-scale stand-in for image classification:
Gaussian blobs around fixed unit-norm class directions, classified by a
linear softmax model with analytic gradients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PartitionError(ValueError):
    """A node ended up with an empty data shard."""


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray  # (m, dim) float
    labels: np.ndarray    # (m,) int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2D array")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")
        if len(self.features) == 0:
            raise ValueError("dataset needs at least one sample")

    @property
    def n_samples(self) -> int:
        return len(self.labels)


# Model and loss_and_grad are the one-model form of the batched kernels
# below. The reference rules in tests/oracles.py are built on them, and
# perfbench/selftest.py checks its tracer on `simulation.loss_and_grad`.
@dataclass(frozen=True, eq=False)
class Model:
    """Linear softmax classifier: C x dim weight matrix plus C biases."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    @classmethod
    def from_flat(cls, vec: np.ndarray, n_classes: int, dim: int) -> "Model":
        if vec.shape != (n_classes * dim + n_classes,):
            raise ValueError(f"expected flat dim {n_classes * (dim + 1)}, "
                             f"got {vec.shape}")
        w = vec[: n_classes * dim].reshape(n_classes, dim)
        return cls(weights=w, bias=vec[n_classes * dim:])

    @classmethod
    def zeros(cls, n_classes: int, dim: int) -> "Model":
        return cls(weights=np.zeros((n_classes, dim)), bias=np.zeros(n_classes))


def model_dim(n_classes: int, dim: int) -> int:
    return n_classes * dim + n_classes


def class_means(n_classes: int, dim: int) -> np.ndarray:
    """Fixed deterministic unit-norm class directions (orthonormal when
    dim >= n_classes)."""
    rng = np.random.default_rng(20240101)
    base = rng.standard_normal((dim, max(n_classes, 1)))
    if dim >= n_classes:
        q, _ = np.linalg.qr(base)
        means = q[:, :n_classes].T
    else:
        means = base[:, :n_classes].T
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def synth_dataset(n_classes: int, dim: int, per_class: int, spread: float,
                  rng: np.random.Generator) -> Dataset:
    """per_class samples around each class mean, Gaussian noise of scale
    spread; sample order is interleaved by class then shuffled."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if dim < 1 or per_class < 1:
        raise ValueError("dim and per_class must be positive")
    means = class_means(n_classes, dim)
    labels = np.repeat(np.arange(n_classes), per_class)
    noise = rng.standard_normal((n_classes * per_class, dim))
    features = means[labels] + spread * noise
    order = rng.permutation(len(labels))
    return Dataset(features=features[order], labels=labels[order])


def partition(dataset: Dataset, n_nodes: int, classes_per_node: int,
              rng: np.random.Generator) -> list[Dataset]:
    """Split a dataset into one shard per node.

    classes_per_node == C gives the IID split: one shuffle, then even
    chunks. Otherwise each node receives classes_per_node classes assigned
    round-robin over a shuffled class list, and each class's samples are
    divided evenly among the nodes owning it.
    """
    n_classes = int(dataset.labels.max()) + 1
    if not (1 <= classes_per_node <= n_classes):
        raise ValueError(f"need 1 <= classes_per_node <= {n_classes}, "
                         f"got {classes_per_node}")
    if n_nodes < 1:
        raise ValueError("need at least one node")

    if classes_per_node == n_classes:
        order = rng.permutation(dataset.n_samples)
        chunks = np.array_split(order, n_nodes)
        shards = []
        for chunk in chunks:
            if len(chunk) == 0:
                raise PartitionError("a node received zero samples")
            shards.append(Dataset(features=dataset.features[chunk],
                                  labels=dataset.labels[chunk]))
        return shards

    class_cycle = rng.permutation(n_classes)
    owners: dict[int, list[int]] = {c: [] for c in range(n_classes)}
    pos = 0
    for node in range(n_nodes):
        for _ in range(classes_per_node):
            owners[int(class_cycle[pos % n_classes])].append(node)
            pos += 1

    per_node_idx: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
    for c in range(n_classes):
        if not owners[c]:
            continue
        idx = np.nonzero(dataset.labels == c)[0]
        idx = idx[rng.permutation(len(idx))]
        for owner, part in zip(owners[c], np.array_split(idx, len(owners[c]))):
            if len(part):
                per_node_idx[owner].append(part)

    shards = []
    for node in range(n_nodes):
        if not per_node_idx[node]:
            raise PartitionError(f"node {node} received zero samples")
        idx = np.concatenate(per_node_idx[node])
        shards.append(Dataset(features=dataset.features[idx],
                              labels=dataset.labels[idx]))
    return shards


def least_per_class(n_nodes: int, n_classes: int,
                    classes_per_node: int) -> int:
    """The fewest samples of each class with which `partition` gives every
    node a sample, whatever the shuffles."""
    if classes_per_node == n_classes:  # even chunks of the whole set
        return -(-n_nodes // n_classes)
    # slot s = node * classes_per_node + r makes the node owner number
    # s // n_classes of its class, and owners past the class's sample count
    # get none; the last node's first slot holds the highest least number
    return (n_nodes - 1) * classes_per_node // n_classes + 1


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place of logits. The max
    is taken class by class across rows, as reducing a short last axis
    row by row is slow; the max is exact in any order, and the sign of a
    zero max changes no bit of the exp."""
    top = logits[..., 0].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c], out=top)
    logits -= top[..., None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def loss_and_grad(model: Model, data: Dataset) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax predictions and its flat gradient."""
    probs = _softmax(data.features @ model.weights.T + model.bias)
    m = data.n_samples
    picked = probs[np.arange(m), data.labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dz = probs.copy()
    dz[np.arange(m), data.labels] -= 1.0
    dz /= m
    grad_w = dz.T @ data.features
    grad_b = dz.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


# Batched kernels over flat models stacked as (..., n, p) arrays. Row for
# row they give the same bits as loss_and_grad, and as fgsm_poison and
# accuracy in tests/oracles.py, on one Model: each row's products are the
# same BLAS calls, and padded shard rows hold zero features and a zero
# output gradient, so they add exact zeros to every sum.

@dataclass(frozen=True, eq=False)
class ShardBatch:
    """Per-node shards zero-padded to one (n, m, dim) feature tensor.

    onehot (n, m, C) holds the labels, mask (n, m, C) is 1.0 on real rows
    and 0.0 on padding, and counts (n, 1) is each shard's sample count.
    Both are shaped so that a stack's elementwise products run along long
    contiguous rows, not row by row along a short class axis.
    """

    features: np.ndarray
    onehot: np.ndarray
    mask: np.ndarray
    counts: np.ndarray

    @classmethod
    def stack(cls, shards: list[Dataset], n_classes: int) -> "ShardBatch":
        m = max(s.n_samples for s in shards)
        n, dim = len(shards), shards[0].features.shape[1]
        features = np.zeros((n, m, dim))
        onehot = np.zeros((n, m, n_classes))
        mask = np.zeros((n, m, n_classes))
        for i, s in enumerate(shards):
            features[i, :s.n_samples] = s.features
            onehot[i, np.arange(s.n_samples), s.labels] = 1.0
            mask[i, :s.n_samples] = 1.0
        return cls(features, onehot, mask, mask[:, :, 0].sum(axis=1)[:, None])

    def take(self, rows) -> "ShardBatch":
        return ShardBatch(self.features[rows], self.onehot[rows],
                          self.mask[rows], self.counts[rows])


def _unflatten(x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight (..., C, dim) and bias (..., C) views of flat models."""
    n_classes = x.shape[-1] // (dim + 1)
    w = x[..., :n_classes * dim].reshape(x.shape[:-1] + (n_classes, dim))
    return w, x[..., n_classes * dim:]


def _output_grad(x: np.ndarray, batch: ShardBatch, features: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled cross-entropy gradient at the logits, zero on padded rows,
    plus the weight views of x."""
    w, b = _unflatten(x, features.shape[-1])
    logits = features @ w.swapaxes(-1, -2)
    logits += b[..., None, :]
    dz = _softmax(logits)
    dz -= batch.onehot
    dz *= batch.mask
    return dz, w


def _per_sample(a: np.ndarray, batch: ShardBatch) -> np.ndarray:
    """a (..., n, m, k), contiguous, divided in place by each shard's
    sample count."""
    rows = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    rows /= batch.counts
    return a


def batch_grads(x: np.ndarray, batch: ShardBatch,
                features: np.ndarray | None = None) -> np.ndarray:
    """loss_and_grad's gradient for each stacked model x (..., n, p) on its
    own shard; `features` (a poisoned copy) replaces the batch's."""
    f = batch.features if features is None else features
    dz, _ = _output_grad(x, batch, f)
    _per_sample(dz, batch)
    grad_w = dz.swapaxes(-1, -2) @ f
    n_w = grad_w.shape[-2] * grad_w.shape[-1]
    return np.concatenate([grad_w.reshape(x.shape[:-1] + (n_w,)),
                           dz.sum(axis=-2)], axis=-1)


def batch_poisoned_grads(x: np.ndarray, batch: ShardBatch,
                         epsilon: float) -> np.ndarray:
    """loss_and_grad of each stacked model on its shard after an FGSM step:
    every feature moved epsilon along the sign of its loss gradient.
    epsilon is a number, or one per shard as an (..., n, 1, 1) array."""
    dz, w = _output_grad(x, batch, batch.features)
    sign = np.sign(_per_sample(dz @ w, batch))
    return batch_grads(x, batch, batch.features + epsilon * sign)


def batch_accuracy(x: np.ndarray, data: Dataset) -> np.ndarray:
    """accuracy of each flat model x (k, p) on data, from one gemm."""
    dim = data.features.shape[1]
    w, b = _unflatten(x, dim)
    logits = data.features @ w.reshape(-1, dim).T
    logits += b.reshape(-1)
    logits = logits.reshape(data.labels.shape + w.shape[:2])
    return (logits.argmax(axis=-1) == data.labels[:, None]).mean(axis=0)
