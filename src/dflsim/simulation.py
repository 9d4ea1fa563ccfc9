"""Decentralized training engine: consensus gradient tracking under attack.

Every epoch is synchronous: all nodes update from the previous epoch's
snapshot. Honest nodes mix in-neighbor models (self term included so the
mixing weights are row-stochastic) and maintain a gradient-tracker vector;
adversarial nodes, once the attack epoch passes, ignore their neighbors
and descend on an FGSM-poisoned copy of their own shard.

One `Simulation` advances an attacked run and its adversary-free twin as
(replica, node, parameter) stacks. The twins agree through t_attack, so
that prefix is one replica; at t_attack + 1 it splits into two (attacked,
baseline) and the failure event removes the same nodes from both.
`honest_step` and `adversary_step` are the per-node reference rules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import learning
from .graphs import EmptyGraphError, Graph, GraphFamily, apply_failures
from .learning import (Dataset, Model, ShardBatch, batch_accuracy,
                       batch_grads, batch_poisoned_grads, fgsm_poison,
                       loss_and_grad, model_dim)
from .metrics import EpochMetrics
from .placement import HoppingParams, place

GRAPH_FAMILIES = ("er", "dg", "pa")


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulated training run."""

    graph_family: str = "dg"
    graph_param: float = 0.2
    n: int = 25
    strategy: str = "random"
    n_advs: int = 5
    epochs: int = 60
    t_attack: int = 15
    epsilon: float = 250.0
    epsilon_scale: float = 0.002
    alpha: float = 0.05
    local_iters: int = 1
    classes: int = 10
    feature_dim: int = 20
    samples_per_node: int = 20
    classes_per_node: int = 10
    spread: float = 0.3
    test_samples: int = 200
    p_node_fail: float = 0.0
    p_link_fail: float = 0.0
    hopping: HoppingParams = field(default_factory=HoppingParams)
    tracker_mixing: str = "in_self"
    seed: int = 1

    def __post_init__(self):
        if self.graph_family not in GRAPH_FAMILIES:
            raise ValueError(f"unknown graph family {self.graph_family!r}")
        if not (0 <= self.t_attack <= self.epochs):
            raise ValueError(f"need 0 <= t_attack <= epochs, got "
                             f"{self.t_attack} vs {self.epochs}")
        if not (0 <= self.n_advs < self.n):
            raise ValueError(f"need 0 <= n_advs < n, got {self.n_advs}")
        if not (1 <= self.classes_per_node <= self.classes):
            raise ValueError(f"need 1 <= classes_per_node <= classes, got "
                             f"{self.classes_per_node} vs {self.classes}")
        if self.alpha <= 0:
            raise ValueError("learning rate must be positive")
        if self.epsilon < 0 or self.epsilon_scale < 0:
            raise ValueError("attack power must be non-negative")
        if self.local_iters < 1:
            raise ValueError("local_iters must be >= 1")
        if self.tracker_mixing not in ("in_self", "literal_out"):
            raise ValueError(f"unknown tracker_mixing {self.tracker_mixing!r}")

    @property
    def effective_epsilon(self) -> float:
        return self.epsilon * self.epsilon_scale


def seed_streams(master: int) -> dict[str, np.random.Generator]:
    """Deterministic named substreams so baseline and attacked runs share
    graph, data, placement, and failure randomness."""
    children = np.random.SeedSequence(master).spawn(5)
    names = ("graph", "data", "placement", "failures", "test")
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def build_graph(cfg: SimulationConfig, rng: np.random.Generator) -> Graph:
    return GraphFamily(cfg.graph_family, cfg.graph_param).generate(cfg.n, rng)


def honest_step(i: int, g: Graph, x_prev: np.ndarray, y_prev: np.ndarray,
                alpha: float, grad_fn: Callable[[np.ndarray], np.ndarray],
                grad_prev: np.ndarray,
                tracker_mixing: str = "in_self") -> tuple[np.ndarray, np.ndarray]:
    """One honest update of node i from the epoch snapshot.

    Model: average of in-neighbor models plus self, minus alpha times the
    tracker. Tracker: mixed trackers plus the gradient difference at the
    new and old local models. With `literal_out` the tracker mix runs over
    out-neighbors without a self term. A node with an empty mixing set
    degenerates to self-only weights.
    """
    in_set = list(g.in_neighbors[i]) + [i]
    x_i = x_prev[in_set].mean(axis=0) - alpha * y_prev[i]
    if tracker_mixing == "in_self":
        mix_set = in_set
    else:
        mix_set = list(g.out_neighbors[i]) or [i]
    y_mixed = y_prev[mix_set].mean(axis=0)
    y_i = y_mixed + grad_fn(x_i) - grad_prev
    return x_i, y_i


def adversary_step(x_prev_i: np.ndarray, shard: Dataset, n_classes: int,
                   dim: int, alpha: float,
                   epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """One adversarial update: descend on the FGSM-poisoned shard, ignoring
    all neighbors. The poisoned copy is rebuilt from the clean shard at the
    current model. Returns the new model and the broadcast tracker (the
    gradient of the poisoned loss at the new model)."""
    model = Model.from_flat(x_prev_i, n_classes, dim)
    poisoned = fgsm_poison(shard, model, epsilon)
    _, grad = loss_and_grad(model, poisoned)
    x = x_prev_i - alpha * grad
    new_model = Model.from_flat(x, n_classes, dim)
    poisoned = fgsm_poison(shard, new_model, epsilon)
    _, tracker = loss_and_grad(new_model, poisoned)
    return x, tracker


def _slot_table(sets: Sequence[tuple[int, ...]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Mixing sets as a (slot, row) index table padded with index n (the
    zero row `_mix` appends), and the set sizes as a (row, 1) column."""
    n, sizes = len(sets), np.array([len(s) for s in sets])
    idx = np.array([s + (n,) * (sizes.max() - len(s)) for s in sets]).T
    return idx, sizes[:, None].astype(float)


def _mix(v: np.ndarray, table) -> np.ndarray:
    """Row-stochastic mix of a replica stack v (R, n, p): each row sums its
    set slot by slot, in set order, from +0.0 as np.mean's sum does, then
    divides by the set size, giving the bits of `v[r][set].mean(axis=0)`.
    Padding slots add zeros; temporaries stay the size of v."""
    idx, sizes = table
    r, _, p = v.shape
    padded = np.concatenate([v, np.zeros((r, 1, p))], axis=1)
    acc = padded[:, idx[0]] + 0.0  # np.add.reduce starts from +0.0
    for j in idx[1:]:
        acc += padded[:, j]
    acc /= sizes
    return acc


class Simulation:
    """An attacked run and its adversary-free twin, as one replica stack."""

    def __init__(self, cfg: SimulationConfig, graph: Optional[Graph] = None):
        self.cfg = cfg
        streams = seed_streams(cfg.seed)
        self.graph = graph if graph is not None else build_graph(
            cfg, streams["graph"])
        if self.graph.n != cfg.n:
            raise SimulationError("provided graph size disagrees with config")

        per_class = max(1, round(cfg.n * cfg.samples_per_node / cfg.classes))
        train = learning.synth_dataset(cfg.classes, cfg.feature_dim,
                                       per_class, cfg.spread, streams["data"])
        self.shards = learning.partition(train, cfg.n, cfg.classes_per_node,
                                         streams["data"])
        test_per_class = max(1, cfg.test_samples // cfg.classes)
        self.test_set = learning.synth_dataset(cfg.classes, cfg.feature_dim,
                                               test_per_class, cfg.spread,
                                               streams["test"])

        # Placed nodes act as adversaries only in the attacked replica, but
        # both twins leave them out of the accuracy average, so the traces
        # are comparable node-for-node (and identical until the attack).
        self.counted = np.ones(cfg.n, dtype=bool)
        self.adversaries = None
        if cfg.n_advs > 0:
            self.adversaries = place(self.graph, cfg.strategy, cfg.n_advs,
                                     streams["placement"], hopping=cfg.hopping)
            self.counted[list(self.adversaries.members)] = False
        self._failure_rng = streams["failures"]
        self._build_tables()

        self.batch = ShardBatch.stack(self.shards, cfg.classes)
        self.X = np.zeros((1, cfg.n, model_dim(cfg.classes, cfg.feature_dim)))
        self.G = batch_grads(self.X, self.batch)
        self.Y = self.G.copy()

    @property
    def attacking(self) -> bool:
        """Whether the state has split: replica 0 is then the attacked run."""
        return len(self.X) == 2

    def consensus_error(self) -> float:
        """Largest distance of a model from the mean, in the attacked run."""
        x = self.X[0]
        return float(np.max(np.linalg.norm(x - x.mean(axis=0), axis=1)))

    def _build_tables(self) -> None:
        g = self.graph
        self._x_table = _slot_table([g.in_neighbors[i] + (i,)
                                     for i in range(g.n)])
        self._y_table = (self._x_table if self.cfg.tracker_mixing == "in_self"
                         else _slot_table([g.out_neighbors[i] or (i,)
                                           for i in range(g.n)]))

    def _split(self) -> None:
        """Start the attack: duplicate the shared state into the attacked
        and baseline replicas (when adversaries can tell them apart), then
        fire the one-shot failure event on both."""
        cfg = self.cfg
        if cfg.n_advs > 0:
            self.X, self.Y, self.G = (np.concatenate([a, a])
                                      for a in (self.X, self.Y, self.G))
        if cfg.p_node_fail == 0 and cfg.p_link_fail == 0:
            return
        try:
            self.graph, index_map = apply_failures(
                self.graph, cfg.p_node_fail, cfg.p_link_fail,
                self._failure_rng)
        except EmptyGraphError as exc:
            raise SimulationError("network failure removed every node") from exc
        keep = list(index_map)  # survivors, ascending
        self.X, self.Y, self.G = (a[:, keep] for a in (self.X, self.Y, self.G))
        self.shards = [self.shards[v] for v in keep]
        self.batch = self.batch.take(keep)
        self.counted = self.counted[keep]
        self._build_tables()

    def _advance(self, epoch: int) -> None:
        """One synchronous epoch of every replica from the current state."""
        cfg = self.cfg
        x = _mix(self.X, self._x_table) - cfg.alpha * self.Y
        y_mixed = _mix(self.Y, self._y_table)
        g = batch_grads(x, self.batch)
        y = y_mixed + g - self.G
        for _ in range(cfg.local_iters - 1):
            g_old = g
            x = x - cfg.alpha * g_old
            g = batch_grads(x, self.batch)
            y = y + g - g_old
        if self.attacking:  # adversary_step, local_iters times
            adv = ~self.counted
            shards, eps = self.batch.take(adv), cfg.effective_epsilon
            xa = self.X[0, adv]
            ya = batch_poisoned_grads(xa, shards, eps)
            for _ in range(cfg.local_iters):
                xa = xa - cfg.alpha * ya
                ya = batch_poisoned_grads(xa, shards, eps)
            x[0, adv], y[0, adv], g[0, adv] = xa, ya, ya
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise SimulationError(f"non-finite model state at epoch {epoch}")
        self.X, self.Y, self.G = x, y, g

    def _measure(self, epoch: int) -> list[EpochMetrics]:
        """Mean test accuracy of the counted nodes, one entry per replica."""
        k = int(self.counted.sum())
        if k == 0:
            raise SimulationError("no honest nodes left to measure")
        accs = [batch_accuracy(x[self.counted], self.test_set) for x in self.X]
        return [EpochMetrics(epoch=epoch, accuracy=float(np.mean(a)),
                             n_honest_alive=k) for a in accs]

    def run(self) -> tuple[list[EpochMetrics], list[EpochMetrics]]:
        """Every epoch 0..cfg.epochs; returns (attacked, baseline) traces."""
        attacked, baseline = [], []
        for epoch in range(self.cfg.epochs + 1):
            if epoch == self.cfg.t_attack + 1:
                self._split()
            if epoch:
                self._advance(epoch)
            metrics = self._measure(epoch)
            attacked.append(metrics[0])
            baseline.append(metrics[-1])
        return attacked, baseline


def run_simulation(cfg: SimulationConfig,
                   graph: Optional[Graph] = None
                   ) -> tuple[list[EpochMetrics], list[EpochMetrics]]:
    """Run the attacked configuration and its adversary-free twin.

    Both runs share every seed (graph, data, placement, failures), so the
    traces agree exactly through the attack epoch. Trace entries cover
    epochs 0 (initial models) through cfg.epochs; adversaries act, and the
    failure event fires, from epoch t_attack + 1 onward.
    """
    return Simulation(cfg, graph=graph).run()
