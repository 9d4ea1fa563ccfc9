"""Decentralized training engine: consensus gradient tracking under attack.

Every epoch is synchronous: all nodes update from the previous epoch's
snapshot. Honest nodes mix in-neighbor models (self term included so the
mixing weights are row-stochastic) and maintain a gradient-tracker vector;
adversarial nodes, once the attack epoch passes, ignore their neighbors
and descend on an FGSM-poisoned copy of their own shard.

A placement is scored against the adversary-free run on the same network,
data and failure event. That run does not depend on the placement, so
`run_adversary_free` computes it once per network as a `Baseline` (the
config with the fields only the attack reads blanked, on the graph): its
state after the failure event at t_attack + 1, its final state, and every
node's test accuracy at every epoch. A `Simulation` holds the placements
of one network and advances their attacked runs from there as one
(placement, node, parameter) stack, each placement with its own
adversary rows and attack power, and reads their baseline traces, and
their attacked traces through t_attack, from the baseline's accuracies.
One config is the stack of one placement. The per-node reference rules
the tests check this engine against live in tests/oracles.py.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import learning
from .graphs import (EmptyGraphError, Graph, GraphFamily, apply_failures,
                     check_family)
from .learning import (Dataset, ShardBatch, batch_accuracy, batch_grads,
                       batch_poisoned_grads, model_dim)
from .learning import loss_and_grad  # unused; perfbench/selftest.py patches it
from .placement import HoppingParams, place

TRACKER_MIXINGS = ("in_self", "literal_out")
# the least value of each SimulationConfig field that has one
_LEAST = {"epochs": 1, "classes": 2, "feature_dim": 1, "samples_per_node": 1,
          "local_iters": 1, "epsilon": 0, "epsilon_scale": 0, "seed": 0}
# the field that sets each argument of check_family
_GRAPH_FIELDS = {"kind": "graph_family", "param": "graph_param", "n": "n"}


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
        """Raise one ValueError listing every violated constraint, one per
        line, each led by the field it concerns (`field: text`)."""
        problems = [f"{name}: {getattr(self, name)} is below {least}"
                    for name, least in _LEAST.items()
                    if not getattr(self, name) >= least]
        n_rejected = False  # if so, the rules that read n would echo it
        try:
            check_family(self.graph_family, self.graph_param, self.n)
        except ValueError as exc:
            arg, _, text = str(exc).partition(": ")
            problems.append(f"{_GRAPH_FIELDS[arg]}: {text}")
            n_rejected = arg == "n"
        for name, ok, text in (  # texts are formatted only on failure
                ("n_advs", n_rejected or 0 <= self.n_advs < self.n,
                 "{n_advs} adversaries outside 0..n - 1 (n = {n})"),
                ("t_attack", 0 <= self.t_attack <= self.epochs,
                 "{t_attack} outside 0..{epochs} (epochs)"),
                ("classes_per_node", 1 <= self.classes_per_node <= self.classes,
                 "{classes_per_node} outside 1..{classes} (classes)"),
                ("test_samples", self.test_samples >= self.classes,
                 "{test_samples} is below {classes} (classes)"),
                ("alpha", self.alpha > 0, "{alpha} is not positive"),
                ("tracker_mixing", self.tracker_mixing in TRACKER_MIXINGS,
                 "unknown mode {tracker_mixing!r}")):
            if not ok:
                problems.append(f"{name}: " + text.format(**vars(self)))
        if not problems:  # so the fields the data split reads are sound
            least = learning.least_per_class(self.n, self.classes,
                                             self.classes_per_node)
            if self.per_class < least:
                problems.append(
                    f"samples_per_node: {self.samples_per_node} gives "
                    f"{self.per_class} training samples per class, and "
                    f"{self.n} nodes holding {self.classes_per_node} of "
                    f"{self.classes} classes each need {least} for every "
                    "node to get one")
        if problems:
            raise ValueError("\n".join(problems))

    @property
    def per_class(self) -> int:
        """Training samples of each class: n * samples_per_node / classes,
        rounded, and at least 1. The nodes' shards split them, so a shard
        holds about samples_per_node samples."""
        return max(1, round(self.n * self.samples_per_node / self.classes))

    @property
    def effective_epsilon(self) -> float:
        return self.epsilon * self.epsilon_scale


class _Streams(dict):
    def __init__(self, master: int):
        super().__init__()
        self.master = master

    def __missing__(self, name: str) -> np.random.Generator:
        i = ("graph", "data", "placement", "failures", "test").index(name)
        return self.setdefault(name, np.random.default_rng(
            np.random.SeedSequence(self.master, spawn_key=(i,))))


def seed_streams(master: int) -> dict[str, np.random.Generator]:
    """Deterministic named substreams so baseline and attacked runs share
    graph, data, placement, and failure randomness. Stream i, built on
    first access, is child i of SeedSequence(master).spawn(5): the one of
    spawn key (i,)."""
    return _Streams(master)


def build_graph(cfg: SimulationConfig, rng: np.random.Generator) -> Graph:
    return GraphFamily(cfg.graph_family, cfg.graph_param).generate(cfg.n, rng)


def _slot_table(offsets: np.ndarray, nodes: np.ndarray,
                with_self: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixing sets as a (slot, row) index table padded with index n (the
    zero row `_mix` appends), and the set sizes as a (row, 1) column. Row
    v's set is nodes[offsets[v]:offsets[v + 1]], then v where with_self[v]."""
    n, count = len(offsets) - 1, np.diff(offsets)
    sizes = count + with_self
    idx = np.full((sizes.max(), n), n)
    row = np.repeat(np.arange(n), count)
    idx[np.arange(len(nodes)) - offsets[row], row] = nodes
    idx[count[with_self], with_self] = np.flatnonzero(with_self)
    return idx, sizes[:, None].astype(float)


def _mix(v: np.ndarray, table) -> np.ndarray:
    """Row-stochastic mix of a stack v (..., n, p): each row sums its set
    slot by slot, in set order, from +0.0 as np.mean's sum does, then
    divides by the set size, giving the bits of `v[..., set, :].mean(-2)`.
    Padding slots add zeros."""
    idx, sizes = table
    padded = np.concatenate([v, np.zeros_like(v[..., :1, :])], axis=-2)
    acc, rows = np.zeros(v.shape), np.empty(v.shape)
    for slot in idx:
        acc += padded.take(slot, axis=-2, out=rows, mode="clip")
    acc /= sizes
    return acc


class Run:
    """Training runs on one graph, as (..., node, parameter) stacks: models
    X, trackers Y and the local gradients G the trackers last added; the
    placements of a network are one (K, n, p) stack. `advance` replaces
    the stacks and never writes into them, so a shallow copy of a run
    continues independently of it.

    An attacked run (see `attacked`) also holds its adversaries: their row
    mask, and their rows' shards and attack powers, gathered once. Their
    rows of G hold the poisoned gradient at their rows of X, which their
    next descent step starts from."""

    def __init__(self, cfg: SimulationConfig, graph: Graph, batch: ShardBatch,
                 X: np.ndarray, Y: np.ndarray, G: np.ndarray):
        self.cfg, self.graph, self.batch = cfg, graph, batch
        self.X, self.Y, self.G = X, Y, G
        self.attack: Optional[tuple[np.ndarray, ShardBatch, np.ndarray]] = None
        # models mix in-neighbours, then self; literal_out trackers mix
        # out-neighbours, or self alone where there are none
        self._x_table = _slot_table(*graph.in_csr, np.ones(graph.n, bool))
        offsets, nodes = graph.out_csr
        self._y_table = (self._x_table if cfg.tracker_mixing == "in_self"
                         else _slot_table(offsets, nodes, np.diff(offsets) == 0))

    @classmethod
    def start(cls, cfg: SimulationConfig, graph: Graph,
              shards: list[Dataset]) -> "Run":
        """Epoch 0: zero models, each tracker at its node's gradient."""
        batch = ShardBatch.stack(shards, cfg.classes)
        X = np.zeros((cfg.n, model_dim(cfg.classes, cfg.feature_dim)))
        G = batch_grads(X, batch)
        return cls(cfg, graph, batch, X, G.copy(), G)

    def fail(self, rng: np.random.Generator) -> tuple["Run", list[int]]:
        """The run on the graph the one-shot failure event leaves, and the
        surviving nodes (ascending)."""
        cfg = self.cfg
        try:
            graph, index_map = apply_failures(
                self.graph, cfg.p_node_fail, cfg.p_link_fail, rng)
        except EmptyGraphError as exc:
            raise SimulationError("network failure removed every node") from exc
        keep = list(index_map)
        return Run(cfg, graph, self.batch.take(keep),
                   *(a[keep] for a in (self.X, self.Y, self.G))), keep

    def attacked(self, adv: np.ndarray, epsilon) -> "Run":
        """Copies of the (n, p) run, one per row of the mask `adv` (K, n),
        or one for an (n,) mask, whose rows in it, from the next epoch on,
        descend on their FGSM-poisoned shards at attack power epsilon (a
        number, or one per copy) instead, ignoring their neighbors."""
        run = copy.copy(self)
        shape = adv.shape + self.X.shape[-1:]
        run.X, run.Y = (np.broadcast_to(a, shape) for a in (self.X, self.Y))
        run.G = np.broadcast_to(self.G, shape).copy()
        power = np.broadcast_to(np.asarray(epsilon)[..., None], adv.shape)
        run.attack = (adv, self.batch.take(np.nonzero(adv)[-1]),
                      power[adv][:, None, None])
        run.G[adv] = batch_poisoned_grads(run.X[adv], *run.attack[1:])
        return run

    def take(self, k: int) -> "Run":
        """Run k of a stack, with its adversaries."""
        run = copy.copy(self)
        run.X, run.Y, run.G = self.X[k], self.Y[k], self.G[k]
        if self.attack is not None:
            adv, shards, power = self.attack
            mine = np.nonzero(adv)[0] == k
            run.attack = adv[k], shards.take(mine), power[mine]
        return run

    @np.errstate(over="ignore", invalid="ignore")
    def advance(self) -> np.ndarray:
        """One synchronous epoch of every node from the current stacks.
        Returns whether each run's new state is finite; the finiteness test
        reports overflow, so numpy does not warn of it."""
        cfg = self.cfg
        x = _mix(self.X, self._x_table)
        x -= cfg.alpha * self.Y
        y = _mix(self.Y, self._y_table)
        g = batch_grads(x, self.batch)
        y += g
        y -= self.G
        for _ in range(cfg.local_iters - 1):
            g_old = g
            x -= cfg.alpha * g_old
            g = batch_grads(x, self.batch)
            y += g
            y -= g_old
        if self.attack is not None:  # local_iters poisoned descent steps
            adv, shards, power = self.attack
            xa, ya = self.X[adv], self.G[adv]
            for _ in range(cfg.local_iters):
                xa = xa - cfg.alpha * ya
                ya = batch_poisoned_grads(xa, shards, power)
            x[adv], y[adv], g[adv] = xa, ya, ya
        self.X, self.Y, self.G = x, y, g
        return (np.isfinite(x).all(axis=(-2, -1))
                & np.isfinite(y).all(axis=(-2, -1)))


@dataclass(frozen=True, eq=False)
class Baseline:
    """The adversary-free run of a network, shared by all its placements.

    `start` is the run right after the failure event at t_attack + 1 (the
    survivors' rows of the state after epoch t_attack, on the graph the
    event left), `end` the run after the last epoch, and `acc[e, i]` node
    i's test accuracy at epoch e (NaN once i has failed). A run whose
    epoch loop raised keeps the error, to be raised at epoch len(acc), and
    whatever it reached before. Every array is read-only.
    """

    shards: list[Dataset]
    test_set: Dataset
    alive: np.ndarray
    acc: np.ndarray
    start: Optional[Run] = None
    end: Optional[Run] = None
    error: Optional[SimulationError] = None


# the fields only the attack reads
_ATTACK_BLANK = dict(strategy="", n_advs=0, epsilon=0.0, epsilon_scale=0.0,
                     hopping=HoppingParams())


def adversary_free(cfg: SimulationConfig) -> SimulationConfig:
    """cfg with the attack's fields blanked: the config of the run every
    placement of cfg's network is scored against."""
    return replace(cfg, **_ATTACK_BLANK)


def run_adversary_free(cfg: SimulationConfig, graph: Graph) -> Baseline:
    """The adversary-free run of cfg's network on graph: the baseline every
    placement of cfg (whatever its attack fields) is scored against."""
    if graph.n != cfg.n:
        raise SimulationError("provided graph size disagrees with config")
    cfg = adversary_free(cfg)
    streams = seed_streams(cfg.seed)
    train = learning.synth_dataset(cfg.classes, cfg.feature_dim, cfg.per_class,
                                   cfg.spread, streams["data"])
    shards = learning.partition(train, cfg.n, cfg.classes_per_node,
                                streams["data"])
    test_set = learning.synth_dataset(cfg.classes, cfg.feature_dim,
                                      cfg.test_samples // cfg.classes,
                                      cfg.spread, streams["test"])
    run = Run.start(cfg, graph, shards)
    acc = np.full((cfg.epochs + 1, cfg.n), np.nan)
    alive = np.ones(cfg.n, dtype=bool)
    start = end = error = None
    try:
        for epoch in range(cfg.epochs + 1):
            if epoch == cfg.t_attack + 1:
                if cfg.p_node_fail or cfg.p_link_fail:
                    run, keep = run.fail(streams["failures"])
                    alive[:] = False
                    alive[keep] = True
                start = copy.copy(run)
            if epoch and not run.advance():
                raise SimulationError(f"non-finite model state at epoch {epoch}")
            acc[epoch, alive] = batch_accuracy(run.X, test_set)
        end = run
    except SimulationError as exc:
        acc, error = acc[:epoch], exc
    arrays = [alive, acc, test_set.features, test_set.labels]
    arrays += [a for s in shards for a in (s.features, s.labels)]
    for r in (start, end):
        if r is not None:
            arrays += [r.X, r.Y, r.G, *vars(r.batch).values()]
    for a in arrays:
        a.flags.writeable = False
    return Baseline(shards, test_set, alive, acc, start, end, error)


class Simulation:
    """The placements of one network: configs that differ only in the
    fields the attack reads, each an attacked run scored against the
    adversary-free run they all share. Pass that run as `base` (see
    `run_adversary_free`), or leave it to be computed. One config is the
    K = 1 case.

    A placement that raises, or whose run turns non-finite, fails alone,
    with the exception it raises when run by itself; the others' bits do
    not change."""

    def __init__(self, cfgs, graph: Optional[Graph] = None,
                 base: Optional[Baseline] = None):
        self.cfgs = [cfgs] if isinstance(cfgs, SimulationConfig) else list(cfgs)
        cfg = self.cfgs[0]
        if len({adversary_free(c) for c in self.cfgs}) > 1:
            raise ValueError("placements of more than one network")
        self.graph = graph if graph is not None else build_graph(
            cfg, seed_streams(cfg.seed)["graph"])
        if self.graph.n != cfg.n:
            raise SimulationError("provided graph size disagrees with config")
        self.base = base if base is not None else run_adversary_free(
            cfg, self.graph)

        # Placed nodes act as adversaries only in the attacked run, but both
        # traces leave them out of the accuracy average, so the traces are
        # comparable node-for-node (and identical until the attack).
        self.counted = np.ones((len(self.cfgs), cfg.n), dtype=bool)
        self.adversaries: list = [None] * len(self.cfgs)
        self.errors: list[Optional[Exception]] = [None] * len(self.cfgs)
        for k, c in enumerate(self.cfgs):
            if c.n_advs == 0:
                continue
            try:
                self.adversaries[k] = place(
                    self.graph, c.strategy, c.n_advs,
                    seed_streams(c.seed)["placement"], hopping=c.hopping)
            except Exception as exc:  # fails this placement alone
                self.errors[k] = exc
                continue
            self.counted[k, list(self.adversaries[k].members)] = False
        self.final: Optional[list[Optional[Run]]] = None

    def run(self) -> list:
        """Every epoch 0..epochs of every placement, the attacked runs
        advanced as one (K, n, p) stack. Returns each placement's traces as
        arrays (attacked, baseline, honest), or the exception that failed
        it: per epoch, the attacked and adversary-free runs' mean accuracy
        over the honest nodes (a 1-D sum over them divided by their count:
        np.mean's bits), and that count. Leaves each attacked run's last
        state in `final`."""
        cfg, base, t = self.cfgs[0], self.base, self.cfgs[0].t_attack
        errors = list(self.errors)
        attacked = [np.empty(cfg.epochs + 1) for _ in self.cfgs]
        self.final = [base.end] * len(self.cfgs)
        stack = [k for k, a in enumerate(self.adversaries)
                 if a is not None and t + 1 < len(base.acc)]
        if stack:
            adv = ~self.counted[stack][:, base.alive]
            none_left = adv.all(axis=1)
            run = base.start.attacked(
                adv, [self.cfgs[k].effective_epsilon for k in stack])
            for epoch in range(t + 1, len(base.acc)):
                finite = run.advance()
                for row, k in enumerate(stack):
                    if errors[k] is None and not finite[row]:
                        errors[k] = SimulationError(
                            f"non-finite model state at epoch {epoch}")
                    elif errors[k] is None and none_left[row]:
                        errors[k] = SimulationError(
                            "no honest nodes left to measure")
                    elif errors[k] is None:
                        accs = batch_accuracy(run.X[row, ~adv[row]],
                                              base.test_set)
                        attacked[k][epoch] = accs.sum() / len(accs)
            for row, k in enumerate(stack):
                self.final[k] = run.take(row)
        # a placement whose attacked trace has honest nodes at every epoch
        # has them in its baseline trace too
        results = []
        for k, counted in enumerate(self.counted):
            errors[k] = errors[k] or base.error
            if errors[k] is not None:
                results.append(errors[k])
                self.final[k] = None
                continue
            after = counted & base.alive
            honest = np.repeat([counted.sum(), after.sum()],
                               (t + 1, cfg.epochs - t))
            baseline = np.array([row.sum() for block in (
                base.acc[:t + 1, counted], base.acc[t + 1:, after])
                for row in block]) / honest
            lead = t + 1 if k in stack else cfg.epochs + 1
            attacked[k][:lead] = baseline[:lead]
            results.append((attacked[k], baseline, honest))
        return results


def run_simulation(cfg: SimulationConfig, graph: Optional[Graph] = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the attacked configuration and its adversary-free twin; their
    traces (attacked, baseline, honest) as `Simulation.run` gives them.

    Both runs share every seed (graph, data, placement, failures), so the
    traces agree exactly through the attack epoch. Entry e of each array
    is epoch e, 0 (initial models) through cfg.epochs; adversaries act,
    and the failure event fires, from epoch t_attack + 1 onward.
    """
    (result,) = Simulation(cfg, graph=graph).run()
    if isinstance(result, Exception):
        raise result
    return result
