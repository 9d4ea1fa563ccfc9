"""Per-node reference rules that the tests check `dflsim` against.

The program computes each rule one way: the engine as batched
(node, parameter) stacks, the lemma check as stacked blocks of trials,
graphs on one sorted edge array, the maxspan greedy with each overlap
kept as regions are claimed, and centrality with a stop on repeating
iterates. The functions here compute the same quantities the plain way,
one node, one model, one trial or one pair at a time, from the graph's
`edges` frozenset, or recompute what the program carries over, and
nothing in `dflsim` calls them.
"""
import math
from typing import Callable, Iterable, Optional

import numpy as np

from dflsim.graphs import (ConvergenceError, EmptyGraphError, Graph,
                           GraphError, eigenvector_centrality,
                           graph_from_edges, is_strongly_connected)
from dflsim.learning import (Dataset, Model, _softmax, batch_grads,
                             batch_poisoned_grads, loss_and_grad, model_dim)
from dflsim.simulation import Run, SimulationError, _mix
from dflsim.theory import BoundScenario, check_regular_symmetric


# ------------------------------ learning ------------------------------ #

def input_gradient(model: Model, data: Dataset) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the features."""
    probs = _softmax(data.features @ model.weights.T + model.bias)
    dz = probs
    dz[np.arange(data.n_samples), data.labels] -= 1.0
    return (dz @ model.weights) / data.n_samples


def fgsm_poison(data: Dataset, model: Model, epsilon: float) -> Dataset:
    """Shift every feature by epsilon times the sign of its loss gradient."""
    if epsilon < 0:
        raise ValueError(f"attack power must be >= 0, got {epsilon}")
    shifted = data.features + epsilon * np.sign(input_gradient(model, data))
    return Dataset(features=shifted, labels=data.labels)


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    return np.argmax(features @ model.weights.T + model.bias, axis=1)


def accuracy(model: Model, data: Dataset) -> float:
    return float(np.mean(predict(model, data.features) == data.labels))


def train_centralized(data: Dataset, n_classes: int, alpha: float = 0.5,
                      iters: int = 1500) -> Model:
    """Plain gradient descent to convergence on pooled data (oracle use)."""
    dim = data.features.shape[1]
    theta = np.zeros(model_dim(n_classes, dim))
    for _ in range(iters):
        _, grad = loss_and_grad(Model.from_flat(theta, n_classes, dim), data)
        theta -= alpha * grad
    return Model.from_flat(theta, n_classes, dim)


# ----------------------------- simulation ----------------------------- #

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
    in_set = list(in_neighbors(g)[i]) + [i]
    x_i = x_prev[in_set].mean(axis=0) - alpha * y_prev[i]
    if tracker_mixing == "in_self":
        mix_set = in_set
    else:
        mix_set = list(out_neighbors(g)[i]) or [i]
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


def oracle_epoch(run, shards, cfg, adv):
    """`Run.advance` of one (n, p) run rebuilt row by row from honest_step /
    adversary_step, in reverse node order (snapshot semantics); `adv`
    masks the adversaries' rows, or is None."""
    x_prev, y_prev, g_prev = run.X, run.Y, run.G
    x, y, g = (np.empty_like(a) for a in (x_prev, y_prev, g_prev))
    for i in reversed(range(run.graph.n)):
        def grad(v, i=i):
            model = Model.from_flat(v, cfg.classes, cfg.feature_dim)
            return loss_and_grad(model, shards[i])[1]
        if adv is not None and adv[i]:
            xi = x_prev[i]
            for _ in range(cfg.local_iters):
                xi, yi = adversary_step(xi, shards[i], cfg.classes,
                                        cfg.feature_dim, cfg.alpha,
                                        cfg.effective_epsilon)
            gi = yi
        else:
            xi, yi = honest_step(i, run.graph, x_prev, y_prev, cfg.alpha,
                                 grad, g_prev[i], cfg.tracker_mixing)
            for _ in range(cfg.local_iters - 1):
                g_old = grad(xi)
                xi = xi - cfg.alpha * g_old
                yi = yi + grad(xi) - g_old
            gi = grad(xi)
        x[i], y[i], g[i] = xi, yi, gi
    return x, y, g


def advance_recomputing(run: Run, epoch: int, adv: np.ndarray,
                        epsilon: float) -> None:
    """`Run.advance` of an attacked run, with the adversaries' shards taken
    and their poisoned gradient recomputed from their models every epoch
    instead of carried in the run's G."""
    cfg = run.cfg
    x = _mix(run.X, run._x_table) - cfg.alpha * run.Y
    y_mixed = _mix(run.Y, run._y_table)
    g = batch_grads(x, run.batch)
    y = y_mixed + g - run.G
    for _ in range(cfg.local_iters - 1):
        g_old = g
        x = x - cfg.alpha * g_old
        g = batch_grads(x, run.batch)
        y = y + g - g_old
    shards = run.batch.take(adv)
    xa = run.X[adv]
    ya = batch_poisoned_grads(xa, shards, epsilon)
    for _ in range(cfg.local_iters):
        xa = xa - cfg.alpha * ya
        ya = batch_poisoned_grads(xa, shards, epsilon)
    x[adv], y[adv], g[adv] = xa, ya, ya
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SimulationError(f"non-finite model state at epoch {epoch}")
    run.X, run.Y, run.G = x, y, g


# ------------------------------- theory ------------------------------- #

def consensus_only_step(x: np.ndarray, g: Graph, alpha: float,
                        grads: np.ndarray) -> np.ndarray:
    """One aggregation step x <- (E x) / d - alpha * grads.

    No self term: each node averages exactly its neighbors. Valid only on
    regular symmetric graphs, where E/d is doubly stochastic.
    """
    d = check_regular_symmetric(g)
    mixed = np.zeros_like(x)
    for i, ns in enumerate(out_neighbors(g)):
        mixed[i] = x[list(ns)].sum(axis=0) / d
    return mixed - alpha * grads


def bound_trials(scenario: BoundScenario, trials: int,
                 rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`theory._bound_trials` one trial and one step at a time: per-trial
    (lhs, adversary-term, honest-term) samples, plus per trial the number
    of adversary steps at which the floor did not bind (some coordinate of
    the attacked gradient already above delta)."""
    g = scenario.graph
    n, p = g.n, scenario.dim
    d = check_regular_symmetric(g)
    e = g.adjacency_matrix()
    m = e / d
    adv = np.array(sorted(scenario.adversaries), dtype=int)
    adv_mask = np.zeros(n, dtype=bool)
    adv_mask[adv] = True
    hon_mask = ~adv_mask
    v = eigenvector_centrality(g)
    v_adv, v_hon = v[adv_mask, None], v[hon_mask, None]
    targets = scenario.targets()
    alpha = scenario.alpha
    delta = scenario.delta_min

    lhs = np.empty(trials)
    adv_term = np.empty(trials)
    hon_term = np.empty(trials)
    unbound = np.empty(trials, dtype=int)
    for trial in range(trials):
        batches = rng.integers(0, scenario.n_samples,
                               size=(scenario.horizon + 1, n,
                                     scenario.batch_size))
        x_att = np.zeros((n, p))
        x_hon = np.zeros((n, p))
        s_adv = np.zeros(p)
        s_hon = np.zeros(p)
        g_adv = []  # the adversaries' gradients before the floor
        for step in range(scenario.horizon + 1):
            batch_means = np.take_along_axis(
                targets, batches[step][:, :, None], axis=1).mean(axis=1)
            g_att = x_att - batch_means
            g_hon = x_hon - batch_means
            g_adv.append(g_att[adv_mask])
            g_att[adv_mask] = np.maximum(g_adv[-1], delta)
            s_adv += (v_adv * (delta - g_hon[adv_mask])).sum(axis=0)
            s_hon += (v_hon * (g_att[hon_mask] - g_hon[hon_mask])).sum(axis=0)
            x_att = m @ x_att - alpha * g_att
            x_hon = m @ x_hon - alpha * g_hon
        lhs[trial] = np.sum((x_att - x_hon) ** 2)
        adv_term[trial] = alpha ** 2 * np.sum(s_adv ** 2)
        hon_term[trial] = alpha ** 2 * np.sum(s_hon ** 2)
        unbound[trial] = np.count_nonzero(
            (np.array(g_adv) > delta).any(axis=-1))
    return lhs, adv_term, hon_term, unbound


# ------------------------------- graphs ------------------------------- #

# the graph families the property tests draw from: pa with m0 = 1 gives
# trees, on which the plain power iteration never converges
FAMILIES = (("er", 0.3), ("dg", 0.5), ("pa", 1), ("pa", 2))


class UnreachableError(GraphError):
    """A shortest-path query hit an unreachable node pair."""


def out_neighbors(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each node's out-neighbours, ascending, from the edge set."""
    out: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        out[i].append(j)
    return tuple(tuple(sorted(ns)) for ns in out)


def in_neighbors(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each node's in-neighbours, ascending, from the edge set."""
    inn: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        inn[j].append(i)
    return tuple(tuple(sorted(ns)) for ns in inn)


def csr_tuples(csr: tuple[np.ndarray, np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """A `Graph.out_csr` or `in_csr` pair as one tuple per node."""
    offsets, nodes = csr
    return tuple(tuple(nodes[a:b].tolist())
                 for a, b in zip(offsets[:-1], offsets[1:]))


def adjacency_mask(g: Graph) -> np.ndarray:
    """Dense boolean adjacency, set edge by edge."""
    a = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.edges:
        a[i, j] = True
    return a


def graph_text(g: Graph) -> str:
    """The edge-list text form, written from the sorted edge set."""
    lines = [f"n {g.n} directed"]
    for i, j in sorted(g.edges):
        lines.append(f"{i} {j}")
    if g.positions is not None:
        for i, (x, y) in enumerate(g.positions):
            lines.append(f"pos {i} {x!r} {y!r}")
    return "\n".join(lines) + "\n"


def apply_failures(g: Graph, p_node: float, p_link: float,
                   rng: np.random.Generator) -> tuple[Graph, dict[int, int]]:
    """The failure event on the edge set: one node draw each, then one
    link draw for each edge between survivors, in sorted order."""
    node_alive = rng.random(g.n) >= p_node
    survivors = [v for v in range(g.n) if node_alive[v]]
    if not survivors:
        raise EmptyGraphError("every node failed")
    index_map = {old: new for new, old in enumerate(survivors)}
    kept_edges = sorted((i, j) for i, j in g.edges
                        if node_alive[i] and node_alive[j])
    link_alive = rng.random(len(kept_edges)) >= p_link
    new_edges = [(index_map[i], index_map[j])
                 for (i, j), ok in zip(kept_edges, link_alive) if ok]
    new_pos = None
    if g.positions is not None:
        new_pos = tuple(g.positions[v] for v in survivors)
    return graph_from_edges(len(survivors), new_edges, new_pos), index_map


def cluster_sets(member: np.ndarray) -> list[frozenset[int]]:
    """A cluster-membership matrix as one node set per root."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in member]


def complete_graph(n: int) -> Graph:
    return graph_from_edges(
        n, ((i, j) for i in range(n) for j in range(n) if i != j))


def hop_distances(g: Graph, source: int) -> np.ndarray:
    """Directed hop distance from source to every node (-1 if unreachable)."""
    out = out_neighbors(g)
    dist = np.full(g.n, -1, dtype=int)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in out[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def total_pairwise_distance(g: Graph, nodes: Iterable[int]) -> int:
    """Sum of shortest directed-hop distances d(i, j) over pairs i < j."""
    members = sorted(set(int(v) for v in nodes))
    total = 0
    for idx, i in enumerate(members):
        if idx == len(members) - 1:
            break
        dist = hop_distances(g, i)
        for j in members[idx + 1:]:
            if dist[j] < 0:
                raise UnreachableError(f"no directed path {i} -> {j}")
            total += int(dist[j])
    return total


def power_iteration_centrality(g: Graph, tol: float = 1e-10,
                               max_iter: int = 10_000) -> np.ndarray:
    """Power iteration on the adjacency matrix alone: `eigenvector_centrality`
    without its exact-repeat stop and A + I fallback. Raises
    ConvergenceError after max_iter steps, as on every bipartite graph."""
    if not is_strongly_connected(g):
        raise ValueError("eigenvector centrality requires a strongly "
                         "connected graph")
    a = g.adjacency_matrix()
    v = np.full(g.n, 1.0 / math.sqrt(g.n))
    residual = math.inf
    for _ in range(max_iter):
        w = a @ v
        norm = math.sqrt(w.dot(w))  # np.linalg.norm's sum, without its checks
        if norm == 0:
            raise ConvergenceError("adjacency annihilated the iterate",
                                   residual=math.inf)
        w /= norm
        step = w - v
        residual = math.sqrt(step.dot(step))
        v = w
        if residual < tol:
            return v
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last residual {residual:.3e})", residual=residual)


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Local clustering on the undirected projection, by set intersection."""
    und: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges:
        und[i].add(j)
        und[j].add(i)
    out = np.zeros(g.n)
    for v in range(g.n):
        ns = und[v]
        k = len(ns)
        if k < 2:
            continue
        links = 0
        for u in ns:
            links += len(und[u] & ns)
        # each triangle edge counted from both endpoints
        out[v] = links / (k * (k - 1))
    return out


def bfs_cluster(g: Graph, root: int, s_cluster: int,
                out: Optional[tuple] = None) -> frozenset[int]:
    """One root's BFS influence region, visiting each level in index order.
    `out` is `out_neighbors(g)`, if already at hand."""
    out = out or out_neighbors(g)
    visited = {root}
    frontier = [root]
    while frontier and len(visited) < s_cluster:
        nxt = []
        for v in frontier:
            for w in out[v]:
                if w not in visited:
                    visited.add(w)
                    nxt.append(w)
        frontier = sorted(nxt)
    return frozenset(visited)


# ------------------------------ placement ----------------------------- #

def influence_clusters(g: Graph, n_advs: int) -> list[frozenset[int]]:
    """Every node's BFS influence region, sized floor(n / n_advs), as
    `place_maxspan` sizes them."""
    out = out_neighbors(g)
    return [bfs_cluster(g, v, max(1, g.n // n_advs), out) for v in range(g.n)]


def maxspan_members(g: Graph, n_advs: int, first: int) -> tuple[int, ...]:
    """`place_maxspan` from a pinned first pick, rescanning every honest
    node's overlap with the claimed regions at every pick; the regions
    come from `bfs_cluster`."""
    clusters = influence_clusters(g, n_advs)
    members = [first]
    covered = set(clusters[first])
    honest = sorted(set(range(g.n)) - {first})
    while len(members) < n_advs:
        o_min = math.inf
        a_best = -1
        for v in honest:
            o = len(clusters[v] & covered)
            if o < o_min:
                o_min = o
                a_best = v
        members.append(a_best)
        covered |= clusters[a_best]
        honest.remove(a_best)
    return tuple(members)


def greedy_overlap(g: Graph, members: tuple[int, ...],
                   n_advs: Optional[int] = None) -> int:
    """Accumulated influence-region overlap of a selection, in its order."""
    clusters = influence_clusters(g, n_advs or len(members))
    covered: set[int] = set()
    total = 0
    for a in members:
        total += len(clusters[a] & covered)
        covered |= clusters[a]
    return total
