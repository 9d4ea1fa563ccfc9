"""Directed-graph representation, random generators, and topology metrics.

Graphs are immutable: a node count, a set of directed edges, and optional
2D coordinates for geometric graphs. All generators take an explicit
numpy Generator and are deterministic given their seed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np


class GraphError(Exception):
    """Base class for graph-level failures."""


class GenerationError(GraphError):
    """A random generator exhausted its retry budget."""


class ConvergenceError(GraphError):
    """Power iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class EmptyGraphError(GraphError):
    """A failure event removed every node."""


# Sparse geometric graphs near the connectivity threshold (e.g. n=25,
# r=0.2) are strongly connected in well under 1% of draws, so the cap has
# to sit far above the expected draw count to keep generation reliable.
DEFAULT_RETRY_BUDGET = 20_000


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph on nodes 0..n-1.

    edges holds ordered pairs (i, j) meaning a directed link i -> j.
    positions, when present, are per-node 2D coordinates.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    positions: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        if self.positions is not None and len(self.positions) != self.n:
            raise ValueError("positions must have one entry per node")

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            out[i].append(j)
        return tuple(tuple(sorted(ns)) for ns in out)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        inn: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            inn[j].append(i)
        return tuple(tuple(sorted(ns)) for ns in inn)

    def adjacency_mask(self) -> np.ndarray:
        """Dense boolean adjacency; entry [i, j] is True iff (i, j) is an
        edge."""
        out = self.out_neighbors
        a = np.zeros((self.n, self.n), dtype=bool)
        a[np.repeat(np.arange(self.n), [len(ns) for ns in out]),
          np.fromiter(itertools.chain.from_iterable(out), dtype=np.intp,
                      count=len(self.edges))] = True
        return a

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency; entry [i, j] = 1 iff (i, j) is an edge."""
        return self.adjacency_mask().astype(float)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     positions=None) -> Graph:
    return Graph(n=n, edges=frozenset((int(i), int(j)) for i, j in edges),
                 positions=positions)


@dataclass(frozen=True)
class GraphFamily:
    """A random-graph distribution: kind plus its single parameter.

    kinds: "er" (edge probability p), "dg" (connection radius r),
    "pa" (initial size m0, an integer).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "er":
            if not (0.0 < self.param <= 1.0):
                raise ValueError(f"er: need 0 < p <= 1, got {self.param}")
        elif self.kind == "dg":
            if not (0.0 < self.param <= math.sqrt(2.0)):
                raise ValueError(f"dg: need 0 < r <= sqrt(2), got {self.param}")
        elif self.kind == "pa":
            if self.param != int(self.param) or self.param < 1:
                raise ValueError(f"pa: initial size must be a positive "
                                 f"integer, got {self.param}")
        else:
            raise ValueError(f"unknown graph family {self.kind!r}")

    def generate(self, n: int, rng: np.random.Generator) -> Graph:
        if self.kind == "er":
            return gen_erdos_renyi(n, self.param, rng)
        if self.kind == "dg":
            return gen_directed_geometric(n, self.param, rng)
        return gen_preferential_attachment(n, int(self.param), rng)


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    """Symmetric circulant graph: i ~ i +/- k (mod n) for each offset k."""
    edges = set()
    for i in range(n):
        for k in offsets:
            j = (i + k) % n
            if j != i:
                edges.add((i, j))
                edges.add((j, i))
    return graph_from_edges(n, edges)


# ----------------------------- generators ----------------------------- #

def _er_edges(n: int, p: float, rng: np.random.Generator) -> frozenset:
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    ii, jj = np.nonzero(mask)
    return frozenset(zip(ii.tolist(), jj.tolist()))


def gen_erdos_renyi(n: int, p: float, rng: np.random.Generator, *,
                    max_retries: int = DEFAULT_RETRY_BUDGET) -> Graph:
    """Directed G(n, p): each ordered pair (i, j), i != j, is an edge w.p. p.

    Redraws until the result is strongly connected; raises
    GenerationError once the retry budget runs out, which signals p is too
    small for the requested n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"need 0 < p <= 1, got {p}")
    for _ in range(max_retries):
        g = Graph(n=n, edges=_er_edges(n, p, rng))
        if is_strongly_connected(g):
            return g
    raise GenerationError(
        f"no strongly connected G({n}, {p}) in {max_retries} draws")


def geometric_edges(positions: np.ndarray, r: float) -> frozenset:
    """Both directed edges for every pair closer than r in the plane."""
    d2 = np.sum((positions[:, None, :] - positions[None, :, :]) ** 2, axis=-1)
    close = d2 < r * r
    np.fill_diagonal(close, False)
    ii, jj = np.nonzero(close)
    return frozenset(zip(ii.tolist(), jj.tolist()))


_DRAW_BATCH_CELLS = 1 << 14  # position draws per batch times n * n


def _connected(close: np.ndarray) -> np.ndarray:
    """For a (k, n, n) stack of symmetric adjacency masks with a true
    diagonal: whether each graph is connected, by flooding from node 0."""
    reach = close[:, 0]
    while True:
        grown = (reach[:, :, None] & close).any(axis=1)
        if np.array_equal(grown, reach):
            return reach.all(axis=1)
        reach = grown


def _first_connected_draw(n: int, r: float, rng: np.random.Generator,
                          max_retries: int) -> Optional[np.ndarray]:
    """The first of up to max_retries position draws rng.random((n, 2))
    whose radius-r graph is connected, or None; rng is left as if the draws
    had been made one at a time, up to that one.

    Draws are tested in batches. Squared distances are dx**2 + dy**2, the
    sum geometric_edges takes, so the same draw is accepted as by testing
    each draw's Graph with is_strongly_connected (the links are symmetric,
    so connected is strongly connected). A draw with an isolated node is
    ruled out before the flood. A batch that holds the accepted draw is
    redrawn up to it, from the state before the batch."""
    batch = max(1, _DRAW_BATCH_CELLS // (n * n))
    tried = 0
    while tried < max_retries:
        k = min(batch, max_retries - tried)
        state = rng.bit_generator.state
        pos = rng.random((k, n, 2))
        x, y = pos[..., 0], pos[..., 1]
        close = ((x[:, :, None] - x[:, None, :]) ** 2
                 + (y[:, :, None] - y[:, None, :]) ** 2) < r * r
        linked = np.flatnonzero((close.sum(axis=1) > 1).all(axis=1))
        if len(linked):
            hits = linked[_connected(close[linked])]
            if len(hits):
                rng.bit_generator.state = state
                return rng.random((hits[0] + 1, n, 2))[-1]
        tried += k
    return None


def gen_directed_geometric(n: int, r: float, rng: np.random.Generator, *,
                           max_retries: int = DEFAULT_RETRY_BUDGET) -> Graph:
    """Geometric graph on uniform points in the unit square, radius r.

    In-radius pairs are linked in both directions, giving a symmetric
    digraph. Positions are redrawn until strongly connected.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (0.0 < r <= math.sqrt(2.0)):
        raise ValueError(f"need 0 < r <= sqrt(2), got {r}")
    pos = _first_connected_draw(n, r, rng, max_retries)
    if pos is not None:
        return Graph(n=n, edges=geometric_edges(pos, r),
                     positions=tuple((float(x), float(y)) for x, y in pos))
    raise GenerationError(
        f"no strongly connected geometric graph (n={n}, r={r}) "
        f"in {max_retries} draws")


def gen_preferential_attachment(n: int, m0: int, rng: np.random.Generator, *,
                                max_retries: int = DEFAULT_RETRY_BUDGET) -> Graph:
    """Preferential-attachment growth from m0 fully interconnected seeds.

    Each arriving node links to min(m0, current size) distinct existing
    nodes drawn proportionally to total degree; every attachment is added
    in both directions.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (1 <= m0 < n):
        raise ValueError(f"need 1 <= m0 < n, got m0={m0}, n={n}")
    for _ in range(max_retries):
        edges: set[tuple[int, int]] = set()
        degree = np.zeros(n)
        for i in range(m0):
            for j in range(m0):
                if i != j:
                    edges.add((i, j))
                    degree[i] += 1
        for v in range(m0, n):
            k = min(m0, v)
            weights = degree[:v]
            total = weights.sum()
            if total == 0:
                # only when m0 = 1 and the lone seed has no edges yet
                probs = np.full(v, 1.0 / v)
            else:
                probs = weights / total
            targets = rng.choice(v, size=k, replace=False, p=probs)
            for u in targets:
                u = int(u)
                edges.add((v, u))
                edges.add((u, v))
                degree[v] += 2
                degree[u] += 2
        g = Graph(n=n, edges=frozenset(edges))
        if is_strongly_connected(g):
            return g
    raise GenerationError(
        f"no strongly connected PA graph (n={n}, m0={m0}) "
        f"in {max_retries} draws")


# ------------------------------ metrics ------------------------------- #

def _reachable_from(g: Graph, root: int, neighbors) -> set[int]:
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def is_strongly_connected(g: Graph) -> bool:
    """True iff every node reaches every other along directed paths."""
    if g.n == 1:
        return True
    if len(_reachable_from(g, 0, g.out_neighbors)) != g.n:
        return False
    return len(_reachable_from(g, 0, g.in_neighbors)) == g.n


def _power_iteration(a: np.ndarray, v: np.ndarray, tol: float,
                     max_iter: int) -> tuple[np.ndarray, float, int]:
    """Power iteration on a from v, renormalizing every step, for up to
    max_iter steps or until the successive-iterate L2 change drops below
    tol. Also stops when an iterate equals the one saved at step 1, 2, 4,
    ... bit for bit: the step is deterministic, so the iterates cycle from
    then on and never converge. Returns the last iterate, its residual and
    the cycle's period (0 if none was found)."""
    residual = math.inf
    saved, saved_residual, saved_step, lap = v, residual, 0, 1
    for step in range(1, max_iter + 1):
        w = a @ v
        norm = math.sqrt(w.dot(w))  # np.linalg.norm's sum, without its checks
        if norm == 0:
            raise ConvergenceError("adjacency annihilated the iterate",
                                   residual=math.inf)
        w /= norm
        diff = w - v
        residual = math.sqrt(diff.dot(diff))
        v = w
        if residual < tol:
            return v, residual, 0
        # equal iterates after equal predecessors have equal residuals, so
        # the float comparison screens out nearly every array comparison
        if residual == saved_residual and np.array_equal(v, saved):
            return v, residual, step - saved_step
        if step == lap:
            saved, saved_residual, saved_step, lap = v, residual, step, 2 * lap
    return v, residual, 0


def eigenvector_centrality(g: Graph, tol: float = 1e-10,
                           max_iter: int = 10_000) -> np.ndarray:
    """Principal right eigenvector of the adjacency matrix A, by power
    iteration.

    Starts from the uniform positive vector, renormalizes every step, and
    stops when the successive-iterate L2 change drops below tol. The
    result is L2-normalized and non-negative.

    On a periodic graph, such as a tree (bipartite), the iterates on A
    can oscillate for good. Once an iterate repeats an earlier one bit for
    bit, which proves that, the iteration switches to A + I, which has the
    same Perron vector but is aperiodic; it starts from the mean of the
    cycle's iterates and has max_iter steps of its own. A graph on which
    the iteration on A converges gets exactly that iteration's bits.

    Raises ConvergenceError (with the final residual) if the iterates on A
    neither converge nor repeat within max_iter steps, or if those on
    A + I do not converge either (as with tol <= 0).
    """
    if not is_strongly_connected(g):
        raise ValueError("eigenvector centrality requires a strongly "
                         "connected graph")
    a = g.adjacency_matrix()
    v, residual, period = _power_iteration(
        a, np.full(g.n, 1.0 / math.sqrt(g.n)), tol, max_iter)
    if residual < tol:
        return v
    if not period:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} steps "
            f"(last residual {residual:.3e})", residual=residual)
    # the cycle's mean cancels the components the iterates alternate along:
    # on the pa m0=1 trees at n=25..400 the iteration on A + I then
    # converges in 2 steps, against 27-86 from the last iterate alone
    cycle = [v]
    for _ in range(period - 1):
        w = a @ cycle[-1]
        cycle.append(w / math.sqrt(w.dot(w)))
    np.fill_diagonal(a, 1.0)
    v, residual, _ = _power_iteration(a, np.mean(cycle, axis=0), tol,
                                      max_iter)
    if residual < tol:
        return v
    raise ConvergenceError(
        f"power iteration repeated with period {period} on A and did not "
        f"converge on A + I either (last residual {residual:.3e})",
        residual=residual)


def degree_centrality(g: Graph) -> np.ndarray:
    """Per-node sum of incoming and outgoing edges."""
    return np.array([len(o) + len(i)
                     for o, i in zip(g.out_neighbors, g.in_neighbors)])


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Local clustering of each node on the undirected projection.

    Triangles through the node over k(k-1)/2 possible; 0 when k < 2.
    """
    u = g.adjacency_mask()
    u = u | u.T  # the undirected projection
    degree = np.count_nonzero(u, axis=1)
    out = np.zeros(g.n)
    for v in np.flatnonzero(degree > 1).tolist():
        ns = np.flatnonzero(u[v])
        k = len(ns)
        # links among the neighbors, each counted from both endpoints
        out[v] = np.count_nonzero(u[ns[:, None], ns]) / (k * (k - 1))
    return out


def degree_variance_normalized(g: Graph) -> float:
    """Population degree variance shifted and scaled by the degree range.

    Computed as (var - d_min) / (d_max - d_min) with degree = in + out.
    The value can be negative by design; returns 0 when all degrees are
    equal.
    """
    deg = degree_centrality(g).astype(float)
    d_min, d_max = deg.min(), deg.max()
    if d_max == d_min:
        return 0.0
    return float((deg.var() - d_min) / (d_max - d_min))


def bfs_clusters(g: Graph, s_cluster: int) -> list[frozenset[int]]:
    """For every root, the nodes reached by outgoing-edge BFS from it until
    the visited set first reaches s_cluster, completing the level in
    progress.

    Each set therefore contains every node at hop distance <= L from its
    root, where L is the smallest radius holding at least s_cluster nodes
    (or everything reachable, if that is fewer); so the order in which a
    level is visited does not matter.
    """
    if s_cluster < 1:
        raise ValueError(f"need s_cluster >= 1, got {s_cluster}")
    out = g.out_neighbors
    clusters = []
    for root in range(g.n):
        visited = {root}
        frontier = [root]
        while frontier and len(visited) < s_cluster:
            nxt = []
            for v in frontier:
                for w in out[v]:
                    if w not in visited:
                        visited.add(w)
                        nxt.append(w)
            frontier = nxt
        clusters.append(frozenset(visited))
    return clusters


def apply_failures(g: Graph, p_node: float, p_link: float,
                   rng: np.random.Generator) -> tuple[Graph, dict[int, int]]:
    """Remove each node w.p. p_node and each surviving edge w.p. p_link.

    Surviving nodes are re-indexed contiguously; returns the degraded graph
    and the old->new index map. The result is not required to be strongly
    connected. Raises EmptyGraphError if nothing survives.
    """
    if not (0.0 <= p_node <= 1.0 and 0.0 <= p_link <= 1.0):
        raise ValueError("failure probabilities must lie in [0, 1]")
    node_alive = rng.random(g.n) >= p_node
    survivors = [v for v in range(g.n) if node_alive[v]]
    if not survivors:
        raise EmptyGraphError("every node failed")
    index_map = {old: new for new, old in enumerate(survivors)}
    kept_edges = sorted((i, j) for i, j in g.edges
                        if node_alive[i] and node_alive[j])
    link_alive = rng.random(len(kept_edges)) >= p_link
    new_edges = frozenset((index_map[i], index_map[j])
                          for (i, j), ok in zip(kept_edges, link_alive) if ok)
    new_pos = None
    if g.positions is not None:
        new_pos = tuple(g.positions[v] for v in survivors)
    return Graph(n=len(survivors), edges=new_edges, positions=new_pos), index_map


# ---------------------------- serialization --------------------------- #

def graph_to_text(g: Graph) -> str:
    """Edge-list text form: header `n <count> directed`, one `i j` line per
    edge, then optional `pos i x y` lines."""
    lines = [f"n {g.n} directed"]
    for i, j in sorted(g.edges):
        lines.append(f"{i} {j}")
    if g.positions is not None:
        for i, (x, y) in enumerate(g.positions):
            lines.append(f"pos {i} {x!r} {y!r}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise ValueError("missing `n <count> directed` header")
    header = lines[0].split()
    if len(header) != 3 or header[2] != "directed":
        raise ValueError(f"malformed header: {lines[0]!r}")
    n = int(header[1])
    edges = set()
    pos: dict[int, tuple[float, float]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "pos":
            if len(parts) != 4:
                raise ValueError(f"malformed pos line: {ln!r}")
            pos[int(parts[1])] = (float(parts[2]), float(parts[3]))
        else:
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {ln!r}")
            edges.add((int(parts[0]), int(parts[1])))
    positions = None
    if pos:
        if sorted(pos) != list(range(n)):
            raise ValueError("pos lines must cover every node exactly once")
        positions = tuple(pos[i] for i in range(n))
    return Graph(n=n, edges=frozenset(edges), positions=positions)


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_text(fh.read())
