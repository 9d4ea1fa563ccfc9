"""Directed-graph representation, random generators, and topology metrics.

Graphs are immutable: a node count, the directed edges as one sorted
(m, 2) int32 array, and optional 2D coordinates for geometric graphs.
Neighbour offsets, centrality, the `edges` frozenset and the text form
are derived from that array. All generators take an explicit numpy
Generator and are deterministic given their seed.
"""
from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed graph on nodes 0..n-1. arcs, the stored form of
    the edges, is a read-only (m, 2) int32 array of links i -> j, sorted,
    each once (any (m, 2) integer array-like is brought to that form);
    positions, when present, are per-node 2D coordinates as Python floats.
    Graphs compare and hash by n, the bytes of arcs and positions. `edges`
    is a view: a frozenset of (i, j) pairs, built anew on each access."""

    n: int
    arcs: np.ndarray
    positions: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if (n := self.n) < 1:
            raise ValueError(f"node count must be positive, got {n}")
        arcs = np.asarray(self.arcs, dtype=np.int64).reshape(-1, 2)
        i, j = arcs.T
        bad = (i == j) | (arcs.min(axis=1) < 0) | (arcs.max(axis=1) >= n)
        if bad.any():
            i, j = arcs[bad.argmax()].tolist()
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) not allowed")
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        key = i * n + j
        if not (key[1:] > key[:-1]).all():  # sort, and drop repeats
            arcs = np.column_stack(np.divmod(np.unique(key), n))
        arcs = arcs.astype(np.int32, order="C")
        arcs.flags.writeable = False
        object.__setattr__(self, "arcs", arcs)
        if self.positions is not None and len(self.positions) != n:
            raise ValueError("positions must have one entry per node")

    def _key(self) -> tuple:
        return self.n, self.arcs.tobytes(), self.positions

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.arcs.tolist()))

    @cached_property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, nodes): v's out-neighbours, ascending, are
        nodes[offsets[v]:offsets[v + 1]]."""
        return _csr(self.arcs, self.n)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-neighbours as `out_csr`: the reversed graph's out-neighbours."""
        return _csr(np.argwhere(self.adjacency_mask().T), self.n)

    @cached_property
    def eigen_centrality(self) -> np.ndarray:
        """`eigenvector_centrality` with its defaults, once, read-only."""
        v = eigenvector_centrality(self)
        v.flags.writeable = False
        return v

    def adjacency_mask(self) -> np.ndarray:
        """Dense boolean adjacency; entry [i, j] is True iff i -> j."""
        a = np.zeros((self.n, self.n), dtype=bool)
        a[self.arcs[:, 0], self.arcs[:, 1]] = True
        return a

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency; entry [i, j] = 1 iff (i, j) is an edge."""
        return self.adjacency_mask().astype(float)


def _csr(arcs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # counted, not searched: a first sort or search adds 0.3-1 MB of RSS
    counts = np.bincount(arcs[:, 0], minlength=n)
    return np.concatenate(([0], np.cumsum(counts))), arcs[:, 1]


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     positions=None) -> Graph:
    return Graph(n=n, arcs=list(edges), positions=positions)


def check_family(kind: str, param: float, n: Optional[int] = None) -> None:
    """Raise ValueError unless kind names a graph family and param is in its
    range, on n >= 2 nodes when n is given: "er" takes an edge probability
    0 < p <= 1, "dg" a radius 0 < r <= sqrt(2), and "pa" an initial size
    m0, an integer in 1..n - 1. The message leads with the argument at
    fault: `kind: `, `n: ` or `param: `."""
    if kind == "er":
        ok, need = 0 < param <= 1, "0 < p <= 1"
    elif kind == "dg":
        ok, need = 0 < param <= math.sqrt(2), "0 < r <= sqrt(2)"
    elif kind == "pa":
        ok = (float(param).is_integer()
              and 1 <= param < (math.inf if n is None else n))
        need = "an integer m0 in 1..n - 1"
    else:
        raise ValueError(f"kind: unknown graph family {kind!r}; expected "
                         "one of ('er', 'dg', 'pa')")
    if n is not None and n < 2:
        raise ValueError(f"n: {n} is below 2")
    if not ok:
        raise ValueError(f"param: {kind} needs {need}, got {param}"
                         + ("" if n is None else f" at n = {n}"))


@dataclass(frozen=True)
class GraphFamily:
    """A random-graph distribution: kind plus its single parameter, in the
    range `check_family` states."""

    kind: str
    param: float

    def __post_init__(self):
        check_family(self.kind, self.param)

    def generate(self, n: int, rng: np.random.Generator) -> Graph:
        if self.kind == "er":
            return gen_erdos_renyi(n, self.param, rng)
        if self.kind == "dg":
            return gen_directed_geometric(n, self.param, rng)
        return gen_preferential_attachment(n, int(self.param), rng)


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    """Symmetric circulant graph: i ~ i +/- k (mod n) for each offset k."""
    a, i = np.zeros((n, n), dtype=bool), np.arange(n)
    for k in offsets:
        a[i, (i + k) % n] = a[(i + k) % n, i] = True
    np.fill_diagonal(a, False)
    return Graph(n=n, arcs=np.argwhere(a))


# ----------------------------- generators ----------------------------- #

# Cells one batch of draws tests at most: a G(n, p) draw has n * n links,
# a geometric draw n(n - 1)/2 pairs.
_DRAW_BATCH_CELLS = 1 << 14


def _first_connected_draw(rng: np.random.Generator, shape: tuple,
                          cells: int, max_retries: int, links_for,
                          symmetric: bool) -> Optional[np.ndarray]:
    """The first of up to max_retries draws rng.random(shape) whose graph
    is strongly connected, or None; rng is left as if the draws had been
    made one at a time, up to that one.

    Draws are made in batches of 1, 2, 4, ... up to cap = _DRAW_BATCH_CELLS
    // cells, so a draw accepted first time costs one test, in place, into
    one buffer reused for the whole call. links_for(cap) gives links_of,
    and links_of(draws) a (k, *shape) batch's links packed a bit per draw
    (see _strongly_connected); symmetric says that every link goes both
    ways. A batch that holds the accepted draw before its last is redrawn
    up to it, from the state before the batch."""
    cap = min(max(1, _DRAW_BATCH_CELLS // cells), max_retries)
    links_of = links_for(cap)
    buf = np.empty((cap, *shape))
    tried, batch = 0, 1
    while tried < max_retries:
        draws = buf[:min(batch, max_retries - tried)]
        state = rng.bit_generator.state
        rng.random(out=draws)
        hit = _first_bit(_strongly_connected(links_of(draws), symmetric))
        if hit is not None:
            if hit + 1 < len(draws):
                rng.bit_generator.state = state
                rng.random(out=buf[:hit + 1])
            return buf[hit]
        tried += len(draws)
        batch = min(2 * batch, cap)
    return None


def _pack(bits: np.ndarray) -> np.ndarray:
    """A (..., k) boolean array as (..., w) words, entry c at bit c % b of
    word c // b, in the narrowest unsigned words of b = 8, 16, 32 or 64
    bits that hold all k (at most 64 a word)."""
    *lead, k = bits.shape
    if k == 1:  # bit 0 of one byte: the booleans' own bytes
        return np.ascontiguousarray(bits).view(np.uint8)
    size = min(8, 1 << max(0, (k - 1).bit_length() - 3))
    padded = np.zeros((*lead, -(-k // (8 * size)) * 8 * size), dtype=bool)
    padded[..., :k] = bits
    # one flat pack: packing along the last axis costs per row
    packed = np.packbits(padded, bitorder="little")
    return packed.view(f"<u{size}").reshape(*lead, -1)


def _first_bit(words: np.ndarray) -> Optional[int]:
    """The index of the lowest set bit of `_pack` words, or None."""
    nonzero = np.flatnonzero(words)
    if not len(nonzero):
        return None
    word = int(words[nonzero[0]])
    return (int(nonzero[0]) * 8 * words.itemsize
            + (word & -word).bit_length() - 1)


def _strongly_connected(links: np.ndarray, symmetric: bool) -> np.ndarray:
    """For (n, n, w) words packing a stack of graphs, bit c of links[i, j]
    set iff graph c has the link i -> j: the (w,) words of the graphs that
    are strongly connected. Links from a node to itself change nothing.

    Graphs with a node lacking an out- or an in-link are screened out.
    The rest are flooded from node 0 at once, a bit each, along out-links
    and, unless symmetric, along in-links too."""
    survivors = (np.bitwise_and.reduce(np.bitwise_or.reduce(links, axis=1))
                 & np.bitwise_and.reduce(np.bitwise_or.reduce(links, axis=0)))
    reached = _reach_all(links, survivors)
    if not symmetric:
        reached &= _reach_all(links.transpose(1, 0, 2), reached)
    return reached


def _reach_all(links: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The words of the graphs among seeds in which node 0 reaches every
    node along links, flooded from node 0 until nothing grows."""
    reach = np.zeros_like(links[0])
    reach[0] = seeds
    while True:
        grown = np.bitwise_or.reduce(reach[:, None] & links, axis=0)
        grown |= reach
        if grown.tobytes() == reach.tobytes():
            return np.bitwise_and.reduce(reach, axis=0)
        reach = grown


def gen_erdos_renyi(n: int, p: float, rng: np.random.Generator, *,
                    max_retries: int = DEFAULT_RETRY_BUDGET) -> Graph:
    """Directed G(n, p): each ordered pair (i, j), i != j, is an edge w.p. p.

    Redraws rng.random((n, n)) < p until the result is strongly connected;
    raises GenerationError once the retry budget runs out, which signals p
    is too small for the requested n. Draws are tested in batches, by
    _first_connected_draw.
    """
    check_family("er", p, n)

    def links_of(draws):
        return _pack((draws < p).transpose(1, 2, 0))

    draw = _first_connected_draw(rng, (n, n), n * n, max_retries,
                                 lambda cap: links_of, symmetric=False)
    if draw is None:
        raise GenerationError(
            f"no strongly connected G({n}, {p}) in {max_retries} draws")
    mask = draw < p
    np.fill_diagonal(mask, False)
    return Graph(n=n, arcs=np.argwhere(mask))


def geometric_edges(positions: np.ndarray, r: float) -> np.ndarray:
    """Both directed edges for every pair closer than r in the plane, as a
    sorted (m, 2) array: (i, j) where (x_i - x_j)**2 + (y_i - y_j)**2 <
    r * r."""
    x, y = positions.T
    close = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2 < r * r
    np.fill_diagonal(close, False)
    return np.argwhere(close)


def _geometric_links(n: int, r: float, cap: int):
    """links_of for _first_connected_draw on (k, n, 2) position draws, k <=
    cap: each draw's radius-r links, packed.

    Each pair of nodes is tested once per draw, with the draws on the
    contiguous axis: pair (i, i + s mod n) at cyclic offset s = 1..(n-1)/2
    (for even n, offset n/2 for i < n/2 only), by one subtraction of
    shifted slices. Its squared distance is (x_i - x_j)**2 +
    (y_i - y_j)**2, the sum geometric_edges takes (the square of a
    difference is that of its negation), so each in-radius boolean is its
    own. Buffers are reused from batch to batch."""
    h, half = (n - 1) // 2, n // 2 if n % 2 == 0 else 0
    pairs, nodes = n * (n - 1) // 2, np.arange(n)
    # pair (left, right): (i, i + s mod n) for each offset s, then (i, i + n/2)
    left = np.concatenate([np.tile(nodes, h), nodes[:half]])
    right = (left + np.concatenate([np.repeat(np.arange(1, h + 1), n),
                                    np.full(half, half)])) % n
    coords = np.empty((2, 2 * n, cap))  # x and y, each twice over
    shifted = sliding_window_view(coords[:, 1:], n, axis=1)[:, :h]
    shifted = shifted.transpose(0, 1, 3, 2)  # [., s - 1, i] = coords[., i + s]
    d2 = np.empty((2, pairs, cap))
    cyclic = d2[:, :h * n].reshape(2, h, n, cap)
    closes = np.empty((pairs, cap), dtype=bool)

    def links_of(pos):
        k = len(pos)
        t, d, close = coords[..., :k], d2[..., :k], closes[:, :k]
        np.copyto(t[:, :n], pos.transpose(2, 1, 0))
        t[:, n:] = t[:, :n]
        np.subtract(t[:, None, :n], shifted[..., :k], out=cyclic[..., :k])
        np.subtract(t[:, :half], t[:, half:2 * half], out=d[:, h * n:])
        np.square(d, out=d)
        np.less(np.add(d[0], d[1], out=d[0]), r * r, out=close)
        words = _pack(close)
        links = np.zeros((n, n, words.shape[1]), dtype=words.dtype)
        links[left, right] = words
        links[right, left] = words
        return links
    return links_of


def gen_directed_geometric(n: int, r: float, rng: np.random.Generator, *,
                           max_retries: int = DEFAULT_RETRY_BUDGET) -> Graph:
    """Geometric graph on uniform points in the unit square, radius r.

    In-radius pairs are linked in both directions, giving a symmetric
    digraph. Positions rng.random((n, 2)) are redrawn until strongly
    connected, tested in batches by _first_connected_draw.
    """
    check_family("dg", r, n)
    pos = _first_connected_draw(rng, (n, 2), n * (n - 1) // 2, max_retries,
                                lambda cap: _geometric_links(n, r, cap),
                                symmetric=True)
    if pos is None:
        raise GenerationError(
            f"no strongly connected geometric graph (n={n}, r={r}) "
            f"in {max_retries} draws")
    return Graph(n=n, arcs=geometric_edges(pos, r),
                 positions=tuple((float(x), float(y)) for x, y in pos))


def gen_preferential_attachment(n: int, m0: int,
                                rng: np.random.Generator) -> Graph:
    """Preferential-attachment growth from m0 fully interconnected seeds.

    Each arriving node links to m0 distinct existing nodes drawn
    proportionally to total degree, in both directions; so the result is
    always strongly connected and is never redrawn.
    """
    check_family("pa", m0, n)
    a = np.zeros((n, n), dtype=bool)
    a[:m0, :m0] = ~np.eye(m0, dtype=bool)
    degree = np.zeros(n)
    degree[:m0] = m0 - 1  # the seeds count their out-links only
    for v in range(m0, n):
        weights = degree[:v]
        total = weights.sum()
        if total == 0:
            # only when m0 = 1 and the lone seed has no edges yet
            probs = np.full(v, 1.0 / v)
        else:
            probs = weights / total
        targets = rng.choice(v, size=m0, replace=False, p=probs)
        a[v, targets] = a[targets, v] = True
        degree[v] += 2 * m0
        degree[targets] += 2
    return Graph(n=n, arcs=np.argwhere(a))


# ------------------------------ metrics ------------------------------- #

def _bit_rows(a: np.ndarray) -> list[int]:
    """Each row of a square boolean matrix as a Python int, bit j for j."""
    width = (len(a) + 7) // 8
    rows = np.packbits(a, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(rows[v * width:(v + 1) * width], "little")
            for v in range(len(a))]


def _ball(rows: list[int], root: int, size: int) -> int:
    """The nodes a BFS along `_bit_rows` reaches from root, as an int, until
    they first number size, completing the level. A level's successors,
    the union of its nodes' rows, cost per node, not per edge."""
    seen = frontier = 1 << root
    while frontier and seen.bit_count() < size:
        reach = 0
        while frontier:  # add the row of each frontier node
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen


def is_strongly_connected(g: Graph) -> bool:
    """True iff every node reaches every other along directed paths: node
    0 reaches every node, in g and in g reversed."""
    a = g.adjacency_mask()
    return all(_ball(_bit_rows(m), 0, g.n) == (1 << g.n) - 1 for m in (a, a.T))


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
    return np.bincount(g.arcs.ravel(), minlength=g.n)


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_CLUSTERING_CHUNK_BYTES = 1 << 16


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Local clustering of each node on the undirected projection.

    Triangles through the node over k(k-1)/2 possible; 0 when k < 2.
    """
    u = g.adjacency_mask()
    u |= u.T  # the undirected projection
    k = np.count_nonzero(u, axis=1)
    i, j = np.nonzero(np.triu(u))  # each undirected link once
    # each link's ends' common neighbours, on rows packed 8 nodes a byte
    rows = np.packbits(u, axis=1)
    common = np.empty(len(i))
    step = max(1, _CLUSTERING_CHUNK_BYTES // rows.shape[1])
    for lo in range(0, len(i), step):
        both = rows[i[lo:lo + step]] & rows[j[lo:lo + step]]
        common[lo:lo + step] = _POPCOUNT[both].sum(axis=1)
    # links among each node's neighbours, counted from both endpoints
    links = np.bincount(i, common, g.n) + np.bincount(j, common, g.n)
    return np.divide(links, k * (k - 1), out=np.zeros(g.n), where=k > 1)


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


def bfs_regions(g: Graph, s_cluster: int) -> list[int]:
    """`bfs_clusters`' rows as one Python int per root, bit u for node u."""
    if s_cluster < 1:
        raise ValueError(f"need s_cluster >= 1, got {s_cluster}")
    rows = _bit_rows(g.adjacency_mask())
    return [_ball(rows, root, s_cluster) for root in range(g.n)]


def bfs_clusters(g: Graph, s_cluster: int) -> np.ndarray:
    """Cluster membership: row v marks the nodes reached by outgoing-edge
    BFS from root v until the visited set first reaches s_cluster,
    completing the level in progress: every node at hop distance <= L,
    the smallest radius holding s_cluster nodes (or all reachable ones)."""
    width = (g.n + 7) // 8
    rows = b"".join(region.to_bytes(width, "little")
                    for region in bfs_regions(g, s_cluster))
    packed = np.frombuffer(rows, dtype=np.uint8).reshape(g.n, width)
    return np.unpackbits(packed, axis=1, count=g.n,
                         bitorder="little").view(bool)


def apply_failures(g: Graph, p_node: float, p_link: float,
                   rng: np.random.Generator) -> tuple[Graph, dict[int, int]]:
    """Remove each node w.p. p_node and each surviving edge w.p. p_link.

    The link draws follow the sorted edges between survivors. Surviving
    nodes are re-indexed contiguously; returns the degraded graph and the
    old->new index map. The result is not required to be strongly
    connected. Raises EmptyGraphError if nothing survives.
    """
    if not (0.0 <= p_node <= 1.0 and 0.0 <= p_link <= 1.0):
        raise ValueError("failure probabilities must lie in [0, 1]")
    node_alive = rng.random(g.n) >= p_node
    survivors = np.flatnonzero(node_alive).tolist()
    if not survivors:
        raise EmptyGraphError("every node failed")
    kept = g.arcs[node_alive[g.arcs].all(axis=1)]
    link_alive = rng.random(len(kept)) >= p_link
    new_index = np.cumsum(node_alive) - 1  # increasing: keeps arcs sorted
    new_pos = (None if g.positions is None
               else tuple(g.positions[v] for v in survivors))
    return (Graph(n=len(survivors), arcs=new_index[kept[link_alive]],
                  positions=new_pos),
            dict(zip(survivors, range(len(survivors)))))


# ---------------------------- serialization --------------------------- #

def graph_to_text(g: Graph) -> str:
    """Edge-list text form: header `n <count> directed`, one `i j` line per
    edge in sorted order, then optional `pos i x y` lines."""
    lines = [f"n {g.n} directed"]
    lines += [f"{i} {j}" for i, j in g.arcs.tolist()]
    if g.positions is not None:
        lines += [f"pos {i} {x!r} {y!r}" for i, (x, y) in enumerate(g.positions)]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "n":
        raise ValueError("missing `n <count> directed` header")
    if len(lines[0]) != 3 or lines[0][2] != "directed":
        raise ValueError(f"malformed header: {' '.join(lines[0])!r}")
    n = int(lines[0][1])
    edges, pos = [], {}
    for parts in lines[1:]:
        kind = "pos" if parts[0] == "pos" else "edge"
        if len(parts) != (4 if kind == "pos" else 2):
            raise ValueError(f"malformed {kind} line: {' '.join(parts)!r}")
        if kind == "pos":
            pos[int(parts[1])] = (float(parts[2]), float(parts[3]))
        else:
            edges.append(parts)
    positions = None
    if pos:
        if sorted(pos) != list(range(n)):
            raise ValueError("pos lines must cover every node exactly once")
        positions = tuple(pos[i] for i in range(n))
    return Graph(n=n, arcs=np.array(edges, dtype=np.int64), positions=positions)


def save_graph(g: Graph, path) -> None:
    """Write g's text form to path by way of a temporary file beside it and
    os.replace, so path never holds part of a graph: a write cut short
    leaves what was there before, or nothing."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(graph_to_text(g))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_text(fh.read())
