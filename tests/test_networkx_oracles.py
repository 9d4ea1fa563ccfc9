"""Centrality, clustering, the placements built on centrality and the
generators' connectivity test checked against networkx, an independent
implementation: its sparse eigensolver, its triangle counts and its
component searches."""
import numpy as np
import pytest

from dflsim.graphs import (
    GraphFamily,
    _first_bit,
    _pack,
    _strongly_connected,
    clustering_coefficients,
    eigenvector_centrality,
)
from dflsim.placement import place
from dflsim.simulation import seed_streams
from oracles import out_neighbors

nx = pytest.importorskip("networkx")

# pa m0=1 trees: the topology workload's pool at n=25, and a few larger
TREES = ([(25, seed) for seed in range(1, 61)]
         + [(n, seed) for n in (100, 400) for seed in (1, 2, 3)])


def tree(n, seed):
    return GraphFamily("pa", 1).generate(n, seed_streams(seed)["graph"])


def networkx_centrality(g):
    """networkx ranks a node by its in-edges, so it gets the edges
    reversed: the left eigenvector of the transpose is the right one."""
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((j, i) for i, j in g.edges)
    values = nx.eigenvector_centrality_numpy(h)
    return np.array([values[v] for v in range(g.n)])


def networkx_clustering(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    values = nx.clustering(h)
    return np.array([values[v] for v in range(g.n)])


@pytest.mark.parametrize("n,seed", TREES)
def test_tree_centrality(n, seed):
    g = tree(n, seed)
    v = eigenvector_centrality(g)
    assert np.all(v >= 0)
    assert abs(np.sqrt(v @ v) - 1) < 1e-12
    assert np.abs(v - networkx_centrality(g)).max() < 1e-9


@pytest.mark.parametrize("n,seed", TREES)
def test_tree_placements_pick_the_most_central(n, seed):
    # the topology workload's eigen and maxspan-hop ops on the trees,
    # member for member: every pick ranks first by networkx's centrality,
    # up to nodes within 1e-9 of each other, which the program may order
    # either way
    g = tree(n, seed)
    truth = networkx_centrality(g)
    n_advs = max(1, round(0.2 * n))

    eigen = list(place(g, "eigen", n_advs,
                       seed_streams(seed)["placement"]).members)
    picked = truth[eigen]
    assert np.all(picked[:-1] >= picked[1:] - 1e-9)
    assert picked[-1] >= np.delete(truth, eigen).max() - 1e-9

    hop = place(g, "maxspan-hop", n_advs, seed_streams(seed)["placement"])
    members = [start for start, _ in hop.hop_trace]
    assert tuple(members) == place(g, "maxspan", n_advs,
                                   seed_streams(seed)["placement"]).members
    current = set(members)
    out = out_neighbors(g)
    for idx, (start, hops) in enumerate(hop.hop_trace):
        a = start
        for target in hops:
            candidates = [v for v in out[a] if v not in current]
            assert target in candidates
            assert truth[target] >= truth[candidates].max() - 1e-9
            current.remove(a)
            current.add(target)
            a = target
        members[idx] = a
    assert tuple(members) == hop.members


def test_benchmark_pool_centrality(benchmark_pool):
    # the plain iteration stops at a step below 1e-10, which leaves the
    # n=25 geometric graphs up to about 5e-9 from the eigensolver
    for g in benchmark_pool:
        assert np.abs(eigenvector_centrality(g)
                      - networkx_centrality(g)).max() < 1e-8


def test_clustering(benchmark_pool):
    # networkx counts triangles in Python, slowly on the n=400 graphs
    graphs = [g for g in benchmark_pool if g.n <= 100]
    for g in graphs + [tree(n, seed) for n, seed in TREES[:10]]:
        assert np.abs(clustering_coefficients(g)
                      - networkx_clustering(g)).max() < 1e-15


def stack_of_graphs(n, k, symmetric, rng):
    """k link masks on n nodes near the connectivity threshold, symmetric
    or not, self-loops included; every third is two dense halves with no
    link between them, so that no node is isolated and still the graph is
    not connected."""
    masks = rng.random((k, n, n)) < rng.uniform(0.3, 2.5, (k, 1, 1)) * max(
        np.log(n), 1.0) / n
    halves = np.arange(n) < n // 2
    masks[::3] &= halves[:, None] == halves[None, :]
    if symmetric:
        masks = np.triu(masks)
        masks |= masks.transpose(0, 2, 1)
    return masks


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 17, 33, 63, 64, 65])
@pytest.mark.parametrize("n", [2, 3, 8, 25])
def test_packed_flood(n, k, symmetric):
    # a stack packed a bit per graph, in 8-, 16-, 32- or 64-bit words:
    # each graph's bit is set iff networkx finds it (strongly) connected
    masks = stack_of_graphs(n, k, symmetric, np.random.default_rng([n, k]))
    links = _pack(masks.transpose(1, 2, 0))
    assert links.shape == (n, n, -(-k // 64))
    assert links.itemsize == {1: 1, 7: 1, 8: 1, 9: 2, 16: 2, 17: 4, 33: 8,
                              63: 8, 64: 8, 65: 8}[k]
    words = _strongly_connected(links, symmetric)
    got = np.unpackbits(words.view(np.uint8), count=k, bitorder="little")
    want = []
    for mask in masks:
        h = (nx.Graph if symmetric else nx.DiGraph)()
        h.add_nodes_from(range(n))
        h.add_edges_from(zip(*np.nonzero(mask)))
        want.append(nx.is_connected(h) if symmetric
                    else nx.is_strongly_connected(h))
    assert got.astype(bool).tolist() == want
    assert _first_bit(words) == (want.index(True) if any(want) else None)
