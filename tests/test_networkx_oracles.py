"""Centrality, clustering and the placements built on centrality checked
against networkx, an independent implementation: its sparse eigensolver
and its triangle counts."""
import numpy as np
import pytest

from dflsim.graphs import (
    GraphFamily,
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
