"""The graph layer on its sorted edge array, checked against the
frozenset-based reference forms in tests/oracles.py, plus the graph
bytes pinned before the array form replaced the frozenset."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dflsim
from dflsim import placement, simulation
from dflsim.graphs import (
    EmptyGraphError,
    Graph,
    GraphFamily,
    apply_failures,
    bfs_clusters,
    clustering_coefficients,
    graph_from_edges,
    graph_from_text,
    graph_to_text,
)
from dflsim.placement import place_maxspan
from dflsim.simulation import SimulationConfig, run_adversary_free
from dflsim.theory import AssumptionError, check_regular_symmetric
import oracles
from oracles import (
    FAMILIES,
    bfs_cluster,
    cluster_sets,
    csr_tuples,
    graph_text,
    in_neighbors,
    maxspan_members,
    out_neighbors,
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_against_references(g: Graph) -> None:
    assert csr_tuples(g.out_csr) == out_neighbors(g)
    assert csr_tuples(g.in_csr) == in_neighbors(g)
    assert np.array_equal(g.adjacency_mask(), oracles.adjacency_mask(g))
    assert graph_to_text(g) == graph_text(g)
    assert clustering_coefficients(g).tobytes() == \
        oracles.clustering_coefficients(g).tobytes()
    out = out_neighbors(g)
    for s in {1, 2, max(1, g.n // 5), g.n}:
        assert cluster_sets(bfs_clusters(g, s)) == \
            [bfs_cluster(g, v, s, out) for v in range(g.n)]
    for n_advs in {1, max(1, g.n // 5), g.n}:
        for first in range(0, g.n, max(1, g.n // 7)):
            expect = maxspan_members(g, n_advs, first)
            # the greedy on bit rows, and the one on arrays larger graphs take
            for limit in (placement._BIT_GREEDY_MAX_N, 0):
                with mock.patch.object(placement, "_BIT_GREEDY_MAX_N", limit):
                    assert place_maxspan(g, n_advs, None,
                                         first=first).members == expect


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 60),
       st.integers(0, 2**32 - 1), st.floats(0.0, 0.9), st.floats(0.0, 0.9))
def test_array_layer_gives_the_references_results(family, n, seed, p_node,
                                                  p_link):
    # a generated graph, then what a failure event leaves of it: any
    # digraph, with isolated nodes and one-way links
    assume(family[0] != "pa" or family[1] < n)
    g = GraphFamily(*family).generate(n, np.random.default_rng(seed))
    check_against_references(g)
    rng, ref_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    try:
        degraded, index_map = apply_failures(g, p_node, p_link, rng)
    except EmptyGraphError:
        with pytest.raises(EmptyGraphError):
            oracles.apply_failures(g, p_node, p_link, ref_rng)
    else:
        ref, ref_map = oracles.apply_failures(g, p_node, p_link, ref_rng)
        assert degraded == ref and index_map == ref_map
        assert list(index_map) == list(ref_map)
        check_against_references(degraded)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestGraphEquality:
    EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]

    def test_shuffled_or_repeated_pairs_compare_equal(self):
        g = graph_from_edges(4, self.EDGES)
        for pairs in (self.EDGES[::-1], self.EDGES + self.EDGES[:2],
                      np.array(self.EDGES)[[3, 0, 4, 1, 2, 0]]):
            h = graph_from_edges(4, pairs)
            assert h == g and hash(h) == hash(g)
            assert h.arcs.tobytes() == g.arcs.tobytes()

    def test_one_edge_or_one_position_apart_compare_unequal(self):
        positions = tuple((0.25 * v, 0.5) for v in range(4))
        g = graph_from_edges(4, self.EDGES, positions)
        assert graph_from_edges(4, self.EDGES[:-1], positions) != g
        assert graph_from_edges(4, self.EDGES[:-1] + [(3, 1)], positions) != g
        assert graph_from_edges(4, self.EDGES) != g
        moved = positions[:3] + ((0.75, 0.5 + 2 ** -40),)
        assert graph_from_edges(4, self.EDGES, moved) != g
        assert graph_from_edges(5, self.EDGES) != graph_from_edges(4, self.EDGES)

    def test_edge_array_is_sorted_and_read_only(self):
        g = graph_from_edges(4, self.EDGES[::-1])
        assert g.arcs.dtype == np.int32 and g.arcs.tolist() == sorted(
            map(list, self.EDGES))
        with pytest.raises(ValueError):
            g.arcs[0, 0] = 3

    def test_graph_reloaded_from_text_gives_the_same_baseline(self):
        # a sweep runs every cell on its graph as read back from the cache
        cfg = SimulationConfig(graph_family="dg", graph_param=0.6, n=8,
                               epochs=3, t_attack=1, p_link_fail=0.3, seed=4)
        g = simulation.build_graph(cfg, simulation.seed_streams(4)["graph"])
        reloaded = graph_from_text(graph_to_text(g))
        assert reloaded is not g and reloaded == g
        first, again = ((b.acc.tobytes(), b.alive.tobytes(), b.end.X.tobytes(),
                         b.end.graph.arcs.tobytes())
                        for b in (run_adversary_free(cfg, h)
                                  for h in (g, reloaded)))
        assert first == again


def test_check_regular_symmetric_names_the_lowest_one_way_edge():
    # a 4-cycle in both directions plus two one-way chords
    ring = [(i, (i + s) % 4) for i in range(4) for s in (1, -1)]
    g = graph_from_edges(4, ring + [(3, 1), (0, 2)])
    with pytest.raises(AssumptionError,
                       match=r"^edge \(0, 2\) has no reverse; adjacency "
                             r"must be symmetric$"):
        check_regular_symmetric(g)


# graph_to_text digests recorded with the frozenset-based graph layer
PINNED_TEXT = {
    ("dg", 0.2, 25, 1): "196cb50ea2629f48aee7aef04e3ad86aba1f9ff4d732f524fa4e3480dcc32625",
    ("dg", 0.2, 25, 2): "ac7202342cefabb5046709ce538168b2c09d34652576def4e84f1f2a7d267002",
    ("dg", 0.2, 25, 3): "f5101e0bad085ead0b440e920d2ed902f30ba06376e662faacf7fa16a472fa58",
    ("pa", 1, 25, 1): "6c2277863d9e023ff8771ec0367ca8e5f7df6fb44fd5ed757c5fbab2fa95b357",
    ("pa", 1, 25, 2): "609a3967ff44345a28bc8b4c22bb21641d405eef185a26b369da7d4667581a67",
    ("pa", 1, 25, 3): "52eb7b7559d1ee3ed050f13635828ba48d03df08ad5f04ec47948e794b89ae81",
    ("er", 0.1, 100, 1): "7bda78d3584ba7c23ce7d05da88ece7791d437c2a22337b9d8b4129973b42f29",
    ("pa", 2, 400, 1): "2783e1ea8823075e52b8a5d8ee92f22cfa5a08db864394c5005672c49f95c115",
}


@pytest.mark.parametrize("key", sorted(PINNED_TEXT, key=str),
                         ids=lambda key: "{}{:g}_n{}_s{}".format(*key))
def test_generator_output_is_pinned(key):
    kind, param, n, seed = key
    g = GraphFamily(kind, param).generate(n, np.random.default_rng(seed))
    assert sha256(graph_to_text(g)) == PINNED_TEXT[key]


def test_failure_event_output_is_pinned():
    rng = np.random.default_rng(7)
    g = GraphFamily("dg", 0.2).generate(25, rng)
    degraded, index_map = apply_failures(g, 0.2, 0.1, rng)
    assert sha256(graph_to_text(degraded)) == \
        "e539d2e21a5a823a433375fb282f6c09c540d69fa7eade42da332ab315f18977"
    assert len(index_map) == degraded.n == 22
    assert rng.random() == 0.1892093131667415


def test_cli_import_loads_neither_scipy_nor_networkx():
    # scipy.sparse alone takes about 0.3 s to import
    src = str(Path(dflsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, dflsim.cli; print(sorted({m.split('.')[0] for m in "
            "sys.modules} & {'scipy', 'networkx'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
