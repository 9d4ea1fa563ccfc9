import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim.graphs import (
    ConvergenceError,
    EmptyGraphError,
    GenerationError,
    Graph,
    GraphFamily,
    apply_failures,
    bfs_clusters,
    circulant_graph,
    clustering_coefficients,
    degree_centrality,
    degree_variance_normalized,
    eigenvector_centrality,
    gen_directed_geometric,
    gen_erdos_renyi,
    gen_preferential_attachment,
    geometric_edges,
    graph_from_edges,
    graph_from_text,
    graph_to_text,
    is_strongly_connected,
    load_graph,
    save_graph,
)
from dflsim.simulation import SimulationConfig, seed_streams
import dflsim.graphs
import oracles
from oracles import (
    FAMILIES,
    UnreachableError,
    clustering_coefficients as set_clustering,
    cluster_sets,
    complete_graph,
    csr_tuples,
    er_one_draw_at_a_time,
    hop_distances,
    in_neighbors,
    out_neighbors,
    power_iteration_centrality,
    total_pairwise_distance,
)


def star_graph(leaves=4):
    edges = set()
    for leaf in range(1, leaves + 1):
        edges.add((0, leaf))
        edges.add((leaf, 0))
    return graph_from_edges(leaves + 1, edges)


def undirected_graph(n, pairs):
    return graph_from_edges(n, [e for i, j in pairs for e in ((i, j), (j, i))])


def floyd_warshall(g):
    inf = 10 ** 9
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for i, j in g.edges:
        d[i][j] = 1
    for k in range(g.n):
        for i in range(g.n):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(g.n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


def random_digraph(n, p, rng):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    ii, jj = np.nonzero(mask)
    return graph_from_edges(n, zip(ii.tolist(), jj.tolist()))


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph_from_edges(2, [(0, 2)])

    def test_neighbor_views(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert csr_tuples(g.out_csr) == ((1,), (2,), (0,))
        assert csr_tuples(g.in_csr) == ((2,), (0,), (1,))
        assert g.adjacency_mask().tolist() == [[False, True, False],
                                               [False, False, True],
                                               [True, False, False]]


class TestErdosRenyi:
    def test_p_one_gives_complete_graph(self):
        g = gen_erdos_renyi(3, 1.0, np.random.default_rng(0))
        assert len(g.arcs) == 6

    def test_deterministic_under_seed(self):
        a = gen_erdos_renyi(25, 0.3, np.random.default_rng(7))
        b = gen_erdos_renyi(25, 0.3, np.random.default_rng(7))
        assert a.edges == b.edges

    def test_mean_edge_count_matches_binomial(self):
        # oracle: E = n(n-1)p = 180, se of the mean over 1000 draws
        total = 0
        for seed in range(1000):
            total += len(gen_erdos_renyi(25, 0.3, np.random.default_rng(seed)).arcs)
        expected = 25 * 24 * 0.3
        se = math.sqrt(600 * 0.3 * 0.7 / 1000)
        assert abs(total / 1000 - expected) < 3 * se

    def test_retry_budget_exhaustion(self):
        with pytest.raises(GenerationError):
            gen_erdos_renyi(8, 0.01, np.random.default_rng(0), max_retries=25)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(1, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, 0.0, np.random.default_rng(0))

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(2, 40),
           p=st.floats(0.0, 1.0, exclude_min=True),
           max_retries=st.integers(1, 400),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=12, p=0.2, max_retries=400, seed=1)
    @example(n=25, p=0.08, max_retries=400, seed=2)
    @example(n=40, p=0.06, max_retries=400, seed=3)
    def test_batched_draws_match_one_at_a_time(self, n, p, max_retries,
                                               seed):
        # same accepted graph, or GenerationError, and the rng left where
        # drawing one at a time leaves it
        ref_rng, rng = (np.random.default_rng(seed) for _ in range(2))
        ref = er_one_draw_at_a_time(n, p, ref_rng, max_retries)
        if ref is None:
            with pytest.raises(GenerationError):
                gen_erdos_renyi(n, p, rng, max_retries=max_retries)
        else:
            g = gen_erdos_renyi(n, p, rng, max_retries=max_retries)
            assert g == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDirectedGeometric:
    def test_two_nodes_max_radius(self):
        g = gen_directed_geometric(2, math.sqrt(2), np.random.default_rng(1))
        assert g.edges == frozenset({(0, 1), (1, 0)})

    def test_deterministic_under_seed(self):
        a = gen_directed_geometric(10, 0.5, np.random.default_rng(3))
        b = gen_directed_geometric(10, 0.5, np.random.default_rng(3))
        assert a.edges == b.edges and a.positions == b.positions

    def test_edge_count_monotone_in_radius(self):
        # same positions, growing radius: edge sets are nested
        pos = np.random.default_rng(5).random((25, 2))
        small = set(map(tuple, geometric_edges(pos, 0.2).tolist()))
        large = set(map(tuple, geometric_edges(pos, 0.6).tolist()))
        assert small <= large
        assert len(large) > len(small)

    def test_positions_recorded(self):
        g = gen_directed_geometric(10, 0.6, np.random.default_rng(2))
        assert g.positions is not None and len(g.positions) == 10
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in g.positions)

    @staticmethod
    def _one_draw_at_a_time(n, r, rng, max_retries):
        """The rejection loop the batched sampler must reproduce."""
        for _ in range(max_retries):
            pos = rng.random((n, 2))
            g = Graph(n=n, arcs=geometric_edges(pos, r),
                      positions=tuple((float(x), float(y)) for x, y in pos))
            if is_strongly_connected(g):
                return g
        return None

    @pytest.mark.parametrize("n,r,max_retries", [
        (25, 0.2, 20_000), (12, 0.5, 20_000), (100, 0.2, 20_000),
        (3, 0.05, 40), (25, 0.2, 1), (25, 0.2, 150)])
    def test_batched_draws_match_one_at_a_time(self, n, r, max_retries):
        # same accepted graph, or the same GenerationError, and the rng
        # left where drawing one at a time leaves it
        for seed in range(6):
            ref_rng, rng = (np.random.default_rng(seed) for _ in range(2))
            ref = self._one_draw_at_a_time(n, r, ref_rng, max_retries)
            if ref is None:
                with pytest.raises(GenerationError):
                    gen_directed_geometric(n, r, rng, max_retries=max_retries)
            else:
                g = gen_directed_geometric(n, r, rng, max_retries=max_retries)
                assert g.edges == ref.edges and g.positions == ref.positions
            assert rng.random() == ref_rng.random()

    def test_batched_draws_match_on_other_bit_generators(self):
        for bits in (np.random.MT19937, np.random.Philox):
            ref_rng, rng = (np.random.Generator(bits(4)) for _ in range(2))
            for _ in range(3):  # one rng across several graphs
                ref = self._one_draw_at_a_time(25, 0.2, ref_rng, 20_000)
                g = gen_directed_geometric(25, 0.2, rng)
                assert g.edges == ref.edges and g.positions == ref.positions
            assert rng.random() == ref_rng.random()
            for _ in range(3):  # G(n, p) on the same rng
                ref = er_one_draw_at_a_time(12, 0.2, ref_rng, 20_000)
                assert gen_erdos_renyi(12, 0.2, rng) == ref
            assert rng.random() == ref_rng.random()

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(2, 40),
           r=st.floats(0.0, math.sqrt(2), exclude_min=True),
           max_retries=st.integers(1, 400),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=25, r=0.2, max_retries=400, seed=1)
    @example(n=40, r=0.2, max_retries=400, seed=2)
    @example(n=10, r=0.3, max_retries=400, seed=3)
    def test_batched_draws_match_anywhere(self, n, r, max_retries, seed):
        ref_rng, rng = (np.random.default_rng(seed) for _ in range(2))
        ref = self._one_draw_at_a_time(n, r, ref_rng, max_retries)
        if ref is None:
            with pytest.raises(GenerationError):
                gen_directed_geometric(n, r, rng, max_retries=max_retries)
        else:
            g = gen_directed_geometric(n, r, rng, max_retries=max_retries)
            assert g == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    # the draw at which each seed of the acceptance suite's bank (dg,
    # r = 0.2, n = 25) is accepted, one-based
    BANK_DRAWS = (274, 775, 1005, 72, 1038, 1720, 1658, 316, 183, 427, 196,
                  2491, 624, 1070, 55, 735, 893, 1287, 1220, 523)

    def test_bank_draw_counts(self):
        # the graph stream is left where that many position draws leave it
        for seed, draws in enumerate(self.BANK_DRAWS, start=1):
            rng, ref_rng = (seed_streams(seed)["graph"] for _ in range(2))
            gen_directed_geometric(25, 0.2, rng)
            ref_rng.random((draws, 25, 2))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_edges_match_the_summed_form(self):
        for seed in range(20):
            pos = np.random.default_rng(seed).random((30, 2))
            for r in (0.05, 0.2, 0.5, math.sqrt(2)):
                assert np.array_equal(geometric_edges(pos, r),
                                      oracles.geometric_edges(pos, r))


class TestPreferentialAttachment:
    def test_m0_one_is_tree(self):
        g = gen_preferential_attachment(3, 1, np.random.default_rng(0))
        assert len(g.arcs) == 4  # 2 attachments, both directions

    def test_deterministic_under_seed(self):
        a = gen_preferential_attachment(25, 1, np.random.default_rng(11))
        b = gen_preferential_attachment(25, 1, np.random.default_rng(11))
        assert a.edges == b.edges

    def test_hub_formation(self):
        # denser attachment produces stronger hubs than the m0=1 tree median
        def max_deg(m0, seed):
            g = gen_preferential_attachment(50, m0, np.random.default_rng(seed))
            return degree_centrality(g).max()

        m2_max = max(max_deg(2, s) for s in range(100))
        m1_median = np.median([max_deg(1, s) for s in range(100)])
        assert m2_max > m1_median

    def test_invalid_m0(self):
        with pytest.raises(ValueError):
            gen_preferential_attachment(5, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen_preferential_attachment(5, 5, np.random.default_rng(0))


class TestStrongConnectivity:
    def test_two_cycle(self):
        assert is_strongly_connected(graph_from_edges(2, [(0, 1), (1, 0)]))

    def test_single_edge(self):
        assert not is_strongly_connected(graph_from_edges(2, [(0, 1)]))

    def test_against_reachability_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            g = random_digraph(8, 0.25, rng)
            d = floyd_warshall(g)
            oracle = all(d[i][j] < 10 ** 9 for i in range(8) for j in range(8))
            assert is_strongly_connected(g) == oracle

    def test_generators_enforce_it(self):
        rng = np.random.default_rng(4)
        for g in (gen_erdos_renyi(12, 0.3, rng),
                  gen_directed_geometric(12, 0.5, rng),
                  gen_preferential_attachment(12, 2, rng)):
            assert is_strongly_connected(g)


class TestEigenvectorCentrality:
    def test_complete_graph_uniform(self):
        v = eigenvector_centrality(complete_graph(4))
        assert np.allclose(v, 0.5, atol=1e-9)

    def test_directed_cycle_uniform(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        v = eigenvector_centrality(g)
        assert np.allclose(v, 1 / math.sqrt(3), atol=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 20:
            g = random_digraph(6, 0.4, rng)
            if not is_strongly_connected(g):
                continue
            checked += 1
            v = eigenvector_centrality(g)
            w, vecs = np.linalg.eig(g.adjacency_matrix())
            lead = np.argmax(np.abs(w))
            expect = np.real(vecs[:, lead])
            expect = expect / np.linalg.norm(expect)
            if expect.sum() < 0:
                expect = -expect
            assert np.linalg.norm(v - expect) < 1e-6

    def test_fixed_point_invariant(self):
        rng = np.random.default_rng(30)
        g = gen_erdos_renyi(12, 0.3, rng)
        tol = 1e-10
        v = eigenvector_centrality(g, tol=tol)
        e = g.adjacency_matrix()
        lam = v @ e @ v
        assert np.linalg.norm(e @ v - lam * v) / lam < 10 * tol
        assert np.all(v >= 0)
        assert abs(np.linalg.norm(v) - 1) < 1e-9

    def test_requires_strong_connectivity(self):
        with pytest.raises(ValueError):
            eigenvector_centrality(graph_from_edges(2, [(0, 1)]))

    def test_non_convergence_carries_residual(self):
        g = complete_graph(5)
        with pytest.raises(ConvergenceError) as err:
            eigenvector_centrality(g, tol=0.0, max_iter=3)
        assert err.value.residual >= 0

    def test_tree_converges_where_plain_iteration_cannot(self):
        # a tree is bipartite: the plain iteration oscillates for good,
        # while the result is the tree's Perron vector
        g = undirected_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        with pytest.raises(ConvergenceError):
            power_iteration_centrality(g)
        w, vecs = np.linalg.eigh(g.adjacency_matrix())
        expect = np.abs(vecs[:, -1])
        assert np.abs(eigenvector_centrality(g) - expect).max() < 1e-12

    def test_no_repeat_within_budget_still_raises(self):
        # the same tree's iterates first repeat after more than 50 steps
        g = undirected_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        with pytest.raises(ConvergenceError) as err:
            eigenvector_centrality(g, max_iter=50)
        assert err.value.residual > 0.1
        assert "did not converge in 50 steps" in str(err.value)

    def test_fallback_that_fails_says_so(self):
        # with tol 0 neither iteration can converge: the one on A repeats,
        # and the one on A + I settles into a repeat of its own
        g = undirected_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        with pytest.raises(ConvergenceError) as err:
            eigenvector_centrality(g, tol=0.0)
        assert "on A and did not converge on A + I" in str(err.value)

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(FAMILIES), st.integers(3, 30),
           st.integers(0, 2**32 - 1))
    def test_bits_of_plain_iteration_wherever_it_converges(self, family, n,
                                                           seed):
        g = GraphFamily(*family).generate(n, np.random.default_rng(seed))
        v = eigenvector_centrality(g)
        try:
            expect = power_iteration_centrality(g)
        except ConvergenceError:
            # a periodic graph: the Perron vector, non-negative, unit norm
            e = g.adjacency_matrix()
            lam = v @ e @ v
            assert np.linalg.norm(e @ v - lam * v) / lam < 1e-9
            assert np.all(v >= 0) and abs(np.linalg.norm(v) - 1) < 1e-12
        else:
            assert v.tobytes() == expect.tobytes()

    def test_bits_of_plain_iteration_on_benchmark_pools(self,
                                                        benchmark_pool):
        for g in benchmark_pool:
            assert eigenvector_centrality(g).tobytes() == \
                power_iteration_centrality(g).tobytes()


class TestDegreeAndClustering:
    def test_degree_complete(self):
        assert degree_centrality(complete_graph(4)).tolist() == [6, 6, 6, 6]

    def test_degree_two_cycle(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        assert degree_centrality(g).tolist() == [2, 2]

    def test_degree_star(self):
        assert degree_centrality(star_graph(4)).tolist() == [8, 2, 2, 2, 2]

    def test_clustering_complete(self):
        assert np.allclose(clustering_coefficients(complete_graph(4)), 1.0)

    def test_clustering_star(self):
        assert np.allclose(clustering_coefficients(star_graph(4)), 0.0)

    def test_clustering_triangle_with_pendant(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0),
                 (0, 3), (3, 0)]
        c = clustering_coefficients(graph_from_edges(4, edges))
        assert np.allclose(c, [1 / 3, 1.0, 1.0, 0.0])

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(FAMILIES), st.integers(3, 30),
           st.integers(0, 2**32 - 1))
    def test_match_neighbor_sets(self, family, n, seed):
        g = GraphFamily(*family).generate(n, np.random.default_rng(seed))
        degree = degree_centrality(g)
        out, inn = out_neighbors(g), in_neighbors(g)
        assert degree.tolist() == [len(out[v]) + len(inn[v])
                                   for v in range(n)]
        assert clustering_coefficients(g).tobytes() == \
            set_clustering(g).tobytes()

    def test_clustering_bits_on_benchmark_pools(self, benchmark_pool):
        for g in benchmark_pool:
            assert clustering_coefficients(g).tobytes() == \
                set_clustering(g).tobytes()

    def test_degree_variance_regular_graph(self):
        assert degree_variance_normalized(complete_graph(5)) == 0.0

    def test_degree_variance_hand_value(self):
        # path 0-1-2-3 both directions: degrees (2, 4, 4, 2), var 1
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
        g = graph_from_edges(4, edges)
        assert degree_variance_normalized(g) == pytest.approx((1 - 2) / 2)

    def test_degree_variance_comparative(self):
        hub = degree_variance_normalized(star_graph(6))
        near_regular = degree_variance_normalized(
            graph_from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 1),
                                 (2, 3), (3, 2)]))
        assert hub > near_regular


class TestBfsCluster:
    def test_size_one(self):
        g = complete_graph(5)
        assert cluster_sets(bfs_clusters(g, 1))[3] == frozenset({3})

    def test_directed_path(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert cluster_sets(bfs_clusters(g, 3))[0] == frozenset({0, 1, 2})

    def test_matches_hop_distance_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_digraph(10, 0.25, rng)
            root = int(rng.integers(10))
            s = int(rng.integers(1, 11))
            got = cluster_sets(bfs_clusters(g, s))[root]
            dist = hop_distances(g, root)
            reach = sorted(d for d in dist if d >= 0)
            if len(reach) <= s:
                expect = {v for v in range(10) if dist[v] >= 0}
            else:
                radius = reach[s - 1]
                expect = {v for v in range(10) if 0 <= dist[v] <= radius}
            assert got == expect

    def test_full_cluster_on_strongly_connected(self):
        g = gen_erdos_renyi(9, 0.35, np.random.default_rng(2))
        assert cluster_sets(bfs_clusters(g, 9))[0] == frozenset(range(9))


class TestTotalPairwiseDistance:
    def test_singleton(self):
        assert total_pairwise_distance(complete_graph(4), {2}) == 0

    def test_directed_cycle_pair(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert total_pairwise_distance(g, {0, 2}) == 2

    def test_against_floyd_warshall(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 15:
            g = random_digraph(8, 0.35, rng)
            if not is_strongly_connected(g):
                continue
            checked += 1
            nodes = sorted(rng.choice(8, size=3, replace=False).tolist())
            d = floyd_warshall(g)
            expect = sum(d[i][j] for a, i in enumerate(nodes)
                         for j in nodes[a + 1:])
            assert total_pairwise_distance(g, nodes) == expect

    def test_unreachable_pair(self):
        # pair order is i < j, so only the 1 -> 0 edge leaves 0 -> 1 unreachable
        with pytest.raises(UnreachableError):
            total_pairwise_distance(graph_from_edges(2, [(1, 0)]), {0, 1})


class TestApplyFailures:
    def test_zero_probabilities_identity(self):
        g = gen_directed_geometric(8, 0.7, np.random.default_rng(0))
        out, index_map = apply_failures(g, 0.0, 0.0, np.random.default_rng(1))
        assert out.edges == g.edges and out.positions == g.positions
        assert index_map == {v: v for v in range(8)}

    def test_total_node_failure(self):
        g = complete_graph(4)
        with pytest.raises(EmptyGraphError):
            apply_failures(g, 1.0, 0.0, np.random.default_rng(0))

    def test_mean_survivors_matches_binomial(self):
        g = complete_graph(100)
        total = 0
        for seed in range(1000):
            out, _ = apply_failures(g, 0.1, 0.02, np.random.default_rng(seed))
            total += out.n
        se = math.sqrt(100 * 0.1 * 0.9 / 1000)
        assert abs(total / 1000 - 90.0) < 3 * se

    def test_reindexing_contiguous(self):
        g = gen_erdos_renyi(20, 0.4, np.random.default_rng(3))
        out, index_map = apply_failures(g, 0.3, 0.1, np.random.default_rng(4))
        assert sorted(index_map.values()) == list(range(out.n))
        assert all(0 <= i < out.n and 0 <= j < out.n for i, j in out.edges)


class TestSerialization:
    def test_round_trip_plain(self):
        g = gen_erdos_renyi(10, 0.4, np.random.default_rng(8))
        assert graph_from_text(graph_to_text(g)).edges == g.edges

    def test_round_trip_with_positions(self):
        g = gen_directed_geometric(6, 0.8, np.random.default_rng(8))
        back = graph_from_text(graph_to_text(g))
        assert back.edges == g.edges and back.positions == g.positions

    def test_golden_format(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        assert graph_to_text(g) == ("n 3 directed\n0 1\n1 0\n1 2\n2 0\n")

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from((("er", 0.5), ("dg", 0.6), ("pa", 1), ("pa", 2))),
           st.integers(3, 14), st.integers(0, 2**32 - 1),
           st.sampled_from((0.0, 0.3)), st.sampled_from((0.0, 0.3)))
    def test_round_trip_is_identity(self, family, n, seed, p_node, p_link):
        # generated graphs, and what a failure event leaves of them, come
        # back equal: node count, edges and positions to the last bit
        rng = np.random.default_rng(seed)
        graphs = [GraphFamily(*family).generate(n, rng)]
        try:
            graphs.append(apply_failures(graphs[0], p_node, p_link, rng)[0])
        except EmptyGraphError:
            pass
        for g in graphs:
            assert graph_from_text(graph_to_text(g)) == g

    def test_save_and_load(self, tmp_path):
        g = gen_directed_geometric(6, 0.8, np.random.default_rng(8))
        save_graph(g, tmp_path / "g.txt")
        assert load_graph(tmp_path / "g.txt") == g
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]

    def test_interrupted_save_leaves_no_file(self, tmp_path, monkeypatch):
        # a write cut off halfway, as by a kill: the path holds nothing, or
        # what it held before, and nothing else is left behind
        class CutShort:
            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise KeyboardInterrupt

        old, new = (gen_erdos_renyi(8, 0.5, np.random.default_rng(seed))
                    for seed in (1, 2))
        path = tmp_path / "g.txt"
        monkeypatch.setattr(dflsim.graphs, "open", CutShort, raising=False)
        with pytest.raises(KeyboardInterrupt):
            save_graph(new, path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        save_graph(old, path)
        monkeypatch.setattr(dflsim.graphs, "open", CutShort, raising=False)
        with pytest.raises(KeyboardInterrupt):
            save_graph(new, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]
        assert load_graph(path) == old

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            graph_from_text("0 1\n1 0\n")
        with pytest.raises(ValueError):
            graph_from_text("n 2 undirected\n0 1\n")
        with pytest.raises(ValueError):
            graph_from_text("n 2 directed\n0 1 junk extra\n")


def test_circulant_graph_regular():
    g = circulant_graph(8, (1, 4))
    assert all(len(ns) == 3 for ns in out_neighbors(g))
    assert is_strongly_connected(g)


def test_pairwise_distance_ignores_enumeration_order():
    g = gen_erdos_renyi(9, 0.4, np.random.default_rng(5))
    assert total_pairwise_distance(g, [5, 1, 7]) == \
        total_pairwise_distance(g, (7, 5, 1))


class TestGraphFamily:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            GraphFamily("er", 0.0)
        with pytest.raises(ValueError):
            GraphFamily("dg", 2.0)
        with pytest.raises(ValueError):
            GraphFamily("pa", 1.5)
        with pytest.raises(ValueError):
            GraphFamily("ring", 0.5)

    def test_generate_dispatch(self):
        rng = np.random.default_rng(0)
        for kind, param in (("er", 0.4), ("dg", 0.6), ("pa", 2)):
            g = GraphFamily(kind, param).generate(10, rng)
            assert g.n == 10 and is_strongly_connected(g)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(("er", "dg", "pa", "ring")),
           param=st.floats(-0.5, 2.5) | st.integers(-1, 10).map(float),
           n=st.integers(-1, 9))
    @example(kind="dg", param=math.sqrt(2), n=2)
    @example(kind="dg", param=math.nextafter(math.sqrt(2), 2), n=2)
    @example(kind="er", param=math.nextafter(0, 1), n=3)
    @example(kind="pa", param=4.0, n=5)
    @example(kind="pa", param=5.0, n=5)
    @example(kind="er", param=0.01, n=9)  # out of draws
    def test_config_accepts_what_generation_accepts(self, kind, param, n):
        # SimulationConfig takes (family, param, n) exactly when generation
        # raises no ValueError; running out of draws is not a range error
        try:
            SimulationConfig(graph_family=kind, graph_param=param, n=n,
                             n_advs=0)
            accepted = True
        except ValueError:
            accepted = False
        try:
            GraphFamily(kind, param).generate(n, np.random.default_rng(0))
            generated = True
        except GenerationError:
            generated = True
        except ValueError:
            generated = False
        assert accepted == generated
