import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dflsim.graphs import (
    GraphFamily,
    gen_directed_geometric,
    gen_erdos_renyi,
    graph_from_edges,
    is_strongly_connected,
)
from dflsim.placement import (
    AdversarySet,
    HoppingParams,
    hop_probability,
    place,
    place_centrality,
    place_maxspan,
    place_maxspan_hopping,
    place_random,
)
from oracles import (FAMILIES, complete_graph, greedy_overlap,
                     influence_clusters, maxspan_members, out_neighbors)

NO_HOP = HoppingParams(alpha0=1e6, alpha1=1.0, alpha2=1.0, decay=0.0)


def bidirectional_star(leaves=4):
    edges = set()
    for leaf in range(1, leaves + 1):
        edges.add((0, leaf))
        edges.add((leaf, 0))
    return graph_from_edges(leaves + 1, edges)


def directed_cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestPlaceRandom:
    def test_all_nodes(self):
        g = complete_graph(5)
        assert sorted(place_random(g, 5, np.random.default_rng(0)).members) == list(range(5))

    def test_deterministic(self):
        g = complete_graph(10)
        a = place_random(g, 3, np.random.default_rng(5)).members
        b = place_random(g, 3, np.random.default_rng(5)).members
        assert a == b

    def test_uniformity(self):
        g = complete_graph(10)
        counts = np.zeros(10)
        n_draws = 10_000
        rng = np.random.default_rng(123)
        for _ in range(n_draws):
            for v in place_random(g, 2, rng).members:
                counts[v] += 1
        freq = counts / n_draws
        se = math.sqrt(0.2 * 0.8 / n_draws)
        assert np.all(np.abs(freq - 0.2) < 3 * se + 1e-12)

    def test_count_out_of_range(self):
        with pytest.raises(ValueError):
            place_random(complete_graph(3), 4, np.random.default_rng(0))


class TestPlaceCentrality:
    def test_star_hub_by_degree(self):
        sel = place_centrality(bidirectional_star(4), 1, measure="degree")
        assert sel.members == (0,)

    def test_complete_graph_tie_break(self):
        sel = place_centrality(complete_graph(6), 2, measure="eigen")
        assert sel.members == (0, 1)

    def test_eigen_matches_dense_argmax(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 10:
            mask = rng.random((8, 8)) < 0.35
            np.fill_diagonal(mask, False)
            ii, jj = np.nonzero(mask)
            g = graph_from_edges(8, zip(ii.tolist(), jj.tolist()))
            if not is_strongly_connected(g):
                continue
            checked += 1
            sel = place_centrality(g, 3, measure="eigen")
            w, vecs = np.linalg.eig(g.adjacency_matrix())
            lead = np.real(vecs[:, np.argmax(np.abs(w))])
            lead = np.abs(lead / np.linalg.norm(lead))
            expect = tuple(int(v) for v in np.argsort(-lead, kind="stable")[:3])
            assert sel.members == expect

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            place_centrality(complete_graph(3), 1, measure="betweenness")


class TestPlaceMaxspan:
    def test_all_nodes(self):
        sel = place_maxspan(complete_graph(4), 4, np.random.default_rng(0))
        assert sorted(sel.members) == [0, 1, 2, 3]

    def test_single_adversary_is_first_random_pick(self):
        g = directed_cycle(6)
        picks = {place_maxspan(g, 1, np.random.default_rng(s)).members[0]
                 for s in range(40)}
        assert len(picks) > 1  # genuinely random, not argmin-of-overlap
        sel = place_maxspan(g, 1, np.random.default_rng(0), first=4)
        assert sel.members == (4,)

    def test_six_cycle_second_pick(self):
        # clusters are 3 consecutive nodes; opposite node has zero overlap
        g = directed_cycle(6)
        sel = place_maxspan(g, 2, np.random.default_rng(0), first=0)
        assert sel.members == (0, 3)
        clusters = influence_clusters(g, 2)
        overlaps = {v: len(clusters[v] & clusters[0]) for v in range(1, 6)}
        assert overlaps == {1: 2, 2: 1, 3: 0, 4: 1, 5: 2}

    def test_greedy_matches_conditional_optimum(self):
        # with the first pick fixed, the second pick must minimize overlap
        # over every candidate (ties to the lowest index)
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 12:
            n = int(rng.integers(5, 11))
            try:
                g = gen_erdos_renyi(n, 0.3, rng, max_retries=50)
            except Exception:
                continue
            checked += 1
            clusters = influence_clusters(g, 2)
            for first in range(n):
                sel = place_maxspan(g, 2, np.random.default_rng(0), first=first)
                second = sel.members[1]
                best = min((len(clusters[v] & clusters[first]), v)
                           for v in range(n) if v != first)
                assert (len(clusters[second] & clusters[first]), second) == best

    def test_zero_overlap_on_disjoint_clusters(self):
        # three 4-cliques joined by one-way links; interior first pick
        # permits a zero-overlap selection, which exhaustive search confirms
        edges = set()
        for base in (0, 4, 8):
            for i in range(base, base + 4):
                for j in range(base, base + 4):
                    if i != j:
                        edges.add((i, j))
        edges |= {(3, 4), (7, 8), (11, 0)}
        g = graph_from_edges(12, edges)
        assert is_strongly_connected(g)
        clusters = influence_clusters(g, 3)
        zero_sets = [(a, b, c)
                     for a in range(12) for b in range(a + 1, 12)
                     for c in range(b + 1, 12)
                     if not (clusters[a] & clusters[b])
                     and not (clusters[a] & clusters[c])
                     and not (clusters[b] & clusters[c])]
        assert zero_sets, "family must admit a zero-overlap selection"
        sel = place_maxspan(g, 3, np.random.default_rng(0), first=0)
        assert greedy_overlap(g, sel.members) == 0

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(FAMILIES), st.integers(3, 30), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_members_of_rescanning_greedy(self, family, n, seed, n_advs):
        g = GraphFamily(*family).generate(n, np.random.default_rng(seed))
        n_advs = min(n_advs, n)
        for first in range(n):
            sel = place_maxspan(g, n_advs, None, first=first)
            assert sel.members == maxspan_members(g, n_advs, first)

    def test_members_of_rescanning_greedy_on_benchmark_pools(
            self, benchmark_pool):
        # every first pick at n=25, five at n=100 and one at n=400
        step = {25: 1, 100: 21, 400: 400}
        for g in benchmark_pool:
            n_advs = round(0.2 * g.n)
            for first in range(0, g.n, step[g.n]):
                sel = place_maxspan(g, n_advs, None, first=first)
                assert sel.members == maxspan_members(g, n_advs, first)

    def test_beats_random_overlap_on_geometric_graphs(self):
        diffs = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            g = gen_directed_geometric(25, 0.2, rng)
            ours = greedy_overlap(g, place_maxspan(g, 5, rng).members)
            rand = greedy_overlap(g, place_random(g, 5, rng).members)
            diffs.append(rand - ours)
        result = stats.ttest_1samp(diffs, 0.0, alternative="greater")
        assert result.pvalue < 0.05


class TestHopProbability:
    def test_neutral_parameters_give_half(self):
        params = HoppingParams(alpha0=0.0, alpha1=0.3, alpha2=-0.7, decay=0.0)
        for c_hat, var_hat, t in ((0, 0, 0), (1, 0.5, 3), (0.2, 0.9, 10)):
            assert hop_probability(c_hat, var_hat, params, t, 20) == 0.5

    def test_logistic_saturation(self):
        params = HoppingParams(alpha0=1e9, alpha1=1.0, alpha2=1.0, decay=0.0)
        assert hop_probability(1.0, 1.0, params, 0, 8) == 0.0

    def test_hand_computed_value(self):
        params = HoppingParams(alpha0=1.0, alpha1=0.0, alpha2=0.0, decay=1.0)
        p = hop_probability(1.0, 1.0, params, 2, 8)
        assert p == pytest.approx(0.10279090717849551, rel=1e-12)

    def test_small_graph_error(self):
        with pytest.raises(ValueError):
            hop_probability(0.5, 0.5, HoppingParams(), 0, 1)

    def test_decay_strictly_decreasing_in_hops(self):
        params = HoppingParams(alpha0=2.0, alpha1=-0.3, alpha2=-0.4, decay=0.8)
        values = [hop_probability(0.4, 0.6, params, t, 25) for t in range(6)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPlaceMaxspanHopping:
    def test_no_hop_degenerates_to_maxspan(self):
        g = gen_directed_geometric(15, 0.5, np.random.default_rng(3))
        base = place_maxspan(g, 3, np.random.default_rng(42))
        hop = place_maxspan_hopping(g, 3, NO_HOP, np.random.default_rng(42))
        assert hop.members == base.members
        assert all(hops == () for _, hops in hop.hop_trace)

    def test_star_leaf_hops_to_hub(self):
        g = bidirectional_star(4)
        params = HoppingParams(alpha0=-1e6, alpha1=1.0, alpha2=1.0, decay=1e9)
        sel = place_maxspan_hopping(g, 1, params, np.random.default_rng(0),
                                    first=2)
        assert sel.members == (0,)
        assert sel.hop_trace == ((2, (0,)),)

    def test_single_hop_targets_highest_centrality_neighbor(self):
        rng = np.random.default_rng(8)
        g = gen_erdos_renyi(8, 0.4, rng)
        params = HoppingParams(alpha0=-1e6, alpha1=1.0, alpha2=1.0, decay=1e9)
        start = 5
        sel = place_maxspan_hopping(g, 1, params, np.random.default_rng(1),
                                    first=start)
        w, vecs = np.linalg.eig(g.adjacency_matrix())
        lead = np.real(vecs[:, np.argmax(np.abs(w))])
        lead = np.abs(lead / np.linalg.norm(lead))
        expect = max(out_neighbors(g)[start], key=lambda v: (lead[v], -v))
        assert sel.members == (expect,)

    def test_members_stay_distinct(self):
        params = HoppingParams(alpha0=-5.0, alpha1=0.0, alpha2=0.0, decay=0.5)
        for seed in range(10):
            g = gen_directed_geometric(20, 0.4, np.random.default_rng(seed))
            sel = place_maxspan_hopping(g, 4, params,
                                        np.random.default_rng(seed))
            assert len(set(sel.members)) == 4

    @pytest.mark.parametrize("alpha0", [1000.0, -1000.0])
    def test_hops_end_without_decay(self, alpha0):
        # with decay 0 a saturated logistic keeps the hop probability at
        # 1.0 (alpha0 = 1000 saturates it where the boundary terms share a
        # sign, -1000 where they differ); each adversary must stop after
        # g.n hops instead of hopping forever
        def timeout(signum, frame):
            raise TimeoutError("hop loop did not end")

        params = HoppingParams(alpha0=alpha0, decay=0.0)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        try:
            capped = 0
            for seed in range(20):
                g = gen_directed_geometric(8, 0.5, np.random.default_rng(seed))
                sel = place_maxspan_hopping(g, 2, params,
                                            np.random.default_rng(seed))
                assert len(set(sel.members)) == 2
                assert all(len(hops) <= g.n for _, hops in sel.hop_trace)
                capped += sum(len(hops) == g.n for _, hops in sel.hop_trace)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capped > 0  # the inputs do reach the cap

    @pytest.mark.parametrize("field", ["alpha0", "alpha1", "alpha2", "decay"])
    def test_non_finite_params_rejected(self, field):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=field):
                HoppingParams(**{field: value})

    def test_deterministic(self):
        g = gen_directed_geometric(20, 0.4, np.random.default_rng(9))
        params = HoppingParams()
        a = place_maxspan_hopping(g, 4, params, np.random.default_rng(3))
        b = place_maxspan_hopping(g, 4, params, np.random.default_rng(3))
        assert a.members == b.members and a.hop_trace == b.hop_trace


class TestDispatch:
    def test_all_ids(self):
        g = gen_directed_geometric(12, 0.6, np.random.default_rng(2))
        for strategy in ("random", "eigen", "degree", "maxspan", "maxspan-hop"):
            sel = place(g, strategy, 3, np.random.default_rng(1))
            assert len(set(sel.members)) == 3
            assert all(0 <= v < 12 for v in sel.members)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            place(complete_graph(4), "optimal", 2, np.random.default_rng(0))


def test_adversary_set_rejects_duplicates():
    with pytest.raises(ValueError):
        AdversarySet(members=(1, 1), strategy="random")
