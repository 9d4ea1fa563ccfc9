import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim import theory
from dflsim.graphs import (
    circulant_graph,
    eigenvector_centrality,
    graph_from_edges,
)
from dflsim.theory import (
    AssumptionError,
    BoundScenario,
    _block_trials,
    _bound_trials,
    check_regular_symmetric,
    complexity_probe,
    default_scenario_grid,
    verify_lower_bound,
)
from oracles import (
    bound_trials,
    complete_graph,
    consensus_only_step,
    total_pairwise_distance,
)

LADDER = circulant_graph(8, (1, 4))  # 3-regular, symmetric, non-bipartite


class TestAssumptions:
    def test_ladder_accepted(self):
        assert check_regular_symmetric(LADDER) == 3

    def test_asymmetric_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(AssumptionError):
            check_regular_symmetric(g)

    def test_irregular_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        with pytest.raises(AssumptionError):
            check_regular_symmetric(g)

    def test_scenario_validates_adversaries(self):
        with pytest.raises(AssumptionError):
            BoundScenario(graph=LADDER, adversaries=(0, 0), delta_min=1.0)
        with pytest.raises(AssumptionError):
            BoundScenario(graph=LADDER, adversaries=(9,), delta_min=1.0)


class TestConsensusOnlyStep:
    def test_matrix_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3))
        grads = rng.standard_normal((8, 3))
        got = consensus_only_step(x, LADDER, 0.1, grads)
        m = LADDER.adjacency_matrix() / 3.0
        assert np.allclose(got, m @ x - 0.1 * grads, atol=1e-12)

    def test_zero_alpha_preserves_mean_and_converges(self):
        # triangle: 2-regular, symmetric, aperiodic
        tri = circulant_graph(3, (1,))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2))
        mean = x.mean(axis=0)
        for _ in range(200):
            x = consensus_only_step(x, tri, 0.0, np.zeros_like(x))
            assert np.allclose(x.mean(axis=0), mean, atol=1e-12)
        assert np.allclose(x, mean, atol=1e-9)

    def test_two_cycle_closed_form_recursion(self):
        # single coordinate, identical quadratics f(x) = (x - c)^2 / 2:
        # x(t+1) = M x(t) - a (x(t) - c) solved against the explicit
        # linear recursion
        g = circulant_graph(2, (1,))
        c, a = 1.5, 0.2
        x = np.array([[0.0], [3.0]])
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = x[:, 0].copy()
        for _ in range(25):
            x = consensus_only_step(x, g, a, x - c)
            z = m @ z - a * (z - c)
            assert np.allclose(x[:, 0], z, atol=1e-12)

    def test_irregular_graph_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        with pytest.raises(AssumptionError):
            consensus_only_step(np.zeros((3, 1)), g, 0.1, np.zeros((3, 1)))


class TestBoundSides:
    def test_empty_adversary_set_both_zero(self):
        scenario = BoundScenario(graph=LADDER, adversaries=(), delta_min=1.0)
        row, = verify_lower_bound([scenario], 50, np.random.default_rng(0))
        assert row.lhs == 0.0 and row.rhs == 0.0

    def test_never_binding_clamp_keeps_trajectories_equal(self):
        # delta below every gradient coordinate: attacked == honest run,
        # so the distance and the honest drift term are exactly zero
        scenario = BoundScenario(graph=LADDER, adversaries=(0, 1),
                                 delta_min=-50.0)
        lhs, adv_term, hon_term, unbound = _bound_trials(
            scenario, 30, np.random.default_rng(1))
        assert np.all(lhs == 0.0)
        assert np.all(hon_term == 0.0)
        assert np.all(adv_term > 0.0)  # the delta column never vanishes
        # the floor never binds: every adversary step is outside the lemma
        assert np.all(unbound == 2 * (scenario.horizon + 1))

    def test_never_binding_floor_is_out_of_hypothesis_not_failed(self):
        scenario = BoundScenario(graph=LADDER, adversaries=(0, 1),
                                 delta_min=-50.0)
        row, = verify_lower_bound([scenario], 30, np.random.default_rng(0))
        assert not row.rt_passed  # the number alone looks like a failure
        assert row.unbound_steps == 30 * 2 * (scenario.horizon + 1)
        assert not row.in_hypothesis

    def test_deterministic_given_seed(self):
        scenario = BoundScenario(graph=LADDER, adversaries=(0,), delta_min=1.0)
        a = verify_lower_bound([scenario], 40, np.random.default_rng(7))
        b = verify_lower_bound([scenario], 40, np.random.default_rng(7))
        assert a == b

    def test_perron_vector_fixed_point(self):
        v = eigenvector_centrality(LADDER)
        m = LADDER.adjacency_matrix() / 3.0
        assert np.linalg.norm(m @ v - v) < 1e-8

    def test_short_horizon_grid_passes(self):
        rows = verify_lower_bound(default_scenario_grid(horizon=2), 100,
                                  np.random.default_rng(0))
        assert all(r.passed for r in rows)
        assert all(np.isfinite(r.margin) and np.isfinite(r.stderr)
                   for r in rows)

    def test_all_honest_row_passes_with_zero_margin(self):
        scenario = BoundScenario(graph=LADDER, adversaries=(), delta_min=1.0,
                                 scenario_id="all-honest")
        row = verify_lower_bound([scenario], 50, np.random.default_rng(3))[0]
        assert row.margin == 0.0 and row.passed

    def test_comparative_placements_report_rhs(self):
        # most-central nodes versus a maximally spread pair: the report
        # records both rhs values (no direction is asserted)
        v = eigenvector_centrality(LADDER)
        central = tuple(int(i) for i in np.argsort(-v, kind="stable")[:2])
        best, best_d = None, -1
        for i in range(8):
            for j in range(i + 1, 8):
                d = total_pairwise_distance(LADDER, (i, j))
                if d > best_d:
                    best, best_d = (i, j), d
        scenarios = [
            BoundScenario(graph=LADDER, adversaries=central, delta_min=1.0,
                          horizon=2, scenario_id="central"),
            BoundScenario(graph=LADDER, adversaries=best, delta_min=1.0,
                          horizon=2, scenario_id="spread"),
        ]
        rows = verify_lower_bound(scenarios, 100, np.random.default_rng(2))
        assert {r.scenario_id for r in rows} == {"central", "spread"}
        assert all(np.isfinite(r.rhs) for r in rows)

    def test_reverse_triangle_bound_holds_in_every_trial(self):
        # ||a + h|| >= | ||a|| - ||h|| | bounds each trial, not only the
        # mean, at the advertised horizon on the default grid
        rng = np.random.default_rng(0)
        for scenario in default_scenario_grid(horizon=20):
            lhs, adv_term, hon_term, _ = _bound_trials(scenario, 200, rng)
            rt_rhs = (np.sqrt(adv_term) - np.sqrt(hon_term)) ** 2
            assert np.all(lhs >= rt_rhs * (1 - 1e-12)), scenario.scenario_id

    def test_corrected_form_reported_beside_stated(self):
        rows = verify_lower_bound(default_scenario_grid(horizon=20), 50,
                                  np.random.default_rng(0))
        assert all(r.rt_passed and r.rt_margin > 0 for r in rows)
        assert not any(r.passed for r in rows)
        assert all(r.in_hypothesis for r in rows)

    def test_default_grid_shape(self):
        grid = default_scenario_grid()
        assert len(grid) == 9
        assert {len(s.adversaries) for s in grid} == {1, 2, 3}
        assert {s.delta_min for s in grid} == {0.5, 1.0, 2.0}
        assert all(s.horizon == 20 for s in grid)


@st.composite
def bound_cases(draw):
    """A scenario on a circulant regular graph, a trial count and a seed."""
    n = draw(st.integers(2, 12))
    offsets = {1} | draw(st.sets(st.integers(2, max(2, n // 2)), max_size=2))
    n_samples = draw(st.integers(1, 30))
    scenario = BoundScenario(
        graph=circulant_graph(n, sorted(offsets)),
        adversaries=tuple(draw(st.sets(st.integers(0, n - 1)))),
        delta_min=draw(st.sampled_from((-50.0, 0.0, 0.05, 0.5, 2.0))),
        horizon=draw(st.integers(0, 6)), dim=draw(st.integers(1, 3)),
        n_samples=n_samples, batch_size=draw(st.integers(1, n_samples)),
        data_scale=draw(st.sampled_from((0.1, 1.0, 10.0))),
        data_seed=draw(st.integers(0, 2 ** 16)))
    return scenario, draw(st.integers(1, 60)), draw(st.integers(0, 2 ** 32))


def _case(advs, trials=0, blocks=0.0, n=8, offsets=(1, 4), **kw):
    """A scenario, `trials` trials plus `blocks` of its blocks, and seed 0."""
    scenario = BoundScenario(graph=circulant_graph(n, offsets),
                             adversaries=advs,
                             **{"delta_min": 1.0, "horizon": 6, **kw})
    return scenario, trials + int(blocks * _block_trials(scenario)), 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bound_cases())
@example(_case((0, 1, 2), blocks=2.4))  # the default grid's graph
@example(_case((), 1, blocks=1))  # no adversaries, one trial past a block
@example(_case((0, 1), 50, delta_min=-50.0))  # a floor that never binds
# dim 1, 8 adversaries and 14-sample batches: sums numpy adds pairwise
@example(_case(tuple(range(8)), 30, n=10, offsets=(1, 2, 3, 4, 5), dim=1,
               n_samples=14, batch_size=14))
def test_stacked_trials_give_the_per_trial_bits(case):
    scenario, trials, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _bound_trials(scenario, trials, rng)
    want = bound_trials(scenario, trials, ref_rng)
    for name, a, b in zip(("lhs", "adv_term", "hon_term", "unbound"),
                          got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_block_size_changes_no_bits(monkeypatch):
    # blocks of 1 and 7 trials, and of all 30 at the default budget, give
    # the bits and the generator state of stepping one trial at a time
    scenario = default_scenario_grid()[4]
    want_rng = np.random.default_rng(5)
    want = bound_trials(scenario, 30, want_rng)
    gather = scenario.batch_size * scenario.graph.n * scenario.dim * 8
    budgets = {1: gather + 7, 7: 7 * gather + 7, 30: theory._BLOCK_BYTES}
    for size, budget in budgets.items():
        monkeypatch.setattr(theory, "_BLOCK_BYTES", budget)
        assert min(_block_trials(scenario), 30) == size
        rng = np.random.default_rng(5)
        got = _bound_trials(scenario, 30, rng)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), size
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_many_trials_stay_within_a_fixed_peak():
    # one block of 5000 trials would gather 6.4 MB per step (22 MB peak)
    scenario = default_scenario_grid()[4]
    tracemalloc.start()
    try:
        _bound_trials(scenario, 5000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


class TestComplexityProbe:
    def test_doubling_time_within_cubic_bound(self):
        report = complexity_probe([60, 120], repeats=3, seed=1)
        t1, t2 = (r.median_seconds for r in report.rows)
        assert t2 / max(t1, 1e-9) <= 8 * 2  # cubic growth with slack 2

    def test_cv_reported(self):
        report = complexity_probe([80], repeats=4, seed=2)
        assert report.rows[0].cv >= 0.0

    def test_loglog_slope_bounded(self):
        report = complexity_probe([40, 80, 160], repeats=3, seed=3)
        assert report.loglog_slope <= 3.5

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            complexity_probe([100, 50])


def test_complete_graph_is_regular_symmetric():
    assert check_regular_symmetric(complete_graph(5)) == 4
