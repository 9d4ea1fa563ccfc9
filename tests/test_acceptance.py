"""Acceptance suite: one test per criterion, one printed line per result.

Shared sweeps are computed once in session fixtures. Every tolerance and
time budget is pinned here. Criterion 3 checks the lower bound in its
corrected (reverse-triangle) form, which holds under the lemma's
hypotheses, and prints the stated form's margins beside it: the stated
form's last step is false when the honest-drift term points against the
adversarial term, as it does on the default grid (see dflsim.theory).
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

from dflsim.config import parse_config_data
from dflsim.graphs import (
    GraphFamily,
    bfs_clusters,
    eigenvector_centrality,
    gen_directed_geometric,
    gen_erdos_renyi,
    is_strongly_connected,
)
from dflsim.learning import Dataset
from dflsim.metrics import compute_aal
from dflsim.placement import place_centrality, place_maxspan
from dflsim.simulation import (
    Simulation,
    SimulationConfig,
    build_graph,
    run_adversary_free,
    seed_streams,
)
from dflsim.sweep import run_experiment
from dflsim.theory import complexity_probe, default_scenario_grid, verify_lower_bound
from oracles import (accuracy, cluster_sets, consensus_error, hop_distances,
                     influence_clusters, train_centralized)

STRATEGIES = ("random", "eigen", "degree", "maxspan", "maxspan-hop")
SEEDS = tuple(range(1, 21))


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


def study_config(**overrides) -> SimulationConfig:
    base = dict(graph_family="dg", graph_param=0.2, n=25, strategy="maxspan",
                n_advs=5, epochs=60, t_attack=15, epsilon=250.0, seed=1)
    base.update(overrides)
    return SimulationConfig(**base)


def aals(cfgs: list[SimulationConfig], graph, base=None) -> list[float]:
    """The AALs of placements of one network on graph, run as one stack as
    a sweep runs a key's cells, against `base` if given (the network's
    adversary-free run), else against a run computed for them."""
    results = Simulation(cfgs, graph, base).run()
    for result in results:
        if isinstance(result, Exception):
            raise result
    return [compute_aal(baseline, attacked, cfg.t_attack)
            for cfg, (attacked, baseline, _) in zip(cfgs, results)]


def graph_bank(family: str, param: float, n: int) -> dict[int, object]:
    bank = {}
    for seed in SEEDS:
        cfg = study_config(graph_family=family, graph_param=param, n=n,
                           seed=seed)
        bank[seed] = build_graph(cfg, seed_streams(seed)["graph"])
    return bank


@pytest.fixture(scope="session")
def dg_graphs():
    return graph_bank("dg", 0.2, 25)


@pytest.fixture(scope="session")
def er_graphs():
    return graph_bank("er", 0.3, 25)


def baseline_bank(bank: dict[int, object], **overrides) -> dict[int, object]:
    """Each seed's adversary-free run on its bank graph, which every
    strategy and attack power of that seed shares."""
    return {seed: run_adversary_free(study_config(seed=seed, **overrides),
                                     graph)
            for seed, graph in bank.items()}


@pytest.fixture(scope="session")
def dg_bases(dg_graphs):
    return baseline_bank(dg_graphs)


@pytest.fixture(scope="session")
def er_bases(er_graphs):
    return baseline_bank(er_graphs, graph_family="er", graph_param=0.3)


def aal_table(graphs, bases, field, values, **overrides) -> dict:
    """value of `field` -> per-seed AALs, each seed's placements (one per
    value) one stack."""
    per_seed = [aals([study_config(seed=seed, **{field: v}, **overrides)
                      for v in values], graphs[seed], bases[seed])
                for seed in SEEDS]
    return {v: [row[i] for row in per_seed] for i, v in enumerate(values)}


@pytest.fixture(scope="session")
def dg_aal_table(dg_graphs, dg_bases):
    """Mean-AAL inputs on sparse geometric graphs: strategy -> per-seed AALs."""
    return aal_table(dg_graphs, dg_bases, "strategy", STRATEGIES)


@pytest.fixture(scope="session")
def er_aal_table(er_graphs, er_bases):
    return aal_table(er_graphs, er_bases, "strategy", STRATEGIES,
                     graph_family="er", graph_param=0.3)


def test_criterion_1_honest_convergence():
    # task sized so 60 consensus rounds at the default step size reach the
    # centralized optimum: 5 classes, 8 features, 40 samples per node
    t0 = time.time()
    worst_consensus = 0.0
    worst_gap = 0.0
    for seed in SEEDS:
        cfg = SimulationConfig(graph_family="dg", graph_param=0.6, n=10,
                               n_advs=0, epochs=60, t_attack=60,
                               classes=5, feature_dim=8, samples_per_node=40,
                               classes_per_node=5, test_samples=250,
                               seed=seed)
        sim = Simulation(cfg)
        (trace, _, _), = sim.run()
        worst_consensus = max(worst_consensus, consensus_error(sim.final[0]))
        pooled = Dataset(
            features=np.concatenate([s.features for s in sim.base.shards]),
            labels=np.concatenate([s.labels for s in sim.base.shards]))
        central = train_centralized(pooled, cfg.classes, alpha=0.5, iters=800)
        gap = abs(trace[-1] - accuracy(central, sim.base.test_set))
        worst_gap = max(worst_gap, gap)
    elapsed = time.time() - t0
    ok = worst_consensus < 1e-3 and worst_gap <= 0.02 and elapsed < 30
    assert report(1, ok,
                  f"honest runs on 20 seeds: max consensus error "
                  f"{worst_consensus:.2e} (< 1e-3), max |accuracy - "
                  f"centralized| {worst_gap * 100:.2f}pp (<= 2pp), "
                  f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_placement_oracles():
    t0 = time.time()
    rng = np.random.default_rng(20240415)
    graphs = []
    while len(graphs) < 50:
        n = int(rng.integers(5, 11))
        try:
            graphs.append(gen_erdos_renyi(n, 0.45, rng, max_retries=200))
        except Exception:
            continue
    eig_worst = 0.0
    for g in graphs:
        v = eigenvector_centrality(g)
        w, vecs = np.linalg.eig(g.adjacency_matrix())
        dense = np.real(vecs[:, np.argmax(np.abs(w))])
        dense = dense / np.linalg.norm(dense)
        if dense.sum() < 0:
            dense = -dense
        eig_worst = max(eig_worst, float(np.linalg.norm(v - dense)))

        # greedy with a fixed first pick must match the conditional optimum
        clusters = influence_clusters(g, 2)
        for first in range(g.n):
            sel = place_maxspan(g, 2, np.random.default_rng(0), first=first)
            second = sel.members[1]
            best = min((len(clusters[v] & clusters[first]), v)
                       for v in range(g.n) if v != first)
            assert (len(clusters[second] & clusters[first]), second) == best

        # BFS influence regions match the hop-distance-nearest oracle
        for root in range(g.n):
            s = int(rng.integers(1, g.n + 1))
            dist = hop_distances(g, root)
            reach = sorted(d for d in dist if d >= 0)
            if len(reach) <= s:
                expect = {v for v in range(g.n) if dist[v] >= 0}
            else:
                radius = reach[s - 1]
                expect = {v for v in range(g.n) if 0 <= dist[v] <= radius}
            assert cluster_sets(bfs_clusters(g, s))[root] == expect

    # the pa m0=1 trees of the topology workload: bipartite, so power
    # iteration on the adjacency alone oscillates
    tree_worst = 0.0
    for seed in range(1, 61):
        g = GraphFamily("pa", 1).generate(25, seed_streams(seed)["graph"])
        w, vecs = np.linalg.eigh(g.adjacency_matrix())
        dense = np.abs(vecs[:, -1])
        tree_worst = max(tree_worst, float(np.linalg.norm(
            eigenvector_centrality(g) - dense)))
    elapsed = time.time() - t0
    ok = eig_worst <= 1e-6 and tree_worst <= 1e-6 and elapsed < 10
    assert report(2, ok,
                  f"50 graphs: eigenvector vs dense eigensolver max diff "
                  f"{eig_worst:.2e} (<= 1e-6); 60 pa m0=1 trees: "
                  f"{tree_worst:.2e} (<= 1e-6); greedy second pick matches "
                  f"exhaustive conditional optimum; BFS clusters match "
                  f"hop-distance oracle; {elapsed:.1f}s (< 10s)")


def test_criterion_3_lower_bound_grid():
    # The corrected form lhs >= alpha^2 (||a|| - ||h||)^2 is asserted. The
    # stated form alpha^2 (||a||^2 - ||h||^2) is printed beside it: its last
    # step needs <a, h> >= -||h||^2, and here cos(a, h) is about -1 (the
    # honest gradients pull straight against the attack), so it fails.
    t0 = time.time()
    rows = verify_lower_bound(default_scenario_grid(), trials=200,
                              rng=np.random.default_rng(0))
    elapsed = time.time() - t0
    lines = "; ".join(
        f"{r.scenario_id}: rt_margin={r.rt_margin:.4f} "
        f"(3se={3 * r.rt_stderr:.5f}) stated margin={r.margin:.3f} "
        f"(3se={3 * r.stderr:.4f})"
        for r in rows)
    ok = all(r.rt_passed for r in rows) and elapsed < 60
    assert report(3, ok,
                  f"lhs >= rt_rhs - 3*stderr on 9 cells in {elapsed:.1f}s "
                  f"(< 60s): {lines}")


def test_criterion_4_every_strategy_degrades(dg_aal_table):
    t0 = time.time()
    details = []
    ok = True
    for strategy in STRATEGIES:
        aals = dg_aal_table[strategy]
        result = stats.ttest_1samp(aals, 0.0, alternative="greater")
        details.append(f"{strategy}: mean={np.mean(aals):.0f} "
                       f"p={result.pvalue:.1e}")
        ok = ok and result.pvalue < 0.05 and np.mean(aals) > 0
    elapsed = time.time() - t0
    assert report(4, ok,
                  "mean AAL > 0 (one-sided t-test at 0.05) for every "
                  f"strategy on sparse geometric graphs, 20 seeds: "
                  f"{'; '.join(details)}; fixture+test {elapsed:.1f}s (< 5min)")
    assert elapsed < 300


def test_criterion_5_er_placement_insensitivity(dg_aal_table, er_aal_table):
    t0 = time.time()

    def spread_ratio(table):
        means = np.array([np.mean(table[s]) for s in STRATEGIES])
        return (means.max() - means.min()) / means.mean()

    er_ratio = spread_ratio(er_aal_table)
    dg_ratio = spread_ratio(dg_aal_table)
    elapsed = time.time() - t0
    ok = er_ratio < dg_ratio
    assert report(5, ok,
                  f"strategy spread (range/mean of mean AAL): "
                  f"ER {er_ratio:.3f} < DG {dg_ratio:.3f}; "
                  f"{elapsed:.1f}s (< 5min)")
    assert elapsed < 300


def test_criterion_6_attack_power_monotonicity(dg_graphs, dg_bases):
    t0 = time.time()
    grid = (50.0, 100.0, 250.0, 500.0, 1000.0)
    per_eps = aal_table(dg_graphs, dg_bases, "epsilon", grid)
    means = [float(np.mean(per_eps[eps])) for eps in grid]
    inversions = 0
    bounded = True
    for lo, hi in zip(grid, grid[1:]):
        diffs = np.array(per_eps[hi]) - np.array(per_eps[lo])
        mean_diff = float(diffs.mean())
        if mean_diff < 0:
            inversions += 1
            se = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
            bounded = bounded and (-mean_diff <= se)
    first_step = means[1] - means[0]
    last_step = means[-1] - means[-2]
    elapsed = time.time() - t0
    ok = inversions <= 1 and bounded and last_step < first_step
    assert report(6, ok,
                  f"mean AAL over eps grid {means} "
                  f"({inversions} inversion(s), all within 1 se); "
                  f"diminishing returns: last step {last_step:.0f} < first "
                  f"step {first_step:.0f}; {elapsed:.1f}s (< 10min)")
    assert elapsed < 600


def test_criterion_7_failure_dynamics_degrade_attack(dg_graphs):
    t0 = time.time()

    def mean_aal(p_node, p_link):
        return float(np.mean([
            aals([study_config(p_node_fail=p_node, p_link_fail=p_link,
                               seed=seed)], dg_graphs[seed])[0]
            for seed in SEEDS]))

    low = mean_aal(0.1, 0.02)
    high = mean_aal(0.3, 0.2)
    elapsed = time.time() - t0
    ok = high < low
    assert report(7, ok,
                  f"greedy-spread attack under failures: high dynamics AAL "
                  f"{high:.0f} < low dynamics AAL {low:.0f}; "
                  f"{elapsed:.1f}s (< 5min)")
    assert elapsed < 300


def test_criterion_8_complexity_probe():
    t0 = time.time()
    probe = complexity_probe([50, 100, 200, 400], n_adv_fraction=0.1,
                             repeats=5, p=0.2, seed=0)
    elapsed = time.time() - t0
    ok = probe.loglog_slope <= 3.5 and elapsed < 120
    times = ", ".join(f"n={r.n}: {r.median_seconds * 1e3:.1f}ms"
                      for r in probe.rows)
    assert report(8, ok,
                  f"greedy placement log-log slope {probe.loglog_slope:.2f} "
                  f"(<= 3.5) over {times}; {elapsed:.1f}s (< 2min)")


def test_criterion_9_determinism_and_plumbing(tmp_path):
    t0 = time.time()
    raw = {
        "name": "accept9",
        "output_dir": str(tmp_path / "a"),
        "graph": {"family": "dg", "n": 10, "param": 0.6},
        "adversary_count": 2,
        "epochs": 6,
        "t_attack": 2,
        "data": {"classes": 5, "feature_dim": 8, "samples_per_node": 10,
                 "test_samples": 100},
        "sweep": {"strategy": ["random", "maxspan"], "seed": [1, 2]},
    }
    spec = parse_config_data(raw)

    # config round-trip
    from dflsim.config import canonical_yaml
    import yaml as _yaml

    assert parse_config_data(_yaml.safe_load(canonical_yaml(spec))) == spec

    # byte-identical CSV and SVG outputs across reruns, each computing its
    # adversary-free runs afresh
    first = run_experiment(spec, output_dir=tmp_path / "a")
    second = run_experiment(spec, output_dir=tmp_path / "b")
    mismatches = []
    for path in sorted((tmp_path / "a").rglob("*.csv")):
        twin = tmp_path / "b" / path.relative_to(tmp_path / "a")
        if twin.read_bytes() != path.read_bytes():
            mismatches.append(path.name)
    from dflsim.plots import plot_csv

    plot_csv([str(first.summary_path)], "aal-bars", str(tmp_path / "p1.svg"))
    plot_csv([str(second.summary_path)], "aal-bars", str(tmp_path / "p2.svg"))
    svg_equal = ((tmp_path / "p1.svg").read_bytes()
                 == (tmp_path / "p2.svg").read_bytes())

    # summary AAL equals the metric recomputed from the written traces
    import csv as _csv

    with open(first.summary_path, newline="") as fh:
        summary = list(_csv.DictReader(fh))

    def load(run_id, variant):
        with open(tmp_path / "a" / "traces" / f"{run_id}__{variant}.csv",
                  newline="") as fh:
            rows = list(_csv.DictReader(fh))
        assert [int(r["epoch"]) for r in rows] == list(range(len(rows)))
        assert all(int(r["n_honest_alive"]) > 0 for r in rows)
        return [float(r["avg_honest_test_acc"]) for r in rows]

    metric_ok = True
    for row in summary:
        run_id = (f"{row['strategy']}_dg0.6_n10_adv2_eps250_t2_k5_fnone"
                  f"_s{row['seed']}")
        expect = compute_aal(load(run_id, "baseline"),
                             load(run_id, "attacked"), 2)
        metric_ok = metric_ok and float(row["aal"]) == expect

    elapsed = time.time() - t0
    ok = (not mismatches) and svg_equal and metric_ok and elapsed < 60
    assert report(9, ok,
                  f"re-run byte-identical ({4 + 1 + 1} CSVs checked, "
                  f"mismatches: {mismatches or 'none'}), SVG byte-identical: "
                  f"{svg_equal}, summary AAL matches recomputation: "
                  f"{metric_ok}, config round-trip OK; {elapsed:.1f}s (< 1min)")
