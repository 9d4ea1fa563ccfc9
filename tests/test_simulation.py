from dataclasses import replace

import numpy as np
import pytest

from dflsim.graphs import gen_directed_geometric, graph_from_edges
from dflsim.learning import Dataset, Model, loss_and_grad
from dflsim.placement import HoppingParams
from dflsim.simulation import (
    Run,
    Simulation,
    SimulationConfig,
    SimulationError,
    build_graph,
    run_adversary_free,
    run_simulation,
    seed_streams,
)
from oracles import adversary_step, complete_graph, fgsm_poison, honest_step

TINY = dict(graph_family="dg", graph_param=0.6, n=10, epochs=12, t_attack=4,
            classes=5, feature_dim=8, samples_per_node=10, classes_per_node=5,
            test_samples=100)


def quad_grad(center):
    return lambda x: x - center


def run_tracking(graph, centers, alpha, epochs, tracker_mixing="in_self"):
    """Reference honest-only loop over the per-node update rule."""
    n, p = len(centers), centers.shape[1]
    x = np.zeros((n, p))
    grads = np.stack([quad_grad(centers[i])(x[i]) for i in range(n)])
    y = grads.copy()
    for _ in range(epochs):
        x_new = np.empty_like(x)
        y_new = np.empty_like(y)
        g_new = np.empty_like(grads)
        for i in range(n):
            x_new[i], y_new[i] = honest_step(
                i, graph, x, y, alpha, quad_grad(centers[i]), grads[i],
                tracker_mixing)
            g_new[i] = quad_grad(centers[i])(x_new[i])
        x, y, grads = x_new, y_new, g_new
    return x, y


class TestHonestStep:
    def test_isolated_node_is_gradient_descent(self):
        g = graph_from_edges(1, [])
        center = np.array([2.0, -1.0])
        x = np.zeros((1, 2))
        y = np.array([quad_grad(center)(x[0])])
        grads = y.copy()
        trajectory = [x[0].copy()]
        for _ in range(30):
            xn, yn = honest_step(0, g, x, y, 0.2, quad_grad(center), grads[0])
            x, y = np.array([xn]), np.array([yn])
            grads = np.array([quad_grad(center)(xn)])
            # tracker equals the current local gradient at every step
            assert np.allclose(yn, grads[0], atol=1e-12)
            trajectory.append(xn.copy())
        # plain gradient descent on the quadratic: x -> x - 0.2 (x - c)
        z = np.zeros(2)
        for _ in range(30):
            z = z - 0.2 * (z - center)
        assert np.allclose(trajectory[-1], z, atol=1e-12)

    def test_two_nodes_identical_stay_symmetric(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        centers = np.array([[1.0, 2.0], [1.0, 2.0]])
        x, _ = run_tracking(g, centers, 0.1, 40)
        assert np.allclose(x[0], x[1], atol=1e-12)

    def test_complete_graph_reaches_global_optimum(self):
        g = complete_graph(4)
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((4, 3))
        x, _ = run_tracking(g, centers, 0.2, 400)
        optimum = centers.mean(axis=0)
        consensus = np.max(np.linalg.norm(x - x.mean(axis=0), axis=1))
        assert consensus < 1e-6
        assert np.linalg.norm(x.mean(axis=0) - optimum) < 1e-6

    def test_honest_only_convergence_invariant(self):
        # smooth convex quadratics on a strongly connected symmetric digraph
        g = gen_directed_geometric(10, 0.6, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        centers = np.tile(rng.standard_normal(4), (10, 1))
        x, _ = run_tracking(g, centers, 0.1, 600)
        mean = x.mean(axis=0)
        consensus = np.max(np.linalg.norm(x - mean, axis=1))
        global_grad = np.linalg.norm(sum(quad_grad(centers[i])(mean)
                                         for i in range(10)))
        assert consensus < 1e-4
        assert global_grad < 1e-4

    def test_literal_out_tracker_mode(self):
        g = complete_graph(4)
        centers = np.tile(np.array([1.0, -1.0]), (4, 1))
        x, _ = run_tracking(g, centers, 0.2, 300, tracker_mixing="literal_out")
        assert np.linalg.norm(x.mean(axis=0) - centers[0]) < 1e-6


class TestAdversaryStep:
    def test_zero_epsilon_is_isolated_descent(self):
        rng = np.random.default_rng(2)
        shard = Dataset(features=rng.standard_normal((8, 4)),
                        labels=rng.integers(0, 3, 8))
        x = 0.1 * rng.standard_normal(3 * 4 + 3)
        new_x, _ = adversary_step(x, shard, 3, 4, 0.05, 0.0)
        _, grad = loss_and_grad(Model.from_flat(x, 3, 4), shard)
        assert np.allclose(new_x, x - 0.05 * grad, atol=1e-12)

    def test_step_size_matches_poisoned_gradient(self):
        rng = np.random.default_rng(6)
        shard = Dataset(features=rng.standard_normal((8, 4)),
                        labels=rng.integers(0, 3, 8))
        x = 0.1 * rng.standard_normal(15)
        eps = 0.5
        new_x, _ = adversary_step(x, shard, 3, 4, 0.05, eps)
        model = Model.from_flat(x, 3, 4)
        _, grad = loss_and_grad(model, fgsm_poison(shard, model, eps))
        assert np.linalg.norm(new_x - x) == pytest.approx(
            0.05 * np.linalg.norm(grad), rel=1e-12)

    def test_broadcast_tracker_is_poisoned_gradient(self):
        rng = np.random.default_rng(9)
        shard = Dataset(features=rng.standard_normal((8, 4)),
                        labels=rng.integers(0, 3, 8))
        x = 0.1 * rng.standard_normal(15)
        new_x, tracker = adversary_step(x, shard, 3, 4, 0.05, 0.3)
        model = Model.from_flat(new_x, 3, 4)
        _, expect = loss_and_grad(model, fgsm_poison(shard, model, 0.3))
        assert np.allclose(tracker, expect, atol=1e-12)


class TestRunSimulation:
    def test_no_adversaries_identity(self):
        cfg = SimulationConfig(n_advs=0, seed=2, **TINY)
        attacked, baseline, honest = run_simulation(cfg)
        assert attacked.tobytes() == baseline.tobytes()
        assert honest.tolist() == [cfg.n] * (cfg.epochs + 1)

    def test_attack_never_fires_identity(self):
        cfg = SimulationConfig(n_advs=2, epsilon=500, seed=2,
                               **{**TINY, "t_attack": TINY["epochs"]})
        attacked, baseline, _ = run_simulation(cfg)
        assert attacked.tobytes() == baseline.tobytes()

    def test_bitwise_determinism(self):
        cfg = SimulationConfig(n_advs=2, epsilon=500, seed=3, **TINY)
        first, again = run_simulation(cfg), run_simulation(cfg)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]

    def test_prefix_identity_until_attack(self):
        cfg = SimulationConfig(n_advs=2, epsilon=1000, seed=3, **TINY)
        attacked, baseline, _ = run_simulation(cfg)
        t = cfg.t_attack
        assert attacked[:t + 1].tobytes() == baseline[:t + 1].tobytes()
        assert (attacked[t + 1:] != baseline[t + 1:]).any()

    def test_trace_shape(self):
        cfg = SimulationConfig(n_advs=2, seed=1, **TINY)
        traces = run_simulation(cfg)
        assert [(a.shape, a.dtype.kind) for a in traces] == \
            [((cfg.epochs + 1,), "f")] * 2 + [((cfg.epochs + 1,), "i")]
        assert traces[2].tolist() == [cfg.n - cfg.n_advs] * (cfg.epochs + 1)

    def test_strong_attack_degrades_accuracy(self):
        cfg = SimulationConfig(graph_family="dg", graph_param=0.6, n=10,
                               n_advs=2, strategy="maxspan", epochs=40,
                               t_attack=10, epsilon=1000, classes=5,
                               feature_dim=8, samples_per_node=10,
                               classes_per_node=5, test_samples=100, seed=1)
        attacked, baseline, _ = run_simulation(cfg)
        assert attacked[-1] < baseline[-1]

    def test_degradation_direction_over_seeds(self):
        # large attack power lowers the final accuracy on average
        diffs = []
        for seed in range(1, 21):
            cfg = SimulationConfig(graph_family="dg", graph_param=0.6, n=10,
                                   n_advs=2, strategy="random", epochs=30,
                                   t_attack=5, epsilon=1000, classes=5,
                                   feature_dim=8, samples_per_node=10,
                                   classes_per_node=5, test_samples=100,
                                   seed=seed)
            attacked, baseline, _ = run_simulation(cfg)
            diffs.append(baseline[-1] - attacked[-1])
        from scipy import stats

        assert stats.ttest_1samp(diffs, 0.0,
                                 alternative="greater").pvalue < 0.05

    def test_epoch_update_is_pure_function_of_snapshot(self):
        # recompute engine epochs by hand, iterating nodes in reverse order:
        # results must match (snapshot semantics). The adversary-free run
        # through t_attack, then the attacked run from the memoised start.
        cfg = SimulationConfig(n_advs=2, epsilon=400, seed=5, **TINY)
        sim = Simulation(cfg)
        run = Run.start(cfg, sim.graph, sim.base.shards)
        adv = None
        for epoch in range(1, cfg.t_attack + 3):
            if epoch == cfg.t_attack + 1:
                assert run.X.tobytes() == sim.base.start.X.tobytes()
                adv = ~sim.counted[0]
                run = sim.base.start.attacked(adv, cfg.effective_epsilon)
            x_prev, y_prev, g_prev = run.X, run.Y, run.G
            assert run.advance()
            for i in reversed(range(cfg.n)):
                if adv is not None and adv[i]:
                    xi, yi = adversary_step(
                        x_prev[i], sim.base.shards[i], cfg.classes,
                        cfg.feature_dim, cfg.alpha, cfg.effective_epsilon)
                else:
                    grad_fn = lambda x, i=i: loss_and_grad(
                        Model.from_flat(x, cfg.classes, cfg.feature_dim),
                        sim.base.shards[i])[1]
                    xi, yi = honest_step(i, sim.graph, x_prev, y_prev,
                                         cfg.alpha, grad_fn, g_prev[i])
                assert np.allclose(run.X[i], xi, atol=1e-12)
                assert np.allclose(run.Y[i], yi, atol=1e-12)

    def test_failures_reduce_population(self):
        cfg = SimulationConfig(n_advs=2, epsilon=400, seed=4,
                               p_node_fail=0.3, p_link_fail=0.1, **TINY)
        sim = Simulation(cfg)
        (_, _, honest), = sim.run()
        assert honest[-1] < honest[0]
        # both variants count the placement's honest survivors
        survivors = int((sim.counted[0] & sim.base.alive).sum())
        t = cfg.t_attack
        assert honest.tolist() == [cfg.n - cfg.n_advs] * (t + 1) + \
            [survivors] * (cfg.epochs - t)

    def test_total_failure_is_simulation_error(self):
        cfg = SimulationConfig(n_advs=2, p_node_fail=1.0, seed=1, **TINY)
        with pytest.raises(SimulationError):
            run_simulation(cfg)

    def test_local_iters_runs_deterministically(self):
        cfg = SimulationConfig(n_advs=2, local_iters=3, epsilon=400, seed=6,
                               **TINY)
        a1, _, _ = run_simulation(cfg)
        a2, _, _ = run_simulation(cfg)
        assert a1.tobytes() == a2.tobytes()

    def test_shared_graph_parameter(self):
        cfg = SimulationConfig(n_advs=2, seed=7, **TINY)
        g = build_graph(cfg, seed_streams(cfg.seed)["graph"])
        a1, _, _ = run_simulation(cfg, graph=g)
        a2, _, _ = run_simulation(cfg)
        assert a1.tobytes() == a2.tobytes()

    def test_replica_roles_and_counted_masks(self):
        # the adversary-free run holds every node's accuracy and the state
        # the attacked run starts from; both traces leave the placed nodes
        # out of the accuracy average
        cfg = SimulationConfig(n_advs=2, seed=8, **TINY)
        sim = Simulation(cfg)
        base = sim.base
        p = cfg.classes * (cfg.feature_dim + 1)
        assert sim.final is None
        assert sorted(np.flatnonzero(~sim.counted[0])) == \
            sorted(sim.adversaries[0].members)
        assert base.acc.shape == (cfg.epochs + 1, cfg.n) and base.alive.all()
        assert base.start.X.shape == base.start.Y.shape == (cfg.n, p)
        assert base.start.batch.counts.sum() == \
            sum(s.n_samples for s in base.shards)
        (attacked, baseline, _), = sim.run()
        assert baseline.tolist() == \
            [float(np.mean(row[sim.counted[0]])) for row in base.acc]
        t = cfg.t_attack
        assert attacked[:t + 1].tobytes() == baseline[:t + 1].tobytes()
        assert sim.final[0].X.shape == (cfg.n, p)
        # without adversaries the attacked run is the adversary-free run,
        # and both placements share it
        plain = Simulation(SimulationConfig(n_advs=0, seed=8, **TINY),
                           sim.graph, base)
        (a, b, _), = plain.run()
        assert plain.base is base and a.tobytes() == b.tobytes()
        assert plain.counted.all()
        assert plain.final == [base.end]

    def test_non_finite_state_is_simulation_error(self):
        cfg = SimulationConfig(n_advs=2, epsilon=1e200, seed=2, **TINY)
        with np.errstate(all="ignore"):
            with pytest.raises(SimulationError, match="non-finite"):
                run_simulation(cfg)


STRATEGIES = ("random", "eigen", "degree", "maxspan", "maxspan-hop")


def outputs(sim):
    """Both traces, exactly, and the attacked run's final state."""
    (traces,) = sim.run()
    final, = sim.final
    return ([a.tobytes() for a in traces],
            final.X.tobytes(), final.Y.tobytes(), final.G.tobytes())


@pytest.mark.parametrize("master", [0, 1, 18, 2 ** 40 + 3])
def test_seed_streams_are_the_spawned_children(master):
    # each named stream, whatever order it is first read in, draws what
    # its child of SeedSequence(master).spawn(5) draws; a stream read
    # twice is one stream
    names = ("graph", "data", "placement", "failures", "test")
    children = np.random.SeedSequence(master).spawn(5)
    streams = seed_streams(master)
    for name in reversed(names):
        child = children[names.index(name)]
        assert streams[name].integers(0, 2 ** 62, size=4).tolist() == \
            np.random.default_rng(child).integers(0, 2 ** 62, size=4).tolist()
    assert streams["data"] is streams["data"]


class TestAdversaryFreeMemo:
    """One adversary-free run shared by every placement of a network."""

    @pytest.mark.parametrize("extra", [
        {},
        dict(p_node_fail=0.3, p_link_fail=0.2, classes_per_node=2),
        dict(n_advs=0, p_node_fail=0.3, p_link_fail=0.2),
    ], ids=["iid", "failures-non-iid", "no-adversaries"])
    def test_warm_memo_matches_cold(self, extra):
        # placements given one shared baseline match placements that each
        # compute their own
        configs = [SimulationConfig(**{**TINY, "n_advs": 2, "epsilon": 500,
                                       "seed": 4, **extra, "strategy": s})
                   for s in STRATEGIES]
        cold = [outputs(Simulation(cfg)) for cfg in configs]
        first = Simulation(configs[0])
        warm = [outputs(first)]
        for cfg in configs[1:]:
            sim = Simulation(cfg, first.graph, first.base)
            assert sim.base is first.base
            warm.append(outputs(sim))
        assert warm == cold

    def test_memoised_arrays_are_read_only(self):
        base = Simulation(SimulationConfig(n_advs=2, p_node_fail=0.3,
                                           seed=4, **TINY)).base
        arrays = [base.acc, base.alive, base.test_set.features]
        for run in (base.start, base.end):
            arrays += [run.X, run.Y, run.G, run.batch.features]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_baseline_ignores_the_attack_fields(self):
        cfg = SimulationConfig(n_advs=0, p_node_fail=0.3, seed=4, **TINY)
        graph = build_graph(cfg, seed_streams(cfg.seed)["graph"])

        def bits(base):
            return (base.acc.tobytes(), base.alive.tobytes(),
                    base.end.X.tobytes(), base.start.Y.tobytes())

        expect = bits(run_adversary_free(cfg, graph))
        for attack in (dict(strategy="maxspan-hop", n_advs=3),
                       dict(epsilon=1000.0, epsilon_scale=0.01),
                       dict(hopping=HoppingParams(decay=0.5))):
            assert bits(run_adversary_free(replace(cfg, **attack),
                                           graph)) == expect
        other = build_graph(cfg, seed_streams(cfg.seed + 1)["graph"])
        assert bits(run_adversary_free(cfg, other)) != expect

    def test_raising_run_fails_every_placement(self):
        cfg = SimulationConfig(n_advs=2, p_node_fail=1.0, seed=1, **TINY)
        first = Simulation(cfg)
        assert isinstance(first.base.error, SimulationError)
        sim = Simulation([replace(cfg, strategy=s) for s in STRATEGIES],
                         first.graph, first.base)
        results = sim.run()
        assert len(results) == len(STRATEGIES) and sim.final == [None] * 5
        for result in results:
            assert isinstance(result, SimulationError)
            assert "removed every node" in str(result)
        with pytest.raises(SimulationError, match="removed every node"):
            run_simulation(cfg, first.graph)

    def test_graph_of_another_size_is_refused(self):
        cfg = SimulationConfig(n_advs=2, seed=4, **TINY)
        graph = build_graph(replace(cfg, n=cfg.n + 1),
                            seed_streams(cfg.seed)["graph"])
        for compute in (run_adversary_free, Simulation):
            with pytest.raises(SimulationError, match="size disagrees"):
                compute(cfg, graph)


class TestConfigValidation:
    def test_t_attack_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(**{**TINY, "t_attack": 99})

    def test_adversary_count_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_advs=10, **TINY)

    def test_classes_per_node_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(**{**TINY, "classes_per_node": 6})

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SimulationConfig(**{**TINY, "graph_family": "ring"})

    def test_every_violation_in_one_error(self):
        bad = dict(graph_family="ring", n_advs=10, t_attack=99, classes=1,
                   classes_per_node=6, feature_dim=0, samples_per_node=0,
                   test_samples=0, alpha=float("nan"), epsilon=-1.0,
                   epsilon_scale=-1.0, local_iters=0, tracker_mixing="x",
                   seed=-1)
        with pytest.raises(ValueError) as err:
            SimulationConfig(**{**TINY, **bad})
        lines = str(err.value).splitlines()
        assert sorted(line.partition(": ")[0] for line in lines) == \
            sorted(bad)
