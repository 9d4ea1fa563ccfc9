"""Property tests of the batched engine against the per-node oracles.

Random small configs cover the paths the sweeps rarely take:
`literal_out` tracker mixing, several local iterations, node and link
failures with ragged non-IID shards, and runs without adversaries.
"""
import copy

import numpy as np
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from dflsim.graphs import GenerationError
from dflsim.learning import batch_accuracy
from dflsim.simulation import (
    Run,
    Simulation,
    SimulationConfig,
    SimulationError,
    _mix,
    _slot_table,
)
from oracles import (advance_recomputing, in_neighbors, oracle_epoch,
                     out_neighbors)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

SMALL = dict(graph_family="dg", graph_param=0.7, n=7, epochs=5, t_attack=2,
             classes=3, feature_dim=3, samples_per_node=4, test_samples=30,
             n_advs=2, epsilon=300.0, seed=11)
# the paths no preset takes, each pinned once besides the random draws
PINNED = (
    SimulationConfig(**SMALL, classes_per_node=2, p_node_fail=0.3,
                     p_link_fail=0.2, tracker_mixing="literal_out",
                     local_iters=3),
    SimulationConfig(**{**SMALL, "n_advs": 0, "t_attack": 0},
                     classes_per_node=1, p_node_fail=0.3, local_iters=2),
)


@st.composite
def small_configs(draw):
    n = draw(st.integers(4, 8))
    classes = draw(st.integers(2, 4))
    epochs = draw(st.integers(1, 6))
    family = draw(st.sampled_from(("dg", "er")))
    kwargs = dict(
        graph_family=family,
        graph_param=draw(st.sampled_from((0.6, 0.8) if family == "dg"
                                         else (0.5, 0.7))),
        n=n, n_advs=draw(st.integers(0, min(2, n - 2))),
        strategy=draw(st.sampled_from(("random", "degree", "maxspan"))),
        epochs=epochs, t_attack=draw(st.integers(0, epochs)),
        epsilon=draw(st.sampled_from((0.0, 50.0, 500.0))),
        local_iters=draw(st.integers(1, 3)),
        classes=classes, feature_dim=draw(st.integers(2, 4)),
        samples_per_node=draw(st.integers(2, 6)),
        classes_per_node=draw(st.integers(1, classes)),
        test_samples=30,
        p_node_fail=draw(st.sampled_from((0.0, 0.0, 0.2, 0.4))),
        p_link_fail=draw(st.sampled_from((0.0, 0.2))),
        tracker_mixing=draw(st.sampled_from(("in_self", "literal_out"))),
        seed=draw(st.integers(0, 10_000)))
    try:
        return SimulationConfig(**kwargs)
    except ValueError:  # too few samples for every node to get one
        reject()


def build(cfg):
    try:
        return Simulation(cfg)
    except GenerationError:
        reject()


def traces(sim):
    """The one placement's traces, or the exception that failed it."""
    (result,) = sim.run()
    if isinstance(result, Exception):
        raise result
    return result


@PROPERTY
@given(small_configs())
@example(PINNED[0])
@example(PINNED[1])
def test_every_epoch_matches_per_node_oracle(cfg):
    # the adversary-free run from epoch 0, then the attacked and the
    # adversary-free run from the memoised state after the failure event
    sim = build(cfg)
    base, shards = sim.base, sim.base.shards
    if base.error is not None:  # every node failed
        reject()
    runs = [(Run.start(cfg, sim.graph, shards), None)]
    for epoch in range(1, cfg.epochs + 1):
        if epoch == cfg.t_attack + 1:
            prefix = runs[0][0].X[base.alive]
            assert prefix.tobytes() == base.start.X.tobytes()
            shards = [shards[v] for v in np.flatnonzero(base.alive)]
            adv = ~sim.counted[0][base.alive] if cfg.n_advs else None
            attacked = (base.start.attacked(adv, cfg.effective_epsilon)
                        if cfg.n_advs else copy.copy(base.start))
            runs = [(attacked, adv), (copy.copy(base.start), None)]
        for run, adv in runs:
            expect = oracle_epoch(run, shards, cfg, adv)
            run.advance()
            for got, want in zip((run.X, run.Y, run.G), expect):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # the stepped runs end where the simulation's own runs ended
    assert runs[-1][0].X.tobytes() == base.end.X.tobytes()
    try:
        traces(sim)
    except SimulationError:  # every counted node failed: no attacked trace
        return
    assert runs[0][0].X.tobytes() == sim.final[0].X.tobytes()


@PROPERTY
@given(small_configs())
@example(PINNED[0])
def test_carried_poisoned_gradient_gives_the_recomputed_bits(cfg):
    # the attacked run reads its adversaries' poisoned gradient from G;
    # recomputing it from their models every epoch gives the same bytes
    assume(cfg.n_advs > 0 and cfg.t_attack < cfg.epochs)
    sim = build(cfg)
    try:
        attacked, _ = traces(sim)
    except SimulationError:  # every node, or every counted node, failed
        reject()
    base = sim.base
    adv = ~sim.counted[0][base.alive]
    run, trace = copy.copy(base.start), []
    for epoch in range(cfg.t_attack + 1, cfg.epochs + 1):
        advance_recomputing(run, epoch, adv, cfg.effective_epsilon)
        accs = batch_accuracy(run.X[~adv], base.test_set)
        trace.append(float(np.mean(accs)).hex())
    assert [m.accuracy.hex() for m in attacked[cfg.t_attack + 1:]] == trace
    for a in ("X", "Y", "G"):
        assert getattr(sim.final[0], a).tobytes() == \
            getattr(run, a).tobytes(), a


def mixing_matrix(table, n):
    return _mix(np.eye(n)[None], table)[0]


@PROPERTY
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=n,
             max_size=n),
    st.integers(0, 2 ** 32 - 1))))
def test_mix_has_the_bits_of_each_set_mean(case):
    # ragged sets, so padding slots are summed; signed zeros and
    # magnitudes far apart, so another summation order shows
    n, sets, seed = case
    sets = [tuple(sorted(s)) for s in sets]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((2, n, 5)) * 10.0 ** rng.integers(-20, 20,
                                                            (2, n, 5))
    v[rng.random((2, n, 5)) < 0.2] = -0.0
    want = np.array([[v[r][list(s)].mean(axis=0) for s in sets]
                     for r in range(2)])
    offsets = np.cumsum([0] + [len(s) for s in sets])
    nodes = np.array([u for s in sets for u in s])
    table = _slot_table(offsets, nodes, np.zeros(n, dtype=bool))
    assert _mix(v, table).tobytes() == want.tobytes()


@PROPERTY
@given(small_configs())
@example(PINNED[0])
def test_mixing_rows_are_stochastic_before_and_after_failures(cfg):
    sim = build(cfg)
    base = sim.base
    if base.error is not None:  # every node failed
        reject()
    for stage, run in (("initial", Run.start(cfg, sim.graph, base.shards)),
                       ("after failures", base.start or base.end)):
        g = run.graph
        w_x = mixing_matrix(run._x_table, g.n)
        w_y = mixing_matrix(run._y_table, g.n)
        out, inn = out_neighbors(g), in_neighbors(g)
        for i in range(g.n):
            x_set = set(inn[i]) | {i}
            y_set = (x_set if cfg.tracker_mixing == "in_self"
                     else set(out[i]) or {i})
            assert set(np.flatnonzero(w_x[i])) == x_set, stage
            assert set(np.flatnonzero(w_y[i])) == y_set, stage
        np.testing.assert_allclose(w_x.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_y.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def hex_trace(trace):
    return [(m.epoch, m.accuracy.hex(), m.n_honest_alive) for m in trace]


@PROPERTY
@given(small_configs())
@example(PINNED[0])
@example(PINNED[1])
def test_twins_agree_through_t_attack_and_reruns_repeat(cfg):
    # two computations, each with its own adversary-free run
    try:
        attacked, baseline = traces(build(cfg))
        again = traces(build(cfg))
    except SimulationError:  # every node, or every counted node, failed
        reject()
    t = cfg.t_attack
    assert hex_trace(attacked[:t + 1]) == hex_trace(baseline[:t + 1])
    if cfg.n_advs == 0:
        assert hex_trace(attacked) == hex_trace(baseline)
    assert (hex_trace(attacked), hex_trace(baseline)) == \
        tuple(hex_trace(tr) for tr in again)
