"""A network's placements advanced as one (K, n, p) stack.

Each placement of a stack gets the bits of its own K = 1 run, a placement
that raises or turns non-finite fails alone with the text it fails with
by itself, and a sweep's files keep the digests they had before
placements were stacked.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from dflsim import simulation
from dflsim.config import parse_config_data
from dflsim.graphs import GenerationError
from dflsim.metrics import compute_aal
from dflsim.simulation import Simulation, SimulationConfig
from dflsim.sweep import run_experiment
from oracles import entry_traces, oracle_epoch

STRATEGIES = ("random", "eigen", "degree", "maxspan", "maxspan-hop")
PARAMS = {"er": (0.5, 0.7), "dg": (0.6, 0.8), "pa": (1, 2)}

KEY = dict(graph_family="dg", graph_param=0.7, n=7, epochs=5, t_attack=2,
           classes=3, classes_per_node=3, feature_dim=3, samples_per_node=4,
           test_samples=30, seed=11)
# (strategy, n_advs, epsilon) of each placement
MIXED = (("maxspan", 1, 250.0), ("maxspan", 3, 250.0), ("random", 2, 1000.0),
         ("degree", 0, 50.0), ("maxspan-hop", 2, 1e200))


def key_of(placements, **fields):
    return [SimulationConfig(**{**KEY, **fields}, strategy=strategy,
                             n_advs=n_advs, epsilon=epsilon)
            for strategy, n_advs, epsilon in placements]


# the cases every draw may miss, each pinned once
PINNED = (
    key_of(MIXED),
    key_of(MIXED[:3], local_iters=2, tracker_mixing="literal_out"),
    key_of(MIXED, classes_per_node=2, p_node_fail=0.3, p_link_fail=0.2),
    key_of(MIXED[1:], graph_family="pa", graph_param=1, p_node_fail=0.2),
    key_of(MIXED[:4], graph_family="er", graph_param=0.5, local_iters=2,
           classes_per_node=1),
)


@st.composite
def keys(draw):
    n = draw(st.integers(4, 8))
    classes = draw(st.integers(2, 4))
    epochs = draw(st.integers(1, 6))
    family = draw(st.sampled_from(tuple(PARAMS)))
    fields = dict(
        graph_family=family, graph_param=draw(st.sampled_from(PARAMS[family])),
        n=n, epochs=epochs, t_attack=draw(st.integers(0, epochs)),
        local_iters=draw(st.integers(1, 3)),
        classes=classes, feature_dim=draw(st.integers(2, 4)),
        samples_per_node=draw(st.integers(2, 6)),
        classes_per_node=draw(st.integers(1, classes)), test_samples=30,
        p_node_fail=draw(st.sampled_from((0.0, 0.0, 0.2, 0.4))),
        p_link_fail=draw(st.sampled_from((0.0, 0.2))),
        tracker_mixing=draw(st.sampled_from(("in_self", "literal_out"))),
        seed=draw(st.integers(0, 10_000)))
    placements = draw(st.lists(st.tuples(
        st.sampled_from(STRATEGIES), st.integers(0, n - 2),
        st.sampled_from((0.0, 50.0, 500.0, 1e200))), min_size=1, max_size=4))
    try:
        return [SimulationConfig(**fields, strategy=strategy, n_advs=n_advs,
                                 epsilon=epsilon)
                for strategy, n_advs, epsilon in placements]
    except ValueError:  # too few samples for every node to get one
        reject()


def simulate(cfgs):
    try:
        sim = Simulation(cfgs)
    except GenerationError:
        reject()
    return sim, sim.run()


def outcome(cfg, result, final):
    """A placement's traces, AAL and final models as bytes, or its error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    attacked, baseline, honest = result
    trace = [a.tobytes() for a in result]
    return (trace, compute_aal(baseline, attacked, cfg.t_attack).hex(),
            final.X.tobytes())


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(keys())
@example(PINNED[0])
@example(PINNED[1])
@example(PINNED[2])
@example(PINNED[3])
@example(PINNED[4])
def test_each_placement_of_a_stack_has_the_bits_of_its_solo_run(cfgs):
    sim, results = simulate(cfgs)
    for cfg, result, final in zip(cfgs, results, sim.final):
        solo, (alone,) = simulate(cfg)
        assert outcome(cfg, result, final) == \
            outcome(cfg, alone, solo.final[0])


# n = 25 at 200 test samples, as in the sweeps: more than 8 counted nodes,
# where a sum in another order than np.mean's shows in the last bits
WIDE = key_of(MIXED, n=25, graph_param=0.4, classes=5, classes_per_node=5,
              samples_per_node=10, test_samples=200, epochs=8, t_attack=3,
              p_node_fail=0.2)


def hex_traces(result):
    """A placement's traces, entry by entry, as hex and int, or the (type,
    text) of the error that failed it."""
    if isinstance(result, Exception):
        return type(result), str(result)
    if len(result) == 2:  # already (type, text)
        return result
    attacked, baseline, honest = result
    assert len(attacked) == len(baseline) == len(honest)
    return ([float(a).hex() for a in attacked],
            [float(b).hex() for b in baseline], [int(h) for h in honest])


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(keys())
@example(PINNED[2])
@example(PINNED[3])
@example(WIDE)
def test_trace_entries_have_the_bits_of_np_mean(cfgs):
    # every entry of both traces against np.mean over a 1-D gather of the
    # counted nodes' accuracies, epoch by epoch; failures with their text
    sim, results = simulate(cfgs)
    for result in results:
        if not isinstance(result, Exception):
            assert all(a.dtype == np.float64 for a in result[:2])
    assert [hex_traces(r) for r in results] == \
        [hex_traces(r) for r in entry_traces(sim)]


@pytest.mark.parametrize("cfgs", PINNED[:4], ids=[
    "mixed", "literal-out", "failures-non-iid", "pa-failures"])
def test_stacked_epochs_match_the_per_node_oracle(cfgs):
    # the stack stepped by hand from the failure event on; each placement's
    # rows against the per-node reference for its own adversaries
    sim, results = simulate(cfgs)
    base, t = sim.base, cfgs[0].t_attack
    stack = [k for k, a in enumerate(sim.adversaries) if a is not None]
    adv = ~sim.counted[stack][:, base.alive]
    shards = [base.shards[v] for v in np.flatnonzero(base.alive)]
    run = base.start.attacked(adv, [cfgs[k].effective_epsilon for k in stack])
    with np.errstate(all="ignore"):
        for _ in range(t + 1, cfgs[0].epochs + 1):
            expect = [oracle_epoch(run.take(row), shards, cfgs[k], adv[row])
                      for row, k in enumerate(stack)]
            finite = run.advance()
            for row, want in enumerate(expect):
                if finite[row]:
                    for got, w in zip((run.X, run.Y, run.G), want):
                        np.testing.assert_allclose(got[row], w, rtol=1e-12,
                                                   atol=1e-12)
    for row, k in enumerate(stack):
        if not isinstance(results[k], Exception):
            assert run.X[row].tobytes() == sim.final[k].X.tobytes()


TINY = {"name": "tiny", "graph": {"family": "dg", "n": 10, "param": 0.6},
        "adversary_count": 2, "epochs": 8, "t_attack": 3,
        "data": {"classes": 5, "feature_dim": 8, "samples_per_node": 10,
                 "test_samples": 100}}


def sweep(out, **axes):
    """A one-seed sweep of TINY over the given axes; its files by name."""
    spec = parse_config_data({**TINY, "sweep": {"seed": [1], **axes}})
    run_experiment(spec, output_dir=str(out))
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def traces_of(files, *strategies, eps="250"):
    return {name: data for name, data in files.items()
            if name.startswith("traces/")
            and name.split("/")[1].split("_")[0] in strategies
            and f"_eps{eps}_" in name}


def test_non_finite_placement_fails_alone(tmp_path):
    both = sweep(tmp_path / "both", strategy=["random", "maxspan"],
                 epsilon=[250, 1e200])
    sound = sweep(tmp_path / "sound", strategy=["random", "maxspan"],
                  epsilon=[250])
    failures = both["failures.csv"].decode().splitlines()
    assert [line.split(",")[0].split("_")[0] for line in failures[1:]] == \
        ["random", "maxspan"]
    for strategy, line in zip(("random", "maxspan"), failures[1:]):
        alone = sweep(tmp_path / strategy, strategy=[strategy],
                      epsilon=[1e200])
        assert alone["failures.csv"].decode().splitlines()[1] == line
        assert "non-finite model state at epoch" in line
    expect = traces_of(sound, "random", "maxspan")
    assert len(expect) == 4 and traces_of(both, "random", "maxspan") == expect
    assert "failures.csv" not in sound


def test_raising_placement_fails_alone(tmp_path, monkeypatch):
    place = simulation.place

    def failing(graph, strategy, *args, **kwargs):
        if strategy == "degree":
            raise RuntimeError(f"no {strategy} placement")
        return place(graph, strategy, *args, **kwargs)

    monkeypatch.setattr(simulation, "place", failing)
    files = sweep(tmp_path / "all", strategy=["random", "degree", "maxspan"])
    without = sweep(tmp_path / "without", strategy=["random", "maxspan"])
    alone = sweep(tmp_path / "alone", strategy=["degree"])
    failures = files["failures.csv"].decode().splitlines()
    assert len(failures) == 2 and failures[1].startswith("degree_")
    assert failures[1].endswith(",RuntimeError: no degree placement")
    assert alone["failures.csv"].decode().splitlines() == failures
    expect = traces_of(without, "random", "maxspan")
    assert len(expect) == 4 and traces_of(files, "random", "maxspan") == expect


def test_mixed_key_refused():
    cfgs = PINNED[0][:2]
    with pytest.raises(ValueError, match="more than one network"):
        Simulation([cfgs[0], replace(cfgs[1], seed=cfgs[1].seed + 1)])


# sha256 of every file of a sweep with failures, mixed adversary_fraction
# and mixed epsilon, as written before placements were stacked
GOLDEN = {
    "name": "golden", "graph": {"family": "dg", "n": 10, "param": 0.6},
    "epochs": 8, "t_attack": 3, "failures": "high",
    "data": {"classes": 5, "feature_dim": 8, "samples_per_node": 10,
             "test_samples": 100},
    "sweep": {"strategy": ["random", "maxspan-hop"],
              "adversary_fraction": [0.1, 0.3], "epsilon": [250, 1000],
              "seed": [1, 2]},
}
GOLDEN_DIGESTS = {
    "graphs/dg0.6_n10_s1.txt": "fa570fc9778e8643dc9936ed8efa1a4226fdd9a471531cb6c8fc1aa9a6c463dd",
    "graphs/dg0.6_n10_s2.txt": "831e21f775c20d7e231ed690b789b3f4a97a157708758de51203983e9cd53a17",
    "summary.csv": "2938596a29787ee33292603e89614ab910d0dd91e9139546dd634e9f82e13e50",
    "summary_agg.csv": "e0844cc197443230d9b1bc0dcb377eeddc380ecc8173d843d8e72a8b80d38372",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s1__attacked.csv": "2b3d19b74fbd40bd77a62ee45d0ce46039a7e9c689ba2cfaf268c83c6b08e27a",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s1__baseline.csv": "662601e183aaef2d5ea74c3717f5f68f808de8c40efd754fbaf66f77a37e7b88",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s2__attacked.csv": "d2328c0d399bb0b9931ad392de9060fb03256b8820efe812021fd9df612bef89",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s2__baseline.csv": "54f7e133c78ad4e8e5f21be8f34c870728172b8a00001673b69824634ba7b8e9",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s1__attacked.csv": "418b9934ec7f660af2a64f7397c54f756919db38c454f4646b91ff5aa3f2cfd2",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s1__baseline.csv": "32481b02bdd97dc7d6e0536de62edb29e975554bc5b8ef48a74dd692c69756f2",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s2__attacked.csv": "559ae37b6d3d8af0f8473dc6a8101c17ede2add9f83b29b85783dc1722942c22",
    "traces/maxspan-hop_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s2__baseline.csv": "aa450d5f7d4f757f5ae7c5d836438bac6bce6a6b767624c02fc44b017f4c5fe1",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s1__attacked.csv": "18f1fd8af201e0201b467b9959b22911e79c6d8748238140f0c41b44dce975cc",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s1__baseline.csv": "257af6b28660f7336b4cc7d28fa05b3354f38345f849e96d2c763b7843bdc946",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s2__attacked.csv": "eb1b43e5da0a634ed9a81f2815e7b0cc847946259deb2bc9408aac0a23264735",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s2__baseline.csv": "13fbdf4b783ac4587cb2cbd12fab72f2d1ebc826151a418a0818cd31ed2ca3b6",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s1__attacked.csv": "eb4f082cff9575612ac5debc55f77d4c7b6afdf17ca874f8b2f0ca9a4889385b",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s1__baseline.csv": "c3c9a8f368cbf3900dad7004ada48f39963074a9a7d896324bafd13c920ff8ef",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s2__attacked.csv": "ecd39a0b7660851c86778098df20df24e62a8965c65c3c8f42b0da5d9ae69b4b",
    "traces/maxspan-hop_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s2__baseline.csv": "11874db7c77906f047203a5a1a227fd5ae49304d70d3da1ea9f8801bcabde074",
    "traces/random_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s1__attacked.csv": "3c20dd569f450c8b9732a0e5197afc6895fddf244bb73d860435e2349875cf15",
    "traces/random_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s1__baseline.csv": "9e6a4feee1b5154954afef89835da55d11736dff11618c25d8499b90c83c86e7",
    "traces/random_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s2__attacked.csv": "548a9bdb6e36adcd7b6d2b9869a0fc20fa84e4ce9358a45d6c5e5fe60ff0534c",
    "traces/random_dg0.6_n10_adv1_eps1000_t3_k5_fhigh_s2__baseline.csv": "9e95f83571e3bc534b604c6e2ed4b2ad0418d8e7c4a0423190e9e030ceade244",
    "traces/random_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s1__attacked.csv": "f15afeb0a874340b4d0be6a4ef219231bda2b543a35da39ac05c83c135a2bf44",
    "traces/random_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s1__baseline.csv": "b895103adb9df6d6b79e33a3356dff6b85ddc81b6efe52b23211d3f2ee29c498",
    "traces/random_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s2__attacked.csv": "cb6505bd4a4b385db66c9b580c8b3131b3cfaba38b608d6a7affd1180c23af6b",
    "traces/random_dg0.6_n10_adv1_eps250_t3_k5_fhigh_s2__baseline.csv": "59bb6a946847dc86faec9a1f4a737d46ad967dbf072eba5a25ffaf11ae1eb858",
    "traces/random_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s1__attacked.csv": "cf0a8f9f05e41301e8afcefe432f3deac93a8c74e02cdc640a57fc3fec14615c",
    "traces/random_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s1__baseline.csv": "69331c2327d15be2c76fe69d3baf04c4adce6439b7d0cba8c10108cb9bf1738d",
    "traces/random_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s2__attacked.csv": "d773dbe222fad6cbdc9a923294b00884b01f463a1e013866403d383a74a07282",
    "traces/random_dg0.6_n10_adv3_eps1000_t3_k5_fhigh_s2__baseline.csv": "608c09bd7f109979bf92607c1b83d9defb04a62e9cba15e2db1d139a2b8f9bfc",
    "traces/random_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s1__attacked.csv": "bc1bd7a14d7abc06eaada0f5dfe8c12a74ee70022deba321882197a654bcaf69",
    "traces/random_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s1__baseline.csv": "ade75a278cf20ef7bf935ba1ffed3a897a92cdb469aed8e2ac9d4da18552de02",
    "traces/random_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s2__attacked.csv": "0e530739e4716feac8ce0413c24cf51e63d26aa147d1ea17b3721ea143679ed7",
    "traces/random_dg0.6_n10_adv3_eps250_t3_k5_fhigh_s2__baseline.csv": "0a4d2a29af7c4d7c12d50f7f2c6274957d352db80ab9c05bdb447931cd1f5989",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_files_keep_their_golden_digests(tmp_path, workers):
    run_experiment(parse_config_data(GOLDEN), output_dir=str(tmp_path),
                   workers=workers)
    digests = {p.relative_to(tmp_path).as_posix():
               hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
    assert digests == GOLDEN_DIGESTS
