"""Built-in experiment presets covering the standard study grids.

Desk-scale defaults: 60 epochs, attack at epoch 15, 20 seeds, 25-node
networks with 20% adversaries unless the preset sweeps those axes.
"""
from __future__ import annotations

from .config import ExperimentSpec, SweepAxes
from .placement import STRATEGY_IDS
SEEDS_20 = tuple(range(1, 21))


def _spec(name: str, **kwargs) -> ExperimentSpec:
    kwargs.setdefault("output_dir", f"results/{name}")
    return ExperimentSpec(name=name, **kwargs)


def build_presets() -> dict[str, ExperimentSpec]:
    presets = {}

    # connectivity sweeps: one per graph family, 3 density levels each
    presets["connectivity-dg"] = _spec(
        "connectivity-dg", graph_family="dg",
        sweep=SweepAxes(strategy=STRATEGY_IDS, graph_param=(0.2, 0.4, 0.6),
                        seed=SEEDS_20))
    presets["connectivity-er"] = _spec(
        "connectivity-er", graph_family="er", graph_param=0.3,
        sweep=SweepAxes(strategy=STRATEGY_IDS, graph_param=(0.1, 0.3, 0.5),
                        seed=SEEDS_20))
    presets["connectivity-pa"] = _spec(
        "connectivity-pa", graph_family="pa", graph_param=1,
        sweep=SweepAxes(strategy=STRATEGY_IDS, graph_param=(1, 2, 6),
                        seed=SEEDS_20))

    # network size and adversary share (full-scale sizes available by
    # editing the n axis; 50/100 are not default to keep runtimes short)
    presets["size-dg"] = _spec(
        "size-dg", graph_family="dg", graph_param=0.2,
        sweep=SweepAxes(strategy=STRATEGY_IDS, n=(10, 25),
                        adversary_fraction=(0.1, 0.2), seed=SEEDS_20))
    presets["size-pa"] = _spec(
        "size-pa", graph_family="pa", graph_param=1,
        sweep=SweepAxes(strategy=STRATEGY_IDS, n=(10, 25),
                        adversary_fraction=(0.1, 0.2), seed=SEEDS_20))

    # one-shot node/link failures at the attack epoch
    presets["failure-dynamics"] = _spec(
        "failure-dynamics", graph_family="dg", graph_param=0.2,
        sweep=SweepAxes(strategy=STRATEGY_IDS,
                        failure_setting=("low", "mild", "moderate", "high"),
                        seed=SEEDS_20))

    # attack characteristics
    presets["attack-power"] = _spec(
        "attack-power", graph_family="dg", graph_param=0.2,
        sweep=SweepAxes(strategy=STRATEGY_IDS,
                        epsilon=(50.0, 100.0, 250.0, 500.0, 1000.0),
                        seed=SEEDS_20))
    presets["attack-timing"] = _spec(
        "attack-timing", graph_family="dg", graph_param=0.2,
        sweep=SweepAxes(strategy=STRATEGY_IDS, t_attack=(5, 15, 30, 45),
                        seed=SEEDS_20))

    # data heterogeneity: classes available per node, 10 = IID
    presets["data-heterogeneity"] = _spec(
        "data-heterogeneity", graph_family="dg", graph_param=0.2,
        sweep=SweepAxes(strategy=STRATEGY_IDS,
                        classes_per_node=(1, 3, 5, 7, 10), seed=SEEDS_20))
    return presets


PRESETS = build_presets()
