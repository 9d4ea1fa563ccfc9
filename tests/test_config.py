import re
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dflsim.config import (
    AXES,
    FAILURE_SETTINGS,
    PARAMS,
    ConfigError,
    ExperimentSpec,
    SweepAxes,
    canonical_yaml,
    parse_config,
    parse_config_data,
)
from dflsim.placement import STRATEGY_IDS, HoppingParams
from dflsim.presets import PRESETS


def parse(text: str) -> ExperimentSpec:
    return parse_config_data(yaml.safe_load(text))


def _graph_out_of_range() -> list[tuple[str, str]]:
    """Config lines that set a graph parameter out of its family's range,
    each as a base key and as one value of a sweep axis beside a valid
    one, with the YAML path the error must name (n is 25 by default)."""
    cases = [("er", "param", bad, 0.3) for bad in (0, 1.5)]
    cases += [("dg", "param", bad, 0.5) for bad in (0, 2.0)]
    cases += [("pa", "param", bad, 2) for bad in (0, 1.5, 25)]
    cases += [("dg", "n", 1, 10)]
    axes = {"param": "graph_param", "n": "n"}
    return [line for family, key, bad, good in cases for line in (
        (f"graph: {{family: {family}, {key}: {bad}}}", f"graph.{key}"),
        (f"graph: {{family: {family}}}\n"
         f"sweep: {{{axes[key]}: [{good}, {bad}]}}", f"sweep.{axes[key]}"))]


GRAPH_OUT_OF_RANGE = _graph_out_of_range()


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        spec = parse("""
        name: minimal
        graph: {family: er, n: 12, param: 0.4}
        strategy: maxspan
        adversary_count: 2
        """)
        assert spec.epochs == 60
        assert spec.t_attack == 15
        assert spec.alpha == 0.05
        assert spec.classes == 10 and spec.classes_per_node == 10
        assert spec.failure_setting == "none"
        assert len(spec.cells()) == 1
        assert spec.cells()[0].cfg.n_advs == 2

    def test_classes_per_node_follows_classes(self):
        spec = parse("""
        name: c5
        data: {classes: 5}
        """)
        assert spec.classes_per_node == 5

    def test_unknown_keys_rejected_everywhere(self):
        for text in ("name: x\nturbo: 1",
                     "name: x\ngraph: {family: er, n: 5, param: 0.5, w: 2}",
                     "name: x\ndata: {classses: 10}",
                     "name: x\nsweep: {stratagy: [random]}",
                     "name: x\nhopping: {alpha3: 1.0}"):
            with pytest.raises(ConfigError):
                parse(text)

    def test_semantic_errors_list_every_violation(self):
        with pytest.raises(ConfigError) as err:
            parse("""
            name: bad
            epochs: 10
            t_attack: 50
            data: {classes: 10, classes_per_node: 11}
            """)
        message = str(err.value)
        assert "classes_per_node" in message
        assert "t_attack" in message

    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            parse("name: bad\ndata: {classes: 10, classes_per_node: 11}")
        assert "classes_per_node" in str(err.value)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError) as err:
            parse("name: bad\nstrategy: optimal")
        assert "strategy" in str(err.value)

    def test_seeds_shorthand(self):
        spec = parse("name: x\nseeds: 4")
        assert spec.sweep.seed == (1, 2, 3, 4)

    def test_seeds_conflict(self):
        with pytest.raises(ConfigError):
            parse("name: x\nseeds: 4\nsweep: {seed: [1, 2]}")

    def test_named_failure_settings(self):
        spec = parse("name: x\nfailures: {setting: high}")
        assert spec.failure_setting == "high"
        spec = parse("name: x\nfailures: {p_node: 0.1, p_link: 0.02}")
        assert spec.failure_setting == "low"
        with pytest.raises(ConfigError):
            parse("name: x\nfailures: {p_node: 0.4, p_link: 0.4}")

    @pytest.mark.parametrize("text", [
        "epochs: many",
        "seeds: abc",
        "alpha: [0.1]",
        "sweep: {seed: [a, b]}",
        "sweep: {failure_setting: [tsunami]}",
        "sweep: {t_attack: [1.5]}",
        "hopping: {decay: huge}",
        "graph: {family: er, n: maybe, param: 0.3}",
        "adversary_count: 0.5",
        "epochs: true",
        "data: {classes: [10]}",
        "graph: 7",
        "failures: [1, 2]",
        "- a",
        "alpha: .nan",
        "epsilon: .inf",
        "graph: {param: .nan}",
        "data: {classes: 1}",
        "data: {feature_dim: 0}",
        "data: {samples_per_node: 0}",
        "data: {test_samples: 0}",
        "sweep: {seed: [-1]}",
        "output_dir: null",
        "sweep: {seed: [1, 1]}",
        "sweep: {strategy: [random, random]}",
        "sweep: {adversary_fraction: [0.2, 0.21]}",
        "sweep: {epsilon: [250.0, 250.0000001]}",
        "{adversary_count: 3, sweep: {adversary_fraction: [0.2, 0.3]}}",
        "data: {test_samples: 5}",
        "data: {samples_per_node: 1}",
        "hopping: {decay: .nan}",
    ])
    def test_ill_typed_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse(text)

    @pytest.mark.parametrize("line,path", GRAPH_OUT_OF_RANGE)
    def test_out_of_range_graph_names_its_path(self, line, path):
        with pytest.raises(ConfigError) as err:
            parse(line)
        assert f"\n  - {path}: " in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.yaml")

    def test_yaml_syntax_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestRoundTrip:
    def test_canonical_round_trip(self):
        spec = parse("""
        name: rt
        output_dir: /tmp/rt
        graph: {family: dg, n: 10, param: 0.6}
        adversary_count: 2
        epochs: 20
        t_attack: 5
        epsilon: 500
        data: {classes: 5, feature_dim: 8, samples_per_node: 10}
        hopping: {alpha0: 4.0, decay: 0.5}
        sweep:
          strategy: [random, maxspan]
          seed: [1, 2, 3]
        """)
        text = canonical_yaml(spec)
        assert parse_config_data(yaml.safe_load(text)) == spec

    def test_round_trip_preserves_failure_setting(self):
        spec = parse("name: f\nfailures: {setting: moderate}")
        assert parse_config_data(yaml.safe_load(canonical_yaml(spec))) == spec

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_canonical_round_trip_property(self, data):
        spec = data.draw(specs())
        text = canonical_yaml(spec)
        back = parse_config_data(yaml.safe_load(text))
        assert back == spec
        assert canonical_yaml(back) == text


NAMES = st.text("abcxyz019-_/. ", min_size=1, max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def row_values(family: str) -> dict:
    """A strategy of valid values for every PARAMS row, by YAML path. The
    ranges keep every cross-field constraint (t_attack <= epochs,
    classes_per_node <= classes, test_samples >= classes, adversaries < n,
    pa size < n, a training sample for every node) true."""
    return {
        "name": NAMES, "output_dir": NAMES,
        "graph.param": (st.integers(1, 3).map(float) if family == "pa"
                        else st.floats(0.05, 1.0)),
        "graph.n": st.integers(4, 40),
        "adversary_fraction": st.floats(0.05, 0.5),
        "strategy": st.sampled_from(STRATEGY_IDS),
        "epsilon": st.floats(0.0, 1e4),
        "t_attack": st.integers(0, 20),
        "data.classes_per_node": st.integers(1, 5),
        "failures.setting": st.sampled_from(sorted(FAILURE_SETTINGS)),
        "epochs": st.integers(20, 80),
        "alpha": st.floats(1e-6, 1.0),
        "local_iters": st.integers(1, 3),
        "epsilon_scale": st.floats(0.0, 1.0),
        "adversary_count": st.none() | st.integers(1, 3),
        "tracker_mixing": st.sampled_from(("in_self", "literal_out")),
        "graph.family": st.just(family),
        "data.classes": st.integers(5, 12),
        "data.feature_dim": st.integers(1, 30),
        # 6 gives every node a sample at any n, classes and split drawn here
        "data.samples_per_node": st.integers(6, 50),
        "data.spread": st.floats(0.0, 2.0),
        "data.test_samples": st.integers(12, 500),
        "hopping.alpha0": FINITE, "hopping.alpha1": FINITE,
        "hopping.alpha2": FINITE, "hopping.decay": st.floats(0.0, 1e3),
    }


@st.composite
def specs(draw):
    """Valid specs drawn over every PARAMS row and every sweep axis, whose
    cells have distinct run_ids."""
    values = row_values(draw(st.sampled_from(("er", "dg", "pa"))))
    assert set(values) == {p.path for p in PARAMS}
    fields, hopping = {}, {}
    for p in PARAMS:
        value = draw(values[p.path])
        if p.field.startswith("hopping."):
            hopping[p.field.partition(".")[2]] = value
        else:
            fields[p.field] = value
    by_axis = {p.axis: values[p.path] for p in PARAMS if p.axis}
    by_axis["seed"] = st.integers(0, 10**6)
    assert set(by_axis) == set(AXES)
    sweep = {axis: tuple(draw(st.lists(by_axis[axis], max_size=2,
                                       unique=True)))
             for axis in draw(st.sets(st.sampled_from(AXES)))}
    spec = ExperimentSpec(hopping=HoppingParams(**hopping),
                          sweep=SweepAxes(**sweep), **fields)
    run_ids = [cell.run_id for cell in spec.cells()]
    assume(len(set(run_ids)) == len(run_ids))
    return spec


def test_readme_schema_lists_every_param():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("## Config schema (YAML)")[1].split("\n## ")[0]
    rows = {re.match(r"\| `([^`]+)` \|", line).group(1): line
            for line in table.splitlines()
            if re.match(r"\| `[^`]+` \|", line)}
    assert set(rows) == {p.path for p in PARAMS} | {"seeds", "sweep.<axis>"}
    axes = re.findall(r"`(\w+)`", rows["sweep.<axis>"].split("|")[3])
    assert tuple(axes) == AXES


class TestExpansion:
    def test_grid_product_order(self):
        spec = ExperimentSpec(
            name="g", output_dir="/tmp/g", graph_family="er", graph_n=8,
            graph_param=0.5, adversary_count=2,
            sweep=SweepAxes(strategy=("random", "maxspan"), seed=(1, 2)))
        ids = [cell.run_id for cell in spec.cells()]
        assert len(ids) == 4
        assert ids[0].startswith("random") and ids[0].endswith("_s1")
        assert ids[1].startswith("random") and ids[1].endswith("_s2")
        assert ids[2].startswith("maxspan")
        assert len(set(ids)) == 4

    def test_failure_axis_maps_to_probabilities(self):
        spec = ExperimentSpec(
            name="f", output_dir="/tmp/f", adversary_count=2,
            sweep=SweepAxes(failure_setting=("low", "high")))
        cells = spec.cells()
        assert [(c.cfg.p_node_fail, c.cfg.p_link_fail) for c in cells] == \
               [FAILURE_SETTINGS["low"], FAILURE_SETTINGS["high"]]

    def test_empty_axis_empty_grid(self):
        spec = ExperimentSpec(name="e", output_dir="/tmp/e",
                              adversary_count=1, sweep=SweepAxes(seed=()))
        assert spec.cells() == []

    def test_adversary_fraction_rounding(self):
        spec = ExperimentSpec(name="a", output_dir="/tmp/a",
                              adversary_fraction=0.2,
                              sweep=SweepAxes(n=(10, 25)))
        assert [c.cfg.n_advs for c in spec.cells()] == [2, 5]


class TestPresets:
    def test_documented_cell_counts(self):
        assert len(PRESETS["connectivity-dg"].cells()) == 300
        assert len(PRESETS["connectivity-er"].cells()) == 300
        assert len(PRESETS["connectivity-pa"].cells()) == 300
        assert len(PRESETS["failure-dynamics"].cells()) == 400
        assert len(PRESETS["attack-power"].cells()) == 500

    def test_failure_preset_uses_exact_table(self):
        cells = PRESETS["failure-dynamics"].cells()
        pairs = {(c.cfg.p_node_fail, c.cfg.p_link_fail) for c in cells}
        assert pairs == {(0.1, 0.02), (0.15, 0.05), (0.20, 0.1), (0.3, 0.2)}

    def test_attack_power_grid(self):
        cells = PRESETS["attack-power"].cells()
        assert {c.cfg.epsilon for c in cells} == {50.0, 100.0, 250.0, 500.0,
                                                 1000.0}

    def test_heterogeneity_grid(self):
        cells = PRESETS["data-heterogeneity"].cells()
        assert {c.cfg.classes_per_node for c in cells} == {1, 3, 5, 7, 10}

    def test_all_presets_expand_to_valid_cells(self):
        for name, spec in PRESETS.items():
            cells = spec.cells()
            assert cells, name
            assert len({c.run_id for c in cells}) == len(cells), name
