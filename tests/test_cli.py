import csv
import hashlib
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dflsim import simulation, sweep
from dflsim.cli import main
from dflsim.config import parse_config
from dflsim.metrics import compute_aal
from dflsim.plots import (
    PlotError,
    aal_bars_from_summary,
    plot_csv,
    render_aal_bars,
    render_accuracy_plot,
)
from dflsim.simulation import SimulationConfig, run_simulation
from dflsim.sweep import _write_trace, run_experiment
from oracles import csv_trace
from test_config import GRAPH_OUT_OF_RANGE

TINY_CONFIG = """
name: tiny
output_dir: {out}
graph: {{family: dg, n: 10, param: 0.6}}
adversary_count: 2
epochs: 8
t_attack: 3
epsilon: 500
data: {{classes: 5, feature_dim: 8, samples_per_node: 10, test_samples: 100}}
sweep:
  strategy: [random, maxspan]
  seed: [1, 2]
"""


# sha256 of the default-grid `verify-lemma` CSV. Other numpy or BLAS builds
# may sum to other bits, so a mismatch there need not be a fault.
LEMMA_CSV_SHA256 = ("b64fc0fcb83f50ba2f14ff94fa13e1b5"
                    "166f25d9459fee9d5b863d9fd212a32e")
LEMMA_CSV_LIBS = ("with numpy 2.4.6 on OpenBLAS 0.3.31.188.0 (scipy-openblas, "
                  "DYNAMIC_ARCH) running its SkylakeX kernel")


SHARED_CONFIG = """
name: shared
graph: {family: dg, n: 3, param: 1.4}
adversary_count: 1
epochs: 4
t_attack: 1
failures: high
data: {classes: 3, feature_dim: 4, samples_per_node: 6, classes_per_node: 2,
       test_samples: 30}
sweep:
  strategy: [maxspan, random, degree]
  seed: [3, 2, 31, 11]
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    config = root / "tiny.yaml"
    out = root / "out"
    config.write_text(TINY_CONFIG.format(out=out))
    spec = parse_config(config)
    result = run_experiment(spec)
    return config, out, result


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_all_cells_complete(self, tiny_run):
        _, out, result = tiny_run
        assert result.n_cells == 4 and result.n_failed == 0
        assert len(list((out / "traces").glob("*.csv"))) == 8

    def test_trace_columns_and_variants(self, tiny_run):
        _, out, _ = tiny_run
        rows = read_csv(next(iter(sorted((out / "traces").glob("*__attacked.csv")))))
        assert set(rows[0]) == {"epoch", "run_id", "variant",
                                "avg_honest_test_acc", "n_honest_alive"}
        assert {r["variant"] for r in rows} == {"attacked"}
        assert len(rows) == 9  # epochs 0..8

    def test_summary_matches_recomputed_aal(self, tiny_run):
        # every summary row's AAL equals compute_aal re-run on its traces
        _, out, _ = tiny_run
        for row in read_csv(out / "summary.csv"):
            run_id = (f"{row['strategy']}_dg0.6_n{row['n']}"
                      f"_adv{row['n_advs']}_eps500_t3_k5_fnone_s{row['seed']}")
            def load(variant):
                rows = read_csv(out / "traces" / f"{run_id}__{variant}.csv")
                assert [int(r["epoch"]) for r in rows] == \
                    list(range(len(rows)))
                assert all(int(r["n_honest_alive"]) > 0 for r in rows)
                return [float(r["avg_honest_test_acc"]) for r in rows]
            expect = compute_aal(load("baseline"), load("attacked"), 3)
            assert float(row["aal"]) == expect

    def test_aggregate_table(self, tiny_run):
        _, out, _ = tiny_run
        agg = read_csv(out / "summary_agg.csv")
        assert len(agg) == 2  # one row per strategy
        assert {r["strategy"] for r in agg} == {"random", "maxspan"}
        assert all(int(r["runs"]) == 2 for r in agg)

    def test_graph_cache_reused(self, tiny_run):
        _, out, _ = tiny_run
        graphs = sorted(p.name for p in (out / "graphs").glob("*.txt"))
        assert graphs == ["dg0.6_n10_s1.txt", "dg0.6_n10_s2.txt"]

    def test_byte_identical_rerun(self, tiny_run, tmp_path):
        config, out, _ = tiny_run
        spec = parse_config(config)
        second = tmp_path / "again"
        run_experiment(spec, output_dir=second)
        for path in sorted(out.rglob("*.csv")):
            twin = second / path.relative_to(out)
            assert twin.read_bytes() == path.read_bytes(), path.name

    def test_worker_pool_matches_serial(self, tiny_run, tmp_path):
        config, out, _ = tiny_run
        spec = parse_config(config)
        pooled = tmp_path / "pooled"
        run_experiment(spec, output_dir=pooled, workers=2)
        assert (pooled / "summary.csv").read_bytes() == \
               (out / "summary.csv").read_bytes()

    def test_grouped_cells_match_across_worker_counts(self, tmp_path,
                                                      monkeypatch):
        # strategies and seeds listed out of order, so the cells that share
        # an adversary-free run are not adjacent in cell order; seed 11
        # loses every node to the failure event and seed 31 every counted
        # node for two of the placements
        config = tmp_path / "shared.yaml"
        config.write_text(SHARED_CONFIG)
        spec = parse_config(config)
        computed = []
        compute = simulation.run_adversary_free

        def counting(cfg, graph):
            computed.append(cfg.seed)
            return compute(cfg, graph)

        monkeypatch.setattr(simulation, "run_adversary_free", counting)
        runs = {}
        for workers in (1, 2):
            runs[workers] = tmp_path / f"w{workers}"
            run_experiment(spec, output_dir=runs[workers], workers=workers)
        # serially, each adversary-free run is computed once for all its
        # cells, seed 11's too, whose run raises in each of them (the
        # pool's children count in their own memory)
        assert computed == [3, 2, 31, 11]
        files = sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*.csv"))
        assert files == sorted(p.relative_to(runs[2])
                               for p in runs[2].rglob("*.csv"))
        for name in files:
            assert (runs[1] / name).read_bytes() == \
                (runs[2] / name).read_bytes(), name
        failures = read_csv(runs[1] / "failures.csv")
        empty = "dflsim.simulation.SimulationError: network failure " \
                "removed every node"
        no_honest = "dflsim.simulation.SimulationError: no honest nodes " \
                    "left to measure"
        assert [(f["run_id"].split("_")[0], f["run_id"].rsplit("_s", 1)[1],
                 f["error"]) for f in failures] == [
            ("maxspan", "31", no_honest), ("maxspan", "11", empty),
            ("random", "31", no_honest), ("random", "11", empty),
            ("degree", "11", empty)]
        summary = read_csv(runs[1] / "summary.csv")
        assert [(r["strategy"], r["seed"]) for r in summary] == [
            ("maxspan", "3"), ("maxspan", "2"), ("random", "3"),
            ("random", "2"), ("degree", "3"), ("degree", "2"),
            ("degree", "31")]

    def test_malformed_cached_graph_fails_only_its_key(self, tmp_path):
        out = tmp_path / "out"
        (out / "graphs").mkdir(parents=True)
        (out / "graphs" / "dg0.6_n10_s2.txt").write_text("not a graph\n")
        config = tmp_path / "tiny.yaml"
        config.write_text(TINY_CONFIG.format(out=out))
        result = run_experiment(parse_config(config))
        assert result.n_cells == 4 and result.n_failed == 2
        failures = read_csv(out / "failures.csv")
        assert [f["run_id"].split("_")[0] for f in failures] == \
            ["random", "maxspan"]
        assert all(f["run_id"].endswith("_s2") for f in failures)
        assert {f["error"] for f in failures} == \
            {"ValueError: missing `n <count> directed` header"}
        assert [(r["strategy"], r["seed"])
                for r in read_csv(out / "summary.csv")] == \
            [("random", "1"), ("maxspan", "1")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_adversary_free_run_fails_only_its_key(
            self, tmp_path, monkeypatch, workers):
        compute = simulation.run_adversary_free

        def failing(cfg, graph):
            if cfg.seed == 1:
                raise RuntimeError(f"no run for seed {cfg.seed}")
            return compute(cfg, graph)

        monkeypatch.setattr(simulation, "run_adversary_free", failing)
        config = tmp_path / "tiny.yaml"
        config.write_text(TINY_CONFIG.format(out=tmp_path / "out"))
        result = run_experiment(parse_config(config), workers=workers)
        assert result.n_failed == 2
        assert [(f["run_id"].split("_")[0], f["error"])
                for f in read_csv(tmp_path / "out" / "failures.csv")] == [
            ("random", "RuntimeError: no run for seed 1"),
            ("maxspan", "RuntimeError: no run for seed 1")]
        assert [(r["strategy"], r["seed"])
                for r in read_csv(result.summary_path)] == \
            [("random", "2"), ("maxspan", "2")]

    def test_raising_key_is_computed_once(self, tmp_path, monkeypatch):
        # a key of 5 cells whose stack raises: each cell fails with the
        # exception's text, and the stack is built once, not once a cell
        built = []

        def failing(cfgs, graph):
            built.append(len(cfgs))
            raise RuntimeError("no stack")

        monkeypatch.setattr(sweep, "Simulation", failing)
        config = tmp_path / "key.yaml"
        config.write_text(TINY_CONFIG.format(out=tmp_path / "out")
                          .replace("[random, maxspan]",
                                   "[random, eigen, degree, maxspan, "
                                   "maxspan-hop]")
                          .replace("seed: [1, 2]", "seed: [1]"))
        result = run_experiment(parse_config(config))
        assert built == [5]
        assert result.n_failed == 5
        assert [f["error"] for f in read_csv(tmp_path / "out" /
                                             "failures.csv")] == \
            ["RuntimeError: no stack"] * 5

    def test_empty_sweep_succeeds(self, tmp_path):
        config = tmp_path / "empty.yaml"
        config.write_text("name: empty\noutput_dir: %s\n"
                          "adversary_count: 1\nsweep: {seed: []}"
                          % (tmp_path / "out"))
        result = run_experiment(parse_config(config))
        assert result.n_cells == 0 and not result.all_failed
        assert read_csv(result.summary_path) == []

    def test_workers_env_variable(self, monkeypatch):
        from dflsim.sweep import resolve_workers

        monkeypatch.delenv("DFLSIM_WORKERS", raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv("DFLSIM_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(workers=2) == 2  # explicit argument wins

    def test_all_cells_failing_gives_exit_1(self, tmp_path):
        # an edge probability this small admits no strongly connected
        # graph, so every cell fails at graph generation
        config = tmp_path / "impossible.yaml"
        config.write_text(
            "name: impossible\noutput_dir: %s\nadversary_count: 1\n"
            "graph: {family: er, n: 12, param: 0.005}\nepochs: 2\n"
            "t_attack: 1\nsweep: {seed: [1, 2]}"
            % (tmp_path / "out"))
        assert main(["run", str(config)]) == 1
        failures = read_csv(tmp_path / "out" / "failures.csv")
        assert len(failures) == 2
        assert "strongly connected" in failures[0]["error"]


def test_trace_files_have_the_bytes_csv_writer_gives(tmp_path):
    # a run whose honest count drops at t_attack + 1, accuracies whose repr
    # needs 17 digits, and run_ids that csv quotes; each file against the
    # same rows written one by one through csv.writer
    cfg = SimulationConfig(graph_family="dg", graph_param=0.6, n=10,
                           n_advs=2, epochs=8, t_attack=3, epsilon=400,
                           classes=5, feature_dim=8, samples_per_node=10,
                           classes_per_node=5, test_samples=100,
                           p_node_fail=0.3, seed=4)
    attacked, baseline, honest = run_simulation(cfg)
    t = cfg.t_attack
    assert honest[t + 1] < honest[t] and (attacked != baseline).any()
    digits = np.array([0.1 + 0.2, 1 / 3, 0.5780000000000001, 1 - 2 ** -53,
                       1.0, 0.0, 5e-324])
    assert max(len(repr(a)) for a in digits.tolist()) == len("0.") + 17
    run_id = "maxspan_dg0.6_n10_adv2_eps400_t3_k5_fhigh_s4"
    cases = [(run_id, "attacked", attacked, honest),
             (run_id, "baseline", baseline, honest),
             (run_id, "attacked", digits, np.arange(7))]
    cases += [(odd, "baseline", digits, np.arange(7)) for odd in (
        "a,b", 'say "x"', "line\nbreak", "cr\rhere", " lead", "")]
    for i, (rid, variant, accuracy, count) in enumerate(cases):
        _write_trace(tmp_path / f"got{i}.csv", rid, variant, accuracy, count)
        csv_trace(tmp_path / f"want{i}.csv", rid, variant, accuracy, count)
        assert (tmp_path / f"got{i}.csv").read_bytes() == \
            (tmp_path / f"want{i}.csv").read_bytes(), rid


class TestPlots:
    def test_accuracy_plot_single_polyline(self, tiny_run, tmp_path):
        _, out, _ = tiny_run
        trace = sorted((out / "traces").glob("maxspan*s1__attacked.csv"))[0]
        svg_path = tmp_path / "acc.svg"
        plot_csv([str(trace)], "accuracy-vs-epoch", str(svg_path))
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 1
        ys = [float(pair.split(",")[1])
              for pair in polylines[0].get("points").split()]
        # y pixels must stay inside the [0, 1] accuracy band of the canvas
        assert all(24 - 1e-9 <= y <= 432 + 1e-9 for y in ys)

    def test_plot_determinism(self, tiny_run, tmp_path):
        _, out, _ = tiny_run
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_csv([str(out / "summary.csv")], "aal-bars", str(a))
        plot_csv([str(out / "summary.csv")], "aal-bars", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert b"timestamp" not in a.read_bytes().lower()

    def test_bar_heights_proportional_to_means(self, tiny_run, tmp_path):
        _, out, _ = tiny_run
        bars = aal_bars_from_summary([str(out / "summary.csv")])
        svg_path = tmp_path / "bars.svg"
        plot_csv([str(out / "summary.csv")], "aal-bars", str(svg_path))
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        rects = [r for r in root.findall(f".//{ns}rect")
                 if r.get("class") == "bar"]
        assert len(rects) == len(bars)
        # pixel-coordinate arithmetic: height ratios match AAL ratios
        span = max(max(v for _, v in bars), 0.0) - min(min(v for _, v in bars), 0.0)
        for rect, (_, value) in zip(rects, bars):
            expect = abs(value) / span * 408  # plot height in px
            assert float(rect.get("height")) == pytest.approx(expect, abs=0.011)

    def test_bar_order_follows_summary(self, tiny_run, tmp_path):
        _, out, _ = tiny_run
        bars = aal_bars_from_summary([str(out / "summary.csv")])
        assert [label for label, _ in bars] == ["random", "maxspan"]

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is\nnot,a_summary\n")
        with pytest.raises(PlotError):
            plot_csv([str(bad)], "aal-bars", str(tmp_path / "x.svg"))

    def test_render_empty_series_rejected(self):
        with pytest.raises(PlotError):
            render_accuracy_plot([])
        with pytest.raises(PlotError):
            render_aal_bars([])


class TestCliVerbs:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        config = tmp_path / "c.yaml"
        out = tmp_path / "out"
        config.write_text(TINY_CONFIG.format(out=out).replace(
            "seed: [1, 2]", "seed: [1]"))
        assert main(["run", str(config)]) == 0
        assert (out / "summary.csv").exists()
        assert capsys.readouterr().err == ""

    def test_tree_sweep_scores_every_cell(self, tmp_path, capsys):
        # pa with m0=1 grows a tree, on which power iteration on the
        # adjacency alone oscillates; the centrality-ranked strategies
        # still place and score every cell
        config = tmp_path / "trees.yaml"
        out = tmp_path / "out"
        config.write_text(TINY_CONFIG.format(out=out)
                          .replace("{family: dg, n: 10, param: 0.6}",
                                   "{family: pa, n: 10, param: 1}")
                          .replace("[random, maxspan]",
                                   "[eigen, maxspan-hop]"))
        assert main(["run", str(config)]) == 0
        assert capsys.readouterr().err == ""
        assert not (out / "failures.csv").exists()
        assert [r["runs"] for r in read_csv(out / "summary_agg.csv")] == \
            ["2", "2"]

    def test_short_aggregates_warned(self, tmp_path, capsys):
        # SHARED_CONFIG's seeds 11 and 31 fail some cells, so every row
        # of summary_agg.csv averages fewer runs than its 4 seeds
        config = tmp_path / "shared.yaml"
        config.write_text(SHARED_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        params = "param=1.4;eps=250;t=1;k=2;fail=high"
        assert err[1:] == [
            f"warning: 3 rows of {out / 'summary_agg.csv'} aggregate fewer "
            "runs than they have cells:",
            f"  maxspan dg n=3 n_advs=1 {params}: 2 of 4 runs",
            f"  random dg n=3 n_advs=1 {params}: 2 of 4 runs",
            f"  degree dg n=3 n_advs=1 {params}: 3 of 4 runs"]
        assert [r["runs"] for r in read_csv(out / "summary_agg.csv")] == \
            ["2", "2", "3"]

    def test_run_bad_failure_probability_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text(f"name: bad\noutput_dir: {tmp_path / 'out'}\n"
                          "failures: {p_node: abc}\n")
        assert main(["run", str(config)]) == 2
        assert "failures.p_node" in capsys.readouterr().err

    def test_run_bad_workers_env_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DFLSIM_WORKERS", "abc")
        config = tmp_path / "tiny.yaml"
        config.write_text(TINY_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", str(config)]) == 2
        assert "DFLSIM_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,env", [
        (["--workers", "0"], None), (["--workers", "-1"], None),
        ([], "0"), ([], "-2")])
    def test_run_bad_worker_count_exit_2(self, tmp_path, monkeypatch, capsys,
                                         args, env):
        if env is None:
            monkeypatch.delenv("DFLSIM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("DFLSIM_WORKERS", env)
        config = tmp_path / "tiny.yaml"
        config.write_text(TINY_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", str(config), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert ("workers" if env is None else "DFLSIM_WORKERS") in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_cell_lands_in_failures(self, tmp_path):
        # an overflowing attack makes NaN models; the cell must fail
        # loudly instead of being scored
        config = tmp_path / "huge.yaml"
        config.write_text(TINY_CONFIG.format(out=tmp_path / "out")
                          .replace("epsilon: 500", "epsilon: 1e200")
                          .replace("  seed: [1, 2]", "  seed: [1]"))
        assert main(["run", str(config)]) == 1
        failures = read_csv(tmp_path / "out" / "failures.csv")
        assert len(failures) == 2
        assert all("SimulationError" in f["error"]
                   and "non-finite" in f["error"] for f in failures)
        assert read_csv(tmp_path / "out" / "summary.csv") == []

    @pytest.mark.parametrize("line,path", [
        ("alpha: .nan", "alpha"), ("epsilon: .inf", "epsilon"),
        ("graph: {param: .nan}", "graph.param"),
        ("data: {classes: 1}", "data.classes"),
        ("data: {feature_dim: 0}", "data.feature_dim"),
        ("data: {samples_per_node: 0}", "data.samples_per_node"),
        ("data: {test_samples: 0}", "data.test_samples"),
        ("sweep: {seed: [-1]}", "sweep.seed"),
        ("output_dir: null", "output_dir"),
        ("sweep: {seed: [1, 1]}", "sweep.seed"),
        ("sweep: {strategy: [random, random]}", "sweep.strategy"),
        ("sweep: {adversary_fraction: [0.2, 0.21]}",
         "sweep.adversary_fraction"),
        ("sweep: {epsilon: [250.0, 250.0000001]}", "sweep.epsilon"),
        ("adversary_count: 3\nsweep: {adversary_fraction: [0.2, 0.3]}",
         "sweep.adversary_fraction"),
        ("data: {test_samples: 5}", "data.test_samples"),
        ("data: {samples_per_node: 1}", "data.samples_per_node"),
        ("data: {samples_per_node: 2, classes_per_node: 4}",
         "data.samples_per_node"),
        ("hopping: {decay: .nan}", "hopping.decay"),
        ("data: {classes: 5, classes_per_node: 6}",
         "data.classes_per_node"),
        ("sweep: {t_attack: [5, 99]}", "sweep.t_attack"),
        *GRAPH_OUT_OF_RANGE])
    def test_run_bad_value_exit_2_naming_its_path(self, tmp_path, capsys,
                                                  line, path):
        config = tmp_path / "bad.yaml"
        config.write_text(f"name: bad\noutput_dir: {tmp_path / 'out'}\n"
                          f"{line}\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"\n  - {path}: " in err
        assert not (tmp_path / "out").exists()

    def test_run_one_node_exit_2_naming_only_graph_n(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text(f"name: bad\noutput_dir: {tmp_path / 'out'}\n"
                          "graph: {n: 1}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == ("config error: invalid config:\n"
                                           "  - graph.n: 1 is below 2\n")

    def test_run_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("name: bad\nstrategy: nope\n")
        assert main(["run", str(config)]) == 2

    def test_plot_verb(self, tiny_run, tmp_path):
        _, out, _ = tiny_run
        svg = tmp_path / "bars.svg"
        assert main(["plot", str(out / "summary.csv"), "--kind", "aal-bars",
                     "-o", str(svg)]) == 0
        assert svg.exists()

    def test_plot_missing_input_exit_1(self, tmp_path):
        assert main(["plot", str(tmp_path / "nope.csv"), "--kind", "aal-bars",
                     "-o", str(tmp_path / "x.svg")]) == 1

    def test_verify_lemma_short_horizon(self, tmp_path):
        config = tmp_path / "lemma.yaml"
        config.write_text("horizon: 2\ntrials: 60\n")
        report = tmp_path / "report.csv"
        assert main(["verify-lemma", str(config), "-o", str(report)]) == 0
        rows = read_csv(report)
        assert len(rows) == 9
        assert set(rows[0]) == {"scenario_id", "n", "d", "n_advs",
                                "delta_min", "alpha", "T", "trials", "lhs",
                                "rhs", "margin", "stderr", "pass",
                                "rt_rhs", "rt_margin", "rt_stderr",
                                "rt_pass", "unbound_steps"}
        assert all(r["pass"] == "true" for r in rows)
        assert all(r["rt_pass"] == "true" for r in rows)
        assert all(r["unbound_steps"] == "0" for r in rows)

    def test_verify_lemma_default_grid_csv_is_pinned(self, tmp_path):
        # the default grid at 200 trials and rng_seed 0; the stated form
        # fails there, so the exit code is 1
        report = tmp_path / "report.csv"
        assert main(["verify-lemma", "-o", str(report)]) == 1
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == LEMMA_CSV_SHA256, (
            "the default-grid verify-lemma CSV changed; its hash was "
            f"recorded {LEMMA_CSV_LIBS}, and this run has numpy "
            f"{np.__version__}")

    def test_verify_lemma_never_binding_floor_is_out_of_hypothesis(
            self, tmp_path, capsys):
        # a floor below every gradient never binds: the rows are reported
        # outside the lemma's hypotheses, not as failures of the bound
        config = tmp_path / "lemma.yaml"
        config.write_text("horizon: 2\ntrials: 10\nn_advs: [1, 2]\n"
                          "delta_min: [-50.0]\n")
        report = tmp_path / "report.csv"
        assert main(["verify-lemma", str(config), "-o", str(report)]) == 0
        rows = read_csv(report)
        assert [int(r["unbound_steps"]) for r in rows] == [30, 60]
        assert capsys.readouterr().out.count("out-of-hypothesis") == 4

    def test_verify_lemma_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "lemma.yaml"
        config.write_text("horizons: 2\n")
        assert main(["verify-lemma", str(config)]) == 2

    @pytest.mark.parametrize("line", ["horizon: abc", "n_advs: 5",
                                      "delta_min: [x]", "dim: 0",
                                      "trials: 0"])
    def test_verify_lemma_bad_value_exit_2(self, tmp_path, capsys, line):
        config = tmp_path / "lemma.yaml"
        config.write_text(line + "\n")
        assert main(["verify-lemma", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""

    def test_complexity_probe_verb(self, capsys):
        assert main(["complexity-probe", "--sizes", "40", "80",
                     "--repeats", "2"]) == 0
        assert "slope" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["--sizes", "1"],
                                      ["--sizes", "40", "1"],
                                      ["--sizes", "80", "40"],
                                      ["--repeats", "0"],
                                      ["--repeats", "-2"],
                                      ["--fraction", "2"],
                                      ["--fraction", "nan"]])
    def test_complexity_probe_bad_value_exit_2(self, capsys, args):
        assert main(["complexity-probe", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("sizes", [["1"], ["40", "1"], ["0", "40"]])
    def test_complexity_probe_names_the_first_size_check_family_rejects(
            self, capsys, sizes):
        assert main(["complexity-probe", "--sizes", *sizes]) == 2
        bad = next(n for n in sizes if int(n) < 2)
        assert capsys.readouterr().err == \
            f"config error: --sizes: {bad} is below 2\n"

    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "connectivity-dg" in out and "300" in out

    def test_run_preset_by_name_resolves(self):
        # presets are accepted as the config argument; expansion is checked
        # without executing the 300-cell sweep
        from dflsim.presets import PRESETS
        assert "connectivity-dg" in PRESETS
