"""Experiment execution: grid expansion, worker pool, CSV aggregation.

Each sweep cell is one placement (an attacked run scored against its
adversary-free twin) and writes two trace CSVs. Graphs are generated once
per (family, param, n, seed) before dispatch and cached as edge-list
files, so concurrent cells share them read-only. The cells that share an
adversary-free run (a key) form one task: one `Simulation` loads the
key's graph, computes that run once, and advances all the key's
placements as one stack; the pool has at most one process per key. The
summary is assembled by a single aggregator in deterministic cell order
whatever the worker count.
"""
from __future__ import annotations

import csv
import functools
import io
import math
import multiprocessing
import os
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .config import ConfigError, ExperimentSpec, SweepCell
from .graphs import load_graph, save_graph
from .metrics import compute_aal
from .simulation import (Simulation, SimulationConfig, adversary_free,
                         build_graph, seed_streams)

WORKERS_ENV = "DFLSIM_WORKERS"

TRACE_COLUMNS = ("epoch", "run_id", "variant", "avg_honest_test_acc",
                 "n_honest_alive")
SUMMARY_COLUMNS = ("strategy", "graph_family", "params", "n", "n_advs",
                   "seed", "aal")
AGG_COLUMNS = ("strategy", "graph_family", "params", "n", "n_advs",
               "mean_aal", "stderr_aal", "runs")


@dataclass(frozen=True)
class CellOutcome:
    run_id: str
    summary_row: Optional[tuple] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class ExperimentResult:
    output_dir: Path
    n_cells: int
    n_failed: int
    summary_path: Path
    agg_path: Path
    # summary_agg.csv rows that average fewer runs than they have cells:
    # (strategy, family, params, n, n_advs, runs, cells)
    short_aggregates: tuple = ()

    @property
    def all_failed(self) -> bool:
        return self.n_cells > 0 and self.n_failed == self.n_cells


def resolve_workers(workers: Optional[int] = None) -> int:
    """The sweep's worker count: `workers`, else $DFLSIM_WORKERS, else 1.
    Anything but a positive integer is a ConfigError."""
    name = "workers"
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return 1
        name = WORKERS_ENV
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, "
                              f"got {env!r}") from None
    if workers < 1:
        raise ConfigError(f"{name} must be at least 1, got {workers}")
    return workers


def graph_cache_key(cfg: SimulationConfig) -> str:
    return f"{cfg.graph_family}{cfg.graph_param:g}_n{cfg.n}_s{cfg.seed}"


def _group_key(cell: SweepCell) -> tuple:
    """A cell's summary_agg.csv row: every axis but the seed."""
    c = cell.cfg
    return (c.strategy, c.graph_family, cell.params_label, c.n, c.n_advs)


def _write_trace(path: Path, run_id: str, variant: str, accuracy,
                 honest) -> None:
    """Write one trace file in one call: the header, then one row per
    epoch with the accuracy's repr; the bytes csv.writer gives."""
    buf = io.StringIO()  # run_id and variant, quoted as csv quotes them
    csv.writer(buf, lineterminator="\n").writerow((run_id, variant))
    fields = buf.getvalue()[:-1]
    rows = [",".join(TRACE_COLUMNS) + "\n"]
    rows += [f"{epoch},{fields},{acc!r},{count}\n" for epoch, (acc, count)
             in enumerate(zip(accuracy.tolist(), honest.tolist()))]
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))


def run_cell(cell: SweepCell, out_dir: str,
             network: Callable[[], dict]) -> CellOutcome:
    """Write one cell's two trace files and score it. `network()` gives the
    traces of every cell of its key by run_id, or the exception that
    failed the cell. Worker-safe."""
    cfg = cell.cfg
    run_id = cell.run_id
    try:
        result = network()[run_id]
        if isinstance(result, Exception):
            raise result
        attacked, baseline, honest = result
        traces = Path(out_dir) / "traces"
        _write_trace(traces / f"{run_id}__attacked.csv", run_id, "attacked",
                     attacked, honest)
        _write_trace(traces / f"{run_id}__baseline.csv", run_id, "baseline",
                     baseline, honest)
        aal = compute_aal(baseline, attacked, cfg.t_attack)
        row = _group_key(cell) + (cfg.seed, repr(aal))
        return CellOutcome(run_id=run_id, summary_row=row)
    except Exception as exc:  # cell failures are recorded, not fatal
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return CellOutcome(run_id=run_id, error=detail)


def _run_key(cells: list[SweepCell], out_dir: str,
             graph_path: str) -> list[CellOutcome]:
    """Run the cells of one key in one process, as one stack. The first
    cell's `network()` loads the key's graph, computes its adversary-free
    run and advances every cell's placement at once (`Simulation`); each
    `run_cell` then writes its own cell's outputs from the result. If that
    raises, the exception is every cell's result. `run_cell` is looked up
    at call time, so a pool child forked from a process that replaced it
    runs the replacement."""
    @functools.cache
    def network() -> dict:
        try:
            results = Simulation([cell.cfg for cell in cells],
                                 load_graph(graph_path)).run()
        except Exception as exc:  # fails the key's cells, once
            results = [exc] * len(cells)
        return {cell.run_id: r for cell, r in zip(cells, results)}

    return [run_cell(cell, out_dir, network) for cell in cells]


def _pregenerate_graphs(cells: list[SweepCell], graph_dir: Path
                        ) -> tuple[dict[str, Path], dict[str, str]]:
    """Generate and cache each distinct graph once. Returns the path map
    plus per-key error messages; cells whose graph failed to generate are
    recorded as failures rather than aborting the sweep."""
    paths: dict[str, Path] = {}
    errors: dict[str, str] = {}
    for cell in cells:
        key = graph_cache_key(cell.cfg)
        if key in paths or key in errors:
            continue
        path = graph_dir / f"{key}.txt"
        if not path.exists():
            rng = seed_streams(cell.cfg.seed)["graph"]
            try:
                save_graph(build_graph(cell.cfg, rng), path)
            except Exception as exc:
                errors[key] = "".join(traceback.format_exception_only(
                    type(exc), exc)).strip()
                continue
        paths[key] = path
    return paths, errors


def _aggregate(summary_rows: list[tuple]) -> list[tuple]:
    groups: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for strategy, family, params, n, n_advs, _seed, aal in summary_rows:
        key = (strategy, family, params, n, n_advs)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(float(aal))
    out = []
    for key in order:
        values = groups[key]
        mean = sum(values) / len(values)
        if len(values) > 1:
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            stderr = math.sqrt(var / len(values))
        else:
            stderr = 0.0
        out.append(key + (repr(mean), repr(stderr), len(values)))
    return out


def run_experiment(spec: ExperimentSpec, output_dir: Optional[str] = None,
                   workers: Optional[int] = None) -> ExperimentResult:
    """Expand the grid, execute every cell, and write trace and summary
    CSVs. Individual cell failures are recorded in failures.csv and
    skipped; the caller decides what a fully-failed run means."""
    n_workers = resolve_workers(workers)
    out = Path(output_dir or spec.output_dir)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    graph_dir = out / "graphs"
    graph_dir.mkdir(exist_ok=True)

    cells = spec.cells()
    graph_paths, graph_errors = _pregenerate_graphs(cells, graph_dir)

    done: dict[int, CellOutcome] = {}
    groups: dict[SimulationConfig, list[int]] = {}
    for idx, cell in enumerate(cells):
        key = graph_cache_key(cell.cfg)
        if key in graph_errors:
            done[idx] = CellOutcome(run_id=cell.run_id,
                                    error=graph_errors[key])
        else:
            groups.setdefault(adversary_free(cell.cfg), []).append(idx)
    tasks = [[cells[idx] for idx in group] for group in groups.values()]
    args = (tasks, [str(out)] * len(tasks),
            [str(graph_paths[graph_cache_key(task[0].cfg)]) for task in tasks])
    n_workers = min(n_workers, len(tasks))
    if n_workers > 1:
        # fork, so that the children run the `run_cell` this process has
        with ProcessPoolExecutor(
                n_workers, mp_context=multiprocessing.get_context("fork")
                ) as pool:
            results = list(pool.map(_run_key, *args))
    else:
        results = list(map(_run_key, *args))
    for group, outcomes in zip(groups.values(), results):
        done.update(zip(group, outcomes))
    outcomes = [done[idx] for idx in range(len(cells))]

    summary_rows = [o.summary_row for o in outcomes if o.summary_row]
    failures = [(o.run_id, o.error) for o in outcomes if o.error]

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(summary_rows)
    agg_path = out / "summary_agg.csv"
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGG_COLUMNS)
        agg_rows = _aggregate(summary_rows)
        writer.writerows(agg_rows)
    expected = Counter(_group_key(cell) for cell in cells)
    short = tuple(row[:5] + (row[-1], expected[row[:5]]) for row in agg_rows
                  if row[-1] < expected[row[:5]])
    if failures:
        with open(out / "failures.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("run_id", "error"))
            writer.writerows(failures)

    return ExperimentResult(output_dir=out, n_cells=len(cells),
                            n_failed=len(failures),
                            summary_path=summary_path, agg_path=agg_path,
                            short_aggregates=short)
