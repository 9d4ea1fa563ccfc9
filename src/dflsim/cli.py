"""Command-line entry point.

Verbs: `run <config>`, `plot <csv...> --kind <k> -o <svg>`,
`verify-lemma <config>`, `complexity-probe --sizes ...`, `presets list`.
Exit codes: 0 success, 1 total failure, 2 config error. The worker count
for sweeps comes from --workers or the DFLSIM_WORKERS environment
variable, and must be a positive integer.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np
import yaml

from .config import ConfigError, coerce, parse_config
from .graphs import check_family
from .plots import PlotError, plot_csv
from .presets import PRESETS
from .sweep import resolve_workers, run_experiment
from .theory import (PROBE_P, AssumptionError, BoundResult, complexity_probe,
                     default_scenario_grid, verify_lower_bound)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _cmd_run(args) -> int:
    try:
        if args.config in PRESETS:
            spec = PRESETS[args.config]
        else:
            spec = parse_config(args.config)
        workers = resolve_workers(args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_experiment(spec, output_dir=args.output, workers=workers)
    done = result.n_cells - result.n_failed
    print(f"{spec.name}: {done}/{result.n_cells} cells completed; "
          f"summary at {result.summary_path}")
    if result.n_failed:
        print(f"{result.n_failed} cells failed; see "
              f"{result.output_dir / 'failures.csv'}", file=sys.stderr)
    if result.short_aggregates:
        rows = "".join(
            f"\n  {strategy} {family} n={n} n_advs={n_advs} {params}: "
            f"{runs} of {cells} runs"
            for strategy, family, params, n, n_advs, runs, cells
            in result.short_aggregates)
        print(f"warning: {len(result.short_aggregates)} rows of "
              f"{result.agg_path} aggregate fewer runs than they have "
              f"cells:{rows}", file=sys.stderr)
    return EXIT_FAILURE if result.all_failed else EXIT_OK


def _cmd_plot(args) -> int:
    try:
        plot_csv(args.csv, args.kind, args.output)
    except PlotError as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"wrote {args.output}")
    return EXIT_OK


# Lemma-config keys and their kinds; a kind in a list takes a list, one
# scenario per value. default_scenario_grid holds the defaults of all but
# trials and rng_seed, and _GRID_ARGS renames its arguments.
_LEMMA_KEYS = {"n_advs": [int], "delta_min": [float], "horizon": int,
               "alpha": float, "dim": int, "data_seed": int, "trials": int,
               "rng_seed": int}
_GRID_ARGS = {"n_advs": "n_advs_values", "delta_min": "delta_values"}


def _lemma_grid_from_config(path: str):
    """Lemma-verification config: optional YAML with grid overrides."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"could not read {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("lemma config must be a mapping")
    unknown = set(raw) - set(_LEMMA_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in lemma config: {sorted(unknown)}")
    values = {}
    for key, value in raw.items():
        kind = _LEMMA_KEYS[key]
        if not isinstance(kind, list):
            values[key] = coerce(key, value, kind)
        elif isinstance(value, list) and value:
            values[key] = tuple(coerce(key, v, kind[0]) for v in value)
        else:
            raise ConfigError(f"{key}: expected a non-empty list, "
                              f"got {value!r}")
    for key, least in (("trials", 1), ("data_seed", 0), ("rng_seed", 0)):
        if values.get(key, least) < least:
            raise ConfigError(f"{key}: need at least {least}, "
                              f"got {values[key]}")
    trials, rng_seed = values.pop("trials", 200), values.pop("rng_seed", 0)
    try:
        grid = default_scenario_grid(**{_GRID_ARGS.get(key, key): value
                                        for key, value in values.items()})
    except AssumptionError as exc:
        raise ConfigError(str(exc)) from exc
    return grid, trials, rng_seed


def _write_bound_report(rows: list[BoundResult], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("scenario_id", "n", "d", "n_advs", "delta_min",
                         "alpha", "T", "trials", "lhs", "rhs", "margin",
                         "stderr", "pass", "rt_rhs", "rt_margin",
                         "rt_stderr", "rt_pass", "unbound_steps"))
        for r in rows:
            writer.writerow((r.scenario_id, r.n, r.d, r.n_advs,
                             repr(r.delta_min), repr(r.alpha), r.horizon,
                             r.trials, repr(r.lhs), repr(r.rhs),
                             repr(r.margin), repr(r.stderr),
                             str(r.passed).lower(), repr(r.rt_rhs),
                             repr(r.rt_margin), repr(r.rt_stderr),
                             str(r.rt_passed).lower(), r.unbound_steps))


def _cmd_verify_lemma(args) -> int:
    try:
        grid, trials, rng_seed = _lemma_grid_from_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = verify_lower_bound(grid, trials, np.random.default_rng(rng_seed))
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        rt_status = "pass" if r.rt_passed else "FAIL"
        if not r.in_hypothesis:  # the floor did not bind: no verdict
            status = rt_status = (f"out-of-hypothesis "
                                  f"({r.unbound_steps} unbound steps)")
        print(f"{r.scenario_id:20s} lhs={r.lhs:10.4f} rhs={r.rhs:10.4f} "
              f"margin={r.margin:10.4f} stderr={r.stderr:.5f} {status} | "
              f"rt_margin={r.rt_margin:10.4f} rt_stderr={r.rt_stderr:.5f} "
              f"{rt_status}")
    if args.output:
        _write_bound_report(rows, Path(args.output))
        print(f"wrote {args.output}")
    # the exit code follows the stated form on the rows inside its
    # hypotheses; the corrected form is reported
    ok = all(r.passed for r in rows if r.in_hypothesis)
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_complexity_probe(args) -> int:
    problem = None
    for n in args.sizes:  # the probe's graphs are Erdős–Rényi
        try:
            check_family("er", PROBE_P, n)
        except ValueError as exc:
            problem = "--sizes: " + str(exc).partition(": ")[2]
            break
    else:
        if args.sizes != sorted(args.sizes):
            problem = f"--sizes must be ascending, got {args.sizes}"
        elif args.repeats < 1:
            problem = f"--repeats must be at least 1, got {args.repeats}"
        elif not 0 < args.fraction <= 1:  # nan too
            problem = f"--fraction must be in (0, 1], got {args.fraction}"
    if problem:
        print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    report = complexity_probe(args.sizes, n_adv_fraction=args.fraction,
                              repeats=args.repeats, seed=args.seed)
    for row in report.rows:
        print(f"n={row.n:6d} median={row.median_seconds * 1e3:9.2f} ms "
              f"cv={row.cv:.2f}")
    print(f"log-log slope: {report.loglog_slope:.3f}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name, spec in sorted(PRESETS.items()):
        print(f"{name:20s} {len(spec.cells()):5d} cells  "
              f"family={spec.graph_family}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dflsim",
        description="Placement-attack experiments on decentralized "
                    "federated learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config or preset")
    p_run.add_argument("config", help="path to a YAML config, or a preset name")
    p_run.add_argument("-o", "--output", default=None,
                       help="override the output directory")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes (default $DFLSIM_WORKERS or 1)")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="render a CSV to SVG")
    p_plot.add_argument("csv", nargs="+", help="trace or summary CSV files")
    p_plot.add_argument("--kind", required=True,
                        choices=("accuracy-vs-epoch", "aal-bars"))
    p_plot.add_argument("-o", "--output", required=True, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    p_lemma = sub.add_parser("verify-lemma",
                             help="numerically check the impact lower bound")
    p_lemma.add_argument("config", nargs="?", default=None,
                         help="optional YAML overriding the default grid")
    p_lemma.add_argument("-o", "--output", default=None,
                         help="write the report CSV here")
    p_lemma.set_defaults(func=_cmd_verify_lemma)

    p_probe = sub.add_parser("complexity-probe",
                             help="time the greedy placement across sizes")
    p_probe.add_argument("--sizes", type=int, nargs="+",
                         default=[50, 100, 200, 400])
    p_probe.add_argument("--fraction", type=float, default=0.1)
    p_probe.add_argument("--repeats", type=int, default=5)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.set_defaults(func=_cmd_complexity_probe)

    p_presets = sub.add_parser("presets", help="inspect built-in presets")
    p_presets.add_argument("action", choices=("list",))
    p_presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
