"""The benchmark's workloads.

A workload turns the benchmark seed into inputs (`make_inputs`), sets
them up through dflsim's public entry points (`prepare`, which is part
of the measured set-up), runs them (`execute`, the timed region) and
turns what the program produced into one record per op (`collect`).
`judge` compares each record with the reference recorded in `refs/` at
the commit that defined the benchmark.

Inputs come from fixed pools whose outputs were all recorded, so any
seed has a reference: the seed only picks which pool members a run
uses. Each run is a closed loop from one process; only `sweep-hetero`
runs two cells at a time, in the sweep's own process pool.

dflsim is imported lazily, so that a fresh interpreter pays for the
import inside the measured set-up.
"""
from __future__ import annotations

import copyreg
import csv
import functools
import hashlib
import importlib
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hostspeed import SAMPLER

STRATEGIES = ("random", "eigen", "degree", "maxspan", "maxspan-hop")


@dataclass
class Op:
    """One op's outcome: its output record, or the exception it raised."""

    key: str
    seconds: float
    record: Optional[dict] = None
    error: Optional[str] = None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dflsim(layer: str):
    return importlib.import_module(f"dflsim.{layer}")


class Workload:
    name = ""
    why = ""

    def write_files(self, inputs: dict, rundir: Path) -> None:
        """Write the input files a run reads, before it is timed."""

    def layer_extras(self, repdir: Path) -> dict:
        """Per-layer figures read from the outputs rather than the spans."""
        return {}

    def matches(self, record: dict, ref: dict) -> bool:
        return record == ref

    def plausible(self, record: dict, key: str) -> bool:
        """For an op that raised when the references were recorded: is a
        result it produces now at least well formed?"""
        return False


# ------------------------------ sweeps -------------------------------- #

class Sweep(Workload):
    """A slice of a preset sweep, run by `parse_config` → `run_experiment`.

    An op is a cell: one attacked run plus its adversary-free twin.
    """

    def __init__(self, name, why, config, workers, sizes):
        self.name, self.why = name, why
        self.config, self.workers, self.sizes = config, workers, sizes

    def _config(self, size: str, seeds) -> dict:
        cfg = dict(self.config, **self.sizes[size]["config"])
        cfg["sweep"] = {"strategy": list(self.sizes[size]["strategies"]),
                        "seed": sorted(seeds)}
        cfg["name"] = self.name
        return cfg

    def make_inputs(self, seed: int, size: str = "full") -> dict:
        # one seed from each of `per_run` equal slices of the pool, whose
        # order can rank the seeds by the work their cells do, so that
        # every run does about as much work
        s = self.sizes[size]
        pool, k, rng = s["pool"], s["per_run"], random.Random(seed)
        picked = [rng.choice(pool[i * len(pool) // k:
                                  (i + 1) * len(pool) // k])
                  for i in range(k)]
        return {"config": self._config(size, picked), "workers": self.workers}

    def pool_inputs(self, size: str = "full") -> list[dict]:
        return [{"config": self._config(size, self.sizes[size]["pool"]),
                 "workers": self.workers}]

    def write_files(self, inputs: dict, rundir: Path) -> None:
        import yaml
        with open(rundir / "config.yaml", "w") as fh:
            yaml.safe_dump(inputs["config"], fh, sort_keys=True)

    def prepare(self, inputs: dict, rundir: Path):
        spec = _dflsim("config").parse_config(rundir / "config.yaml")
        return spec, spec.cells(), inputs["workers"]

    def execute(self, state, repdir: Path):
        spec, _, workers = state
        sweep = _dflsim("sweep")
        run_cell = sweep.run_cell
        _CELL_SECONDS.clear()
        _CELL_SAMPLES.clear()
        sampling = SAMPLER.running

        # Times each cell where it runs, also inside the pool's children,
        # which inherit this module attribute when they are forked. A
        # child samples the host's speed while its cell runs, if this
        # process does; its time and samples travel back in memory with
        # the cell's outcome.
        @functools.wraps(run_cell)
        def timed_cell(cell, out_dir, graph_path):
            in_child = sampling and not SAMPLER.running
            if in_child:
                SAMPLER.start()
            t0 = time.perf_counter()
            outcome = run_cell(cell, out_dir, graph_path)
            _CELL_SECONDS[cell.run_id] = time.perf_counter() - t0
            if in_child:
                _CELL_SAMPLES[cell.run_id] = SAMPLER.stop()
            return outcome

        sweep.run_cell = timed_cell
        copyreg.pickle(sweep.CellOutcome, _send_outcome)
        try:
            return sweep.run_experiment(spec, output_dir=str(repdir / "out"),
                                        workers=workers)
        finally:
            sweep.run_cell = run_cell
            copyreg.dispatch_table.pop(sweep.CellOutcome, None)

    def collect(self, state, result, repdir: Path, wall_s: float,
                draws=None) -> list[Op]:
        spec, cells, workers = state
        out = repdir / "out"
        with open(out / "summary.csv", newline="") as fh:
            rows = {(r[0], r[5]): r for r in list(csv.reader(fh))[1:]}
        errors = {}
        if (out / "failures.csv").exists():
            with open(out / "failures.csv", newline="") as fh:
                errors = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        ops = []
        for cell in cells:
            cfg, run_id = cell.cfg, cell.run_id
            # A cell whose graph failed to generate never runs: charge it
            # an equal share of the wall.
            took = _CELL_SECONDS.get(run_id, wall_s * workers / len(cells))
            key = f"{cfg.strategy}/s{cfg.seed}"
            if run_id in errors:
                ops.append(Op(key, took, error=errors[run_id]))
                continue
            traces = [out / "traces" / f"{run_id}__{variant}.csv"
                      for variant in ("attacked", "baseline")]
            record = {"row": rows.get((cfg.strategy, str(cfg.seed))),
                      "attacked": None, "baseline": None,
                      "twin_equal": False}
            if all(p.exists() for p in traces):
                record["attacked"] = _sha(traces[0].read_bytes())
                record["baseline"] = _sha(traces[1].read_bytes())
                record["twin_equal"] = _twins_agree(*traces, cfg.t_attack)
            ops.append(Op(key, took, record=record))
        return ops

    def layer_extras(self, repdir: Path) -> dict:
        written = sum(p.stat().st_size for p in (repdir / "out").rglob("*")
                      if p.is_file())
        return {"sweep.bytes_written": written}


# Each cell's seconds by run id, filled where the cell runs and, for a
# pool child's cell, when its outcome arrives in this process; and the
# host-speed samples a pool child took during its cell.
_CELL_SECONDS: dict[str, float] = {}
_CELL_SAMPLES: dict[str, list] = {}


def _send_outcome(outcome):
    """Pickles a cell outcome together with the time the cell took and
    the host-speed samples taken meanwhile."""
    run_id = outcome.run_id
    return _receive_outcome, (type(outcome), vars(outcome),
                              _CELL_SECONDS[run_id],
                              _CELL_SAMPLES.get(run_id, []))


def _receive_outcome(cls, fields: dict, seconds: float, samples: list):
    _CELL_SECONDS[fields["run_id"]] = seconds
    _CELL_SAMPLES[fields["run_id"]] = samples
    return cls(**fields)


def cell_samples() -> list:
    """The host-speed samples the sweep's pool children took during the
    last pass."""
    return [x for samples in _CELL_SAMPLES.values() for x in samples]


def _twins_agree(attacked: Path, baseline: Path, t_attack: int) -> bool:
    """Attacked and baseline traces agree on every epoch <= t_attack."""
    def head(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [(r["epoch"], r["avg_honest_test_acc"], r["n_honest_alive"])
                for r in rows if int(r["epoch"]) <= t_attack]
    a, b = head(attacked), head(baseline)
    return len(a) == t_attack + 1 and a == b


# ----------------------------- topology ------------------------------- #

def _graph_digest(g) -> str:
    lines = [f"n {g.n}"] + [f"{i} {j}" for i, j in sorted(g.edges)]
    if g.positions is not None:
        lines += [f"pos {x!r} {y!r}" for x, y in g.positions]
    return _sha("\n".join(lines).encode())


def _n_advs(n: int) -> int:
    return max(1, round(0.2 * n))


class Topology(Workload):
    """Graph generation and all five `place()` strategies, no training.

    Graphs and placement streams come from `seed_streams`, exactly as in
    a sweep cell, so the geometric bank is the acceptance suite's. An op
    is one `place()` call.
    """

    name = "topology"
    why = ("graph generation and placement alone, engine bypassed: the "
           "rejection-sampled geometric bank, pa trees and n=100/400 graphs")
    sizes = {
        "full": {
            # the 20-seed r=0.2, n=25 geometric bank of the acceptance suite
            "bank": [("dg", 0.2, 25, s) for s in range(1, 21)],
            # pa m0=1 trees: bipartite, so power iteration never converges
            "trees": (("pa", 1, 25), range(1, 61), 10),
            "large": ([("er", 0.1), ("dg", 0.2), ("pa", 2)], (100, 400),
                      range(1, 7), 1),
        },
        "tiny": {
            "bank": [("dg", 0.4, 10, s) for s in (1, 2)],
            "trees": (("pa", 1, 10), range(1, 4), 1),
            "large": ([("er", 0.3)], (30,), range(1, 3), 1),
        },
    }

    def _graphs(self, size: str, pick) -> list:
        s = self.sizes[size]
        kind, param, n = s["trees"][0]
        items = [list(g) for g in s["bank"]]
        items += [[kind, param, n, seed] for seed in pick(s["trees"][1],
                                                          s["trees"][2])]
        families, sizes, pool, per_run = s["large"]
        for kind, param in families:
            for n in sizes:
                items += [[kind, param, n, seed] for seed in pick(pool,
                                                                  per_run)]
        return items

    def make_inputs(self, seed: int, size: str = "full") -> dict:
        rng = random.Random(seed)
        return {"graphs": self._graphs(
            size, lambda pool, k: sorted(rng.sample(list(pool), k)))}

    def pool_inputs(self, size: str = "full") -> list[dict]:
        return [{"graphs": self._graphs(size, lambda pool, k: list(pool))}]

    def prepare(self, inputs: dict, rundir: Path):
        family = _dflsim("graphs").GraphFamily
        return [(family(kind, param), n, seed)
                for kind, param, n, seed in inputs["graphs"]]

    def execute(self, state, repdir: Path):
        streams = _dflsim("simulation").seed_streams
        placement = _dflsim("placement")
        done = []
        for family, n, seed in state:
            try:
                g = family.generate(n, streams(seed)["graph"])
            except Exception as exc:  # every op on this graph fails
                done.append((None, [(0.0, None, type(exc).__name__)] * 5))
                continue
            ops = []
            for strategy in STRATEGIES:
                rng = streams(seed)["placement"]
                t0 = time.perf_counter()
                try:
                    members = placement.place(g, strategy, _n_advs(n),
                                              rng).members
                    error = None
                except Exception as exc:  # recorded per op, not fatal
                    members, error = None, type(exc).__name__
                ops.append((time.perf_counter() - t0, members, error))
            done.append((g, ops))
        return done

    def collect(self, state, result, repdir: Path, wall_s: float,
                draws=None) -> list[Op]:
        if draws is not None and len(draws) != len(state):
            draws = None  # generation no longer maps one call per graph
        out = []
        for idx, ((family, n, seed), (g, ops)) in enumerate(zip(state,
                                                              result)):
            gkey = f"{family.kind}{family.param:g}_n{n}_s{seed}"
            digest = None if g is None else _graph_digest(g)
            for strategy, (took, members, error) in zip(STRATEGIES, ops):
                key = f"{gkey}/{strategy}"
                if error is not None:
                    out.append(Op(key, took, error=error))
                    continue
                record = {"graph": digest, "members": list(members)}
                if draws is not None and draws[idx]:
                    record["draws"] = draws[idx]
                out.append(Op(key, took, record=record))
        return out

    def matches(self, record: dict, ref: dict) -> bool:
        if "draws" in record and record["draws"] != ref.get("draws"):
            return False
        return (record["graph"] == ref.get("graph")
                and record["members"] == ref.get("members"))

    def plausible(self, record: dict, key: str) -> bool:
        n = int(key.split("_n")[1].split("_")[0])
        members = record["members"]
        return (len(members) == _n_advs(n) == len(set(members))
                and all(0 <= v < n for v in members))


# ------------------------------- lemma -------------------------------- #

class Lemma(Workload):
    """The `verify-lemma` default grid, one `verify_lower_bound` call per
    scenario sharing one generator, which leaves results unchanged. An op
    is a scenario."""

    name = "lemma"
    why = ("the theory layer alone: the verify-lemma default grid of 9 "
           "scenarios x 200 trials at horizon 20")
    sizes = {
        "full": {"pool": range(16), "trials": 200,
                 "grid": {"horizon": 20}},
        "tiny": {"pool": range(2), "trials": 10,
                 "grid": {"horizon": 3, "n_advs_values": [1],
                          "delta_values": [0.5, 1.0]}},
    }

    def make_inputs(self, seed: int, size: str = "full") -> dict:
        s = self.sizes[size]
        return {"rng_seed": random.Random(seed).choice(list(s["pool"])),
                "trials": s["trials"], "grid": s["grid"]}

    def pool_inputs(self, size: str = "full") -> list[dict]:
        s = self.sizes[size]
        return [{"rng_seed": k, "trials": s["trials"], "grid": s["grid"]}
                for k in s["pool"]]

    def prepare(self, inputs: dict, rundir: Path):
        grid = _dflsim("theory").default_scenario_grid(**inputs["grid"])
        return inputs, grid

    def execute(self, state, repdir: Path):
        import numpy as np
        inputs, grid = state
        theory = _dflsim("theory")
        rng = np.random.default_rng(inputs["rng_seed"])
        done = []
        for scenario in grid:
            t0 = time.perf_counter()
            try:
                row = theory.verify_lower_bound([scenario], inputs["trials"],
                                                rng)[0]
                error = None
            except Exception as exc:  # recorded per op, not fatal
                row, error = None, type(exc).__name__
            done.append((scenario.scenario_id, time.perf_counter() - t0,
                         row, error))
        return done

    def collect(self, state, result, repdir: Path, wall_s: float,
                draws=None) -> list[Op]:
        inputs, _ = state
        out = []
        for scenario_id, took, row, error in result:
            key = f"rng{inputs['rng_seed']}/{scenario_id}"
            if error is not None:
                out.append(Op(key, took, error=error))
                continue
            out.append(Op(key, took, record={
                "lhs": row.lhs, "rhs": row.rhs, "margin": row.margin,
                "passed": row.passed}))
        return out

    def matches(self, record: dict, ref: dict) -> bool:
        return record["passed"] == ref["passed"] and all(
            math.isclose(record[k], ref[k], rel_tol=1e-9, abs_tol=0.0)
            for k in ("lhs", "rhs", "margin"))


# ----------------------------- the set ------------------------------- #

_SWEEP_BASE = {"graph": {"family": "dg", "n": 25, "param": 0.2},
               "epochs": 60, "t_attack": 15, "adversary_fraction": 0.2}


# sweep-hetero's seeds, ordered by the honest node-epochs their five
# cells run, attacked and baseline, at the commit that defined the
# benchmark. Failures remove nodes mid-run, so the seeds' cells do
# unequal work: 6530 (seed 7) to 11480 (seed 19) node-epochs, which
# tracks cell time with correlation 0.87.
_HETERO_POOL = [7, 17, 11, 8, 16, 10, 28, 20, 30, 23, 22, 29, 2, 15, 24, 6,
                18, 27, 1, 21, 13, 25, 14, 5, 9, 4, 3, 12, 26, 19]


def _sweep_sizes(pool: list[int], per_run: int) -> dict:
    return {
        "full": {"config": {}, "strategies": STRATEGIES, "pool": pool,
                 "per_run": per_run},
        "tiny": {"config": {"graph": {"family": "dg", "n": 10, "param": 0.5},
                            "epochs": 6, "t_attack": 2},
                 "strategies": ("random", "maxspan"), "pool": [1, 2],
                 "per_run": 1},
    }


WORKLOADS = {w.name: w for w in (
    Sweep("sweep-dg",
          "the paper's headline setting and engine-bound: about 90% of wall "
          "time is Simulation.run on sparse geometric graphs, IID, no "
          "failures",
          dict(_SWEEP_BASE), workers=1,
          sizes=_sweep_sizes(list(range(1, 31)), 2)),
    Sweep("sweep-hetero",
          "the engine used differently: nodes fail mid-run, shards are "
          "ragged non-IID, and cells run in the sweep's 2-process pool",
          dict(_SWEEP_BASE, failures={"setting": "high"},
               data={"classes_per_node": 3}),
          workers=2, sizes=_sweep_sizes(_HETERO_POOL, 6)),
    Topology(),
    Lemma(),
)}


def run_pass(workload: Workload, inputs: dict, rundir: Path, repdir: Path,
             tracer=None) -> tuple[list[Op], float, float]:
    """Set up, run and collect one pass over `inputs`, whose files are in
    `rundir`. Returns the ops, the set-up seconds and the wall seconds of
    the run (the timed region)."""
    known = len(tracer.draws_per_generation()) if tracer else 0
    t0 = time.perf_counter()
    state = workload.prepare(inputs, rundir)
    t1 = time.perf_counter()
    result = workload.execute(state, repdir)
    wall_s = time.perf_counter() - t1
    draws = tracer.draws_per_generation()[known:] if tracer else None
    ops = workload.collect(state, result, repdir, wall_s, draws)
    return ops, t1 - t0, wall_s


def judge(workload: Workload, ops: list[Op], refs: dict) -> list[str]:
    """Status of each op: "ok" (output matches its reference), "raised"
    (the op raised the exception it raised when the references were
    recorded: a known defect, reproduced, not a failure of this run) or
    "wrong" (output differs from the reference, or the op raised where
    the reference holds output or another exception)."""
    status = []
    for op in ops:
        ref = refs.get(op.key)
        if ref is None:
            status.append("wrong")  # nothing to check the op against
        elif op.error is not None:
            status.append("raised" if ref.get("error") == op.error
                          else "wrong")
        elif "error" in ref:
            status.append("ok" if workload.plausible(op.record, op.key)
                          else "wrong")
        else:
            status.append("ok" if workload.matches(op.record, ref)
                          else "wrong")
    return status
