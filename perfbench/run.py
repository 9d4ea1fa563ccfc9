"""Run one workload of the dflsim benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dflsim checkout; the program is imported from
`src/`. Every repetition runs in a fresh interpreter (`rep.py`) with BLAS
pinned to one thread. After one warm-up launch, the run repeats the
workload until `--seconds` is used up, and checks every op's output
against the references in `refs/`.

Times are in host-normalised seconds (hostspeed.py): the host's speed,
sampled in the working processes while they work, is taken out of them.
A change to dflsim moves them as it moves raw time; raw figures are
printed on `#` lines.

`--trace 0` prints the end-to-end metrics, each the median over the
untraced repetitions (over all their ops, for `op_s.p50`).
`--trace 1` alternates untraced and traced repetitions and
prints the per-layer metrics of the traced ones, with the tracing
overhead. Human-readable lines start with `#`; the last line is the
result as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

END_TO_END = (("wall_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("simulation.init_s", "s"), ("simulation.run_s", "s"),
    ("simulation.epoch_s", "s"), ("simulation.self_s", "s"),
    ("learning.grad_calls", "count"), ("learning.grad_s", "s"),
    ("learning.fgsm_s", "s"), ("learning.accuracy_s", "s"),
    ("learning.data_s", "s"), ("graphs.gen_s", "s"),
    ("graphs.draws_per_graph", "draws/graph"), ("graphs.eigcent_s", "s"),
    ("graphs.eigcent_calls", "count"), ("graphs.eigcent_failures", "count"),
    ("placement.place_s.random", "s"), ("placement.place_s.eigen", "s"),
    ("placement.place_s.degree", "s"), ("placement.place_s.maxspan", "s"),
    ("placement.place_s.maxspan-hop", "s"), ("theory.scenario_s", "s"),
    ("theory.trials_per_s", "1/s"), ("sweep.pregen_s", "s"),
    ("sweep.load_graph_s", "s"), ("sweep.cell_s", "s"), ("sweep.io_s", "s"),
    ("sweep.bytes_written", "B"), ("metrics.aal_s", "s"),
    ("config.parse_s", "s"), ("config.cells_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"))

REP_TIMEOUT_S = 150    # a repetition that takes longer is killed
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RepFailed(RuntimeError):
    pass


def run_rep(rundir: Path, index: int, mode: str) -> dict:
    """One repetition in a fresh interpreter; waits for it to end."""
    repdir = rundir / f"rep{index}"
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(rundir), str(repdir),
         mode], stdout=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers too
        proc.communicate()
        raise RepFailed(f"{mode} repetition exceeded {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition exited with {proc.returncode}")
    shutil.rmtree(repdir, ignore_errors=True)
    return json.loads(stdout.decode().strip().splitlines()[-1])


def measure(rundir: Path, seconds: float, trace: bool) -> tuple:
    """A warm-up launch, then repetitions within `seconds`."""
    warm = run_rep(rundir, 0, "warm")  # compiles bytecode, fills caches
    deadline = time.monotonic() + seconds
    reps, took = [], []
    while True:
        mode = "trace" if trace and len(reps) % 2 else "run"
        t0 = time.monotonic()
        reps.append(run_rep(rundir, len(reps) + 1, mode))
        took.append(time.monotonic() - t0)
        if (len(reps) >= (2 if trace else 1)
                and time.monotonic() + max(took[-2:]) > deadline):
            return warm, reps


def environment(versions: dict) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unavailable"

    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dflsim").glob("*.py")):
        src.update(path.read_bytes())
    return dict(versions, nproc=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)),
                cgroup_cpu_max=read("/sys/fs/cgroup/cpu.max"),
                thread_env={k: "1" for k in THREAD_ENV},
                commit=commit, src_sha256=src.hexdigest()[:16])


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def scale(rep: dict) -> float:
    """Raw seconds of `rep`'s timed region to host-normalised seconds."""
    return rep["scale"]


def verified(rep: dict) -> int:
    return sum(status == "ok" for _, _, status, _ in rep["ops"])


def op_times(reps, normalise: bool = True) -> list[float]:
    """The times of every returning op of the repetitions."""
    return sorted(seconds * (scale(rep) if normalise else 1.0)
                  for rep in reps
                  for _, seconds, _, error in rep["ops"] if error is None)


def end_to_end(reps) -> dict:
    # The scale takes out the host's speed while a repetition ran; the
    # medians keep what is left of a burst from deciding the figure.
    untraced = [r for r in reps if r["mode"] == "run"]
    return {
        "wall_s": statistics.median(r["wall_s"] * scale(r)
                                    for r in untraced),
        "ops_per_s": statistics.median(verified(r) / (r["wall_s"] * scale(r))
                                       for r in untraced),
        "op_s.p50": statistics.median(op_times(untraced)),
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"]
                                     for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(reps) -> dict:
    traced = [r for r in reps if r["mode"] == "trace"]
    untraced = [r for r in reps if r["mode"] == "run"]
    power = {"s": 1, "1/s": -1}  # how a unit scales with time

    def normalised(rep, name, unit):
        return rep["layers"].get(name, 0) * scale(rep) ** power.get(unit, 0)

    out = {name: statistics.median(normalised(r, name, unit) for r in traced)
           for name, unit in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] * scale(r) for r in traced)
        - statistics.median(r["wall_s"] * scale(r) for r in untraced))
    return out


def report(workload, seed, env, reps, trace) -> dict:
    ops = [op for r in reps for op in r["ops"]]
    raised = [op for op in ops if op[2] == "raised"]
    wrong = [op for op in ops if op[2] == "wrong"]
    n_run = sum(r["mode"] == "run" for r in reps)
    print(f"# workload {workload.name}, seed {seed}: {workload.why}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# repetitions: {n_run} untraced, {len(reps) - n_run} traced; "
          f"ops: {len(ops)} attempted, {len(wrong)} failed (outcome not "
          f"as the reference), {len(raised)} raised as the reference did "
          f"(share {len(raised) / len(ops):.4f})")
    for error, count in sorted(Counter(op[3] or "wrong output"
                                       for op in raised + wrong).items()):
        print(f"# raised or wrong ops: {count} x {error}")
    scales = sorted(scale(r) for r in reps)
    print(f"# host-normalised seconds: raw seconds x scale, from "
          f"{statistics.median(r['samples'] for r in reps):.0f} host-speed "
          f"samples per repetition (median); scale per repetition "
          f"{scales[0]:.3f} to {scales[-1]:.3f}, median "
          f"{statistics.median(scales):.3f}")
    if trace:
        values, units = per_layer(reps), dict(PER_LAYER)
    else:
        values, units = end_to_end(reps), dict(END_TO_END)
        untraced = [r for r in reps if r["mode"] == "run"]
        walls = sorted(r["wall_s"] for r in untraced)
        raw = op_times(untraced, normalise=False)
        times = op_times(untraced)
        print(f"# raw wall_s per repetition: fastest {walls[0]:.4f} s, "
              f"median {statistics.median(walls):.4f} s, slowest "
              f"{walls[-1]:.4f} s (n={n_run}); raw setup_s median "
              f"{statistics.median(r['setup_s'] for r in untraced):.4f} s")
        print(f"# op_s over {len(times)} returning ops of {n_run} "
              f"repetitions: p50 {statistics.median(times):.6f} s, p90 "
              f"{p90(times):.6f} s "
              f"({len(times) - math.ceil(0.9 * len(times))} ops beyond p90)"
              f"; raw p50 {statistics.median(raw):.6f} s")
    return {"correct": not wrong, "attempted": len(ops),
            "failed": len(wrong),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def bench(workload, inputs: dict, refs: Path, seed: int, seconds: float,
          trace: bool) -> dict:
    """Measure a workload on `inputs` and check it against `refs`; the
    result is the benchmark's JSON object."""
    rundir = OUT / f"run-{workload.name}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        if trace and inputs.get("workers", 1) > 1:
            # pool children are invisible to the tracer
            inputs = dict(inputs, workers=1)
            print("# traced in-process: pool children are invisible to the "
                  "tracer, so this run's repetitions, traced or not, use "
                  "workers=1")
        workload.write_files(inputs, rundir)
        (rundir / "inputs.json").write_text(json.dumps(
            {"workload": workload.name, "inputs": inputs,
             "refs": str(refs.resolve())}))
        warm, reps = measure(rundir, seconds, trace)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if all(error for r in reps for _, _, _, error in r["ops"]):
        raise RepFailed("every op raised")
    return report(workload, seed, environment(warm["versions"]), reps, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dflsim" / "__init__.py").is_file():
        print(f"error: no dflsim sources at {ROOT / 'src' / 'dflsim'}; run "
              f"from the root of a dflsim checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = bench(workload, workload.make_inputs(args.seed),
                       HERE / "refs" / f"{workload.name}.json", args.seed,
                       args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
