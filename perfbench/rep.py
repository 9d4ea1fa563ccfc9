"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py RUNDIR REPDIR MODE

run.py starts this once per repetition. RUNDIR holds `inputs.json` (and
the workload's input files); REPDIR receives the program's outputs.
MODE is `warm` (import only, to compile bytecode and fill caches),
`run` (untraced) or `trace` (every layer wrapped by the tracer). The
result is one JSON line on standard output.

While it runs, the repetition samples the host's speed (hostspeed.py),
in the sweep's pool children too, and reports by what factor its raw
set-up and run seconds become host-normalised seconds.
"""
from __future__ import annotations

import json
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS, cell_samples, judge, run_pass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the sweep's pool workers
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _versions() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(rundir: Path, repdir: Path, mode: str) -> dict:
    spec = json.loads((rundir / "inputs.json").read_text())
    workload = WORKLOADS[spec["workload"]]
    inputs = spec["inputs"]
    sys.path.insert(0, str(SRC))

    if mode != "warm":
        hostspeed.SAMPLER.start()
    t0 = time.perf_counter()
    import dflsim.cli  # noqa: F401  the CLI's import cost is set-up
    import_s = time.perf_counter() - t0
    if not dflsim.cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"dflsim was imported from {dflsim.cli.__file__}, "
                         f"not from {SRC}")
    if mode == "warm":
        return {"versions": _versions()}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    t_pass = time.perf_counter()
    ops, prepare_s, wall_s = run_pass(workload, inputs, rundir, repdir,
                                      tracer)
    samples = hostspeed.SAMPLER.stop()
    t_run = t_pass + prepare_s  # where the timed region starts
    in_setup = [x for x in samples if x[0] <= t_run]
    # Where pool children ran the cells, only their samples tell the
    # speed the work ran at; this process only waited for them.
    in_run = cell_samples() or [x for x in samples
                                if t_run < x[0] <= t_run + wall_s]
    refs = json.loads(Path(spec["refs"]).read_text())["ops"]
    status = judge(workload, ops, refs)
    out = {"mode": mode, "setup_s": import_s + prepare_s, "wall_s": wall_s,
           "setup_scale": hostspeed.scale(in_setup or samples),
           "scale": hostspeed.scale(in_run or samples),
           "samples": len(in_run),
           "peak_rss_mb": _peak_rss_mb(),
           "ops": [[op.key, op.seconds, s, op.error]
                   for op, s in zip(ops, status)]}
    if tracer:
        out["layers"] = tracer.layer_metrics(
            epochs_per_run=inputs.get("config", {}).get("epochs", 0),
            trials_per_scenario=inputs.get("trials", 0))
        out["layers"].update(workload.layer_extras(repdir))
        tracer.write(rundir.parent / f"spans-{workload.name}.tsv")
    return out


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]), Path(sys.argv[2]),
                          sys.argv[3])))
