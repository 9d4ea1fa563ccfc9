"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py WORKLOAD

Runs every member of the workload's input pool once, in this process,
through the same code as a measured run, and writes one record per op
(or the exception the op raised) to `refs/WORKLOAD.json`. Generation is
traced, so topology references also keep each graph's rejection draws.
Re-record only when a change to the program is meant to change outputs.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(name: str, out: Path, size: str = "full") -> dict:
    """Record the ops of every input of the workload's pool at `size`."""
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()
    scratch = HERE / ".out" / f"record-{name}"
    shutil.rmtree(scratch, ignore_errors=True)
    ops = {}
    try:
        for inputs in workload.pool_inputs(size):
            scratch.mkdir(parents=True)
            workload.write_files(inputs, scratch)
            for op in run_pass(workload, inputs, scratch, scratch / "rep",
                               tracer)[0]:
                ops[op.key] = op.record if op.error is None else {
                    "error": op.error}
            shutil.rmtree(scratch)
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"workload": name, "size": size, "recorded_at": commit,
           "ops": ops}
    head = json.dumps({k: v for k, v in doc.items() if k != "ops"})
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                        for k, v in sorted(ops.items()))
    out.write_text(f'{head[:-1]}, "ops": {{\n{lines}\n}}}}\n')
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    args = parser.parse_args(argv)
    out = HERE / "refs" / f"{args.workload}.json"
    doc = record(args.workload, out)
    raised = sum("error" in r for r in doc["ops"].values())
    print(f"{args.workload}: {len(doc['ops'])} ops recorded, {raised} raised"
          f"; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
