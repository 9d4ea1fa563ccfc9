"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a dflsim checkout; takes about a minute. It checks
that

- every workload runs end to end, untraced and traced, and prints every
  metric of BENCHMARK.json with its unit;
- a corrupted reference value turns exactly that op into a failure;
- an op that raises where its reference holds output, or raises another
  exception than recorded, is wrong, so the run is not correct;
- a wrapped function the program stops calling reads zero instead of
  breaking the traced run.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import record
import run
from tracer import Tracer
from workloads import WORKLOADS, Op, judge, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".out" / "selftest"


def check_declared_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in bench["end_to_end"]}
    assert declared == set(run.END_TO_END), declared ^ set(run.END_TO_END)
    declared = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    assert declared == set(run.PER_LAYER), declared ^ set(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def tiny_bench(name: str, refs: Path, trace: bool) -> dict:
    workload = WORKLOADS[name]
    return run.bench(workload, workload.make_inputs(1, "tiny"), refs, 1,
                     seconds=1, trace=trace)


def smoke_run(name: str, refs: Path) -> None:
    for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = tiny_bench(name, refs, trace)
        json.dumps(result)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (name, trace, result)
        assert result["attempted"] >= 1
        printed = {(k, v["unit"]) for k, v in result["metrics"].items()}
        assert printed == set(expected), (name, trace, printed)
        for k, v in result["metrics"].items():
            assert isinstance(v["value"], (int, float)), (name, k)


def run_in_process(name: str, tag: str) -> list[Op]:
    """One tiny pass of a workload in this process."""
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(1, "tiny")
    rundir = SCRATCH / f"{name}-{tag}"
    rundir.mkdir(parents=True)
    workload.write_files(inputs, rundir)
    return run_pass(workload, inputs, rundir, rundir / "rep")[0]


def check_corrupted_reference(name: str, refs: Path) -> None:
    workload = WORKLOADS[name]
    ops = run_in_process(name, "corrupt")
    ref_ops = json.loads(refs.read_text())["ops"]
    assert all(s in ("ok", "raised") for s in judge(workload, ops, ref_ops))
    victim = next(op for op in ops if op.error is None)
    bad = json.loads(json.dumps(ref_ops))
    entry = bad[victim.key]
    if "members" in entry:
        entry["members"] = entry["members"][::-1]
    elif "lhs" in entry:
        entry["lhs"] *= 1 + 1e-6
    else:
        entry["row"][-1] = repr(float(entry["row"][-1]) + 1e-9)
    status = judge(workload, ops, bad)
    wrong = [op.key for op, s in zip(ops, status) if s == "wrong"]
    assert wrong == [victim.key], (name, wrong)

    # the same op raising now, where its reference holds output
    raising = [Op(op.key, op.seconds, error="RuntimeError")
               if op is victim else op for op in ops]
    status = judge(workload, raising, ref_ops)
    wrong = [op.key for op, s in zip(raising, status) if s == "wrong"]
    assert wrong == [victim.key], (name, wrong)

    # an op that raised when recorded, raising another exception now
    known = next((op for op in ops if op.error is not None), None)
    if known is not None:
        other = [Op(op.key, op.seconds, error="RuntimeError")
                 if op is known else op for op in ops]
        status = judge(workload, other, ref_ops)
        wrong = [op.key for op, s in zip(other, status) if s == "wrong"]
        assert wrong == [known.key], (name, wrong)


def check_new_raise_is_incorrect(refs: Path) -> None:
    """A run in which an op raises that returned output when the
    references were recorded reports correct false."""
    doc = json.loads(refs.read_text())
    key = next(k for k, v in doc["ops"].items() if "error" in v)
    doc["ops"][key] = {"graph": "recorded", "members": [0]}
    changed = SCRATCH / "topology-output-where-raised.json"
    changed.write_text(json.dumps(doc))
    honest = tiny_bench("topology", refs, trace=False)
    result = tiny_bench("topology", changed, trace=False)
    assert honest["correct"] is True and result["correct"] is False, result
    assert honest["failed"] == 0 and result["failed"] > 0, (honest, result)


def check_uncalled_function_reads_zero() -> None:
    import dflsim.simulation
    original = dflsim.simulation.loss_and_grad
    tracer = Tracer()
    tracer.install()
    try:
        assert dflsim.simulation.loss_and_grad is not original
        # the engine now calls an unwrapped gradient, as a batched engine
        # that no longer calls loss_and_grad would
        dflsim.simulation.loss_and_grad = original
        run_in_process("sweep-dg", "uncalled")
    finally:
        tracer.uninstall()
    assert dflsim.simulation.loss_and_grad is original
    layers = tracer.layer_metrics(epochs_per_run=6)
    assert layers["learning.grad_calls"] == 0, layers
    assert layers["learning.grad_s"] == 0.0
    assert layers["simulation.run_s"] > 0
    assert set(layers) | {"sweep.bytes_written", "trace.overhead_s"} == {
        name for name, _ in run.PER_LAYER}


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        check_declared_metrics()
        for name in WORKLOADS:
            refs = SCRATCH / f"{name}.json"
            record.record(name, refs, size="tiny")
            smoke_run(name, refs)
            check_corrupted_reference(name, refs)
            print(f"ok: {name}")
        check_new_raise_is_incorrect(SCRATCH / "topology.json")
        print("ok: an op raising where its reference holds output fails "
              "the run")
        check_uncalled_function_reads_zero()
        print("ok: uncalled wrapped function reads zero")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
