"""Parallel sweeps: the BLAS pin that `import dflsim` sets, and the
pool's key-per-task dispatch, which computes each adversary-free run
once across all worker processes."""
import os
import subprocess
import sys
from pathlib import Path

import dflsim
from dflsim import sweep
from dflsim.config import parse_config
from dflsim.sweep import run_experiment

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(dflsim.__file__).resolve().parents[1])

SMALL_CONFIG = """
name: small
graph: {family: dg, n: 12, param: 0.5}
adversary_count: 2
epochs: 10
t_attack: 3
failures: mild
data: {classes: 5, feature_dim: 8, samples_per_node: 12, test_samples: 150}
sweep:
  strategy: [random, degree, maxspan-hop]
  seed: [1, 2, 3]
"""

# the sweep-hetero benchmark workload's config: 6 keys of 5 cells each
HETERO_CONFIG = """
name: hetero
graph: {family: dg, n: 25, param: 0.2}
epochs: 60
t_attack: 15
adversary_fraction: 0.2
failures: {setting: high}
data: {classes_per_node: 3}
sweep:
  strategy: [random, eigen, degree, maxspan, maxspan-hop]
  seed: [7, 8, 20, 2, 21, 4]
"""


def _python(args, blas: dict, cwd=None) -> subprocess.CompletedProcess:
    """Run the interpreter with the BLAS variables set to `blas` alone."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          check=True)


def _blas_after_import(blas: dict) -> list[str]:
    code = ("import os, dflsim; print(*(os.environ[k] for k in %r))"
            % (BLAS_VARS,))
    return _python(["-c", code], blas).stdout.split()


def test_import_pins_blas_to_one_thread():
    assert _blas_after_import({}) == ["1", "1", "1"]


def test_user_blas_setting_wins():
    assert _blas_after_import({"OPENBLAS_NUM_THREADS": "2"}) == \
        ["2", "1", "1"]


def test_pinned_and_unpinned_runs_write_the_same_bytes(tmp_path):
    config = tmp_path / "small.yaml"
    config.write_text(SMALL_CONFIG)
    outs = {}
    for label, blas in (("pinned", {}),
                        ("unpinned", {"OPENBLAS_NUM_THREADS": "2"})):
        outs[label] = tmp_path / label
        _python(["-m", "dflsim.cli", "run", str(config), "-o",
                 str(outs[label]), "--workers", "2"], blas)
    files = sorted(p.relative_to(outs["pinned"])
                   for p in outs["pinned"].rglob("*") if p.is_file())
    assert len(files) == 9 * 2 + 3 + 2  # traces, graphs, summaries
    assert files == sorted(p.relative_to(outs["unpinned"])
                           for p in outs["unpinned"].rglob("*")
                           if p.is_file())
    for name in files:
        assert (outs["pinned"] / name).read_bytes() == \
            (outs["unpinned"] / name).read_bytes(), name


def test_pool_computes_each_adversary_free_run_once(tmp_path, monkeypatch):
    # the pool's children are forked, so they run this wrapper too; each
    # appends a line per computed run to one file
    log = tmp_path / "computed.txt"
    compute = sweep.run_adversary_free

    def counting(cfg, graph):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {cfg.seed}\n")
        return compute(cfg, graph)

    monkeypatch.setattr(sweep, "run_adversary_free", counting)
    config = tmp_path / "hetero.yaml"
    config.write_text(HETERO_CONFIG)
    result = run_experiment(parse_config(config), output_dir=tmp_path / "out",
                            workers=2)
    assert result.n_cells == 30 and result.n_failed == 0
    computed = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(seed) for _, seed in computed) == [2, 4, 7, 8, 20, 21]
    assert str(os.getpid()) not in {pid for pid, _ in computed}
