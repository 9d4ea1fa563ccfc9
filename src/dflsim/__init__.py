"""Placement attacks on decentralized federated learning, at desk scale.

Subpackages by concern: `graphs` (topologies and metrics), `placement`
(adversary selection strategies), `learning` (task, model, poisoning),
`simulation` (the consensus training engine), `metrics` (attack impact),
`theory` (lower-bound verification, runtime probe), `config`/`sweep`/
`plots`/`cli` (experiment plumbing).
"""
import os

# One BLAS thread per process. The engine's matrices are small, so extra
# BLAS threads only contend for the cores, and a sweep's pool workers
# would each start a full set. BLAS reads these when numpy first loads,
# which is why this runs before any submodule imports numpy. A value
# already set wins; a caller that imported numpy first must set them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
