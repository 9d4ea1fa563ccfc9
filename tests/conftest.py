"""Imported before any test module: `dflsim` pins BLAS to one thread
(see `dflsim/__init__.py`), which only takes effect if it runs before
numpy first loads, and several test modules import numpy first."""
import dflsim  # noqa: F401

import pytest

from dflsim.graphs import GraphFamily
from dflsim.simulation import seed_streams


@pytest.fixture(scope="session")
def benchmark_pool():
    """The r=0.2, n=25 geometric graphs of the sweep workloads' seed pool
    (which holds the acceptance suite's 20-seed bank) and the er, dg and pa
    graphs at n=100 and 400 of the topology workload, generated as in a
    sweep cell."""
    keys = [("dg", 0.2, 25, seed) for seed in range(1, 31)]
    keys += [(kind, param, n, seed)
             for kind, param in (("er", 0.1), ("dg", 0.2), ("pa", 2))
             for n in (100, 400) for seed in range(1, 7)]
    return [GraphFamily(kind, param).generate(n, seed_streams(seed)["graph"])
            for kind, param, n, seed in keys]
