"""Adversary-selection strategies over a communication graph.

Five strategies share one interface: uniform random, top eigenvector
centrality, top degree centrality, greedy influence-region spreading
(`maxspan`), and the spreading strategy refined by probabilistic hops
toward locally central neighbors (`maxspan-hop`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (Graph, bfs_clusters, bfs_regions, clustering_coefficients,
                     degree_centrality, degree_variance_normalized)

STRATEGY_IDS = ("random", "eigen", "degree", "maxspan", "maxspan-hop")


@dataclass(frozen=True)
class HoppingParams:
    """Decision-boundary and decay parameters for the hopping mechanism.

    The defaults center the logistic decision boundary at normalized
    clustering = normalized degree variance = 0.5; none of them carries a
    ground-truth claim and all are config-exposed.
    """

    alpha0: float = 5.0
    alpha1: float = -0.5
    alpha2: float = -0.5
    decay: float = 1.0

    def __post_init__(self):
        """One ValueError, one `field: text` line per bad value."""
        problems = [f"{name}: {value} is not finite"
                    for name, value in vars(self).items()
                    if not math.isfinite(value)]
        if self.decay < 0:
            problems.append(f"decay: {self.decay} is negative")
        if problems:
            raise ValueError("\n".join(problems))


@dataclass(frozen=True)
class AdversarySet:
    """Ordered selection of adversarial node indices plus provenance."""

    members: tuple[int, ...]
    strategy: str
    seed: Optional[int] = None
    hop_trace: Optional[tuple[tuple[int, tuple[int, ...]], ...]] = None

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("adversary members must be distinct")


def _check_count(n: int, n_advs: int) -> None:
    if not (1 <= n_advs <= n):
        raise ValueError(f"need 1 <= n_advs <= {n}, got {n_advs}")


def place_random(g: Graph, n_advs: int, rng: np.random.Generator) -> AdversarySet:
    """Uniform sample of n_advs distinct nodes."""
    _check_count(g.n, n_advs)
    members = rng.choice(g.n, size=n_advs, replace=False)
    return AdversarySet(members=tuple(int(v) for v in members),
                        strategy="random")


def place_centrality(g: Graph, n_advs: int,
                     measure: str = "eigen") -> AdversarySet:
    """The n_advs nodes with the highest centrality, ties by lowest index."""
    _check_count(g.n, n_advs)
    if measure == "eigen":
        values = g.eigen_centrality
    elif measure == "degree":
        values = degree_centrality(g).astype(float)
    else:
        raise ValueError(f"unknown centrality measure {measure!r}")
    order = np.argsort(-values, kind="stable")
    return AdversarySet(members=tuple(int(v) for v in order[:n_advs]),
                        strategy=measure)


# Up to this many nodes, recomputing every overlap on regions packed into
# Python ints beats keeping the overlaps on arrays (they cross near 70).
_BIT_GREEDY_MAX_N = 64


def place_maxspan(g: Graph, n_advs: int, rng: np.random.Generator, *,
                  first: Optional[int] = None) -> AdversarySet:
    """Greedy spread of adversaries by minimizing influence-region overlap.

    The first node is drawn uniformly at random (or pinned via `first`,
    a testing and analysis hook); each following pick is the honest node
    whose BFS influence region, sized floor(n / n_advs), overlaps least
    with the regions already claimed, ties broken by lowest node index.
    """
    _check_count(g.n, n_advs)
    s_cluster = max(1, g.n // n_advs)
    if first is None:
        first = int(rng.integers(g.n))
    elif not (0 <= first < g.n):
        raise ValueError(f"first pick {first} out of range")
    members = [first]
    if g.n <= _BIT_GREEDY_MAX_N:
        regions, covered = bfs_regions(g, s_cluster), 0
        while len(members) < n_advs:
            covered |= regions[members[-1]]
            overlap = [(region & covered).bit_count() for region in regions]
            for v in members:
                overlap[v] = g.n + 1
            members.append(min(range(g.n), key=overlap.__getitem__))
        return AdversarySet(members=tuple(members), strategy="maxspan")
    member = bfs_clusters(g, s_cluster)
    overlap = np.zeros(g.n, dtype=np.int64)  # kept as the covered nodes grow
    covered = np.zeros(g.n, dtype=bool)
    while len(members) < n_advs:
        pick = members[-1]
        fresh = member[pick] > covered
        covered |= fresh
        overlap += np.add.reduce(member.T[fresh])
        overlap[pick] = g.n + 1  # above any overlap: no second pick
        members.append(int(overlap.argmin()))  # ties: lowest index
    return AdversarySet(members=tuple(members), strategy="maxspan")


def hop_probability(c_hat: float, var_hat: float, params: HoppingParams,
                    t: int, n: int) -> float:
    """Probability of one more hop after t hops on an n-node graph.

    Product of a logistic decision term over the normalized clustering
    coefficient and degree variance, and an exponential decay in the hop
    count scaled by log n.
    """
    if n <= 1:
        raise ValueError(f"need n >= 2 (log n > 0), got {n}")
    if t < 0:
        raise ValueError(f"hop count must be >= 0, got {t}")
    z = params.alpha0 * (c_hat + params.alpha1) * (var_hat + params.alpha2)
    if z > 700.0:  # exp would overflow; logistic is 0 to double precision
        logistic = 0.0
    else:
        logistic = 1.0 / (1.0 + math.exp(z))
    return logistic * math.exp(-params.decay * t / math.log(n))


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values, dtype=float)
    return (values - lo) / (hi - lo)


def place_maxspan_hopping(g: Graph, n_advs: int, params: HoppingParams,
                          rng: np.random.Generator, *,
                          first: Optional[int] = None) -> AdversarySet:
    """Greedy spreading followed by probabilistic hops to central neighbors.

    Each placed adversary independently keeps hopping to its highest
    eigenvector-centrality out-neighbor (excluding current adversaries)
    while uniform draws stay below the hop probability; the hop chance
    decays with hops already taken. An adversary hops at most g.n times,
    so the loop ends even where the hop probability stays 1 (decay 0 and
    a saturated logistic). Records the hop trace per adversary.
    """
    base = place_maxspan(g, n_advs, rng, first=first)
    c_hat = _minmax(clustering_coefficients(g))
    var_hat = degree_variance_normalized(g)
    offsets, targets = g.out_csr
    members = list(base.members)
    current = set(members)
    trace = []
    for idx, start in enumerate(base.members):
        a = start
        hops: list[int] = []
        t = 0
        while t < g.n:
            p = hop_probability(float(c_hat[start]), var_hat, params, t, g.n)
            if rng.random() >= p:
                break
            candidates = [v for v in targets[offsets[a]:offsets[a + 1]].tolist()
                          if v not in current]
            if not candidates:
                break
            if len(candidates) == 1:
                target = candidates[0]
            else:  # the graph's centrality is computed only now, once
                target = max(candidates, key=lambda v: (
                    float(g.eigen_centrality[v]), -v))
            current.remove(a)
            current.add(target)
            a = target
            hops.append(target)
            t += 1
        members[idx] = a
        trace.append((start, tuple(hops)))
    return AdversarySet(members=tuple(members), strategy="maxspan-hop",
                        hop_trace=tuple(trace))


def place(g: Graph, strategy: str, n_advs: int, rng: np.random.Generator,
          hopping: Optional[HoppingParams] = None) -> AdversarySet:
    """Dispatch by strategy identifier (see STRATEGY_IDS)."""
    if strategy == "random":
        return place_random(g, n_advs, rng)
    if strategy in ("eigen", "degree"):
        return place_centrality(g, n_advs, measure=strategy)
    if strategy == "maxspan":
        return place_maxspan(g, n_advs, rng)
    if strategy == "maxspan-hop":
        return place_maxspan_hopping(g, n_advs, hopping or HoppingParams(), rng)
    raise ValueError(f"unknown strategy {strategy!r}; "
                     f"expected one of {STRATEGY_IDS}")
