"""Numerical check of the adversarial-impact lower bound, plus a runtime
probe for the greedy placement algorithm.

The bound concerns consensus-only aggregation (neighbor averaging without
a self term, divided by the common degree) on regular symmetric graphs,
with adversaries that keep every stochastic-gradient coordinate at or
above a floor delta. Both sides of the inequality are estimated by Monte
Carlo over paired minibatch draws: an attacked trajectory and an
all-honest twin share every random choice.

Hypotheses: a symmetric d-regular graph, mixing M = E/d with no self
term, and a floor that binds at every adversary step. Let v be the
unit-L2 Perron vector (v^T M = v^T), D the attacked-minus-honest model
stack (D(0) = 0, D(t+1) = M D(t) - alpha dg(t)), and over steps
t = 0..T

    a = sum_t sum_{i in A} v_i (delta - g_i^hon),
    h = sum_t sum_{i not in A} v_i (g_i^att - g_i^hon).

Then v^T D(T+1) = -alpha (a + h), so ||D||^2 >= alpha^2 ||a + h||^2.

* Stated form: ||D||^2 >= alpha^2 (||a||^2 - ||h||^2). Its last step
  needs <a, h> >= -||h||^2, which fails when h points against a (for
  h = -c a, 0 < c < 1: (1-c)^2 ||a||^2 < (1-c^2) ||a||^2). On the default
  grid the honest restoring force does exactly that (cos(a, h) ~ -1), and
  the stated form fails from horizon 5-10 on.
* Corrected form: ||D||^2 >= alpha^2 (||a|| - ||h||)^2, by the reverse
  triangle inequality ||a + h|| >= | ||a|| - ||h|| |. It holds in every
  trial under the hypotheses.

Both forms are reported; the stated one is not replaced.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, circulant_graph, gen_erdos_renyi
from .placement import place_maxspan


class AssumptionError(ValueError):
    """The scenario violates a structural assumption of the bound."""


def check_regular_symmetric(g: Graph) -> int:
    """Return the common degree d, or raise if g is not a symmetric
    d-regular digraph, naming its lowest-index edge without a reverse."""
    a = g.adjacency_mask()
    one_way = np.argwhere(a > a.T)
    if len(one_way):
        raise AssumptionError(f"edge {tuple(one_way[0].tolist())} has no "
                              "reverse; adjacency must be symmetric")
    degrees = sorted(set(a.sum(axis=1).tolist()))
    if len(degrees) != 1:
        raise AssumptionError(f"graph is not regular (degrees {degrees})")
    if degrees[0] < 1:
        raise AssumptionError("degree must be at least 1")
    return degrees[0]


@dataclass(frozen=True)
class BoundScenario:
    """One verification cell: graph, adversary set, and loss data.

    Per-node losses are mean squared distances to a private target cloud,
    so a stochastic gradient at x is x minus a minibatch mean of targets.
    data_scale keeps honest gradients small relative to delta_min, the
    regime in which the adversarial floor binds.
    """

    graph: Graph
    adversaries: tuple[int, ...]
    delta_min: float
    alpha: float = 0.05
    horizon: int = 20
    dim: int = 2
    n_samples: int = 20
    batch_size: int = 10
    data_scale: float = 0.1
    data_seed: int = 0
    scenario_id: str = ""

    def __post_init__(self):
        check_regular_symmetric(self.graph)
        if len(set(self.adversaries)) != len(self.adversaries):
            raise AssumptionError("adversary set has duplicates")
        for a in self.adversaries:
            if not (0 <= a < self.graph.n):
                raise AssumptionError(f"adversary {a} out of range")
        if self.alpha <= 0 or self.horizon < 0 or self.dim < 1:
            raise AssumptionError("need alpha > 0, horizon >= 0, dim >= 1")
        if not (1 <= self.batch_size <= self.n_samples):
            raise AssumptionError("need 1 <= batch_size <= n_samples")

    @property
    def degree(self) -> int:
        return check_regular_symmetric(self.graph)

    def targets(self) -> np.ndarray:
        rng = np.random.default_rng(self.data_seed)
        return self.data_scale * rng.standard_normal(
            (self.graph.n, self.n_samples, self.dim))


@dataclass(frozen=True)
class BoundResult:
    """One scenario's Monte Carlo verdict on both forms of the bound.

    lhs is the mean of ||D||^2. The stated form's rhs is the mean of
    alpha^2 (||a||^2 - ||h||^2); the corrected form's rt_rhs is the mean of
    alpha^2 (||a|| - ||h||)^2 (see the module docstring). Each margin is
    the mean per-trial lhs - rhs, stderr its standard error, and a form
    passes when its margin >= -3 stderr. unbound_steps counts the adversary
    steps, over all trials, at which the floor did not bind; a row with any
    lies outside both forms' hypotheses.
    """

    scenario_id: str
    n: int
    d: int
    n_advs: int
    delta_min: float
    alpha: float
    horizon: int
    trials: int
    lhs: float
    rhs: float
    margin: float
    stderr: float
    passed: bool
    rt_rhs: float
    rt_margin: float
    rt_stderr: float
    rt_passed: bool
    unbound_steps: int

    @property
    def in_hypothesis(self) -> bool:
        """A row outside the hypotheses is no counterexample to either form."""
        return self.unbound_steps == 0


# bytes of the largest per-step temporary, the minibatch gather of a block
# of trials; the default grid's 200 trials take 250 kB and run as one block
_BLOCK_BYTES = 256 * 1024


def _block_trials(scenario: BoundScenario) -> int:
    """Trials stepped together: as many as keep the gather's
    (sample, trial, node, dim) doubles within _BLOCK_BYTES, and at least 1."""
    per_trial = scenario.batch_size * scenario.graph.n * scenario.dim * 8
    return max(1, _BLOCK_BYTES // per_trial)


def _bound_trials(scenario: BoundScenario, trials: int,
                  rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (lhs, adversary-term, honest-term) samples, plus per trial
    the number of adversary steps at which the floor did not bind (some
    coordinate of the attacked gradient already above delta).

    Blocks of trials (all of them unless their gather would pass
    _BLOCK_BYTES) advance together as (run, trial, node, dim) stacks, run 0
    attacked and run 1 its honest twin. Each trial draws its minibatches in
    one call, trial by trial, and every number is summed in the order, and
    so to the bits, of stepping one trial at a time.
    """
    g = scenario.graph
    n, p, steps = g.n, scenario.dim, scenario.horizon + 1
    m = g.adjacency_matrix() / check_regular_symmetric(g)
    adv = np.array(sorted(scenario.adversaries), dtype=int)
    hon = np.delete(np.arange(n), adv)
    v = g.eigen_centrality
    v_adv, v_hon = v[adv, None], v[hon, None]
    # node i's targets are rows i * n_samples.. of one (row, dim) table
    targets = scenario.targets().reshape(-1, p)
    row_type = np.min_scalar_type(len(targets) - 1)
    first_row = (np.arange(n) * scenario.n_samples).astype(row_type)[:, None]
    # np.mean sums one trial's (node, sample, dim) gather pairwise over
    # the samples when dim is 1 (they are then its inner loop), else one
    # sample after another; stacked, the samples go where they get the
    # same order: last for dim 1, else first
    sample_axis = 2 if p == 1 else 0
    order = (0, 1, 2) if p == 1 else (2, 0, 1)  # of the table's axes
    alpha, delta = scenario.alpha, scenario.delta_min
    draw = (steps, n, scenario.batch_size)
    size = _block_trials(scenario)

    lhs = np.empty(trials)
    adv_term = np.empty(trials)
    hon_term = np.empty(trials)
    unbound = np.zeros(trials, dtype=int)
    table = np.empty((steps, min(trials, size)) + draw[1:], dtype=row_type)
    for lo in range(0, trials, size):
        block = slice(lo, min(lo + size, trials))
        b = block.stop - lo
        rows = table[:, :b]  # (step, trial, node, sample) target rows
        for t in range(b):
            rows[:, t] = rng.integers(0, scenario.n_samples, size=draw)
        rows += first_row
        x = np.zeros((2, b, n, p))
        s_adv = np.zeros((b, p))
        s_hon = np.zeros((b, p))
        for step in range(steps):
            grads = x - targets.take(rows[step].transpose(order),
                                     axis=0).mean(axis=sample_axis)
            # both runs' adversary rows (a_*) and honest rows (h_*): `take`
            # keeps node-major layouts, so each sum over nodes runs in one
            # trial's order (`grads[:, :, nodes]` would put nodes first)
            a_att, a_hon = grads.take(adv, axis=2)  # before the floor
            unbound[block] += (a_att > delta).any(axis=-1).sum(axis=-1)
            grads[0][:, adv] = np.maximum(a_att, delta)
            h_att, h_hon = grads.take(hon, axis=2)
            s_adv += (v_adv * (delta - a_hon)).sum(axis=1)
            s_hon += (v_hon * (h_att - h_hon)).sum(axis=1)
            x = m @ x - alpha * grads
        lhs[block] = ((x[0] - x[1]) ** 2).reshape(b, -1).sum(axis=1)
        adv_term[block] = alpha ** 2 * (s_adv ** 2).sum(axis=1)
        hon_term[block] = alpha ** 2 * (s_hon ** 2).sum(axis=1)
    return lhs, adv_term, hon_term, unbound


def verify_lower_bound(scenarios: Sequence[BoundScenario], trials: int,
                       rng: np.random.Generator) -> list[BoundResult]:
    """Evaluate every scenario under both forms of the bound.

    The stated form (lhs >= alpha^2 (||a||^2 - ||h||^2); fields rhs,
    margin, stderr, passed) can fail under the hypotheses when h points
    against a; the corrected reverse-triangle form (lhs >= alpha^2
    (||a|| - ||h||)^2; fields rt_*) cannot. A form passes when its mean
    margin is at least minus three standard errors. Both come from the
    same trials, so the generator draws nothing for the corrected form.
    """
    results = []
    for scenario in scenarios:
        lhs, adv_term, hon_term, unbound = _bound_trials(scenario, trials, rng)
        margin, stderr = _mean_and_stderr(lhs - adv_term + hon_term)
        rt_rhs = (np.sqrt(adv_term) - np.sqrt(hon_term)) ** 2
        rt_margin, rt_stderr = _mean_and_stderr(lhs - rt_rhs)
        results.append(BoundResult(
            scenario_id=scenario.scenario_id or f"n{scenario.graph.n}"
            f"_a{len(scenario.adversaries)}_d{scenario.delta_min}",
            n=scenario.graph.n, d=scenario.degree,
            n_advs=len(scenario.adversaries), delta_min=scenario.delta_min,
            alpha=scenario.alpha, horizon=scenario.horizon, trials=trials,
            lhs=float(lhs.mean()),
            rhs=float(adv_term.mean() - hon_term.mean()),
            margin=margin, stderr=stderr, passed=margin >= -3.0 * stderr,
            rt_rhs=float(rt_rhs.mean()), rt_margin=rt_margin,
            rt_stderr=rt_stderr, rt_passed=rt_margin >= -3.0 * rt_stderr,
            unbound_steps=int(unbound.sum())))
    return results


def _mean_and_stderr(margins: np.ndarray) -> tuple[float, float]:
    """Mean of per-trial margins and its standard error (0 for one trial)."""
    trials = len(margins)
    stderr = float(margins.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(margins.mean()), stderr


def default_scenario_grid(n_advs_values: Sequence[int] = (1, 2, 3),
                          delta_values: Sequence[float] = (0.5, 1.0, 2.0),
                          horizon: int = 20, alpha: float = 0.05,
                          dim: int = 2, data_seed: int = 0
                          ) -> list[BoundScenario]:
    """The standard grid: an 8-node 3-regular symmetric graph (a cycle with
    diameter chords), adversaries at the lowest indices."""
    g = circulant_graph(8, (1, 4))
    grid = []
    for k in n_advs_values:
        for delta in delta_values:
            grid.append(BoundScenario(
                graph=g, adversaries=tuple(range(k)), delta_min=delta,
                alpha=alpha, horizon=horizon, dim=dim, data_seed=data_seed,
                scenario_id=f"adv{k}_delta{delta:g}"))
    return grid


# --------------------------- complexity probe -------------------------- #

@dataclass(frozen=True)
class TimingRow:
    n: int
    median_seconds: float
    cv: float  # coefficient of variation across repeats


@dataclass(frozen=True)
class TimingReport:
    rows: tuple[TimingRow, ...]
    loglog_slope: float


PROBE_P = 0.2  # the probe's default Erdős–Rényi edge probability


def complexity_probe(sizes: Sequence[int], n_adv_fraction: float = 0.1,
                     repeats: int = 5, p: float = PROBE_P,
                     seed: int = 0) -> TimingReport:
    """Median wall time of the greedy placement per graph size, with the
    fitted log-log slope across sizes."""
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        g = gen_erdos_renyi(n, p, rng)
        n_advs = max(1, int(round(n_adv_fraction * n)))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            place_maxspan(g, n_advs, rng)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        cv = float(np.std(times) / np.mean(times)) if np.mean(times) > 0 else 0.0
        rows.append(TimingRow(n=n, median_seconds=med, cv=cv))
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r.n for r in rows]),
                                 np.log([max(r.median_seconds, 1e-9)
                                         for r in rows]), 1)[0])
    else:
        slope = 0.0
    return TimingReport(rows=tuple(rows), loglog_slope=slope)
