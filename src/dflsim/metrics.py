"""Attack-impact metrics over accuracy traces."""
from __future__ import annotations

from dataclasses import dataclass


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class EpochMetrics:
    """Average honest-node test accuracy (a fraction in [0, 1]) at one epoch."""

    epoch: int
    accuracy: float
    n_honest_alive: int = 0

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise MetricError(f"accuracy {self.accuracy} outside [0, 1]")


def compute_aal(baseline: list[EpochMetrics], attacked: list[EpochMetrics],
                t_attack: int) -> float:
    """Attack accuracy loss: cumulative percentage-point accuracy gap.

    Sums (baseline - attacked) * 100 over epochs t_attack..final, both
    ends inclusive. Traces are stored as fractions; the conversion to
    percent happens here.
    """
    if len(baseline) != len(attacked):
        raise MetricError(f"trace length mismatch: {len(baseline)} vs "
                          f"{len(attacked)}")
    last = baseline[-1].epoch
    if not (0 <= t_attack <= last):
        raise MetricError(f"t_attack {t_attack} outside trace range 0..{last}")
    total = 0.0
    for b, a in zip(baseline, attacked):
        if b.epoch != a.epoch:
            raise MetricError("traces disagree on epoch indexing")
        if b.epoch >= t_attack:
            total += (b.accuracy - a.accuracy) * 100.0
    return total


# Not on the sweep's path: a metric of its own for comparing two attacks
# (README, Metrics), not a reference for one the program computes.
def attack_advantage(aal_best: float, aal_next: float) -> float:
    """Relative advantage of the best attack over the next best, percent."""
    if aal_next == 0:
        raise MetricError("advantage undefined when the reference AAL is 0")
    return (aal_best - aal_next) / aal_next * 100.0
