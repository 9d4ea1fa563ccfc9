"""Attack-impact metrics over accuracy traces."""
from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    pass


def compute_aal(baseline, attacked, t_attack: int) -> float:
    """Attack accuracy loss: cumulative percentage-point accuracy gap.

    The traces are 1-D arrays (or sequences) of average honest test
    accuracy, fractions in [0, 1], whose entry e is epoch e. Sums
    (baseline - attacked) * 100 over epochs t_attack..final, both ends
    inclusive, in epoch order; the conversion to percent happens here.
    """
    baseline, attacked = np.asarray(baseline, float), np.asarray(attacked, float)
    if baseline.ndim != 1 or baseline.shape != attacked.shape:
        raise MetricError(f"trace shapes {baseline.shape} and {attacked.shape}"
                          ": expected two 1-D traces of equal length")
    last = len(baseline) - 1
    if not (0 <= t_attack <= last):
        raise MetricError(f"t_attack {t_attack} outside trace range 0..{last}")
    both = np.concatenate((baseline, attacked))
    if not 0.0 <= both.min() <= both.max() <= 1.0:  # NaN fails too
        bad = both[~((both >= 0.0) & (both <= 1.0))][0]
        raise MetricError(f"accuracy {bad} outside [0, 1]")
    total = 0.0
    for b, a in zip(baseline[t_attack:].tolist(), attacked[t_attack:].tolist()):
        total += (b - a) * 100.0
    return total


# Not on the sweep's path: a metric of its own for comparing two attacks
# (README, Metrics), not a reference for one the program computes.
def attack_advantage(aal_best: float, aal_next: float) -> float:
    """Relative advantage of the best attack over the next best, percent."""
    if aal_next == 0:
        raise MetricError("advantage undefined when the reference AAL is 0")
    return (aal_best - aal_next) / aal_next * 100.0
