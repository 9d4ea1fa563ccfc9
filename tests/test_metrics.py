import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim.metrics import MetricError, attack_advantage, compute_aal


def trace(values):
    """A trace as the engine gives it: entry e is epoch e's accuracy."""
    return np.asarray(values, dtype=float)


class TestComputeAal:
    def test_identical_traces(self):
        t = trace([0.5, 0.6, 0.7])
        assert compute_aal(t, t, 0) == 0.0

    def test_hand_example(self):
        baseline = trace([0.8, 0.8])
        attacked = trace([0.6, 0.5])
        assert compute_aal(baseline, attacked, 0) == pytest.approx(50.0)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            t_attack = int(rng.integers(0, n))
            base_vals = rng.random(n)
            att_vals = rng.random(n)
            expect = 0.0
            for i in range(t_attack, n):  # spreadsheet-style re-summation
                expect += base_vals[i] * 100 - att_vals[i] * 100
            got = compute_aal(trace(base_vals), trace(att_vals), t_attack)
            assert got == pytest.approx(expect, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            compute_aal(trace([0.5, 0.5]), trace([0.5]), 0)

    def test_epoch_column_refused(self):
        # the index is the epoch: a trace that carries its own epoch
        # column is not one-dimensional
        epochs = trace([[0, 0.5], [1, 0.5]])
        with pytest.raises(MetricError, match="1-D traces"):
            compute_aal(epochs, epochs, 0)

    def test_t_attack_out_of_range(self):
        with pytest.raises(MetricError):
            compute_aal(trace([0.5, 0.5]), trace([0.5, 0.5]), 5)

    def test_linear_in_differences(self):
        base = np.array([0.9, 0.8, 0.7, 0.9])
        att = np.array([0.6, 0.5, 0.6, 0.8])
        full = compute_aal(trace(base), trace(att), 1)
        scaled = compute_aal(trace(0.5 + (base - 0.5) * 0.5),
                             trace(0.5 + (att - 0.5) * 0.5), 1)
        assert scaled == pytest.approx(full / 2)

    def test_final_epoch_only(self):
        base = trace([0.9, 0.9, 0.9])
        att = trace([0.9, 0.5, 0.6])
        assert compute_aal(base, att, 2) == pytest.approx(30.0)

    def test_higher_aal_means_lower_attacked_mean(self):
        base = trace([0.9] * 5)
        weak = trace([0.9, 0.9, 0.8, 0.8, 0.8])
        strong = trace([0.9, 0.9, 0.5, 0.4, 0.4])
        assert compute_aal(base, strong, 2) > compute_aal(base, weak, 2)


class TestAttackAdvantage:
    def test_equal(self):
        assert attack_advantage(120.0, 120.0) == 0.0

    def test_fifty_percent(self):
        assert attack_advantage(150.0, 100.0) == pytest.approx(50.0)

    def test_matches_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            best, nxt = rng.normal(size=2) * 100
            if nxt == 0:
                continue
            assert attack_advantage(best, nxt) == pytest.approx(
                (best - nxt) / nxt * 100)

    def test_zero_reference(self):
        with pytest.raises(MetricError):
            attack_advantage(10.0, 0.0)


def test_accuracy_bounds():
    # every entry of either trace, also before t_attack, is in [0, 1]
    for bad in (1.2, -0.1, np.nan, np.inf):
        for side in (0, 1):
            traces = [trace([0.5, 0.5, 0.5]), trace([0.5, 0.5, 0.5])]
            traces[side][0] = bad
            with pytest.raises(MetricError, match=r"outside \[0, 1\]"):
                compute_aal(*traces, 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       st.integers(0, 39))
def test_aal_of_identical_traces_is_zero(values, t_attack):
    t = trace(values)
    t_attack = min(t_attack, len(t) - 1)
    assert compute_aal(t, t.copy(), t_attack) == 0.0
