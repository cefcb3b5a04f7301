"""Tests for the statistics toolkit."""

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.statistics import (
    confidence_interval,
    mean,
    quantile,
    std_dev,
    summarize,
    variance,
    wilson_interval,
)


class TestBasics:
    def test_mean(self):
        assert mean([1, 2, 3, 4]) == 2.5
        with pytest.raises(ValueError):
            mean([])

    def test_variance_and_std(self):
        assert variance([2, 2, 2]) == 0.0
        assert variance([5]) == 0.0
        assert math.isclose(variance([1, 2, 3]), 1.0)
        assert math.isclose(std_dev([1, 2, 3]), 1.0)

    def test_quantile(self):
        values = [1, 2, 3, 4, 5]
        assert quantile(values, 0.0) == 1
        assert quantile(values, 0.5) == 3
        assert quantile(values, 1.0) == 5
        assert quantile(values, 0.25) == 2
        assert quantile([7], 0.9) == 7
        with pytest.raises(ValueError):
            quantile(values, 1.5)
        # Regression: the convex-combination interpolation underflowed below
        # the sample range for subnormal values (returned 0.0 here).
        assert quantile([5e-324, 5e-324], 0.5) == 5e-324
        with pytest.raises(ValueError):
            quantile([], 0.5)


class TestConfidenceInterval:
    def test_single_value_degenerates(self):
        assert confidence_interval([4.0]) == (4.0, 4.0)

    def test_contains_mean_and_shrinks_with_samples(self):
        small = confidence_interval([1, 2, 3, 4, 5])
        large = confidence_interval(list(range(1, 6)) * 20)
        assert small[0] < 3 < small[1]
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            confidence_interval([1, 2], confidence=1.5)

    def test_zero_variance_samples_degenerate_without_warnings(self):
        """Regression: all-identical outcomes (100% correctness rates) must
        yield the degenerate interval and touch no warning-raising float
        arithmetic — the helpers used to run the full z·s/√n path on them."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails the test
            assert confidence_interval([5.0] * 8) == (5.0, 5.0)
            assert confidence_interval([0.0, 0.0, 0.0]) == (0.0, 0.0)
            assert variance([7.25] * 3) == 0.0
            assert std_dev([7.25] * 3) == 0.0
            stats = summarize([1.5] * 6)
            assert stats.std == 0.0 and stats.mean == 1.5

    def test_zero_variance_numpy_scalars_degenerate_without_warnings(self):
        """The same guarantee when the sample arrives as numpy scalars,
        whose arithmetic reports edge cases as RuntimeWarning instead of
        raising (the spelling aggregation code actually feeds in)."""
        numpy = pytest.importorskip("numpy")
        sample = list(numpy.array([3.0, 3.0, 3.0, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = confidence_interval(sample)
            assert (low, high) == (3.0, 3.0)
            assert isinstance(low, float)
            assert variance(sample) == 0.0


class TestWilsonInterval:
    def test_stays_open_at_phat_one(self):
        """The regime adaptive sweeps live in: every trial correct.  The
        normal interval collapses to zero width; Wilson must not."""
        low, high = wilson_interval(8, 8)
        assert high == 1.0
        assert 0.0 < low < 1.0
        # z²/(2(n + z²)) at z=1.96, n=8 — the analytical half-width.
        assert math.isclose((high - low) / 2, 3.8416 / (2 * (8 + 3.8416)), rel_tol=1e-3)

    def test_stays_open_at_phat_zero(self):
        low, high = wilson_interval(0, 8)
        assert low == 0.0
        assert 0.0 < high < 1.0
        # Symmetric to the p̂=1 case.
        one_low, one_high = wilson_interval(8, 8)
        assert math.isclose(high, 1.0 - one_low)

    def test_tiny_samples(self):
        low, high = wilson_interval(1, 1)
        assert low > 0.0 and high == 1.0
        low, high = wilson_interval(0, 1)
        assert low == 0.0 and high < 1.0
        # One success in two: the interval straddles 1/2 and stays in [0, 1].
        low, high = wilson_interval(1, 2)
        assert 0.0 <= low < 0.5 < high <= 1.0

    def test_shrinks_with_samples_and_contains_phat(self):
        widths = []
        for count in (4, 16, 64, 256):
            low, high = wilson_interval(count // 2, count)
            assert low < 0.5 < high
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 2, confidence=1.0)

    def test_summarize_proportion_switch(self):
        stats = summarize([1.0, 1.0, 1.0, 1.0], proportion=True)
        assert (stats.ci_low, stats.ci_high) == wilson_interval(4, 4)
        assert stats.half_width is not None and stats.half_width > 0
        with pytest.raises(ValueError):
            summarize([0.5, 1.0], proportion=True)

    def test_summarize_default_keeps_zero_variance_short_circuit(self):
        """proportion=False (the default) must keep the degenerate normal
        interval on all-identical samples — the pre-existing contract."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = summarize([1.0] * 6)
        assert (stats.ci_low, stats.ci_high) == (1.0, 1.0)
        assert stats.half_width == 0.0


class TestSummary:
    def test_summarize(self):
        stats = summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert stats.count == 10
        assert stats.mean == 5.5
        assert stats.minimum == 1
        assert stats.maximum == 10
        assert stats.median == 5.5
        assert stats.p90 > stats.median
        assert len(stats.as_row()) == 7


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40))
def test_summary_is_internally_consistent(values):
    stats = summarize(values)
    # Tiny relative tolerance absorbs the one-ulp rounding of the mean.
    slack = 1e-9 * max(1.0, abs(stats.minimum), abs(stats.maximum))
    assert stats.minimum <= stats.median <= stats.maximum
    assert stats.minimum - slack <= stats.mean <= stats.maximum + slack
    assert stats.std >= 0


class TestChiSquaredHelpers:
    """The agreement tests' critical values stop at their table's end."""

    @staticmethod
    def uniform(bins: int) -> tuple[dict, dict]:
        """``bins`` outcomes seen 10 times each, and their exact law."""
        return {key: 10 for key in range(bins)}, {key: 1 / bins for key in range(bins)}

    def test_the_table_runs_through_df_30(self, one_sample_chi_squared, two_sample_chi_squared):
        observed, exact = self.uniform(31)
        assert one_sample_chi_squared(observed, exact, 310)[1] == 59.70
        assert two_sample_chi_squared(observed, dict(observed))[1] == 59.70

    def test_df_above_the_table_raises(self, one_sample_chi_squared, two_sample_chi_squared):
        observed, exact = self.uniform(32)
        with pytest.raises(KeyError, match="df=31"):
            one_sample_chi_squared(observed, exact, 320)
        with pytest.raises(KeyError, match="df=31"):
            two_sample_chi_squared(observed, dict(observed))
