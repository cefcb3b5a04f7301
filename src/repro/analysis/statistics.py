"""A small statistics toolkit for benchmark reports.

Dependency-free summaries (mean, standard deviation, quantiles, normal-
approximation confidence intervals) used when aggregating repeated protocol
runs into the rows of the experiment report
(``python -m repro.experiments.report``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean (raises on empty input)."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    return sum(float(value) for value in values) / len(values)


def variance(values: Sequence[float]) -> float:
    """The unbiased sample variance (zero for samples of size one).

    Computed in plain-python floats regardless of the element type, so
    numpy scalars (which turn ``0.0 / 0.0``-adjacent edge cases into
    ``RuntimeWarning``s instead of exceptions) never reach the arithmetic.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        return 0.0
    center = mean(values)
    total = sum((float(value) - center) ** 2 for value in values)
    return total / (len(values) - 1)


def std_dev(values: Sequence[float]) -> float:
    """The sample standard deviation."""
    return math.sqrt(variance(values))


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (``0 ≤ q ≤ 1``)."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(ordered[low])
    fraction = position - low
    # Interpolate as low + f·(high - low): the convex-combination spelling
    # (l·(1-f) + h·f) underflows below the sample range for subnormal
    # values (e.g. quantile([5e-324, 5e-324], 0.5) returned 0.0).
    low_value = float(ordered[low])
    return low_value + fraction * (float(ordered[high]) - low_value)


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """A normal-approximation confidence interval for the mean.

    Zero-variance samples (every outcome identical — routine for
    correctness rates that are exactly 100%) short-circuit to the
    degenerate interval ``(mean, mean)`` instead of running the
    ``z·s/√n`` arithmetic, so no division or warning machinery is touched
    on that path.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    center = mean(values)
    if len(values) == 1:
        return (center, center)
    spread = std_dev(values)
    if spread == 0.0:
        return (center, center)
    # Two-sided z value via the probit function approximation.
    z = _probit(0.5 + confidence / 2)
    half_width = z * spread / math.sqrt(len(values))
    return (center - half_width, center + half_width)


def wilson_interval(
    successes: float, count: int, confidence: float = 0.95
) -> tuple[float, float]:
    """The Wilson score interval for a Bernoulli proportion.

    The normal-approximation interval of :func:`confidence_interval`
    degenerates to a zero-width interval at ``p̂ ∈ {0, 1}`` (the sample
    variance is zero even though the parameter is uncertain), which is
    exactly the regime adaptive sweeps live in: a cell whose first trials
    are all correct.  The Wilson interval stays honestly open there —
    ``wilson_interval(n, n)`` has a strictly positive half-width that
    shrinks as ``z²/(2(n + z²))`` — and never leaves ``[0, 1]``.
    """
    if count < 1:
        raise ValueError(f"a proportion needs at least one observation, got count={count}")
    if not 0 <= successes <= count:
        raise ValueError(f"successes must lie in [0, {count}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    z = _probit(0.5 + confidence / 2)
    p_hat = float(successes) / count
    z2 = z * z
    denominator = 1.0 + z2 / count
    center = (p_hat + z2 / (2 * count)) / denominator
    margin = (
        z * math.sqrt(p_hat * (1.0 - p_hat) / count + z2 / (4.0 * count * count)) / denominator
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


def _probit(p: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread, quantiles and a confidence interval of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p90: float
    #: Confidence interval for the mean — Wilson score for proportion
    #: samples, normal approximation otherwise (``None`` on pre-existing
    #: instances built without the fields).
    ci_low: float | None = None
    ci_high: float | None = None

    @property
    def half_width(self) -> float | None:
        """Half the confidence-interval width (``None`` without an interval)."""
        if self.ci_low is None or self.ci_high is None:
            return None
        return (self.ci_high - self.ci_low) / 2.0

    def as_row(self) -> tuple[float, ...]:
        """A row for tabular reports."""
        return (self.count, self.mean, self.std, self.minimum, self.median, self.p90, self.maximum)


def summarize(
    values: Sequence[float], *, proportion: bool = False, confidence: float = 0.95
) -> SummaryStats:
    """Compute :class:`SummaryStats` for a non-empty sample.

    With ``proportion=True`` the sample must be Bernoulli (every value 0 or
    1) and the confidence interval is the Wilson score interval — the one
    that stays informative at ``p̂ ∈ {0, 1}``.  Otherwise the interval is
    the normal approximation of :func:`confidence_interval`, including its
    zero-variance short-circuit to a degenerate ``(mean, mean)`` interval.
    """
    values = [float(value) for value in values]
    if proportion:
        if any(value not in (0.0, 1.0) for value in values):
            raise ValueError(
                "proportion=True expects a Bernoulli sample (every value 0 or 1)"
            )
        ci_low, ci_high = wilson_interval(sum(values), len(values), confidence)
    else:
        ci_low, ci_high = confidence_interval(values, confidence)
    return SummaryStats(
        count=len(values),
        mean=mean(values),
        std=std_dev(values),
        minimum=min(values),
        maximum=max(values),
        median=quantile(values, 0.5),
        p90=quantile(values, 0.9),
        ci_low=ci_low,
        ci_high=ci_high,
    )
