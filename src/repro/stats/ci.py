"""Confidence intervals and margins of error.

The paper constructs Normal-approximation confidence intervals (Eq. 1) around
each estimator and stops the iterative evaluation once the margin of error
(half-width of the interval) drops below a user threshold.  A Wilson interval
is also provided for the proportion case: it behaves better for highly
accurate KGs such as YAGO (99 % accuracy), where the Normal interval collapses
to zero width whenever a small sample happens to contain no errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy import stats as scipy_stats

__all__ = [
    "ConfidenceInterval",
    "normal_critical_value",
    "normal_interval",
    "wilson_interval",
    "margin_of_error",
    "required_sample_size",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    estimate: float
    lower: float
    upper: float
    confidence_level: float

    @property
    def margin_of_error(self) -> float:
        """Half-width of the interval (the paper's MoE)."""
        return (self.upper - self.lower) / 2.0

    @property
    def width(self) -> float:
        """Full width of the interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def clipped(self, low: float = 0.0, high: float = 1.0) -> "ConfidenceInterval":
        """Clip the interval to ``[low, high]`` (accuracies live in [0, 1])."""
        return ConfidenceInterval(
            estimate=min(max(self.estimate, low), high),
            lower=max(self.lower, low),
            upper=min(self.upper, high),
            confidence_level=self.confidence_level,
        )


def normal_critical_value(confidence_level: float) -> float:
    """Return ``z_{alpha/2}`` for a two-sided interval at ``confidence_level``.

    For example ``normal_critical_value(0.95)`` is approximately 1.96.
    """
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence_level must be in (0, 1), got {confidence_level}")
    return _critical_value(confidence_level)


@functools.lru_cache(maxsize=64)
def _critical_value(confidence_level: float) -> float:
    # Memoised: every MoE check asks for the same few levels, and each
    # ``norm.ppf`` call costs tens of microseconds.
    alpha = 1.0 - confidence_level
    return float(scipy_stats.norm.ppf(1.0 - alpha / 2.0))


def margin_of_error(std_error: float, confidence_level: float) -> float:
    """Margin of error ``z_{alpha/2} * std_error`` (Eq. 1)."""
    if std_error < 0:
        raise ValueError("std_error must be non-negative")
    return normal_critical_value(confidence_level) * std_error


def normal_interval(
    estimate: float, std_error: float, confidence_level: float
) -> ConfidenceInterval:
    """Normal-approximation interval ``estimate ± z * std_error`` (Eq. 1)."""
    moe = margin_of_error(std_error, confidence_level)
    return ConfidenceInterval(
        estimate=estimate,
        lower=estimate - moe,
        upper=estimate + moe,
        confidence_level=confidence_level,
    )


def wilson_interval(successes: int, trials: int, confidence_level: float) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    More reliable than the Normal interval when the proportion is near 0 or 1
    or the sample is small — exactly the YAGO situation in the paper, where an
    empirical interval is reported instead of a symmetric one.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be between 0 and trials")
    z = normal_critical_value(confidence_level)
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denominator
    spread = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denominator
    )
    # Guard against floating-point round-off pushing the point estimate just
    # outside the interval at the extremes (e.g. successes == trials).
    lower = max(0.0, min(centre - spread, p_hat))
    upper = min(1.0, max(centre + spread, p_hat))
    return ConfidenceInterval(
        estimate=p_hat,
        lower=lower,
        upper=upper,
        confidence_level=confidence_level,
    )


def required_sample_size(variance: float, moe_target: float, confidence_level: float) -> int:
    """Smallest ``n`` with ``z * sqrt(variance / n) <= moe_target``.

    This is the closed-form sample size ``n = variance * z^2 / eps^2`` used in
    the SRS cost analysis (Section 5.1) and in the optimal-m objective
    (Eq. 12), rounded up to an integer.
    """
    if moe_target <= 0:
        raise ValueError("moe_target must be positive")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    z = normal_critical_value(confidence_level)
    return max(1, math.ceil(variance * z * z / (moe_target * moe_target)))
