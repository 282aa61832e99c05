"""Simple one-predictor least squares with inference.

Used in two orientations: the reverse fit (biomarker on response) that
the conversion step consumes, and the naive forward fit that serves as
the comparison arm in simulations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dist
from .errors import DegenerateInput


@dataclass
class PairedSample:
    """Paired observations for a one-predictor regression."""

    predictor: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        self.predictor = np.asarray(self.predictor, dtype=float)
        self.response = np.asarray(self.response, dtype=float)
        if self.predictor.ndim != 1 or self.response.ndim != 1:
            raise DegenerateInput("paired sample arrays must be one-dimensional")
        if self.predictor.shape[0] != self.response.shape[0]:
            raise DegenerateInput(
                f"length mismatch: {self.predictor.shape[0]} predictors, "
                f"{self.response.shape[0]} responses"
            )
        if self.predictor.shape[0] < 3:
            raise DegenerateInput("need at least 3 paired observations")

    def __len__(self):
        return self.predictor.shape[0]


@dataclass
class FitResult:
    """Least-squares fit of response = intercept + slope * predictor.

    residual_variance is the unbiased estimate (divisor n - 2), p_value
    is the two-sided slope t-test with df = n - 2.
    """

    intercept: float
    slope: float
    se_slope: float
    residual_variance: float
    df: int
    r_squared: float
    t_stat: float
    p_value: float
    residuals: np.ndarray = field(repr=False)


def fit_simple(sample):
    """Ordinary least squares for a PairedSample.

    Sums are centered two-pass and use numpy's pairwise summation, so
    results do not depend on evaluation order.
    """
    if not isinstance(sample, PairedSample):
        sample = PairedSample(*sample)
    x = sample.predictor
    y = sample.response
    n = x.shape[0]
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    dx = x - x_mean
    dy = y - y_mean
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    sxy = float(np.sum(dx * dy))
    if sxx <= 0.0:
        raise DegenerateInput("predictor has zero sample variance")

    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (intercept + slope * x)
    rss = float(np.sum(residuals * residuals))
    df = n - 2
    residual_variance = rss / df
    se_slope = math.sqrt(residual_variance / sxx)
    r_squared = 0.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))

    if se_slope > 0.0:
        t_stat = slope / se_slope
        p_value = 2.0 * dist.t_cdf(-abs(t_stat), df)
    elif slope == 0.0:
        t_stat = 0.0
        p_value = 1.0
    else:
        # exact fit with nonzero slope
        t_stat = math.inf if slope > 0 else -math.inf
        p_value = 0.0
    return FitResult(
        intercept=intercept,
        slope=slope,
        se_slope=se_slope,
        residual_variance=residual_variance,
        df=df,
        r_squared=r_squared,
        t_stat=t_stat,
        p_value=p_value,
        residuals=residuals,
    )


def qq_points(values):
    """Normal probability plot coordinates.

    Pairs the i-th order statistic with the normal quantile at plotting
    position (i - 0.5) / n. Returns a list of (theoretical_quantile,
    ordered_value) pairs.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 3:
        raise DegenerateInput("need at least 3 values for a probability plot")
    ordered = np.sort(values)
    return [
        (dist.norm_quantile((i - 0.5) / n), float(ordered[i - 1]))
        for i in range(1, n + 1)
    ]


def skewness(values):
    """Sample skewness m3 / m2^{3/2} (population-moment form).

    Returns 0.0 for a constant series, where the ratio is undefined but
    diagnostics still need a number.
    """
    v = np.asarray(values, dtype=float)
    c = v - np.mean(v)
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        return 0.0
    m3 = float(np.mean(c * c * c))
    return m3 / m2**1.5


def excess_kurtosis(values):
    """Sample excess kurtosis m4 / m2^2 - 3; 0.0 for a constant series."""
    v = np.asarray(values, dtype=float)
    c = v - np.mean(v)
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        return 0.0
    m4 = float(np.mean(c * c * c * c))
    return m4 / (m2 * m2) - 3.0
