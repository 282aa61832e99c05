"""Simple one-predictor least squares with inference.

Used in two orientations: the reverse fit (biomarker on response) that
the conversion step consumes, and the naive forward fit that serves as
the comparison arm in simulations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dist
from .errors import DegenerateInput, DomainError

TOO_FEW_PAIRS = "need at least 3 paired observations"
ZERO_PREDICTOR_VARIANCE = "predictor has zero sample variance"
FIT_OVERFLOW = "sums of squares or slope variance beyond double range"
# a fit's verdict code indexes this table: 0 is kept, then (error type,
# text) per failed check in the order they are checked
FIT_VERDICTS = (
    None,
    (DegenerateInput, ZERO_PREDICTOR_VARIANCE),
    (DomainError, FIT_OVERFLOW),
)


def raise_verdict(verdicts, code):
    """Raise the error and text of verdicts[code]; code 0 passes."""
    entry = verdicts[code]
    if entry is not None:
        error, text = entry
        raise error(text)


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
            raise DegenerateInput(TOO_FEW_PAIRS)

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


@dataclass
class FitRows:
    """Least-squares fits of one sample or of many, one per row.

    Fields are scalars for one sample and arrays for many, entry i
    belonging to row i. verdict is each fit's FIT_VERDICTS code, its
    first failed check, 0 where the fit holds. The other fields of a
    row with a nonzero code are meaningless.
    """

    intercept: np.ndarray
    slope: np.ndarray
    se_slope: np.ndarray
    residual_variance: np.ndarray
    df: int
    t_stat: np.ndarray  # NaN where verdict is nonzero
    verdict: np.ndarray
    sums: tuple  # centered (sxx, syy, sxy)
    residuals: np.ndarray = field(repr=False)

    def single(self):
        """The fit of one sample as a FitResult.

        A fit with a nonzero verdict raises its FIT_VERDICTS entry.
        """
        raise_verdict(FIT_VERDICTS, self.verdict)
        sxx, syy, sxy = (float(v) for v in self.sums)
        r_squared = 0.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
        t_stat = float(self.t_stat)
        return FitResult(
            intercept=float(self.intercept),
            slope=float(self.slope),
            se_slope=float(self.se_slope),
            residual_variance=float(self.residual_variance),
            df=self.df,
            r_squared=r_squared,
            t_stat=t_stat,
            p_value=slope_p_value(t_stat, self.df),
            residuals=self.residuals,
        )


def slope_p_value(t_stat, df):
    """Two-sided slope-test p-value 2 * dist.t_cdf(-|t|, df); NaN for a NaN t."""
    t = float(t_stat)  # a NumPy scalar would warn where t * t overflows
    if math.isnan(t):
        return math.nan
    return 2.0 * dist.t_cdf(-abs(t), df)


def fit_rows(predictor, response):
    """Ordinary least squares of response on predictor along the last axis.

    1-D arrays are one sample; (R, n) arrays are R samples, one per row.
    The two are broadcast to one shape first, so a 1-D predictor serves
    every row of an (R, n) response. Sums are centered two-pass with
    numpy's pairwise summation, so a row's fit depends neither on the
    other rows nor on evaluation order. No p-value is computed: a caller
    takes one from t_stat with slope_p_value. Values too large to
    square give their rows the overflow verdict, one check per row on
    its sums, and raise no warning.
    """
    x, y = np.broadcast_arrays(
        np.asarray(predictor, dtype=float), np.asarray(response, dtype=float)
    )
    n = x.shape[-1]
    # np.add.reduce is np.sum (and, divided by n, np.mean) without their
    # Python-level dispatch, which dominates for one short sample
    total = np.add.reduce
    # an overflow shows as a non-finite sum or standard error, which
    # sets its row's verdict below
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean = total(x, axis=-1) / n
        y_mean = total(y, axis=-1) / n
        dx = x - x_mean[..., None]
        dy = y - y_mean[..., None]
        sxx = total(dx * dx, axis=-1)
        syy = total(dy * dy, axis=-1)
        sxy = total(dx * dy, axis=-1)
        degenerate = sxx <= 0.0
        # a zero sum of squares becomes one, so degenerate rows, whose
        # values are never used, divide without a warning
        sxx = sxx + degenerate

        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
        residuals = y - (intercept[..., None] + slope[..., None] * x)
        rss = total(residuals * residuals, axis=-1)
        df = n - 2
        residual_variance = rss / df
        se_slope = np.sqrt(residual_variance / sxx)
    # a non-finite slope or intercept makes the residuals, and so rss,
    # non-finite too
    overflow = ~(
        np.isfinite(sxx)
        & np.isfinite(syy)
        & np.isfinite(rss)
        & np.isfinite(se_slope)
    )
    if overflow.any():
        # overflowing rows become a zero-slope fit of unit variance, so
        # no later step on them warns
        slope = np.where(overflow, 0.0, slope)
        intercept = np.where(overflow, 0.0, intercept)
        residual_variance = np.where(overflow, 1.0, residual_variance)
        se_slope = np.where(overflow, 1.0, se_slope)

    # slope / se where se > 0; 0 for a zero slope; +-inf for an exact fit
    # with a nonzero slope
    t_stat = np.where(slope > 0.0, math.inf, -math.inf)
    t_stat[slope == 0.0] = 0.0
    np.divide(slope, se_slope, out=t_stat, where=se_slope > 0.0)
    verdict = np.where(degenerate, 1, np.where(overflow, 2, 0))
    t_stat[verdict != 0] = math.nan
    return FitRows(
        intercept=intercept,
        slope=slope,
        se_slope=se_slope,
        residual_variance=residual_variance,
        df=df,
        t_stat=t_stat,
        verdict=verdict,
        sums=(sxx, syy, sxy),
        residuals=residuals,
    )


def fit_simple(sample):
    """Ordinary least squares for a PairedSample: fit_rows on one sample."""
    return fit_rows(sample.predictor, sample.response).single()


def qq_points(values):
    """Normal probability plot coordinates.

    Pairs the i-th order statistic with the normal quantile at plotting
    position (i - 0.5) / n. Returns an (n, 2) float64 array whose rows
    are (theoretical_quantile, ordered_value).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 3:
        raise DegenerateInput("need at least 3 values for a probability plot")
    points = np.empty((n, 2))
    points[:, 0] = dist.norm_quantiles((np.arange(1, n + 1) - 0.5) / n)
    points[:, 1] = np.sort(values)
    return points


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
