"""Forward-regression inference from an extreme-response subset.

The estimator works in three steps: fit the reverse regression (the
biomarker X on the response Y) over the subset that was biomarker
tested, which is valid under joint normality because the conditional
law of X given Y survives selection on Y; combine the reverse
coefficients with the full-sample response moments to recover the
forward parameters; and propagate uncertainty to the forward slope with
a first-order delta-method standard error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dist, regress
from ._util import MIN_ESTIMATE_PAIRS, check_gamma
from .errors import DegenerateInput, DomainError, InsufficientData

RESPONSE_VARIANCE_OVERFLOW = "full response variance is beyond double range"


@dataclass
class FullResponseSummary:
    """Sufficient statistics of the complete response sample."""

    n_full: int
    mean_y: float
    var_y: float  # sample variance, divisor n_full - 1

    def __post_init__(self):
        if self.n_full < 3:
            raise InsufficientData("full response sample must have n >= 3")
        if not math.isfinite(self.var_y):
            raise DomainError(RESPONSE_VARIANCE_OVERFLOW)
        if not self.var_y > 0.0:
            raise DegenerateInput("full response variance must be positive")

    @classmethod
    def from_responses(cls, responses):
        y = np.asarray(responses, dtype=float)
        if y.ndim != 1:
            raise DomainError("responses must be a one-dimensional vector")
        n = y.shape[0]
        # __post_init__ rejects n < 3 first, then a non-finite var_y: an
        # overflow, or the 0/0 of n < 2, which stays quiet here
        with np.errstate(over="ignore", invalid="ignore"):
            mean, var = response_moments(y)
        return cls(n_full=n, mean_y=float(mean), var_y=float(var))


def response_moments(responses):
    """Mean and sample variance (divisor n - 1) along the last axis."""
    y = np.asarray(responses, dtype=float)
    n = y.shape[-1]
    mean = np.add.reduce(y, axis=-1) / n  # np.mean, without its dispatch
    dy = y - mean[..., None]
    return mean, np.add.reduce(dy * dy, axis=-1) / (n - 1)


@dataclass
class SelectedSubset:
    """The biomarker-tested pairs plus the sampling fraction.

    pairs is oriented for the reverse fit: predictor = response values,
    response = biomarker values.
    """

    pairs: regress.PairedSample
    gamma: float

    def __post_init__(self):
        check_gamma(self.gamma)

    @property
    def n_selected(self):
        return len(self.pairs)

    @classmethod
    def from_arrays(cls, biomarker, response, gamma):
        pairs = regress.PairedSample(predictor=response, response=biomarker)
        return cls(pairs=pairs, gamma=gamma)

    @classmethod
    def from_tested(cls, responses, biomarker):
        """The rows where biomarker is not NaN, at gamma = tested / total.

        responses is the full response vector and biomarker aligns with
        it row for row, NaN marking the rows that were not tested.
        """
        y = np.asarray(responses, dtype=float)
        x = np.asarray(biomarker, dtype=float)
        tested = ~np.isnan(x)
        gamma = int(np.count_nonzero(tested)) / y.shape[0]
        return cls.from_arrays(x[tested], y[tested], gamma)


@dataclass
class OdebEstimate:
    """Forward-model inference recovered from the reverse fit."""

    beta_y: float
    alpha_y: float  # point estimate only; no interval is derived for it
    sigma2_eps_y: float
    se_beta_y: float
    ci_low: float
    ci_high: float
    confidence_level: float
    p_value: float
    reverse_fit: regress.FitResult = field(repr=False)


_CONVERSION_UNDEFINED = (
    "reverse fit is deterministic with zero slope; conversion undefined"
)
_SLOPE_VARIANCE_COLLAPSED = "collapsed denominator in the slope variance"
_FORWARD_OVERFLOW = "forward estimate, SE or interval beyond double range"
# an estimate's verdict code indexes this table: FIT_VERDICTS' codes for
# the reverse fit, then one (error type, text) per later check in order
DROP_VERDICTS = (
    *regress.FIT_VERDICTS,
    (DomainError, _FORWARD_OVERFLOW),
    (DegenerateInput, _CONVERSION_UNDEFINED),
    (DegenerateInput, _SLOPE_VARIANCE_COLLAPSED),
)


def _forward_rows(beta_x, alpha_x, sigma2_eps_x, mean_y, var_y):
    """The conversion entry by entry, with defined and finite masks.

    Entries whose denominator or response variance vanishes are not
    defined. Entries whose denominator or results leave double range, as
    the square of a huge reverse slope does, are not finite: an infinite
    denominator would give a zero estimate. Neither kind warns, and both
    hold meaningless values.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        den = sigma2_eps_x + beta_x * beta_x * var_y
        defined = (den != 0.0) & (var_y != 0.0)
        # a zero denominator becomes one, so undefined entries divide quietly
        den = den + (den == 0.0)
        beta_y = beta_x * var_y / den
        alpha_y = (sigma2_eps_x * mean_y - alpha_x * beta_x * var_y) / den
        sigma2_eps_y = var_y * sigma2_eps_x / den
    finite = np.isfinite([den, beta_y, alpha_y, sigma2_eps_y]).all(axis=0)
    return beta_y, alpha_y, sigma2_eps_y, defined, finite


def convert_reverse_to_forward(beta_x, alpha_x, sigma2_eps_x, mean_y, var_y):
    """Map reverse-regression parameters to forward-regression ones.

    Given the reverse fit X = alpha_x + beta_x Y + eps_X and the
    response moments (mean_y, var_y), returns (beta_y, alpha_y,
    sigma2_eps_y) of the forward model Y = alpha_y + beta_y X + eps_Y.
    """
    if not var_y > 0.0:
        raise DomainError("var_y must be positive")
    if sigma2_eps_x < 0.0:
        raise DomainError("sigma2_eps_x must be nonnegative")
    beta_y, alpha_y, sigma2_eps_y, defined, finite = _forward_rows(
        beta_x, alpha_x, sigma2_eps_x, mean_y, var_y
    )
    if not defined:
        raise DegenerateInput(_CONVERSION_UNDEFINED)
    if not finite:
        raise DomainError(_FORWARD_OVERFLOW)
    return float(beta_y), float(alpha_y), float(sigma2_eps_y)


def _se_rows(
    beta_x_hat, se_beta_x, sigma2_eps_x_hat, var_y_tilde, n_selected, n_full
):
    """The delta-method SE entry by entry, with a mask of the defined entries.

    With r = sigma2_eps_x / var_y, b the reverse slope and s = r + b^2,
    the variance is ((r - b^2)^2 se(b)^2 + 2 k b^2 r^2) / s^4, where
    k = 1 / (n_selected - 2) + 1 / (n_full - 1). Each factor is divided
    by s before any product is formed, and the two terms are joined by
    hypot, so the SE scales with the biomarker's units instead of
    overflowing or underflowing with s^4. An entry with s = 0 is not
    defined. A zero var_y_tilde becomes one, so the entries that
    _forward_rows leaves unconverted divide quietly. An entry beyond
    double range is not finite and raises no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = sigma2_eps_x_hat / (var_y_tilde + (var_y_tilde == 0.0))
        b2 = beta_x_hat * beta_x_hat
        s = r + b2
        defined = s != 0.0
        s = s + (s == 0.0)
        k = 1.0 / (n_selected - 2) + 1.0 / (n_full - 1)
        slope_term = (r - b2) / s * (se_beta_x / s)
        variance_term = math.sqrt(2.0 * k) * (beta_x_hat / s) * (r / s)
        return np.hypot(slope_term, variance_term), defined


def se_beta_y(beta_x_hat, se_beta_x, sigma2_eps_x_hat, var_y_tilde, n_selected, n_full):
    """Delta-method standard error of the forward slope estimate.

    Treats (beta_x_hat, sigma2_eps_x_hat, var_y_tilde) as asymptotically
    independent with classical normal-theory variances: se(beta_x)^2 for
    the slope and 2 sigma^4 / df for each variance estimate, df being
    n_selected - 2 and n_full - 1 respectively.
    """
    check_selected_count(n_selected)
    if n_full < 2:
        raise DomainError("n_full must be at least 2")
    if not var_y_tilde > 0.0:
        raise DomainError("var_y_tilde must be positive")
    if sigma2_eps_x_hat < 0.0 or se_beta_x < 0.0:
        raise DomainError("variance inputs must be nonnegative")
    se, defined = _se_rows(
        beta_x_hat, se_beta_x, sigma2_eps_x_hat, var_y_tilde, n_selected, n_full
    )
    if not defined:
        raise DegenerateInput(_SLOPE_VARIANCE_COLLAPSED)
    return float(se)


def check_slope_ceiling(beta_y, var_y, sigma2_eps_x):
    """Check |beta_y| <= sd_y / (2 sd_eps_x) wherever sigma2_eps_x > 0.

    Every forward slope the conversion returns obeys this ceiling, by
    AM-GM on its denominator. Entry by entry on scalars or arrays; a
    breach (inputs that no conversion produced, or lost precision)
    raises DomainError.
    """
    unchecked = sigma2_eps_x <= 0.0
    # unchecked entries divide by one instead of zero
    bound = np.sqrt(var_y) / (2.0 * np.sqrt(sigma2_eps_x + unchecked))
    within = np.abs(beta_y) <= bound * (1.0 + 1e-12)
    breach = (sigma2_eps_x > 0.0) & ~within
    if breach.any():
        slope, bound = np.broadcast_arrays(np.abs(beta_y), bound)
        i = np.argmax(breach)
        raise DomainError(
            f"forward slope {float(slope.flat[i])!r} exceeds its ceiling "
            f"sd_y / (2 sd_eps_x) = {float(bound.flat[i])!r}"
        )


def check_selected_count(n_selected):
    """InsufficientData below the MIN_ESTIMATE_PAIRS the estimator needs."""
    if n_selected < MIN_ESTIMATE_PAIRS:
        raise InsufficientData(
            f"need at least {MIN_ESTIMATE_PAIRS} selected pairs for variance "
            "inference"
        )


@dataclass
class EstimateRows:
    """estimate() for one subset or many: entry i belongs to row i.

    Fields are scalars for one subset and arrays for many. verdict is
    each row's DROP_VERDICTS code, its first failed check, 0 for a row
    that has an estimate; a nonzero reverse_fit.verdict is the row's
    code. Rows with a nonzero code hold meaningless values, and
    drop_reasons names the code's error type and text.
    """

    beta_y: np.ndarray
    alpha_y: np.ndarray
    sigma2_eps_y: np.ndarray
    se_beta_y: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    verdict: np.ndarray
    reverse_fit: regress.FitRows = field(repr=False)


def estimate_rows(
    responses, biomarkers, mean_y, var_y, n_full, confidence_level=0.95
):
    """Reverse fit, conversion, SE and CI of equal-size subsets.

    responses and biomarkers are 1-D for one subset or (R, n_selected)
    for R subsets, one per row. mean_y and var_y are the full-sample
    response moments over n_full rows, shared by every row or one per
    row; var_y must be nonnegative, and a zero-variance row is not
    converted.
    Argument errors and the slope ceiling raise; a per-row failure only
    sets its row's verdict.
    """
    if not 0.0 < confidence_level < 1.0:
        raise DomainError(
            f"confidence level must lie in (0, 1), got {confidence_level!r}"
        )
    n_selected = np.shape(responses)[-1]
    check_selected_count(n_selected)
    if n_selected > n_full:
        raise DomainError("selected subset is larger than the full sample")
    rev = regress.fit_rows(responses, biomarkers)
    beta_y, alpha_y, sigma2_eps_y, converted, finite = _forward_rows(
        rev.slope, rev.intercept, rev.residual_variance, mean_y, var_y
    )
    se, se_defined = _se_rows(
        rev.slope,
        rev.se_slope,
        rev.residual_variance,
        var_y,
        n_selected,
        n_full,
    )
    # solved on the lower tail, so a level near 1 keeps its digits
    t_mult = -dist.t_quantile((1.0 - confidence_level) / 2.0, n_selected - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        ci_low = beta_y - t_mult * se
        ci_high = beta_y + t_mult * se
    # the first failed check, in DROP_VERDICTS order
    finite = finite & np.isfinite(ci_low) & np.isfinite(ci_high)
    later = np.where(~converted, 4, np.where(~se_defined, 5, 0))
    verdict = np.where(
        rev.verdict != 0, rev.verdict, np.where(finite, later, 3)
    )
    check_slope_ceiling(
        np.where(verdict == 0, beta_y, 0.0), var_y, rev.residual_variance
    )
    return EstimateRows(
        beta_y=beta_y,
        alpha_y=alpha_y,
        sigma2_eps_y=sigma2_eps_y,
        se_beta_y=se,
        ci_low=ci_low,
        ci_high=ci_high,
        verdict=verdict,
        reverse_fit=rev,
    )


def drop_reasons(rows):
    """Why each row of an EstimateRows has no estimate; None where kept.

    Each row's DROP_VERDICTS entry: the error type and text that
    estimate() raises for the row. A list with one entry per row, one
    entry for one subset.
    """
    return [DROP_VERDICTS[code] for code in np.ravel(rows.verdict).tolist()]


def estimate(subset, full, confidence_level=0.95):
    """Full inference pass: reverse fit, conversion, SE, CI, p-value.

    estimate_rows on one subset. The confidence interval uses the
    t quantile with n_selected - 2 degrees of freedom; the p-value is
    the reverse-fit slope test, which is exact for the forward null
    because both nulls coincide.
    """
    pairs = subset.pairs
    rows = estimate_rows(
        pairs.predictor,
        pairs.response,
        full.mean_y,
        full.var_y,
        full.n_full,
        confidence_level,
    )
    regress.raise_verdict(DROP_VERDICTS, rows.verdict)
    rev = rows.reverse_fit.single()
    return OdebEstimate(
        beta_y=float(rows.beta_y),
        alpha_y=float(rows.alpha_y),
        sigma2_eps_y=float(rows.sigma2_eps_y),
        se_beta_y=float(rows.se_beta_y),
        ci_low=float(rows.ci_low),
        ci_high=float(rows.ci_high),
        confidence_level=confidence_level,
        p_value=rev.p_value,
        reverse_fit=rev,
    )


@dataclass(eq=False)
class ModelDiagnostics:
    """Plot-ready series for the two normality assumptions.

    response_qq checks that the response itself is normal; residual_qq
    checks that the biomarker is normal conditional on the response.
    Each is regress.qq_points' (n, 2) array of (theoretical_quantile,
    ordered_value) rows. Since the fields are arrays, == compares
    identity; compare the fields with np.array_equal.
    """

    response_qq: np.ndarray
    residual_qq: np.ndarray
    response_skewness: float
    response_excess_kurtosis: float
    residual_skewness: float
    residual_excess_kurtosis: float


def check_model(reverse_fit, full_responses):
    """Diagnostics for the two assumptions behind the conversion.

    reverse_fit is the FitResult of the biomarker on the response over
    the tested pairs, such as estimate(...).reverse_fit; its residuals
    are checked as they are, with no second fit.
    """
    full_responses = np.asarray(full_responses, dtype=float)
    residuals = reverse_fit.residuals
    return ModelDiagnostics(
        response_qq=regress.qq_points(full_responses),
        residual_qq=regress.qq_points(residuals),
        response_skewness=regress.skewness(full_responses),
        response_excess_kurtosis=regress.excess_kurtosis(full_responses),
        residual_skewness=regress.skewness(residuals),
        residual_excess_kurtosis=regress.excess_kurtosis(residuals),
    )
