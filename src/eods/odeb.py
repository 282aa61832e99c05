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
from .errors import DegenerateInput, DomainError, InsufficientData


@dataclass
class FullResponseSummary:
    """Sufficient statistics of the complete response sample."""

    n_full: int
    mean_y: float
    var_y: float  # sample variance, divisor n_full - 1

    def __post_init__(self):
        if self.n_full < 3:
            raise InsufficientData("full response sample must have n >= 3")
        if not self.var_y > 0.0:
            raise DegenerateInput("full response variance must be positive")

    @classmethod
    def from_responses(cls, responses):
        y = np.asarray(responses, dtype=float)
        n = y.shape[0]
        if n < 3:
            raise InsufficientData("full response sample must have n >= 3")
        mean = float(np.mean(y))
        dy = y - mean
        var = float(np.sum(dy * dy)) / (n - 1)
        if var <= 0.0:
            raise DegenerateInput("full response variance must be positive")
        return cls(n_full=n, mean_y=mean, var_y=var)


@dataclass
class SelectedSubset:
    """The biomarker-tested pairs plus the sampling fraction.

    pairs is oriented for the reverse fit: predictor = response values,
    response = biomarker values.
    """

    pairs: regress.PairedSample
    n_selected: int
    gamma: float

    def __post_init__(self):
        if len(self.pairs) != self.n_selected:
            raise DomainError("n_selected does not match the number of pairs")
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma!r}")

    @classmethod
    def from_arrays(cls, biomarker, response, gamma):
        pairs = regress.PairedSample(predictor=response, response=biomarker)
        return cls(pairs=pairs, n_selected=len(pairs), gamma=gamma)

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
    den = sigma2_eps_x + beta_x * beta_x * var_y
    if den == 0.0:
        raise DegenerateInput(
            "reverse fit is deterministic with zero slope; conversion undefined"
        )
    beta_y = beta_x * var_y / den
    alpha_y = (sigma2_eps_x * mean_y - alpha_x * beta_x * var_y) / den
    sigma2_eps_y = var_y * sigma2_eps_x / den
    return beta_y, alpha_y, sigma2_eps_y


def se_beta_y(beta_x_hat, se_beta_x, sigma2_eps_x_hat, var_y_tilde, n_selected, n_full):
    """Delta-method standard error of the forward slope estimate.

    Treats (beta_x_hat, sigma2_eps_x_hat, var_y_tilde) as asymptotically
    independent with classical normal-theory variances: se(beta_x)^2 for
    the slope and 2 sigma^4 / df for each variance estimate, df being
    n_selected - 2 and n_full - 1 respectively.
    """
    if n_selected < 3:
        raise DomainError("n_selected must be at least 3")
    if n_full < 2:
        raise DomainError("n_full must be at least 2")
    if not var_y_tilde > 0.0:
        raise DomainError("var_y_tilde must be positive")
    if sigma2_eps_x_hat < 0.0 or se_beta_x < 0.0:
        raise DomainError("variance inputs must be nonnegative")
    r = sigma2_eps_x_hat / var_y_tilde
    b2 = beta_x_hat * beta_x_hat
    den = (r + b2) ** 4
    if den == 0.0:
        raise DegenerateInput("collapsed denominator in the slope variance")
    num = (r - b2) ** 2 * se_beta_x**2 + 2.0 * b2 * r * r * (
        1.0 / (n_selected - 2) + 1.0 / (n_full - 1)
    )
    return math.sqrt(num / den)


def estimate(subset, full, confidence_level=0.95):
    """Full inference pass: reverse fit, conversion, SE, CI, p-value.

    The confidence interval uses the t quantile with n_selected - 2
    degrees of freedom; the p-value is the reverse-fit slope test, which
    is exact for the forward null because both nulls coincide.
    """
    if not 0.0 < confidence_level < 1.0:
        raise DomainError(
            f"confidence level must lie in (0, 1), got {confidence_level!r}"
        )
    if subset.n_selected < 4:
        raise InsufficientData(
            "need at least 4 selected pairs for variance inference"
        )
    if subset.n_selected > full.n_full:
        raise DomainError("selected subset is larger than the full sample")
    rev = regress.fit_simple(subset.pairs)
    beta_y, alpha_y, sigma2_eps_y = convert_reverse_to_forward(
        rev.slope, rev.intercept, rev.residual_variance, full.mean_y, full.var_y
    )
    se = se_beta_y(
        rev.slope,
        rev.se_slope,
        rev.residual_variance,
        full.var_y,
        subset.n_selected,
        full.n_full,
    )
    if rev.residual_variance > 0.0:
        # algebraic ceiling |beta_y| <= sd_y / (2 sd_eps_x), by AM-GM on
        # the conversion denominator
        bound = math.sqrt(full.var_y) / (2.0 * math.sqrt(rev.residual_variance))
        assert abs(beta_y) <= bound * (1.0 + 1e-12)
    t_mult = dist.t_quantile(
        1.0 - (1.0 - confidence_level) / 2.0, subset.n_selected - 2
    )
    return OdebEstimate(
        beta_y=beta_y,
        alpha_y=alpha_y,
        sigma2_eps_y=sigma2_eps_y,
        se_beta_y=se,
        ci_low=beta_y - t_mult * se,
        ci_high=beta_y + t_mult * se,
        confidence_level=confidence_level,
        p_value=rev.p_value,
        reverse_fit=rev,
    )


def test_association(subset):
    """Slope t-test of the reverse fit: (t_stat, two-sided p-value).

    Under joint normality this test of the reverse slope is exactly the
    test of no forward association, so its p-value transfers.
    """
    rev = regress.fit_simple(subset.pairs)
    return rev.t_stat, rev.p_value


@dataclass
class ModelDiagnostics:
    """Plot-ready series for the two normality assumptions.

    response_qq checks that the response itself is normal; residual_qq
    checks that the biomarker is normal conditional on the response.
    """

    response_qq: list
    residual_qq: list
    response_skewness: float
    response_excess_kurtosis: float
    residual_skewness: float
    residual_excess_kurtosis: float


def check_model(subset, full_responses):
    """Diagnostics for the two assumptions behind the conversion."""
    full_responses = np.asarray(full_responses, dtype=float)
    rev = regress.fit_simple(subset.pairs)
    return ModelDiagnostics(
        response_qq=regress.qq_points(full_responses),
        residual_qq=regress.qq_points(rev.residuals),
        response_skewness=regress.skewness(full_responses),
        response_excess_kurtosis=regress.excess_kurtosis(full_responses),
        residual_skewness=regress.skewness(rev.residuals),
        residual_excess_kurtosis=regress.excess_kurtosis(rev.residuals),
    )
