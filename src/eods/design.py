"""Power and sample-size planning.

Both designs test the slope of a simple regression at level alpha. The
full design observes all n subjects; the extreme design biomarker-tests
only the top and bottom gamma/2 response tails, which shrinks the
residual degrees of freedom to round(gamma * n) - 2 but inflates the
response variance seen by the test, multiplying the noncentrality by
gamma * variance_inflation(gamma). That product is strictly below 1 for
gamma < 1, so the subset test never outpowers the full-sample test at
the same n; its value is cutting assay cost, not raising power.

Gamma is the total selected fraction throughout; a fraction p quoted
per tail corresponds to gamma = 2p.
"""

import bisect
import functools
import math
from dataclasses import dataclass

from . import dist
from ._util import MAX_N_FULL, MIN_ESTIMATE_PAIRS, round_half_away_from_zero
from ._util import check_alpha, check_gamma, whole_number
from .errors import DomainError, Infeasible


def _check_effect_f(effect_f):
    if not 0.0 <= effect_f < math.inf:
        raise DomainError(
            f"effect_f must be finite and nonnegative, got {effect_f!r}"
        )


def _check_target_power(target_power, alpha):
    check_alpha(alpha)
    if not alpha < target_power < 1.0:
        raise DomainError("target power must lie in (alpha, 1)")


@dataclass(frozen=True)
class DesignSpec:
    """One planning configuration."""

    n_full: int
    gamma: float  # total selected fraction; a per-tail fraction p is gamma = 2p
    effect_f: float  # Cohen's f, the square root of f^2 = rho^2/(1-rho^2)
    alpha: float

    def __post_init__(self):
        # frozen: the checks keep the values as given
        whole_number("n_full", self.n_full, 5, MAX_N_FULL)
        check_gamma(self.gamma)
        _check_effect_f(self.effect_f)
        check_alpha(self.alpha)
        n_selected = self.n_selected
        if n_selected < MIN_ESTIMATE_PAIRS:
            raise DomainError(
                f"gamma {self.gamma!r} selects only {n_selected} of "
                f"{self.n_full} rows; the estimator needs at least "
                f"{MIN_ESTIMATE_PAIRS}"
            )

    @property
    def n_selected(self):
        return round_half_away_from_zero(self.gamma * self.n_full)


@dataclass(frozen=True)
class PowerResult:
    """Power of one design plus the quantities that produced it."""

    power: float
    ncp: float
    df1: int
    df2: int
    variance_inflation: float


def cohen_f2(rho):
    """Effect size f^2 = rho^2 / (1 - rho^2) for a single predictor."""
    if not abs(rho) < 1.0:
        raise DomainError(f"correlation must satisfy |rho| < 1, got {rho!r}")
    return rho * rho / (1.0 - rho * rho)


def variance_inflation(gamma):
    """Variance of the two-tail-selected response relative to the full one.

    Equals 2 * integral_z^inf x^2 (1/gamma) phi(x) dx with
    z = -norm_quantile(gamma/2), the upper gamma/2 point.
    Decreasing in gamma, 1 at gamma = 1. Solving on the lower tail keeps
    z exact for tiny gamma, where 1 - gamma/2 would round to 1.
    """
    check_gamma(gamma)
    z = -dist.norm_quantile(gamma / 2.0)
    return 2.0 * dist.truncated_tail_second_moment(z) / gamma


def _slope_test_power(alpha, df2, ncp):
    # The F(1, df2) upper-alpha point is the squared two-sided t point,
    # solved on the lower tail so a tiny alpha keeps its digits.
    crit = dist.t_quantile(alpha / 2.0, df2) ** 2
    return 1.0 - dist.f_cdf_noncentral(crit, dist.NoncentralFParams(1, df2, ncp))


def power_full(n, effect_f, alpha):
    """Power of the level-alpha slope test with all n subjects observed."""
    whole_number("n", n, 4, MAX_N_FULL)
    _check_effect_f(effect_f)
    check_alpha(alpha)
    return _slope_test_power(alpha, n - 2, n * effect_f * effect_f)


def power_eods(spec):
    """Power of the extreme-sampling design described by spec."""
    df2 = spec.n_selected - 2
    vif = variance_inflation(spec.gamma)
    # a product that overflows is inf, and an infinite ncp has power 1
    ncp = spec.n_full * (spec.effect_f * spec.effect_f) * spec.gamma * vif
    power = _slope_test_power(spec.alpha, df2, ncp)
    return PowerResult(
        power=power, ncp=ncp, df1=1, df2=df2, variance_inflation=vif
    )


def _smallest_meeting(meets, lo, cap):
    """Smallest n in [lo, cap] with meets(n), or None if cap falls short.

    meets must be monotone in n. Doubling from lo brackets the answer
    just above a point that falls short; bisecting range(hi), whose
    index is n itself, closes the bracket with no walk down.
    """
    short, hi = lo - 1, lo
    while not meets(hi):
        if hi == cap:
            return None
        short, hi = hi, min(2 * hi, cap)
    return bisect.bisect_left(range(hi), True, lo=short + 1, key=meets)


def min_gamma_for_power(n_full, effect_f, alpha, target_power):
    """Smallest even selected-subset size meeting the power target.

    Brackets and bisects n_selected = 2h >= MIN_ESTIMATE_PAIRS (h per
    tail) at fixed n_full; returns (gamma, n_selected, achieved_power),
    full sampling for an odd n_full that no even size serves. Infeasible
    if even full sampling (gamma = 1) cannot reach the target, evaluated
    only when no even size meets it; no size is evaluated twice.
    """
    _check_target_power(target_power, alpha)

    @functools.cache
    def power_at(k):
        return power_eods(DesignSpec(n_full, k / n_full, effect_f, alpha)).power

    lo = (MIN_ESTIMATE_PAIRS + 1) // 2
    half = _smallest_meeting(lambda h: power_at(2 * h) >= target_power, lo, n_full // 2)
    k = n_full if half is None else 2 * half
    if power_at(k) < target_power:
        raise Infeasible(
            f"even full sampling yields power {power_at(k):.4f} "
            f"below the target {target_power:.4f}"
        )
    return k / n_full, k, power_at(k)


def min_nfull_for_power(gamma, effect_f, alpha, target_power):
    """Smallest n_full meeting the power target at a fixed gamma.

    Brackets and bisects over the n_full >= 5 that select at least
    MIN_ESTIMATE_PAIRS subjects, the fewest the estimator takes; returns
    (n_full, n_selected, achieved_power), each n_full evaluated once.
    Infeasible if none up to MAX_N_FULL reaches the target.
    """
    check_gamma(gamma)
    _check_effect_f(effect_f)
    _check_target_power(target_power, alpha)

    @functools.cache
    def power_at(n):
        return power_eods(DesignSpec(n, gamma, effect_f, alpha)).power

    def meets(n):
        enough = round_half_away_from_zero(gamma * n) >= MIN_ESTIMATE_PAIRS
        return enough and power_at(n) >= target_power

    n_full = _smallest_meeting(meets, 5, MAX_N_FULL)
    if n_full is None:
        raise Infeasible(
            f"no design up to n_full = {MAX_N_FULL} reaches power "
            f"{target_power:.4f}"
        )
    return n_full, round_half_away_from_zero(gamma * n_full), power_at(n_full)
