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
import math
from dataclasses import dataclass

from . import dist
from ._util import check_alpha, check_gamma, round_half_away_from_zero
from .errors import DomainError, Infeasible

_MAX_N_FULL = 10_000_000


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
        if self.n_full < 5:
            raise DomainError(f"n_full must be at least 5, got {self.n_full!r}")
        check_gamma(self.gamma)
        _check_effect_f(self.effect_f)
        check_alpha(self.alpha)
        if self.n_selected < 3:
            raise DomainError("selected subset would have fewer than 3 subjects")

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
    if n < 4:
        raise DomainError(f"n must be at least 4, got {n!r}")
    _check_effect_f(effect_f)
    check_alpha(alpha)
    return _slope_test_power(alpha, n - 2, n * effect_f * effect_f)


def power_eods(spec):
    """Power of the extreme-sampling design described by spec."""
    if not isinstance(spec, DesignSpec):
        spec = DesignSpec(*spec)
    df2 = spec.n_selected - 2
    vif = variance_inflation(spec.gamma)
    ncp = spec.n_full * spec.effect_f**2 * spec.gamma * vif
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

    Brackets and bisects n_selected = 2h (h per tail, h >= 2) at fixed
    n_full; returns (gamma, n_selected, achieved_power), full sampling
    for an odd n_full that no even size serves. Infeasible if even full
    sampling (gamma = 1) cannot reach the target.
    """
    _check_target_power(target_power, alpha)
    full = power_eods(DesignSpec(n_full, 1.0, effect_f, alpha))
    if full.power < target_power:
        raise Infeasible(
            f"even full sampling yields power {full.power:.4f} "
            f"below the target {target_power:.4f}"
        )

    def power_at(half):
        spec = DesignSpec(n_full, 2 * half / n_full, effect_f, alpha)
        return power_eods(spec).power

    half = _smallest_meeting(lambda h: power_at(h) >= target_power, 2, n_full // 2)
    if half is None:
        return 1.0, n_full, full.power
    return 2 * half / n_full, 2 * half, power_at(half)


def min_nfull_for_power(gamma, effect_f, alpha, target_power):
    """Smallest n_full meeting the power target at a fixed gamma.

    Brackets and bisects over the n_full >= 5 that select at least 3
    subjects. Infeasible if no n_full up to 10,000,000 reaches the target.
    """
    check_gamma(gamma)
    _check_target_power(target_power, alpha)

    def meets(n):
        if round_half_away_from_zero(gamma * n) < 3:
            return False
        spec = DesignSpec(n, gamma, effect_f, alpha)
        return power_eods(spec).power >= target_power

    n_full = _smallest_meeting(meets, 5, _MAX_N_FULL)
    if n_full is None:
        raise Infeasible(
            f"no design up to n_full = {_MAX_N_FULL} reaches power "
            f"{target_power:.4f}"
        )
    return n_full
