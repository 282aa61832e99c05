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

import math
from dataclasses import dataclass

from . import dist
from ._util import round_half_away_from_zero
from .errors import DomainError, Infeasible

_MAX_N_FULL = 10_000_000


def _check_effect_f(effect_f):
    if not 0.0 <= effect_f < math.inf:
        raise DomainError(
            f"effect_f must be finite and nonnegative, got {effect_f!r}"
        )


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
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        _check_effect_f(self.effect_f)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if round_half_away_from_zero(self.gamma * self.n_full) < 3:
            raise DomainError("selected subset would have fewer than 3 subjects")


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
    z = -norm_quantile(gamma/2), the upper gamma/2 point; the closed form
    below follows from the truncated-tail second moment identity.
    Decreasing in gamma, 1 at gamma = 1. Solving on the lower tail keeps
    z exact for tiny gamma, where 1 - gamma/2 would round to 1.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma!r}")
    z = -dist.norm_quantile(gamma / 2.0)
    return (2.0 * z * dist.norm_pdf(z) + gamma) / gamma


def power_full(n, effect_f, alpha):
    """Power of the level-alpha slope test with all n subjects observed."""
    if n < 4:
        raise DomainError(f"n must be at least 4, got {n!r}")
    _check_effect_f(effect_f)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    df2 = n - 2
    crit = dist.f_quantile_central(alpha, 1, df2)
    ncp = n * effect_f * effect_f
    return 1.0 - dist.f_cdf_noncentral(crit, dist.NoncentralFParams(1, df2, ncp))


def power_eods(spec):
    """Power of the extreme-sampling design described by spec."""
    if not isinstance(spec, DesignSpec):
        spec = DesignSpec(*spec)
    n_selected = round_half_away_from_zero(spec.gamma * spec.n_full)
    df2 = n_selected - 2
    if df2 < 1:
        raise DomainError("selected subset leaves no residual degrees of freedom")
    vif = variance_inflation(spec.gamma)
    ncp = spec.n_full * spec.effect_f**2 * spec.gamma * vif
    crit = dist.f_quantile_central(spec.alpha, 1, df2)
    power = 1.0 - dist.f_cdf_noncentral(crit, dist.NoncentralFParams(1, df2, ncp))
    return PowerResult(
        power=power, ncp=ncp, df1=1, df2=df2, variance_inflation=vif
    )


def min_gamma_for_power(n_full, effect_f, alpha, target_power):
    """Smallest even selected-subset size meeting the power target.

    Scans n_selected = 4, 6, 8, ... (half per tail) at fixed n_full and
    returns (gamma, n_selected, achieved_power) for the first size whose
    extreme-design power reaches target_power. Infeasible if even full
    sampling (gamma = 1) cannot reach the target.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not alpha < target_power < 1.0:
        raise DomainError("target power must lie in (alpha, 1)")
    full = power_eods(DesignSpec(n_full, 1.0, effect_f, alpha))
    if full.power < target_power:
        raise Infeasible(
            f"even full sampling yields power {full.power:.4f} "
            f"below the target {target_power:.4f}"
        )
    for n_selected in range(4, n_full + 1, 2):
        gamma = n_selected / n_full
        result = power_eods(DesignSpec(n_full, gamma, effect_f, alpha))
        if result.power >= target_power:
            return gamma, n_selected, result.power
    # n_full odd and no even size reached the target: full sampling did
    return 1.0, n_full, full.power


def min_nfull_for_power(gamma, effect_f, alpha, target_power):
    """Smallest n_full meeting the power target at a fixed gamma.

    Exponential bracketing followed by bisection; a short downward walk
    at the end absorbs any local wobble where round(gamma * n) jumps.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not alpha < target_power < 1.0:
        raise DomainError("target power must lie in (alpha, 1)")

    def valid(n):
        return n >= 5 and round_half_away_from_zero(gamma * n) >= 3

    def power_at(n):
        return power_eods(DesignSpec(n, gamma, effect_f, alpha)).power

    n_min = 5
    while not valid(n_min):
        n_min += 1

    if power_at(n_min) >= target_power:
        return n_min
    lo, hi = n_min, n_min
    while power_at(hi) < target_power:
        lo = hi
        hi = min(hi * 2, _MAX_N_FULL)
        if hi == lo:
            raise Infeasible(
                f"no design up to n_full = {_MAX_N_FULL} reaches power "
                f"{target_power:.4f}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= target_power:
            hi = mid
        else:
            lo = mid
    for _ in range(64):
        if hi - 1 >= n_min and valid(hi - 1) and power_at(hi - 1) >= target_power:
            hi -= 1
        else:
            break
    return hi
