"""Probability kernels used across the package.

Normal pdf/cdf/quantile, Student-t cdf/quantile, noncentral-F cdf, the
regularized incomplete beta function, and the second moment of a
truncated standard-normal tail. Everything here is a pure function of
its arguments; no global state.

Accuracy targets: cdfs to about 1e-12 absolute, quantiles to 1e-10,
noncentral-F series truncated when the remaining Poisson mass drops
below 1e-12. The normal quantile is Wichura's AS 241 (Applied
Statistics 37, 1988) from the standard library; the Student-t quantile
is the only one solved by bisection.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Series / root-finding controls.
_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_FPMIN = 1e-300
_POISSON_TAIL = 1e-12
_QUANTILE_XTOL = 1e-12
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class NoncentralFParams:
    """Degrees of freedom and noncentrality of a noncentral F variable."""

    df1: float
    df2: float
    ncp: float

    def __post_init__(self):
        if not (self.df1 > 0 and self.df2 > 0):
            raise DomainError("degrees of freedom must be positive")
        if not self.ncp >= 0:
            raise DomainError("noncentrality must be nonnegative")


def norm_pdf(x):
    """Standard normal density (1/sqrt(2 pi)) exp(-x^2/2)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def norm_cdf(x):
    """Standard normal cdf via erfc; accurate to ~1e-15 everywhere."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _invert_cdf(cdf, p, lo, hi):
    """Solve cdf(x) = p on a bracketing interval [lo, hi].

    Bisection first (guaranteed progress), then a short secant polish.
    The caller must supply a genuine bracket: cdf(lo) <= p <= cdf(hi).
    """
    flo = cdf(lo) - p
    fhi = cdf(hi) - p
    if flo > 0 or fhi < 0:
        raise DomainError("quantile bracket does not straddle the target")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    a, b, fa, fb = lo, hi, flo, fhi
    # Bisect to bracket-width convergence. An |f| stopping rule would be
    # wrong out in the tails, where the cdf is nearly flat and points far
    # from the root already match p to machine precision.
    for _ in range(100):
        x = 0.5 * (a + b)
        fx = cdf(x) - p
        if fx == 0.0:
            return x
        if fx < 0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a <= _QUANTILE_XTOL * max(1.0, abs(x)):
            break
    # One secant refinement inside the final bracket.
    if fb != fa:
        x = b - fb * (b - a) / (fb - fa)
        if a <= x <= b:
            return x
    return 0.5 * (a + b)


def norm_quantile(p):
    """Lower quantile of the standard normal: x with norm_cdf(x) = p."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def _betacf(a, b, x):
    # Continued fraction for the incomplete beta, evaluated with the
    # modified Lentz method.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            break
    return h


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0 or b <= 0:
        raise DomainError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x, df):
    """Student-t cdf with df > 0 degrees of freedom."""
    if not df > 0:
        raise DomainError(f"degrees of freedom must be positive, got {df!r}")
    if x == 0.0:
        return 0.5
    xx = df / (df + x * x)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, xx)
    return tail if x < 0 else 1.0 - tail


@lru_cache(maxsize=4096)
def t_quantile(p, df):
    """Inverse Student-t cdf. Cached: simulation loops reuse few (p, df)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {p!r}")
    if not df > 0:
        raise DomainError(f"degrees of freedom must be positive, got {df!r}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        hi = 2.0
        while t_cdf(hi, df) < p:
            hi *= 2.0
            if hi > 1e300:
                raise DomainError("t quantile bracket expansion failed")
        return _invert_cdf(lambda v: t_cdf(v, df), p, 0.0, hi)
    # Below 0.5 solve on the lower tail itself: mirroring through 1 - p
    # would lose every digit of p below 1e-16.
    lo = -2.0
    while (cdf_lo := t_cdf(lo, df)) > p:
        lo *= 2.0
    if cdf_lo == 0.0:
        # x * x overflowed or the cdf underflowed before reaching p
        raise DomainError(f"t quantile at p = {p!r} is beyond double range")
    return _invert_cdf(lambda v: t_cdf(v, df), p, lo, 0.0)


def f_cdf_noncentral(x, params):
    """Noncentral F cdf at x.

    Poisson(ncp/2) mixture of incomplete beta terms, summed outward from
    the modal Poisson index so the largest weights are accumulated first
    and the beta terms advance by stable two-term recurrences. Series
    stops once the unaccounted Poisson mass is below 1e-12.
    """
    if not isinstance(params, NoncentralFParams):
        params = NoncentralFParams(*params)
    if x <= 0.0:
        return 0.0
    d1, d2, lam = params.df1, params.df2, params.ncp
    y = d1 * x / (d1 * x + d2)
    if lam == 0.0:
        return regularized_incomplete_beta(d1 / 2, d2 / 2, y)
    one_minus_y = d2 / (d1 * x + d2)
    if one_minus_y <= 0.0:
        return 1.0
    half = 0.5 * lam
    a0 = 0.5 * d1
    b = 0.5 * d2
    ln_y = math.log(y)
    ln_1my = math.log(one_minus_y)

    j0 = int(half)
    # Poisson weight, beta value, and beta increment at the mode.
    ln_w = j0 * math.log(half) - half - math.lgamma(j0 + 1)
    w_mode = math.exp(ln_w)
    a_mode = a0 + j0
    i_mode = regularized_incomplete_beta(a_mode, b, y)
    ln_t = (
        math.lgamma(a_mode + b)
        - math.lgamma(a_mode + 1.0)
        - math.lgamma(b)
        + a_mode * ln_y
        + b * ln_1my
    )
    t_mode = math.exp(ln_t)

    total = w_mode * i_mode
    cum_w = w_mode

    # Downward sweep: finitely many terms, j0 at most.
    w, i_val, t_val = w_mode, i_mode, t_mode
    for j in range(j0, 0, -1):
        a = a0 + j
        t_val = t_val * a / (y * (a + b - 1.0))  # step T(a) -> T(a-1)
        i_val = min(1.0, i_val + t_val)
        w = w * j / half
        total += w * i_val
        cum_w += w

    # Upward sweep until the Poisson tail is exhausted.
    w, i_val, t_val = w_mode, i_mode, t_mode
    j = j0
    while 1.0 - cum_w > _POISSON_TAIL:
        a = a0 + j
        i_val = max(0.0, i_val - t_val)
        t_val = t_val * y * (a + b) / (a + 1.0)  # step T(a) -> T(a+1)
        w = w * half / (j + 1)
        j += 1
        total += w * i_val
        cum_w += w
        if i_val == 0.0:
            break
        if j > j0 + 100000:
            break
    return min(1.0, max(0.0, total))


def truncated_tail_second_moment(c):
    """Second moment of the standard normal over the upper tail [c, inf).

    Integration by parts on x * (x phi(x)) gives the closed form
    integral_c^inf x^2 phi(x) dx = c phi(c) + Phi(-c); both limits
    (1 as c -> -inf, 0 as c -> +inf) fall out of the same expression.
    Phi(-c) keeps the tail's digits that 1 - Phi(c) would cancel.
    """
    return c * norm_pdf(c) + norm_cdf(-c)
