"""Probability kernels used across the package.

Normal pdf/cdf/quantile, Student-t cdf/quantile, noncentral-F cdf, and
the second moment of a truncated standard-normal tail, each a pure
function of its arguments. Both cdfs reach the private incomplete beta
`_ibeta`, whose front factor x^a (1 - x)^b / B(a, b) has one home,
`_log_front`. A df whose half is not positive and finite, or a NaN x
of either cdf, raises DomainError where a caller enters.

Accuracy targets: cdfs to about 1e-12 absolute, quantiles to 1e-10,
noncentral-F series truncated when the remaining Poisson mass drops
below 1e-12. The t cdf meets its target at every t up to df 1000;
at df 1e4 it is about 4e-12 off, and at 1e6 about 3e-10. The normal
quantile is Wichura's AS 241 (Applied Statistics 37, 1988), the
rational approximation behind the standard library's
`NormalDist.inv_cdf`, with its coefficients and its order of
operations, so the two agree bit for bit. `norm_quantiles` evaluates
the same table over an ndarray of probabilities, bit for bit equal to
`norm_quantile` per element (`regress.qq_points` calls it); it imports
NumPy when called, so this module imports none. The Student-t
quantile is the only one solved iteratively, by safeguarded Newton
steps from Hill's start (CACM Algorithm 396, 1970) on its lower tail,
an upper quantile being the negated lower one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Series / root-finding controls.
_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_FPMIN = 1e-300
_POISSON_TAIL = 1e-12
# Terms either sweep may take; more means an ncp of about 3e10 or more
# with a cdf that is not negligible, which the series cannot serve.
_POISSON_MAX_TERMS = 10**6
# Past this Poisson mean the lgamma differences at the mode lose their
# digits, and a cdf that is not zero would need millions of terms.
_SERIES_MAX_HALF = 2.0**40
_QUANTILE_XTOL = 1e-12
_QUANTILE_MAX_ITER = 100


def _check_df(df, name="degrees of freedom"):
    """Refuse a df unless df / 2, an `_ibeta` parameter, is in (0, 5e304]."""
    # math.lgamma overflows past about 2.5e305, and _ibeta takes it of a + b
    if not 0.0 < 0.5 * df <= 5e304:
        raise DomainError(f"{name} / 2 must lie in (0, 5e+304], got {df!r}")


@dataclass(frozen=True)
class NoncentralFParams:
    """Degrees of freedom and noncentrality of a noncentral F variable."""

    df1: float
    df2: float
    ncp: float

    def __post_init__(self):
        _check_df(self.df1, "df1")
        _check_df(self.df2, "df2")
        if not self.ncp >= 0:
            raise DomainError("noncentrality must be nonnegative")


def norm_pdf(x):
    """Standard normal density (1/sqrt(2 pi)) exp(-x^2/2)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def norm_cdf(x):
    """Standard normal cdf via erfc; accurate to ~1e-15 everywhere."""
    return 0.5 * math.erfc(-x / _SQRT2)


# AS 241's three rational approximations, highest power first, as the
# standard library's statistics module holds them. The central one is
# q P(r) / Q(r) at r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425;
# each tail one is P(s) / Q(s) at s = sqrt(-log(min(p, 1 - p))) - shift,
# the near one for s <= 5 and the far one beyond.
_AS241_CENTRAL_HALF_WIDTH = 0.425
_AS241_TAIL_SPLIT = 5.0
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
# (shift, P, Q)
_AS241_NEAR_TAIL = (
    1.6,
    (7.7454501427834140764e-4, 2.2723844989269184583e-2,
     2.4178072517745061177e-1, 1.2704582524523683826e+0,
     3.6478483247632045265e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444169232e-9, 5.4759380849953449460e-4,
     1.5198666563616457197e-2, 1.4810397642748007459e-1,
     6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR_TAIL = (
    5.0,
    (2.0103343992922881326e-7, 2.7115555687434875781e-5,
     1.2426609473880784386e-3, 2.6532189526576123093e-2,
     2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7,
     1.8463183175100546818e-5, 7.8686913114561325910e-4,
     1.4875361290850615025e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(coefficients, r):
    """The polynomial with these coefficients (highest power first) at r.

    r is a float or an ndarray. On an ndarray the sum is accumulated in
    place in one new array, so a long r costs one temporary, not one
    per coefficient; the operations, and so the rounding, are those of
    the nested expression ((c0 r + c1) r + ...) + cn.
    """
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def _as241_central(q):
    """AS 241's x at q = p - 1/2 for |q| <= 0.425; q a float or ndarray."""
    r = 0.180625 - q * q
    numerator, denominator = _AS241_CENTRAL
    return _horner(numerator, r) * q / _horner(denominator, r)


def _as241_tail(s, table):
    """AS 241's |x| at s = sqrt(-log(min(p, 1 - p))), s a float or ndarray.

    table is _AS241_NEAR_TAIL where s <= 5 and _AS241_FAR_TAIL beyond.
    """
    shift, numerator, denominator = table
    s = s - shift
    return _horner(numerator, s) / _horner(denominator, s)


def norm_quantile(p):
    """Lower quantile of the standard normal: x with norm_cdf(x) = p.

    AS 241 in pure Python; equal, bit for bit, to the standard library's
    NormalDist().inv_cdf(p).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {p!r}")
    q = p - 0.5
    if abs(q) <= _AS241_CENTRAL_HALF_WIDTH:
        return _as241_central(q)
    s = math.sqrt(-math.log(p if q < 0.0 else 1.0 - p))
    table = _AS241_NEAR_TAIL if s <= _AS241_TAIL_SPLIT else _AS241_FAR_TAIL
    x = _as241_tail(s, table)
    return -x if q < 0.0 else x


def norm_quantiles(p):
    """norm_quantile at every element of a float64 ndarray p, as an array.

    Each AS 241 region is evaluated once, on the elements in it, so every
    element equals the scalar result bit for bit. The tail's log is
    math.log per element, since np.log rounds apart from libm on about 1
    value in 10^4. NumPy is imported here, not with the module.
    """
    import numpy as np

    outside = ~((p > 0.0) & (p < 1.0))
    if outside.any():
        bad = float(p[outside][0])
        raise DomainError(f"probability must lie in (0, 1), got {bad!r}")
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= _AS241_CENTRAL_HALF_WIDTH
    x[central] = _as241_central(q[central])
    tail = ~central
    lower = q[tail] < 0.0
    mass = np.where(lower, p[tail], 1.0 - p[tail])
    s = np.sqrt(-np.fromiter(map(math.log, mass.tolist()), float, mass.size))
    near = s <= _AS241_TAIL_SPLIT
    far = ~near
    s[near] = _as241_tail(s[near], _AS241_NEAR_TAIL)
    s[far] = _as241_tail(s[far], _AS241_FAR_TAIL)
    s[lower] = -s[lower]
    x[tail] = s
    return x


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
            return h
    raise DomainError(
        f"incomplete beta continued fraction at a = {a!r}, b = {b!r}, "
        f"x = {x!r} needs more than {_BETACF_MAX_ITER} iterations"
    )


def _log_front(a, b, x, y):
    """log(x^a y^b / B(a, b)) at y = 1 - x; log(1 - x) is log(y) once x > y."""
    return (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * (math.log1p(-x) if x <= y else math.log(y))
    )


def _ibeta(a, b, x, y):
    """I_x(a, b), with y = 1 - x formed by the caller apart from x.

    Where x rounds next to 1, y keeps the digits that 1 - x would lose:
    the front factor reads it (see `_log_front`), and the continued
    fraction above the mean runs on y. y is not read when x is 0.
    Callers pass x in [0, 1] and a, b > 0, the latter by `_check_df`.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    front = math.exp(_log_front(a, b, x, y))
    # The continued fraction converges fast only on one side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def t_cdf(x, df):
    """Student-t cdf with df degrees of freedom; a NaN x raises DomainError.

    The tail is I_w(df/2, 1/2) / 2 at w = df / (df + x^2), with 1 - w
    formed as x^2 / (df + x^2), so a small |x| keeps its digits, and the
    tail is exactly 1/2 at x = 0, where w = 1.
    """
    _check_df(df)
    if math.isnan(x):
        raise DomainError(f"t cdf needs a number x, got {x!r}")
    # an x^2 that overflows gives w = 0, and so a zero tail
    x2 = x * x
    tail = 0.5 * _ibeta(0.5 * df, 0.5, df / (df + x2), x2 / (df + x2))
    return tail if x < 0 else 1.0 - tail


def _hill_start(q, df):
    """Hill's Algorithm 396 (CACM 13, 1970): |t| with P(T < -|t|) = q.

    Closed forms at df 1 and 2, Hill's expansion from df 3 on. At any
    other df below 3, the leading term of the tail, q = w^(df/2) /
    (df B(df/2, 1/2)) at w = df / (df + t^2).
    """
    p = 2.0 * q  # two-sided
    if df == 1:
        return 1.0 / math.tan(math.pi * q)
    if df == 2:
        return math.sqrt(2.0 / (p * (2.0 - p)) - 2.0)
    if df < 3:
        log_beta = math.lgamma(0.5 * df) + math.lgamma(0.5) - math.lgamma(0.5 * df + 0.5)
        log_t = 0.5 * math.log(df) - (math.log(q) + math.log(df) + log_beta) / df
        # past exp's range the root is too, and t_cdf reads 0 there
        return math.exp(min(log_t, 709.0))
    a = 1.0 / (df - 0.5)
    # b is inf from df 2e153 on (a * a is 0 from 6e161): the normal start
    b = 48.0 / (a * a) if a * a else math.inf
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p) ** (2.0 / df)
    if y > 0.05 + a:
        # the normal-based expansion, away from the far tail
        x = norm_quantile(q)
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
             + 0.5 / (df + 4.0)) * y - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


@lru_cache(maxsize=4096)
def t_quantile(p, df):
    """Inverse Student-t cdf. Cached: simulation loops reuse few (p, df).

    Solved on the lower tail q = min(p, 1 - p) and negated for p > 0.5.
    1 - p is exact for p >= 0.5 (Sterbenz), while a small p mirrored to
    1 - p would lose its digits. From Hill's start, Newton steps on log F,
    dx = (log q - log F) F / pdf, each one evaluation of t_cdf. The
    points evaluated bracket the root; a step that would leave the
    bracket, or fail to halve the step before it, bisects the bracket
    instead. The search stops once a step, or the bracket, is within
    1e-12 of x relative (absolute below |x| = 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {p!r}")
    _check_df(df)
    if p == 0.5:
        return 0.0
    sign, q = (-1.0, 1.0 - p) if p > 0.5 else (1.0, p)
    log_q = math.log(q)
    # log of the t pdf at 0
    log_pdf0 = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
    )
    lo, hi = -math.inf, 0.0  # t_cdf(lo) < q < t_cdf(hi)
    x = -_hill_start(q, df)
    last = math.inf
    for _ in range(_QUANTILE_MAX_ITER):
        f = t_cdf(x, df)
        if f == 0.0:
            # x * x overflowed or the cdf underflowed before reaching q
            raise DomainError(f"t quantile at p = {p!r} is beyond double range")
        if f == q:
            return sign * x
        if f < q:
            lo = x
        else:
            hi = x
        # (log q - log F) F / pdf, with the pdf in logs as F is
        log_f = math.log(f)
        log_pdf = log_pdf0 - 0.5 * (df + 1.0) * math.log1p(x * x / df)
        step = (log_q - log_f) * math.exp(log_f - log_pdf)
        tol = _QUANTILE_XTOL * max(1.0, abs(x))
        if abs(step) <= tol:
            return sign * (x + step)
        # from df 1e5 on t_cdf's rounding can outweigh its slope across
        # the tolerance, and only the bracket's width ends the search
        if hi - lo <= tol:
            return sign * x
        # bisect for a step that leaves the bracket, or that fails to
        # halve the last one once both ends are known
        if not lo < x + step < hi or (lo > -math.inf and abs(step) > 0.5 * last):
            step = 0.5 * (lo + hi) - x
        last = abs(step)
        x += step
    raise DomainError(
        f"t quantile at p = {p!r}, df = {df!r} did not converge in "
        f"{_QUANTILE_MAX_ITER} steps"
    )


def f_cdf_noncentral(x, params):
    """Noncentral F cdf at x.

    Poisson(ncp/2) mixture of incomplete beta terms, summed outward from
    the modal Poisson index so the largest weights are accumulated first
    and the beta terms advance by stable two-term recurrences. Each
    sweep stops once the unaccounted Poisson mass is below 1e-12 or the
    terms left cannot change the sum; one that would need more than
    10^6 terms raises DomainError. An ncp beyond 2^41, infinity
    included, is answered by a tail bound when the cdf is 0 to double
    precision, and raises DomainError otherwise. x = +inf gives 1 at
    every ncp; a NaN x raises DomainError.
    """
    if math.isnan(x):
        raise DomainError(f"noncentral F cdf needs a number x, got {x!r}")
    if x <= 0.0:
        return 0.0
    d1, d2, lam = params.df1, params.df2, params.ncp
    y = d1 * x / (d1 * x + d2)
    one_minus_y = d2 / (d1 * x + d2)
    if one_minus_y <= 0.0:
        # d1 x is infinite, x = inf included, where y reads inf / inf
        return 1.0
    if lam == 0.0:
        return _ibeta(d1 / 2, d2 / 2, y, one_minus_y)
    half = 0.5 * lam
    if half > _SERIES_MAX_HALF:
        return _cdf_beyond_series(x, d1, d2, lam)
    a0 = 0.5 * d1
    b = 0.5 * d2

    j0 = int(half)
    # Poisson weight, beta value, and beta increment at the mode.
    ln_w = j0 * math.log(half) - half - math.lgamma(j0 + 1)
    w_mode = math.exp(ln_w)
    a_mode = a0 + j0
    i_mode = _ibeta(a_mode, b, y, one_minus_y)
    t_mode = math.exp(_log_front(a_mode, b, y, one_minus_y)) / a_mode

    total = w_mode * i_mode
    cum_w = w_mode

    # Downward sweep: j0 terms at most. The j terms left below j weigh
    # at most w * j together, as the weights fall below the mode, so the
    # sweep stops once they cannot change total, or once the beta
    # recurrence has reached zero and every term left is zero.
    w, i_val, t_val = w_mode, i_mode, t_mode
    for j in range(j0, 0, -1):
        if total + w * j == total or i_val == t_val == 0.0:
            break
        if j0 - j == _POISSON_MAX_TERMS:
            raise _too_many_terms(lam)
        a = a0 + j
        t_val = t_val * a / (y * (a + b - 1.0))  # step T(a) -> T(a-1)
        i_val = min(1.0, i_val + t_val)
        w = w * j / half
        total += w * i_val
        cum_w += w

    # Upward sweep until the Poisson tail is exhausted. Above the mode
    # the weights fall at least by r = half / (j + 1) per term, so the
    # terms left above j add at most i_val * w * r / (1 - r); the sweep
    # also stops once that cannot change total, since 1 - cum_w keeps
    # the rounding error of the mode's weight and, from an ncp in the
    # thousands on, may never fall below the tail.
    w, i_val, t_val = w_mode, i_mode, t_mode
    j = j0
    while 1.0 - cum_w > _POISSON_TAIL:
        if j - j0 == _POISSON_MAX_TERMS:
            raise _too_many_terms(lam)
        a = a0 + j
        i_val = max(0.0, i_val - t_val)
        t_val = t_val * y * (a + b) / (a + 1.0)  # step T(a) -> T(a+1)
        w = w * half / (j + 1)
        j += 1
        total += w * i_val
        cum_w += w
        if i_val == 0.0 or total + i_val * w * half / (j + 1 - half) == total:
            break
    return min(1.0, max(0.0, total))


def _too_many_terms(ncp):
    return DomainError(
        f"noncentral F series at ncp {ncp!r} needs more than "
        f"{_POISSON_MAX_TERMS} terms"
    )


def _cdf_beyond_series(x, d1, d2, ncp):
    """The noncentral F cdf at a huge ncp, when it is zero in double.

    P(F <= x) <= P(V > v) + P(chi2_d1(ncp) <= d1 x v / d2) for V the
    chi2_d2 denominator. At v = d2 + 2 sqrt(746 d2) + 1492 the first
    term is at most e^-746 (Laurent & Massart, Ann. Statist. 28, 2000,
    Lemma 1), and the second is at most Phi(sqrt(d1 x v / d2) -
    sqrt(ncp)), from the one noncentral coordinate. When that Phi
    underflows, the cdf is below 1e-323 and 0 is returned; otherwise it
    cannot be evaluated.
    """
    v = d2 + 2.0 * math.sqrt(746.0 * d2) + 1492.0
    if norm_cdf(math.sqrt(d1 * x * v / d2) - math.sqrt(ncp)) == 0.0:
        return 0.0
    raise DomainError(
        f"noncentral F cdf at ncp {ncp!r} is beyond the series' range"
    )


def truncated_tail_second_moment(c):
    """Second moment of the standard normal over the upper tail [c, inf).

    Integration by parts on x * (x phi(x)) gives the closed form
    integral_c^inf x^2 phi(x) dx = c phi(c) + Phi(-c); both limits
    (1 as c -> -inf, 0 as c -> +inf) fall out of the same expression.
    Phi(-c) keeps the tail's digits that 1 - Phi(c) would cancel.
    """
    return c * norm_pdf(c) + norm_cdf(-c)
