"""Checks for the probability kernels.

Reference values were computed once with an independent implementation
(scipy.stats / scipy.special / adaptive quadrature) and frozen here;
the tail sweeps call SciPy directly.
"""

import math
import random
import statistics

import numpy as np
import pytest
import scipy.special
import scipy.stats

from eods import design, dist
from eods.errors import DomainError

TOL_PDF = 1e-15
TOL_CDF = 1e-12
TOL_QUANTILE = 1e-8
TOL_SERIES = 1e-9
# relative, against SciPy: AS 241 is good to a few ulps; the t and F
# quantiles meet the package's stated 1e-10
TOL_NORM_Q_REL = 4e-15
TOL_T_Q_REL = 1e-10
TOL_TAIL_MOMENT_REL = 1e-13

# Frozen references.
REF_NORM_PDF_0 = 0.3989422804014327
REF_NORM_PDF_16449 = 0.10312777369994584
REF_NORM_CDF_196 = 0.9750021048517795
REF_NORM_Q_095 = 1.6448536269514722
REF_NORM_Q_0975 = 1.959963984540054
REF_T_CDF_2101_18 = 0.9750038185610183
REF_T_Q_0975_18 = 2.10092204024096
REF_F_Q_005_1_18 = 4.413873419170566
REF_CHI2_1_MEDIAN = 0.454936423119572
REF_TRUNC2ND_16449 = 0.21963009242738724
REF_NCF_SPOT = 0.24209713414049852  # cdf at (x=4.413873419170566, 1, 18, ncp=7.9076)


def test_norm_pdf_values():
    assert abs(dist.norm_pdf(0.0) - REF_NORM_PDF_0) < TOL_PDF
    assert abs(dist.norm_pdf(1.6449) - REF_NORM_PDF_16449) < TOL_PDF
    assert dist.norm_pdf(2.3) == dist.norm_pdf(-2.3)


def test_norm_cdf_values():
    assert dist.norm_cdf(0.0) == 0.5
    assert abs(dist.norm_cdf(1.96) - REF_NORM_CDF_196) < TOL_CDF
    assert abs(dist.norm_cdf(40.0) - 1.0) < 1e-15
    assert dist.norm_cdf(-40.0) < 1e-300


def test_norm_quantile_values():
    assert dist.norm_quantile(0.5) == 0.0
    assert abs(dist.norm_quantile(0.95) - REF_NORM_Q_095) < TOL_QUANTILE
    assert abs(dist.norm_quantile(0.975) - REF_NORM_Q_0975) < TOL_QUANTILE


def test_norm_quantile_matches_ndtri():
    # the n = 20000 plotting positions of qq_points, and both tails
    n = 20000
    ps = [(i - 0.5) / n for i in range(1, n + 1)]
    ps += [10.0**-k for k in range(1, 301)]
    ps += [1.0 - 10.0**-k for k in range(1, 16)]
    for p in ps:
        want = float(scipy.special.ndtri(p))
        got = dist.norm_quantile(p)
        assert abs(got - want) <= TOL_NORM_Q_REL * abs(want), (p, got, want)


def _as241_probabilities():
    # plotting positions, both tails to their ends, the two edges of the
    # central region (|p - 1/2| <= 0.425) and seeded uniforms
    n = 20000
    ps = [(i - 0.5) / n for i in range(1, n + 1)]
    ps += [10.0**-k for k in range(1, 301)]
    ps += [1.0 - 10.0**-k for k in range(1, 16)]
    ps += [0.5 - 0.425, 0.5 + 0.425]
    rng = random.Random(241)
    ps += [rng.random() for _ in range(200_000)]
    ps = [p for p in ps if 0.0 < p < 1.0]
    assert len(ps) > 220_000
    return ps


def test_norm_quantile_equals_inv_cdf():
    # the AS 241 table and its order of operations are the standard
    # library's, so the two agree exactly, region edges included
    inv_cdf = statistics.NormalDist().inv_cdf
    ps = _as241_probabilities()
    mismatched = [p for p in ps if dist.norm_quantile(p) != inv_cdf(p)]
    assert mismatched == []


def test_norm_quantiles_equal_the_scalar():
    # every region of the array evaluation, the far tail (s > 5) too,
    # gives the scalar's bits
    ps = _as241_probabilities()
    want = [dist.norm_quantile(p) for p in ps]
    assert dist.norm_quantiles(np.array(ps)).tolist() == want


def test_norm_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
        with pytest.raises(DomainError):
            dist.norm_quantile(bad)
        with pytest.raises(DomainError, match="probability must lie in"):
            dist.norm_quantiles(np.array([0.5, bad, 0.25]))


def test_norm_quantile_roundtrip():
    # quantile(cdf(x)) = x on the bulk of the support. Above x ~ 5.6 the
    # identity cannot hold to 1e-9 in doubles: cdf(x) is within a few
    # ulps of 1.0 there, so the inverse problem loses the tail bits. The
    # attainable ceiling is ulp(1)/pdf(x); scipy hits the same wall.
    ulp_at_one = 1.1102230246251565e-16
    for i in range(33):
        x = -8.0 + 0.5 * i
        p = dist.norm_cdf(x)
        err = abs(dist.norm_quantile(p) - x)
        if x <= 5.5:
            assert err < 1e-9, (x, err)
        else:
            assert err < 1e-9 + 1.5 * ulp_at_one / dist.norm_pdf(x), (x, err)


def test_norm_cdf_monotone():
    prev = 0.0
    for i in range(-600, 601):
        cur = dist.norm_cdf(i / 100.0)
        assert cur >= prev
        prev = cur


def test_t_cdf_values():
    # at t = 0 and -0, w = 1, and the tail is the incomplete beta's y = 0 exit
    for df in (1, 2, 7, 198, 1e6, 1e100, 1e300):
        assert dist.t_cdf(0.0, df) == dist.t_cdf(-0.0, df) == 0.5, df
    assert abs(dist.t_cdf(2.101, 18) - REF_T_CDF_2101_18) < TOL_CDF
    # normal limit
    assert abs(dist.t_cdf(1.0, 1e6) - dist.norm_cdf(1.0)) < 1e-3


def test_t_cdf_matches_scipy_at_small_t():
    # where w = df / (df + t^2) rounds next to 1, so 1 - w would keep
    # few digits of t^2 / (df + t^2); p-values near 1 come from here
    ts = [10.0 ** (k / 4.0) for k in range(-32, 5)]
    for df in (2, 3, 5, 10, 30, 100, 198, 500, 1000):
        for t in ts:
            want = float(scipy.stats.t.cdf(-t, df))
            got = dist.t_cdf(-t, df)
            assert abs(got - want) < TOL_CDF, (t, df, got, want)
    # df = 1 against the closed form, which SciPy's t.cdf misses by
    # 1.5e-9 at t = 1e-8
    for t in ts:
        want = 0.5 - math.atan(t) / math.pi
        assert abs(dist.t_cdf(-t, 1) - want) < TOL_CDF, t


def test_t_cdf_domain():
    with pytest.raises(DomainError):
        dist.t_cdf(1.0, 0)
    with pytest.raises(DomainError):
        dist.t_cdf(1.0, -3)
    # each refusal names its argument, not the internal w = df / (df + t^2)
    with pytest.raises(DomainError, match="number x, got nan"):
        dist.t_cdf(math.nan, 5)
    # an infinite df, and one whose half underflows to 0
    for df in (math.inf, 5e-324):
        with pytest.raises(DomainError, match=f"degrees of freedom .*got {df!r}"):
            dist.t_cdf(1.0, df)


def test_t_quantile_values():
    assert dist.t_quantile(0.5, 7) == 0.0
    assert abs(dist.t_quantile(0.975, 18) - REF_T_Q_0975_18) < TOL_QUANTILE
    assert abs(dist.t_quantile(0.975, 1e6) - REF_NORM_Q_0975) < 1e-3
    assert abs(dist.t_quantile(0.025, 18) + REF_T_Q_0975_18) < TOL_QUANTILE
    # an upper quantile is the exact mirror of the lower one at 1 - p.
    # In double 1 - 0.975 is 0.025000000000000022, not 0.025, so the
    # mirror of t_quantile(0.025, 18) is one ulp off, as SciPy's is too.
    assert dist.t_quantile(0.975, 18) == -dist.t_quantile(1.0 - 0.975, 18)
    assert math.isclose(
        dist.t_quantile(0.975, 18), -dist.t_quantile(0.025, 18), rel_tol=1e-15
    )


def test_t_quantile_matches_scipy_in_the_tails():
    lower = (1e-100, 1e-15, 1e-12, 2.5e-8, 1e-4, 0.025, 0.3)
    # 1 - 1e-100 rounds to 1, outside the domain
    upper = tuple(1.0 - p for p in lower if p > 1e-100)
    for p in lower + upper:
        for df in (1, 2, 3, 5, 18, 200, 2000, 20000):
            want = float(scipy.stats.t.ppf(p, df))
            got = dist.t_quantile(p, df)
            assert abs(got - want) <= TOL_T_Q_REL * abs(want), (p, df, got, want)


def test_t_quantile_domain():
    with pytest.raises(DomainError):
        dist.t_quantile(0.0, 18)
    with pytest.raises(DomainError):
        dist.t_quantile(0.025, 0)
    with pytest.raises(DomainError, match="degrees of freedom .*got inf"):
        dist.t_quantile(0.025, math.inf)
    # Hill's start once divided by a * a = 0 here; t_cdf does not serve
    # such a df, so it may refuse, but with no traceback
    try:
        got = dist.t_quantile(0.025, 1e200)
    except DomainError:
        pass
    else:
        assert abs(got + REF_NORM_Q_0975) < TOL_QUANTILE
    # the quantile, about -3.2e299, is past where x * x overflows
    with pytest.raises(DomainError):
        dist.t_quantile(1e-300, 1)


def test_t_quantile_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.uniform(0.01, 0.99)
        df = rng.choice([1, 2, 5, 18, 78, 400, 20000])
        x = dist.t_quantile(p, df)
        assert abs(dist.t_cdf(x, df) - p) < 1e-10


def _count_t_cdf(monkeypatch):
    """The list that each later dist.t_cdf call appends its x to."""
    calls = []
    t_cdf = dist.t_cdf
    monkeypatch.setattr(dist, "t_cdf", lambda x, df: calls.append(x) or t_cdf(x, df))
    return calls


def test_t_quantile_takes_few_cdf_calls(monkeypatch):
    # Newton steps from Hill's start: at most 10 t_cdf calls a quantile
    # over the tails and degrees of freedom the package reaches
    calls = _count_t_cdf(monkeypatch)
    for df in (1, 2, 3, 5, 18, 200, 2000, 20000):
        for p in (1e-100, 1e-12, 2.5e-8, 1e-4, 0.025, 0.3, 0.499):
            calls.clear()
            dist.t_quantile.__wrapped__(p, df)
            assert len(calls) <= 10, (p, df, len(calls))


def test_t_quantile_off_integer_and_large_df(monkeypatch):
    # starts outside Hill's integer range
    for df in (0.1, 0.5, 1.5, 2.5, 7.3):
        for p in (1e-12, 0.025, 0.3):
            want = float(scipy.stats.t.ppf(p, df))
            got = dist.t_quantile(p, df)
            assert abs(got - want) <= TOL_T_Q_REL * abs(want), (p, df, got, want)
    with pytest.raises(DomainError, match="beyond double range"):
        dist.t_quantile(1e-100, 0.5)
    # from df 1e5 on t_cdf's rounding, 2e-9 relative at df 1e7, outweighs
    # its slope across 1e-12 of x, and the bracket's width ends the search
    calls = _count_t_cdf(monkeypatch)
    for df in (1e5, 1e7, 1e9):
        for p in (1e-300, 1e-12, 0.025, 0.3):
            calls.clear()
            got = dist.t_quantile.__wrapped__(p, df)
            assert len(calls) <= 50, (p, df, len(calls))
            if df < 1e9:
                want = float(scipy.stats.t.ppf(p, df))
                assert abs(got - want) <= 1e-8 * abs(want), (p, df, got, want)


def test_f_critical_value_is_t_squared():
    # the F(1, d) upper-alpha point is the squared t point at alpha / 2
    assert abs(dist.t_quantile(0.025, 18) ** 2 - REF_F_Q_005_1_18) < TOL_QUANTILE
    # large-df2 limit of F(1, d) is chi-square(1)
    assert abs(dist.t_quantile(0.25, 1e7) ** 2 - REF_CHI2_1_MEDIAN) < 1e-3
    for alpha in (5e-8, 1e-10):
        for df in (1, 2):
            want = float(scipy.stats.t.isf(alpha / 2.0, df)) ** 2
            got = dist.t_quantile(alpha / 2.0, df) ** 2
            assert abs(got - want) <= TOL_T_Q_REL * want, (alpha, df, got, want)


def test_incomplete_beta_basics():
    assert dist._ibeta(2.0, 3.0, 0.0, 1.0) == 0.0
    assert dist._ibeta(2.0, 3.0, 1.0, 0.0) == 1.0
    # I_x(1, 1) is the identity
    for x in (0.1, 0.37, 0.9):
        assert abs(dist._ibeta(1.0, 1.0, x, 1.0 - x) - x) < 1e-14
    # complement symmetry
    rng = random.Random(5)
    for _ in range(40):
        a = rng.uniform(0.2, 50)
        b = rng.uniform(0.2, 50)
        x = rng.random()
        lhs = dist._ibeta(a, b, x, 1.0 - x)
        rhs = 1.0 - dist._ibeta(b, a, 1.0 - x, x)
        assert abs(lhs - rhs) < 1e-12


def test_incomplete_beta_cap_raises():
    # the continued fraction needs about sqrt(a) terms at the mean; at
    # a = b = 1e6 it once stopped at its cap, 4e-7 short of 0.5
    assert abs(dist._ibeta(1e4, 1e4, 0.5, 0.5) - 0.5) < 1e-11
    with pytest.raises(DomainError, match="more than 300 iterations"):
        dist._ibeta(1e6, 1e6, 0.5, 0.5)


def test_ncf_params_validation():
    with pytest.raises(DomainError):
        dist.NoncentralFParams(0, 18, 1.0)
    with pytest.raises(DomainError):
        dist.NoncentralFParams(1, -1, 1.0)
    with pytest.raises(DomainError):
        dist.NoncentralFParams(1, 18, -0.5)
    # an infinite df once gave silently wrong cdfs, or a bare ValueError
    with pytest.raises(DomainError, match="df2 .*got inf"):
        dist.NoncentralFParams(1, math.inf, 0)
    with pytest.raises(DomainError, match="df1 .*got inf"):
        dist.NoncentralFParams(math.inf, 5, 2)


def test_ncf_reduces_to_central():
    for x in (0.3, 1.0, 2.5, 4.41, 9.0):
        a = dist.f_cdf_noncentral(x, dist.NoncentralFParams(1, 18, 0.0))
        # F(1, d) is the square of a t(d) variable
        b = 1.0 - 2.0 * dist.t_cdf(-math.sqrt(x), 18)
        assert abs(a - b) < 1e-14


def test_ncf_spot_value():
    got = dist.f_cdf_noncentral(
        REF_F_Q_005_1_18, dist.NoncentralFParams(1, 18, 7.9076)
    )
    assert abs(got - REF_NCF_SPOT) < TOL_SERIES


def test_ncf_at_zero_and_below():
    p = dist.NoncentralFParams(1, 18, 5.0)
    assert dist.f_cdf_noncentral(0.0, p) == 0.0
    assert dist.f_cdf_noncentral(-1.0, p) == 0.0


@pytest.mark.parametrize("ncp", [0.0, 5.0, 1e13])
def test_ncf_at_infinite_and_nan_x(ncp):
    p = dist.NoncentralFParams(1, 3, ncp)
    assert dist.f_cdf_noncentral(math.inf, p) == 1.0
    # d1 x past double range reads as x = inf, not as y = inf / inf
    assert dist.f_cdf_noncentral(1e308, dist.NoncentralFParams(10, 3, ncp)) == 1.0
    with pytest.raises(DomainError, match="number x, got nan"):
        dist.f_cdf_noncentral(math.nan, p)


def test_ncf_monotone_in_x_and_ncp():
    prev = -1.0
    for i in range(1, 60):
        cur = dist.f_cdf_noncentral(0.2 * i, dist.NoncentralFParams(1, 78, 13.5))
        assert cur >= prev
        prev = cur
    prev = 2.0
    for i in range(0, 60):
        cur = dist.f_cdf_noncentral(3.0, dist.NoncentralFParams(1, 78, 0.7 * i))
        assert cur <= prev + 1e-12
        prev = cur


def test_truncated_tail_second_moment():
    assert abs(dist.truncated_tail_second_moment(-40.0) - 1.0) < 1e-15
    assert abs(dist.truncated_tail_second_moment(0.0) - 0.5) < 1e-15
    assert abs(dist.truncated_tail_second_moment(1.6449) - REF_TRUNC2ND_16449) < 1e-12
    assert dist.truncated_tail_second_moment(40.0) < 1e-300


def test_truncated_tail_second_moment_far_tail():
    for c in (8.0, 10.0, 20.0, 37.0):
        want = c * scipy.stats.norm.pdf(c) + scipy.stats.norm.sf(c)
        got = dist.truncated_tail_second_moment(c)
        assert abs(got - want) <= TOL_TAIL_MOMENT_REL * want, (c, got, want)


def test_truncated_tail_matches_simpson_quadrature():
    # fine Simpson rule over [c, 40] as an in-test oracle
    def quad(c):
        n = 40000
        h = (40.0 - c) / n
        s = 0.0
        for i in range(n + 1):
            x = c + i * h
            w = 1 if i in (0, n) else (4 if i % 2 == 1 else 2)
            s += w * x * x * dist.norm_pdf(x)
        return s * h / 3.0

    for c in (-5.0, -1.3, 0.0, 0.8, 2.2, 5.0):
        assert abs(dist.truncated_tail_second_moment(c) - quad(c)) < 1e-10


def test_ncf_huge_ncp_is_zero_or_refused():
    # at a planner's critical value the cdf vanishes long before ncp
    # leaves double range; the sweep below the mode stops at once
    for ncp in (1.4e8, 1e22, 1e300, math.inf):
        assert dist.f_cdf_noncentral(4.1, dist.NoncentralFParams(1, 38, ncp)) == 0.0
    assert scipy.stats.ncf.cdf(4.1, 1, 38, 1.4e8) == 0.0
    # beyond the series' range a cdf that is not negligible is refused,
    # not guessed
    with pytest.raises(DomainError, match="beyond the series' range"):
        dist.f_cdf_noncentral(4e19, dist.NoncentralFParams(1, 1, 1e17))


def test_ncf_upward_sweep_reaches_the_poisson_tail():
    # the power of 3 selected rows at n_full 15, gamma 0.2, effect_f
    # 20000 and alpha 1e-5: ncp 3.9e9 at df2 1, where the upward sweep
    # needs about 3e5 terms and once stopped at 1e5, 3.9e-3 short of SciPy
    ncp = 15 * 20000.0**2 * 0.2 * design.variance_inflation(0.2)
    power = design._slope_test_power(1e-5, 1, ncp)
    crit = dist.t_quantile(1e-5 / 2.0, 1) ** 2
    want = scipy.stats.ncf.sf(crit, 1, 1, ncp)
    assert abs(power - want) < 1e-5, (power, want)
    # at ncp 1e5 and 1e6, 1 - cum_w stays near 1e-10, above the 1e-12
    # tail, so the sweep must end on its bound and not reach the cap
    for ncp in (1e5, 1e6):
        got = dist.f_cdf_noncentral(4e9, dist.NoncentralFParams(1, 1, ncp))
        assert abs(got - scipy.stats.ncf.cdf(4e9, 1, 1, ncp)) < 1e-8


def test_ncf_upward_sweep_cap_raises(monkeypatch):
    # ncp 30 puts the mode at j0 = 15, so the downward sweep takes at
    # most 15 terms, under the cap of 20; the upward sweep needs more
    params = dist.NoncentralFParams(1, 1, 30.0)
    assert 0.5 < dist.f_cdf_noncentral(1e3, params) < 1.0
    monkeypatch.setattr(dist, "_POISSON_MAX_TERMS", 20)
    with pytest.raises(DomainError, match="needs more than 20 terms"):
        dist.f_cdf_noncentral(1e3, params)
    monkeypatch.setattr(dist, "_POISSON_MAX_TERMS", 60)
    assert dist.f_cdf_noncentral(1e3, params) > 0.5
