"""Checks for the probability kernels.

Reference values were computed once with an independent implementation
(scipy.stats / scipy.special / adaptive quadrature) and frozen here;
the tail sweeps call SciPy directly.
"""

import math
import random

import pytest
import scipy.special
import scipy.stats

from eods import dist
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


def test_norm_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            dist.norm_quantile(bad)


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
    assert dist.t_cdf(0.0, 7) == 0.5
    assert abs(dist.t_cdf(2.101, 18) - REF_T_CDF_2101_18) < TOL_CDF
    # normal limit
    assert abs(dist.t_cdf(1.0, 1e6) - dist.norm_cdf(1.0)) < 1e-3


def test_t_cdf_domain():
    with pytest.raises(DomainError):
        dist.t_cdf(1.0, 0)
    with pytest.raises(DomainError):
        dist.t_cdf(1.0, -3)


def test_t_quantile_values():
    assert dist.t_quantile(0.5, 7) == 0.0
    assert abs(dist.t_quantile(0.975, 18) - REF_T_Q_0975_18) < TOL_QUANTILE
    assert abs(dist.t_quantile(0.975, 1e6) - REF_NORM_Q_0975) < 1e-3
    assert abs(dist.t_quantile(0.025, 18) + REF_T_Q_0975_18) < TOL_QUANTILE


def test_t_quantile_matches_scipy_in_the_tails():
    for p in (1e-100, 1e-15, 1e-12, 2.5e-8, 1e-4, 0.025, 0.3):
        for df in (1, 2, 3, 5, 18, 200, 2000):
            want = float(scipy.stats.t.ppf(p, df))
            got = dist.t_quantile(p, df)
            assert abs(got - want) <= TOL_T_Q_REL * abs(want), (p, df, got, want)


def test_t_quantile_domain():
    with pytest.raises(DomainError):
        dist.t_quantile(0.0, 18)
    with pytest.raises(DomainError):
        dist.t_quantile(0.025, 0)
    # the quantile, about -3.2e299, is past where x * x overflows
    with pytest.raises(DomainError):
        dist.t_quantile(1e-300, 1)


def test_t_quantile_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.uniform(0.01, 0.99)
        df = rng.choice([1, 2, 5, 18, 78, 400])
        x = dist.t_quantile(p, df)
        assert abs(dist.t_cdf(x, df) - p) < 1e-10


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
    assert dist.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert dist.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) is the identity
    for x in (0.1, 0.37, 0.9):
        assert abs(dist.regularized_incomplete_beta(1.0, 1.0, x) - x) < 1e-14
    # complement symmetry
    rng = random.Random(5)
    for _ in range(40):
        a = rng.uniform(0.2, 50)
        b = rng.uniform(0.2, 50)
        x = rng.random()
        lhs = dist.regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - dist.regularized_incomplete_beta(b, a, 1.0 - x)
        assert abs(lhs - rhs) < 1e-12


def test_ncf_params_validation():
    with pytest.raises(DomainError):
        dist.NoncentralFParams(0, 18, 1.0)
    with pytest.raises(DomainError):
        dist.NoncentralFParams(1, -1, 1.0)
    with pytest.raises(DomainError):
        dist.NoncentralFParams(1, 18, -0.5)


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
