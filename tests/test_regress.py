"""Checks for the simple regression layer."""

import math
import random

import numpy as np
import pytest

from eods import dist
from eods.errors import DegenerateInput, DomainError
from eods.regress import (
    PairedSample,
    excess_kurtosis,
    fit_rows,
    fit_simple,
    qq_points,
    skewness,
    slope_p_value,
)

TOL_EXACT = 1e-12
TOL_RSQ = 1e-10

# Hand normal equations for predictor [0,1,2,3], response [1,1,3,3]:
# Sxx = 5, Sxy = 4, slope = 0.8; intercept = 2 - 0.8 * 1.5 = 0.8.
REF_HAND_SLOPE = 0.8
REF_HAND_INTERCEPT = 0.8


def test_exact_line():
    fit = fit_simple(PairedSample([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
    assert abs(fit.slope - 2.0) < TOL_EXACT
    assert abs(fit.intercept) < TOL_EXACT
    assert fit.residual_variance == 0.0
    assert fit.r_squared == 1.0
    assert fit.p_value == 0.0


def test_hand_normal_equations():
    fit = fit_simple(PairedSample([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 3.0, 3.0]))
    assert abs(fit.slope - REF_HAND_SLOPE) < TOL_EXACT
    assert abs(fit.intercept - REF_HAND_INTERCEPT) < TOL_EXACT
    assert fit.df == 2


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = fit_simple(PairedSample(x, y))
    shifted = fit_simple(PairedSample(x, y + 7.25))
    assert abs(shifted.slope - base.slope) < TOL_EXACT
    assert abs(shifted.intercept - (base.intercept + 7.25)) < 1e-9


def test_matches_brute_force_grid_minimizer():
    # the analytic fit should sit within one grid step of a brute-force
    # two-parameter search of the squared error surface
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=5)
        y = 0.7 * x + rng.normal(size=5)
        fit = fit_simple(PairedSample(x, y))
        step = 0.01
        best = (math.inf, None, None)
        for i in range(-80, 81):
            a = fit.intercept + step * i
            for j in range(-80, 81):
                b = fit.slope + step * j
                sse = float(np.sum((y - a - b * x) ** 2))
                if sse < best[0]:
                    best = (sse, a, b)
        assert abs(best[1] - fit.intercept) <= step + 1e-12
        assert abs(best[2] - fit.slope) <= step + 1e-12


def test_r_squared_is_squared_correlation():
    rng = np.random.default_rng(19)
    for _ in range(20):
        x = rng.normal(size=30)
        y = 0.5 * x + rng.normal(size=30)
        fit = fit_simple(PairedSample(x, y))
        r = float(np.corrcoef(x, y)[0, 1])
        assert abs(fit.r_squared - r * r) < TOL_RSQ


def test_p_value_invariant_under_predictor_rescaling():
    rng = np.random.default_rng(23)
    x = rng.normal(size=25)
    y = 0.3 * x + rng.normal(size=25)
    base = fit_simple(PairedSample(x, y))
    for a, b in ((2.0, 0.0), (-1.5, 3.0), (0.01, -40.0)):
        other = fit_simple(PairedSample(a * x + b, y))
        assert abs(other.p_value - base.p_value) < 1e-12
        assert abs(abs(other.t_stat) - abs(base.t_stat)) < 1e-9


def test_residuals_sum_to_zero():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.normal(size=40)
        y = rng.normal(size=40) * 3.0 + 100.0
        fit = fit_simple(PairedSample(x, y))
        scale = float(np.max(np.abs(y)))
        assert abs(float(np.sum(fit.residuals))) < 1e-9 * scale


def test_t_stat_definition_and_se():
    rng = np.random.default_rng(37)
    x = rng.normal(size=50)
    y = 0.4 * x + rng.normal(size=50)
    fit = fit_simple(PairedSample(x, y))
    dx = x - x.mean()
    sxx = float(np.sum(dx * dx))
    assert abs(fit.se_slope - math.sqrt(fit.residual_variance / sxx)) < 1e-14
    assert abs(fit.t_stat - fit.slope / fit.se_slope) < 1e-12
    assert 0.0 <= fit.p_value <= 1.0


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_simple(PairedSample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateInput):
        PairedSample([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateInput):
        PairedSample([1.0, 2.0, 3.0], [1.0, 2.0])


def test_fit_rows_shared_predictor_equals_broadcast():
    # a 1-D predictor serves every row of an (R, n) response; the rows
    # used to stop after the first, leaving p-values uninitialised
    rng = np.random.default_rng(8)
    x = rng.normal(size=12)
    y = 0.3 * x + rng.normal(size=(3, 12))
    y[1] -= 0.3 * x
    shared = fit_rows(x, y)
    full = fit_rows(np.broadcast_to(x, y.shape), y)
    for name in (
        "intercept", "slope", "se_slope", "residual_variance", "t_stat",
        "verdict", "residuals",
    ):
        got, want = getattr(shared, name), getattr(full, name)
        assert np.shape(got) == np.shape(want) == y.shape[: np.ndim(got)]
        assert np.array_equal(got, want), name
    for i in range(3):
        one = fit_simple(PairedSample(x, y[i]))
        assert slope_p_value(shared.t_stat[i], shared.df) == one.p_value
        assert shared.slope[i] == one.slope


def _scalar_p(t, df):
    return 2.0 * dist.t_cdf(-abs(t), df)


def test_slope_p_value_is_two_sided_and_nan_aware():
    # every df from 1 to 2000 and two huge ones, against t at zero, tiny,
    # moderate, large, overflowing on squaring and infinite
    special = [0.0, 1e-300, 0.3, 2.0, 40.0, 1e200, math.inf]
    for df in list(range(1, 2001)) + [10**4, 10**6]:
        for t in special:
            p = slope_p_value(t, df)
            assert p == slope_p_value(-t, df) == _scalar_p(t, df)
            # a float df, as an array of them yields, keeps the bits
            assert slope_p_value(np.float64(t), float(df)) == p
    assert slope_p_value(0.0, 5) == 1.0
    assert slope_p_value(1e200, 5) == slope_p_value(math.inf, 5) == 0.0
    assert math.isnan(slope_p_value(math.nan, 7))
    assert math.isnan(slope_p_value(np.float64("nan"), 7))
    with pytest.raises(DomainError, match="degrees of freedom"):
        slope_p_value(1.0, 0)


def test_fit_rows_t_stat_cases():
    # slope / se; zero slope; exact fits up and down; degenerate
    x = np.array([[0.0, 1.0, 2.0, 3.0]] * 4 + [[1.0] * 4])
    y = np.array(
        [
            [1.0, 3.0, 2.0, 5.0],
            [5.0, 5.0, 5.0, 5.0],
            [0.0, 2.0, 4.0, 6.0],
            [6.0, 4.0, 2.0, 0.0],
            [1.0, 2.0, 3.0, 4.0],
        ]
    )
    fit = fit_rows(x, y)
    assert fit.t_stat[0] == fit.slope[0] / fit.se_slope[0]
    assert fit.t_stat[1:4].tolist() == [0.0, math.inf, -math.inf]
    assert math.isnan(fit.t_stat[4])
    p = [slope_p_value(t, fit.df) for t in fit.t_stat.tolist()]
    assert p[:4] == [_scalar_p(fit.t_stat[0], 2), 1.0, 0.0, 0.0]
    assert math.isnan(p[4])
    for i in range(4):
        assert fit_simple(PairedSample(x[i], y[i])).p_value == p[i]


def test_constant_response():
    fit = fit_simple(PairedSample([0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0]))
    assert fit.slope == 0.0
    assert fit.intercept == 5.0
    assert fit.r_squared == 0.0
    assert fit.p_value == 1.0


def test_qq_points_small():
    pts = qq_points([5.0, 1.0, 3.0])
    assert [v for _, v in pts] == [1.0, 3.0, 5.0]
    assert pts[1][0] == 0.0  # middle plotting position is the median
    assert pts[0][0] < 0.0 < pts[2][0]
    assert abs(pts[0][0] + pts[2][0]) < 1e-9  # symmetric positions


def test_qq_points_ordered_and_guarded():
    rng = np.random.default_rng(41)
    pts = qq_points(rng.normal(size=100))
    vals = [v for _, v in pts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DegenerateInput):
        qq_points([1.0, 2.0])


@pytest.mark.parametrize("n", [3, 4, 5, 2000, 20000, 200001])
def test_qq_points_equal_the_scalar_quantile(n):
    # the array evaluation of AS 241 matches dist.norm_quantile bit for bit
    values = np.random.default_rng(n).normal(size=n)
    pts = qq_points(values)
    assert pts.shape == (n, 2) and pts.dtype == np.float64
    want = [dist.norm_quantile((i - 0.5) / n) for i in range(1, n + 1)]
    assert pts[:, 0].tolist() == want
    assert pts[:, 1].tolist() == sorted(values.tolist())


def test_qq_slope_near_one_for_normal_draws():
    rng = np.random.default_rng(43)
    pts = qq_points(rng.normal(size=10_000))
    arr = np.asarray(pts)
    fit = fit_simple(PairedSample(arr[:, 0], arr[:, 1]))
    assert 0.97 <= fit.slope <= 1.03


def test_moment_helpers():
    rng = np.random.default_rng(47)
    z = rng.normal(size=200_000)
    assert abs(skewness(z)) < 0.03
    assert abs(excess_kurtosis(z)) < 0.06
    assert skewness([2.0, 2.0, 2.0]) == 0.0
    assert excess_kurtosis([2.0, 2.0, 2.0]) == 0.0
    # lognormal draws are right-skewed
    assert skewness(np.exp(rng.normal(size=100_000))) > 1.0


def test_fit_rows_flags_overflow_without_warning():
    # the suite turns RuntimeWarning into an error, so none may leak
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 9))
    y = rng.normal(size=(4, 9))
    y[1] *= 1e300  # syy and rss overflow
    x[2] *= 1e300  # sxx overflows
    x[3] = 1.0 + 1e-12 * x[3]  # a tiny sxx
    y[3] *= 1e150  # se_slope overflows, the sums do not
    fit = fit_rows(x, y)
    assert fit.verdict.tolist() == [0, 2, 2, 2]
    assert all(np.isfinite(v[3]) for v in fit.sums)
    assert np.isnan(fit.t_stat[1:]).all()
    assert all(math.isnan(slope_p_value(t, fit.df)) for t in fit.t_stat[1:])
    one = fit_rows(x[0], y[0])
    for name in ("slope", "intercept", "se_slope", "t_stat"):
        assert getattr(fit, name)[0] == getattr(one, name), name
    for i in (1, 2, 3):
        with pytest.raises(DomainError, match="beyond double range"):
            fit_simple(PairedSample(x[i], y[i]))
