"""Checks for the reverse-to-forward conversion and its inference."""

import dataclasses
import math
import random

import numpy as np
import pytest

from eods import dist, odeb, regress, screen
from eods.errors import DegenerateInput, DomainError, InsufficientData
from eods.regress import PairedSample, fit_simple

TOL_EXACT = 1e-12
TOL_ROUNDTRIP = 1e-12  # relative
N_ROUNDTRIP_DRAWS = 1000

# Bivariate-normal oracle with rho=0.6, sd_x=2, sd_y=5, mu_x=1, mu_y=3:
# reverse params (0.24, 0.28, 2.56) must convert to forward (1.5, 1.5, 16).
REF_REVERSE = (0.24, 0.28, 2.56, 3.0, 25.0)
REF_FORWARD = (1.5, 1.5, 16.0)

# Three-point association example: pairs (Y, X) = (0,1), (1,1), (2,2)
# give t = sqrt(3) and p = 1/3 with one residual degree of freedom.
REF_T3 = math.sqrt(3.0)
REF_P3 = 1.0 / 3.0

# the estimator's refusal of a subset below four pairs, on every path
TOO_FEW_SELECTED = "need at least 4 selected pairs for variance inference"


def test_conversion_null_slope():
    beta_y, alpha_y, s2y = odeb.convert_reverse_to_forward(0.0, 0.7, 4.0, 2.5, 9.0)
    assert beta_y == 0.0
    assert alpha_y == 2.5
    assert s2y == 9.0


def test_conversion_oracle_point():
    got = odeb.convert_reverse_to_forward(*REF_REVERSE)
    for g, w in zip(got, REF_FORWARD):
        assert abs(g - w) < TOL_EXACT


def test_conversion_errors():
    with pytest.raises(DegenerateInput):
        odeb.convert_reverse_to_forward(0.0, 0.5, 0.0, 1.0, 4.0)
    with pytest.raises(DomainError):
        odeb.convert_reverse_to_forward(0.2, 0.5, 1.0, 1.0, 0.0)
    # the squared slope leaves double range, which once gave beta_y 0.0
    # named as estimate() names the same conversion
    with pytest.raises(
        DomainError,
        match="^forward estimate, SE or interval beyond double range$",
    ):
        odeb.convert_reverse_to_forward(np.float64(1e155), 0.5, 1.0, 1.0, 4.0)


def test_conversion_round_trip():
    # population identities: forward params of a bivariate normal are
    # recovered exactly from its reverse params and response moments
    rng = random.Random(2026)
    for _ in range(N_ROUNDTRIP_DRAWS):
        rho = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.95)
        sd_x = rng.uniform(0.2, 5.0)
        sd_y = rng.uniform(0.2, 5.0)
        mu_x = rng.uniform(-10.0, 10.0)
        mu_y = rng.uniform(-10.0, 10.0)
        beta_y = rho * sd_y / sd_x
        alpha_y = mu_y - beta_y * mu_x
        s2_eps_y = sd_y * sd_y * (1.0 - rho * rho)
        beta_x = rho * sd_x / sd_y
        alpha_x = mu_x - beta_x * mu_y
        s2_eps_x = sd_x * sd_x * (1.0 - rho * rho)
        got = odeb.convert_reverse_to_forward(
            beta_x, alpha_x, s2_eps_x, mu_y, sd_y * sd_y
        )
        for g, w in zip(got, (beta_y, alpha_y, s2_eps_y)):
            assert abs(g - w) <= TOL_ROUNDTRIP * max(1.0, abs(w))


def test_se_collapses_when_slope_zero():
    # at beta_x = 0 the formula reduces to se(beta_x) * var_y / s2_eps_x
    got = odeb.se_beta_y(0.0, 0.1, 2.0, 4.0, 30, 100)
    assert abs(got - 0.2) < TOL_EXACT


def test_se_decreasing_in_n_full():
    prev = math.inf
    for n_full in (50, 100, 200, 400, 800, 1600):
        cur = odeb.se_beta_y(0.3, 0.05, 2.0, 4.0, 40, n_full)
        assert cur < prev
        prev = cur


def test_se_guards():
    with pytest.raises(DomainError):
        odeb.se_beta_y(0.1, 0.05, 2.0, 0.0, 30, 100)
    # estimate_rows refuses fewer than four selected pairs, and so does
    # the scalar helper, by the estimator's text
    for n_selected in (2, 3):
        with pytest.raises(InsufficientData, match=TOO_FEW_SELECTED):
            odeb.se_beta_y(0.3, 0.05, 2.0, 4.0, n_selected, 100)
    assert odeb.se_beta_y(0.3, 0.05, 2.0, 4.0, 4, 100) > 0.0
    with pytest.raises(DegenerateInput):
        odeb.se_beta_y(0.0, 0.05, 0.0, 4.0, 30, 100)


def _synthetic_subset(rng, n_full=200, gamma=0.2, beta=0.5):
    x = rng.normal(0.0, 1.0, n_full)
    y = 5.0 + beta * x + rng.normal(0.0, math.sqrt(5.0), n_full)
    n_s = round(gamma * n_full)
    order = np.argsort(y)
    idx = np.concatenate([order[: n_s // 2], order[n_full - (n_s - n_s // 2):]])
    subset = odeb.SelectedSubset.from_arrays(x[idx], y[idx], gamma)
    full = odeb.FullResponseSummary.from_responses(y)
    return subset, full


def test_estimate_basic_contract():
    rng = np.random.default_rng(99)
    subset, full = _synthetic_subset(rng)
    est = odeb.estimate(subset, full, 0.95)
    assert est.ci_low <= est.beta_y <= est.ci_high
    assert est.p_value == est.reverse_fit.p_value
    assert est.sigma2_eps_y >= 0.0
    assert est.se_beta_y > 0.0
    # sign follows the reverse slope
    assert math.copysign(1.0, est.beta_y) == math.copysign(
        1.0, est.reverse_fit.slope
    )


def test_estimate_requires_four_points():
    pairs = PairedSample([0.0, 1.0, 2.0], [0.1, 0.5, 0.2])
    subset = odeb.SelectedSubset(pairs=pairs, gamma=0.1)
    full = odeb.FullResponseSummary(n_full=30, mean_y=1.0, var_y=2.0)
    assert subset.n_selected == 3
    with pytest.raises(InsufficientData, match=TOO_FEW_SELECTED):
        odeb.estimate(subset, full)


def test_estimate_rejects_subset_larger_than_full():
    pairs = PairedSample([0.0, 1.0, 2.0, 3.0], [0.1, 0.5, 0.2, 0.4])
    subset = odeb.SelectedSubset(pairs=pairs, gamma=1.0)
    full = odeb.FullResponseSummary(n_full=3, mean_y=1.0, var_y=2.0)
    with pytest.raises(DomainError):
        odeb.estimate(subset, full)


def test_full_summary_refuses_responses_that_are_not_a_vector():
    # a 2-D array once ended in a bare TypeError, a 0-d one in IndexError
    for responses in (np.ones((3, 4)), np.float64(2.0)):
        with pytest.raises(DomainError, match="one-dimensional vector"):
            odeb.FullResponseSummary.from_responses(responses)
        # screen_biomarkers meets the same check on a matching column
        with pytest.raises(DomainError, match="one-dimensional vector"):
            screen.screen_biomarkers(responses, {"b": responses})


def test_estimate_degenerate_equal_responses():
    pairs = PairedSample([2.0, 2.0, 2.0, 2.0], [0.1, 0.5, 0.2, 0.4])
    subset = odeb.SelectedSubset(pairs=pairs, gamma=0.2)
    full = odeb.FullResponseSummary(n_full=20, mean_y=2.0, var_y=1.0)
    with pytest.raises(DegenerateInput):
        odeb.estimate(subset, full)


def test_association_three_points():
    # the association test is the reverse slope's t-test; three pairs
    # are too few to estimate but enough to fit and test
    pairs = PairedSample(predictor=[0.0, 1.0, 2.0], response=[1.0, 1.0, 2.0])
    rev = fit_simple(pairs)
    assert abs(rev.t_stat - REF_T3) < 1e-12
    assert abs(rev.p_value - REF_P3) < 1e-12


def test_association_affine_invariance():
    rng = np.random.default_rng(17)
    subset, full = _synthetic_subset(rng)
    base = odeb.estimate(subset, full)
    t0 = base.reverse_fit.t_stat
    x = subset.pairs.response
    y = subset.pairs.predictor
    for a, b in ((3.0, 0.0), (-2.0, 5.0), (0.04, -1.0)):
        other = odeb.SelectedSubset.from_arrays(a * x + b, y, subset.gamma)
        est = odeb.estimate(other, full)
        assert abs(abs(est.reverse_fit.t_stat) - abs(t0)) < 1e-9
        assert abs(est.p_value - base.p_value) < 1e-12


def test_scale_equivariance_of_estimate():
    rng = np.random.default_rng(21)
    subset, full = _synthetic_subset(rng)
    base = odeb.estimate(subset, full)
    x = subset.pairs.response
    y = subset.pairs.predictor
    for a in (2.0, 0.125, 17.0):
        scaled = odeb.SelectedSubset.from_arrays(a * x, y, subset.gamma)
        est = odeb.estimate(scaled, full)
        assert abs(est.beta_y - base.beta_y / a) < 1e-12 * max(1.0, abs(base.beta_y))
        assert abs(est.p_value - base.p_value) < 1e-12


def test_amgm_bound_and_sign_preservation():
    rng = np.random.default_rng(29)
    for _ in range(100):
        beta = rng.uniform(-2.0, 2.0)
        subset, full = _synthetic_subset(rng, n_full=60, gamma=0.4, beta=beta)
        est = odeb.estimate(subset, full)
        rev = est.reverse_fit
        if rev.residual_variance > 0.0:
            bound = math.sqrt(full.var_y) / (2.0 * math.sqrt(rev.residual_variance))
            assert abs(est.beta_y) <= bound * (1.0 + 1e-12)
        if rev.slope != 0.0:
            assert math.copysign(1.0, est.beta_y) == math.copysign(1.0, rev.slope)


def test_full_sample_conversion_tracks_forward_fit():
    # with gamma = 1 the conversion nearly recovers the forward OLS
    # slope; the residual gap comes from the mismatched variance
    # divisors (n-2 for the reverse residual variance, n-1 for the
    # response variance) and equals a known closed form
    rng = np.random.default_rng(33)
    n = 400
    x = rng.normal(0.0, 1.0, n)
    y = 5.0 + 0.4 * x + rng.normal(0.0, math.sqrt(5.0), n)
    subset = odeb.SelectedSubset.from_arrays(x, y, 1.0)
    full = odeb.FullResponseSummary.from_responses(y)
    est = odeb.estimate(subset, full)
    forward = fit_simple(PairedSample(x, y))

    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    sxy = float(np.sum(dx * dy))
    model_ss = sxy * sxy / syy
    resid_ss = sxx - model_ss
    expected = sxy / ((n - 1) / (n - 2) * resid_ss + model_ss)
    assert abs(est.beta_y - expected) < 1e-12
    # attenuation factor is (1 - r^2) / (n - 2): small but nonzero
    rel_gap = abs(est.beta_y - forward.slope) / abs(forward.slope)
    assert rel_gap < 0.01
    assert est.beta_y / forward.slope < 1.0


def test_null_rejection_rate_smoke():
    # B = 800 quick check that the reverse test holds its level under
    # the null; the full-scale grid lives in the acceptance suite
    B = 800
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(B):
        subset, full = _synthetic_subset(rng, n_full=100, gamma=0.2, beta=0.0)
        est = odeb.estimate(subset, full)
        hits += est.p_value <= 0.05
    rate = hits / B
    assert 0.030 <= rate <= 0.072, rate


def test_check_model_normal_data():
    rng = np.random.default_rng(41)
    subset, full = _synthetic_subset(rng, n_full=10_000, gamma=0.2)
    y_full = rng.normal(0.0, 1.0, 10_000)
    diag = odeb.check_model(odeb.estimate(subset, full).reverse_fit, y_full)
    arr = np.asarray(diag.response_qq)
    fit = fit_simple(PairedSample(arr[:, 0], arr[:, 1]))
    assert 0.97 <= fit.slope <= 1.03
    assert abs(diag.response_skewness) < 0.1
    assert len(diag.residual_qq) == subset.n_selected
    # the array fields compare by identity, not elementwise
    assert diag == diag and diag != dataclasses.replace(diag)


def test_check_model_skewed_residuals():
    # residuals drawn from a shifted lognormal stand out in the
    # assumption-(B) skewness summary at n_s = 160
    rng = np.random.default_rng(43)
    n_s = 160
    y = np.sort(rng.normal(0.0, 3.0, n_s))
    eps = rng.lognormal(0.0, 1.0135, n_s)
    eps -= math.exp(-1.0135**2)
    x = 0.1 * y + eps
    subset = odeb.SelectedSubset.from_arrays(x, y, 0.2)
    diag = odeb.check_model(
        fit_simple(subset.pairs), rng.normal(0.0, 3.0, 800)
    )
    assert diag.residual_skewness > 0.5


def test_slope_ceiling_rejects_a_breach():
    # sd_y / (2 sd_eps_x) = 1 / (2 * 1) = 0.5, so a slope of 2 breaches it
    with pytest.raises(DomainError):
        odeb.check_slope_ceiling(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        odeb.check_slope_ceiling(
            np.array([0.1, -2.0]), 1.0, np.array([1.0, 1.0])
        )
    # on the ceiling, and an exact reverse fit (no ceiling), both pass
    odeb.check_slope_ceiling(
        np.array([0.5, -0.5, 7.0]), 1.0, np.array([1.0, 1.0, 0.0])
    )


def test_drop_verdicts_in_order():
    # one row per verdict, each the first check its row fails, then a
    # kept row. Row 3's exact zero-slope fit also collapses the slope
    # variance, and the conversion's verdict wins. Row 4's residual
    # variance over var_y underflows to 0 beside a zero slope
    responses = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [-2.0, -1.0, 1.0, 2.0],
        [-2e-150, -1e-150, 1e-150, 2e-150],
        [-2.0, -1.0, 1.0, 2.0],
        [-1.0, -1.0, 1.0, 1.0],
        [-2.0, -1.0, 1.0, 2.0],
    ])
    biomarkers = np.array([
        [1.0, 2.0, 3.0, 4.0],
        [1e300, -1e300, 1e300, -1e300],
        [-2.0, -1.0, 1.0, 2.5],
        [3.0, 3.0, 3.0, 3.0],
        [1e-150, -1e-150, 1e-150, -1e-150],
        [-1.9, -1.2, 0.8, 2.1],
    ])
    var_y = np.array([1.0, 1.0, 1e10, 1.0, 1e30, 1.0])
    rows = odeb.estimate_rows(responses, biomarkers, 0.0, var_y, 100)
    want = [
        (DegenerateInput, regress.ZERO_PREDICTOR_VARIANCE),
        (DomainError, regress.FIT_OVERFLOW),
        (DomainError, "forward estimate, SE or interval beyond double range"),
        (DegenerateInput, odeb._CONVERSION_UNDEFINED),
        (DegenerateInput, odeb._SLOPE_VARIANCE_COLLAPSED),
        None,
    ]
    assert rows.verdict.tolist() == [1, 2, 3, 4, 5, 0]
    rev = rows.reverse_fit
    assert rev.verdict.tolist() == [1, 2, 0, 0, 0, 0]
    # row 3's slope variance collapses too, behind its conversion verdict
    _, se_defined = odeb._se_rows(
        rev.slope, rev.se_slope, rev.residual_variance, var_y, 4, 100
    )
    assert not se_defined[3]
    assert odeb.drop_reasons(rows) == want
    for x, y, v, reason in zip(biomarkers, responses, var_y, want):
        subset = odeb.SelectedSubset.from_arrays(x, y, 0.04)
        full = odeb.FullResponseSummary(100, 0.0, float(v))
        if reason is None:
            assert odeb.estimate(subset, full).beta_y == rows.beta_y[5]
            continue
        error, text = reason
        calls = [lambda: odeb.estimate(subset, full)]
        if reason in regress.FIT_VERDICTS:
            # the fit alone raises the same error as the estimate
            calls.append(lambda: regress.fit_simple(subset.pairs))
        for call in calls:
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error
            assert str(info.value) == text


def test_estimate_rows_flag_a_conversion_beyond_double_range():
    # responses near 1e-155 give the second biomarker a reverse slope
    # near 1e155: the fit's sums stay finite, but the slope's square in
    # the conversion does not. That row was kept with beta_y 0.0 and a
    # NaN standard error
    rng = np.random.default_rng(2)
    base = rng.normal(size=40)
    y = 1e-155 * base + 2e-162 * rng.normal(size=40)
    x = np.stack([1e-150 * rng.normal(size=40), base])
    mean_y, var_y = odeb.response_moments(y)
    rows = odeb.estimate_rows(y, x, float(mean_y), float(var_y), 40)
    assert rows.reverse_fit.verdict.tolist() == [0, 0]
    assert rows.verdict.tolist() == [0, 3]
    assert odeb.drop_reasons(rows) == [
        None,
        (DomainError, "forward estimate, SE or interval beyond double range"),
    ]
    with pytest.raises(DomainError, match="beyond double range"):
        odeb.estimate(
            odeb.SelectedSubset.from_arrays(base, y, 1.0),
            odeb.FullResponseSummary(40, float(mean_y), float(var_y)),
        )
