"""Tests for the Monte Carlo engine."""

import dataclasses
import math
import random

import numpy as np
import pytest
import scipy.stats

from eods import dist, odeb, regress, screen, sim
from eods.errors import DegenerateInput, DomainError, InsufficientData

# closed form for the lognormal scale when variance = 5:
# (e^s - 1) e^s = 5 gives e^s = (1 + sqrt(21)) / 2
REF_LOGNORMAL_SIGMA2 = 1.0265030834096078
REF_LOGNORMAL_SHIFT = 0.358257569495584

TOL_SOLVER = 1e-8


def _scenario(**overrides):
    base = dict(
        n_full=200,
        beta_y=0.4,
        gamma=0.2,
        sampling="extreme",
        estimator="odeb",
        replicates=50,
        seed=902,
    )
    base.update(overrides)
    return sim.SimScenario(**base)


def test_scenario_defaults_and_accessors():
    s = _scenario()
    assert s.alpha_y == 5.0
    assert s.noise_variance == 5.0
    assert s.x_mean == 0.0
    assert s.x_var == 1.0
    assert s.residual_family == "normal"
    assert s.alpha_level == 0.05
    assert s.n_selected == 40


def test_scenario_scaled_t_token_normalized():
    s = _scenario(residual_family="scaled_t(10)")
    assert s.residual_family == "scaled_t"
    assert s.t_df == 10
    s = _scenario(residual_family="scaled_t", t_df=20)
    assert s.t_df == 20


def test_scenario_scaled_t_token_conflict():
    with pytest.raises(DomainError):
        _scenario(residual_family="scaled_t(10)", t_df=20)
    # agreeing values are fine
    s = _scenario(residual_family="scaled_t(10)", t_df=10)
    assert s.t_df == 10


def test_scenario_validation():
    with pytest.raises(DomainError):
        _scenario(residual_family="scaled_t")  # df required
    with pytest.raises(DomainError):
        _scenario(residual_family="scaled_t", t_df=2)
    with pytest.raises(DomainError):
        _scenario(residual_family="normal", t_df=10)
    with pytest.raises(DomainError):
        _scenario(residual_family="cauchy")
    with pytest.raises(DomainError):
        _scenario(gamma=0.0)
    with pytest.raises(DomainError):
        _scenario(gamma=1.5)
    with pytest.raises(DomainError):
        _scenario(sampling="stratified")
    with pytest.raises(DomainError):
        _scenario(estimator="mle")
    with pytest.raises(DomainError):
        _scenario(replicates=0)
    with pytest.raises(DomainError):
        _scenario(n_full=4)
    with pytest.raises(DomainError):
        _scenario(noise_variance=0.0)
    with pytest.raises(DomainError):
        _scenario(x_var=-1.0)
    with pytest.raises(DomainError):
        _scenario(alpha_level=1.0)
    with pytest.raises(DomainError):
        _scenario(seed=-1)
    with pytest.raises(DomainError):
        _scenario(seed=2**64)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(alpha_y=math.nan), "alpha_y must be finite"),
        (dict(beta_y=math.nan), "beta_y must be finite"),
        (dict(x_mean=-math.inf), "x_mean must be finite"),
        (dict(x_var=math.inf), "x_var must be finite"),
        (dict(noise_variance=math.inf), "noise_variance must be finite"),
        (dict(n_full=50.7), "n_full must be an integer"),
        (dict(replicates=2.5), "replicates must be an integer"),
        (dict(seed=1.9), "seed must be an integer"),
        (dict(seed=math.nan), "seed must be an integer"),
        (dict(residual_family="scaled_t", t_df=10.5), "t_df must be an"),
        (dict(residual_family="scaled_t(10)", t_df=10.5), "t_df must be an"),
    ],
)
def test_scenario_rejects_non_finite_and_fractional_fields(overrides, message):
    with pytest.raises(DomainError, match=message):
        _scenario(**overrides)


def test_scenario_takes_whole_floats_as_integers():
    s = _scenario(n_full=50.0, replicates=2.0, seed=1.0)
    assert (s.n_full, s.replicates, s.seed) == (50, 2, 1)
    assert all(type(v) is int for v in (s.n_full, s.replicates, s.seed))
    s = _scenario(residual_family="scaled_t", t_df=10.0)
    assert s.t_df == 10 and type(s.t_df) is int


def test_n_selected_rounds_half_away_from_zero():
    assert _scenario(n_full=190, gamma=0.1).n_selected == 19
    assert _scenario(n_full=10, gamma=0.25).n_selected == 3
    assert _scenario(n_full=10, gamma=0.35).n_selected == 4


def test_residual_sampler_normal_variance():
    s = sim.residual_sampler("normal", 5.0)
    rng = np.random.default_rng(41)
    draws = s.draw(rng, 1_000_000)
    assert abs(np.var(draws) / 5.0 - 1.0) < 0.01
    assert abs(np.mean(draws)) < 0.01


def test_residual_sampler_scaled_t_variance():
    # literal sqrt(5) scale: variance is 5 * 10 / 8, not 5
    s = sim.residual_sampler("scaled_t", 5.0, t_df=10)
    rng = np.random.default_rng(42)
    draws = s.draw(rng, 1_000_000)
    assert abs(np.var(draws) / 6.25 - 1.0) < 0.03


def test_residual_sampler_lognormal_solver_constants():
    s = sim.residual_sampler("shifted_lognormal", 5.0)
    assert abs(s.sigma2_star - REF_LOGNORMAL_SIGMA2) < TOL_SOLVER
    assert abs(s.mode_shift - REF_LOGNORMAL_SHIFT) < TOL_SOLVER


@pytest.mark.parametrize("variance", [1e-12, 1e-6, 5.0, 1e6, 1e300])
def test_residual_sampler_lognormal_scale_meets_its_variance(variance):
    # the log-normal's variance (e^s - 1) e^s is the one asked for
    s = sim.residual_sampler("shifted_lognormal", variance).sigma2_star
    assert abs(math.expm1(s) * math.exp(s) / variance - 1.0) < 1e-13


def test_residual_sampler_lognormal_variance_and_mode():
    s = sim.residual_sampler("shifted_lognormal", 5.0)
    rng = np.random.default_rng(43)
    draws = s.draw(rng, 1_000_000)
    assert abs(np.var(draws) / 5.0 - 1.0) < 0.03
    # density peaks at the mode, which the shift puts at zero
    near_mode = np.mean(np.abs(draws) < 0.05)
    away = np.mean(np.abs(draws - 1.0) < 0.05)
    assert near_mode > away
    assert float(np.min(draws)) > -REF_LOGNORMAL_SHIFT - 1e-9
    # the mean stays positive: mode-centering does not mean-center
    assert np.mean(draws) > 1.0


def test_residual_sampler_validation():
    with pytest.raises(DomainError):
        sim.residual_sampler("normal", 0.0)
    with pytest.raises(DomainError):
        sim.residual_sampler("normal", 5.0, t_df=10)
    with pytest.raises(DomainError):
        sim.residual_sampler("scaled_t", 5.0)
    with pytest.raises(DomainError):
        sim.residual_sampler("scaled_t", 5.0, t_df=2)
    with pytest.raises(DomainError):
        sim.residual_sampler("shifted_lognormal", 5.0, t_df=5)
    with pytest.raises(DomainError):
        sim.residual_sampler("triangular", 5.0)


def test_generate_dataset_deterministic():
    s = _scenario()
    x1, y1 = sim.generate_dataset(s, 7)
    x2, y2 = sim.generate_dataset(s, 7)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    x3, y3 = sim.generate_dataset(s, 8)
    assert not np.array_equal(x1, x3)


def test_generate_dataset_shared_across_arms():
    # scenarios differing only in sampling/estimator see identical data
    a = _scenario(sampling="extreme", estimator="odeb")
    b = _scenario(sampling="random", estimator="ols")
    xa, ya = sim.generate_dataset(a, 3)
    xb, yb = sim.generate_dataset(b, 3)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_generate_dataset_null_independence():
    s = _scenario(n_full=100_000, beta_y=0.0, replicates=1, seed=11)
    x, y = sim.generate_dataset(s, 0)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


def test_generate_dataset_model_equation():
    s = _scenario(n_full=100_000, beta_y=0.7, alpha_y=2.0, seed=12)
    x, y = sim.generate_dataset(s, 0)
    resid = y - (2.0 + 0.7 * x)
    assert abs(np.var(resid) / 5.0 - 1.0) < 0.02
    assert abs(np.mean(x) - s.x_mean) < 0.03
    assert abs(np.var(x) / s.x_var - 1.0) < 0.02


def test_run_scenario_metric_invariants():
    m = sim.run_scenario(_scenario(replicates=150))
    assert m.replicates_used == 150
    assert m.rmse >= abs(m.bias)
    assert 0.0 <= m.rejection_rate <= 1.0
    assert 0.0 <= m.ci_coverage <= 1.0
    assert m.mean_ci_length > 0.0
    assert m.mae >= 0.0
    assert abs(m.bias - (m.mean_estimate - 0.4)) < 1e-12


def test_run_scenario_deterministic():
    a = sim.run_scenario(_scenario(replicates=60))
    b = sim.run_scenario(_scenario(replicates=60))
    assert a == b


def test_run_scenario_recovers_effect():
    m = sim.run_scenario(
        _scenario(n_full=400, beta_y=0.4, replicates=300, seed=77)
    )
    assert abs(m.mean_estimate - 0.4) < 0.08
    assert m.ci_coverage > 0.9


def test_run_scenario_ols_extreme_is_biased_upward():
    m = sim.run_scenario(
        _scenario(
            n_full=400,
            beta_y=0.2,
            estimator="ols",
            replicates=300,
            seed=78,
        )
    )
    assert m.bias > 0.2


def test_run_scenario_null_rejection_near_level():
    m = sim.run_scenario(
        _scenario(beta_y=0.0, replicates=400, seed=79)
    )
    assert 0.02 <= m.rejection_rate <= 0.09


def test_run_scenario_random_sampling_unbiased():
    m = sim.run_scenario(
        _scenario(
            n_full=400,
            sampling="random",
            estimator="ols",
            replicates=300,
            seed=80,
        )
    )
    assert abs(m.bias) < 0.05


def test_run_scenario_all_replicates_dropped():
    # 3 selected rows are too few for the reverse-fit estimator, and the
    # scenario fails naming that
    with pytest.raises(InsufficientData, match="at least 4 selected pairs"):
        sim.run_scenario(_scenario(n_full=15, gamma=0.2, replicates=20))


def test_run_scenario_too_few_selected_rejected():
    with pytest.raises(DomainError):
        sim.run_scenario(_scenario(n_full=20, gamma=0.1))


def test_run_grid_single_matches_run_scenario():
    s = _scenario(replicates=40)
    rows = sim.run_grid([s])
    assert len(rows) == 1
    assert rows[0].error is None
    assert rows[0].metrics == sim.run_scenario(s)


def test_run_grid_preserves_order_and_flags_errors():
    good = _scenario(replicates=10)
    bad = _scenario(n_full=20, gamma=0.1, replicates=10)
    rows = sim.run_grid([good, bad, good])
    assert [r.error is None for r in rows] == [True, False, True]
    assert "selects only" in rows[1].error
    assert rows[1].metrics is None


def test_run_grid_worker_count_invariance():
    grid = [
        _scenario(replicates=40, seed=5, sampling=samp, estimator=est)
        for samp in ("extreme", "random")
        for est in ("ols", "odeb")
    ]
    serial = sim.run_grid(grid, workers=1)
    parallel = sim.run_grid(grid, workers=3)
    assert [r.metrics for r in serial] == [r.metrics for r in parallel]


def test_run_grid_empty_rejected():
    with pytest.raises(DomainError):
        sim.run_grid([])


@pytest.mark.parametrize("size", [1, 2, 7, 400, 401])
def test_median_is_numpys_bit_for_bit(size):
    values = np.abs(np.random.default_rng(size).standard_cauchy(size))
    want = np.median(values)
    assert sim._median(values) == want
    assert np.float64(sim._median(values)).tobytes() == want.tobytes()


def _reference_metrics(scenario):
    # the per-replicate loop through the one-replicate public functions
    estimates, covered, rejected, lengths = [], [], [], []
    for rep in range(scenario.replicates):
        x, y = sim.generate_dataset(scenario, rep)
        if scenario.sampling == "extreme":
            plan = screen.select_extremes(y, scenario.gamma)
            idx = np.asarray(plan.low_indices + plan.high_indices)
        else:
            rng = np.random.Generator(np.random.Philox([scenario.seed, rep, 1]))
            idx = np.sort(
                rng.choice(scenario.n_full, scenario.n_selected, replace=False)
            )
        try:
            if scenario.estimator == "ols":
                fit = regress.fit_simple(regress.PairedSample(x[idx], y[idx]))
                est, se, p = fit.slope, fit.se_slope, fit.p_value
            else:
                subset = odeb.SelectedSubset.from_arrays(
                    x[idx], y[idx], len(idx) / scenario.n_full
                )
                full = odeb.FullResponseSummary.from_responses(y)
                e = odeb.estimate(subset, full)
                est, se, p = e.beta_y, e.se_beta_y, e.p_value
        except (DegenerateInput, InsufficientData):
            continue
        half = -dist.t_quantile(
            scenario.alpha_level / 2.0, scenario.n_selected - 2
        ) * se
        lo, hi = est - half, est + half
        estimates.append(est)
        covered.append(lo <= scenario.beta_y <= hi)
        rejected.append(p <= scenario.alpha_level)
        lengths.append(hi - lo)
    err = np.asarray(estimates) - scenario.beta_y
    mean = float(np.mean(estimates))
    return sim.SimMetrics(
        mean_estimate=mean,
        bias=mean - scenario.beta_y,
        rmse=float(np.sqrt(np.mean(err * err))),
        mae=float(np.median(np.abs(err))),
        rejection_rate=float(np.mean(rejected)),
        ci_coverage=float(np.mean(covered)),
        mean_ci_length=float(np.mean(lengths)),
        replicates_used=len(estimates),
    )


@pytest.mark.parametrize(
    "overrides",
    [
        dict(),
        dict(estimator="ols", residual_family="scaled_t(5)"),
        dict(sampling="random", residual_family="shifted_lognormal"),
        dict(sampling="random", estimator="ols", n_full=3000, gamma=0.01),
        # responses rounded to integer levels, as an ordinal score is:
        # the replicates of one block tie at their cuts
        dict(ordinal=True),
        # two-sided t points far out in the tail
        dict(estimator="ols", alpha_level=1e-15),
        dict(estimator="ols", alpha_level=1e-17),
        dict(alpha_level=1e-15),
        dict(alpha_level=1e-17),
        # responses equal to +-x in every other replicate: exact fits,
        # whose slope t is +-inf, in both arms
        dict(exact=True),
        dict(exact=True, estimator="ols"),
    ],
)
def test_run_scenario_matches_per_replicate_loop(monkeypatch, overrides):
    overrides = dict(overrides)
    ordinal = overrides.pop("ordinal", False)
    exact = overrides.pop("exact", False)
    if exact:
        responses = sim._responses

        def exact_responses(scenario, x, eps, first):
            # the replicate index decides, so a block and a single
            # replicate agree
            y = responses(scenario, x, eps, first)
            kind = (first + np.arange(len(y))) % 4
            y[kind == 0] = x[kind == 0]
            y[kind == 1] = -x[kind == 1]
            return y

        monkeypatch.setattr(sim, "_responses", exact_responses)
        fit_rows = regress.fit_rows
        infinite_t = set()

        def recording_fit_rows(predictor, response):
            fit = fit_rows(predictor, response)
            infinite_t.update(fit.t_stat[np.isinf(fit.t_stat)].tolist())
            return fit

        monkeypatch.setattr(regress, "fit_rows", recording_fit_rows)
    if ordinal:
        responses = sim._responses
        monkeypatch.setattr(
            sim, "_responses", lambda *args: np.round(responses(*args))
        )
        extreme_rows = screen.extreme_rows
        tied_rows = []

        def recording_extreme_rows(y, n_selected):
            out = extreme_rows(y, n_selected)
            tied_rows.append(np.count_nonzero(out[1] | out[2]))
            return out

        monkeypatch.setattr(screen, "extreme_rows", recording_extreme_rows)
    s = _scenario(replicates=12, **overrides)
    assert sim.run_scenario(s) == _reference_metrics(s)
    if ordinal:
        # the tie masks are set only on the stable-argsort path
        assert sum(tied_rows) > 0
    if exact:
        assert infinite_t == {math.inf, -math.inf}


def test_run_scenario_tiny_alpha_interval_matches_scipy():
    s = _scenario(estimator="ols", alpha_level=1e-15, replicates=12)
    t_point = scipy.stats.t.isf(s.alpha_level / 2.0, s.n_selected - 2)
    lengths = []
    for rep in range(s.replicates):
        x, y = sim.generate_dataset(s, rep)
        plan = screen.select_extremes(y, s.gamma)
        idx = np.asarray(plan.low_indices + plan.high_indices)
        fit = regress.fit_simple(regress.PairedSample(x[idx], y[idx]))
        lengths.append(2.0 * t_point * fit.se_slope)
    got = sim.run_scenario(s).mean_ci_length
    assert got == pytest.approx(np.mean(lengths), rel=1e-9)


def _reference_tails(row, n_selected):
    # the tail rule spelled out: the low tail sorted by (value, index),
    # the high tail by (-value, index) over the rows the low tail left
    n_low = n_selected // 2
    low = sorted(range(len(row)), key=lambda i: (row[i], i))[:n_low]
    left = sorted(set(range(len(row))) - set(low), key=lambda i: (-row[i], i))
    high = left[: n_selected - n_low]
    out = set(left) - set(high)
    low_cut = max(row[i] for i in low)
    high_cut = min(row[i] for i in high)
    return (
        sorted(low) + sorted(high),
        any(row[i] == low_cut for i in out),
        any(row[i] == high_cut for i in out),
    )


def _assert_reference_tails(block, n_selected):
    idx, low_tie, high_tie = screen.extreme_rows(block, n_selected)
    for row, got, low, high in zip(block.tolist(), idx, low_tie, high_tie):
        assert (got.tolist(), bool(low), bool(high)) == _reference_tails(
            row, n_selected
        )
    return low_tie, high_tie


def test_block_selection_matches_select_extremes():
    distinct = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0]
    tied_rows = [
        [3.0, 1.0, 9.0, 1.0, 7.0, 0.0, 8.0, 4.0, 6.0, 5.0],  # low cut
        [3.0, 8.0, 9.0, 1.0, 7.0, 0.0, 8.0, 4.0, 6.0, 5.0],  # high cut
        [5.0, 5.0, 9.0, 5.0, 5.0, 0.0, 5.0, 5.0, 5.0, 5.0],  # both cuts
    ]
    signed_zeros = [
        [0.0, 5.0, -0.0, 9.0, -1.0, 7.0, 0.0, 8.0, 4.0, 6.0],  # low cut
        [-0.0, -5.0, 0.0, -9.0, 1.0, -7.0, -0.0, -8.0, -4.0, -6.0],  # high
        [0.0, -0.0] * 5,  # both cuts
    ]
    # 200 rows of two or three levels: nearly every cut ties
    levels = np.array([[2], [3]] * 100)
    coarse = np.random.default_rng(7).integers(0, levels, size=(200, 25))
    cases = [
        (np.array([distinct] + tied_rows + [distinct[::-1]]), 0.4, 4),
        (np.array([distinct, [2.0] * 10]), 1.0, 10),
        (np.array(signed_zeros), 0.4, 4),
        (coarse.astype(float), 0.2, 5),
    ]
    for block, gamma, n_selected in cases:
        ties = _assert_reference_tails(block, n_selected)
        idx = screen.extreme_rows(block, n_selected)[0]
        for row, got, low, high in zip(block, idx, *ties):
            plan = screen.select_extremes(row, gamma)
            assert got.tolist() == plan.low_indices + plan.high_indices
            assert (plan.tie_note is not None) == bool(low or high)
    low_tie, high_tie = screen.extreme_rows(cases[0][0], 4)[1:]
    assert low_tie.tolist() == [False, True, False, True, False]
    assert high_tie.tolist() == [False, False, True, True, False]

    # integer-valued rows, from all tied to mostly distinct
    rng = np.random.default_rng(13)
    for n in range(5, 41):
        levels = np.array([[1], [2], [3], [5], [n], [n * n]])
        block = rng.integers(0, levels, size=(6, n)).astype(float)
        for n_selected in range(3, n + 1):
            _assert_reference_tails(block, n_selected)


def _tie_beside(row, at, beside):
    # the value at sorted position beside set equal to the one at at
    order = np.argsort(row)
    row = row.copy()
    row[order[beside]] = row[order[at]]
    return row


def test_block_selection_matches_reference_on_continuous_rows():
    rng = np.random.default_rng(29)
    for n in (5, 6, 7, 10, 33, 200, 2000):
        for n_selected in sorted({3, 4, n // 5, n // 2 + 1, n - 1, n}):
            if n_selected < 3:
                continue
            n_low = n_selected // 2
            n_high = n_selected - n_low
            block = rng.normal(size=(6, n))
            tied = n > n_selected
            if tied:
                # settled rows and rows tied at one cut, in one call
                block[1] = _tie_beside(block[1], n_low - 1, n_low)
                block[4] = _tie_beside(block[4], n - n_high, n - n_high - 1)
            low_tie, high_tie = _assert_reference_tails(block, n_selected)
            assert np.flatnonzero(low_tie).tolist() == [1] * tied
            assert np.flatnonzero(high_tie).tolist() == [4] * tied


def test_results_do_not_depend_on_block_size(monkeypatch):
    grid = [
        _scenario(replicates=30, sampling=samp, estimator=est)
        for samp in ("extreme", "random")
        for est in ("odeb", "ols")
    ]
    default = [sim.run_scenario(s) for s in grid]
    monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 1)  # one row per block
    assert [sim.run_scenario(s) for s in grid] == default


def test_run_grid_groups_shared_data_in_input_order():
    grid = [
        _scenario(
            n_full=n, beta_y=b, gamma=g, sampling=samp, estimator=est,
            alpha_level=a, replicates=20, seed=31,
        )
        for n in (60, 100)
        for b in (0.0, 0.4)
        for g, a in ((0.2, 0.05), (0.3, 0.1))
        for samp in ("extreme", "random")
        for est in ("odeb", "ols")
    ]
    grid.append(_scenario(n_full=60, gamma=0.02, replicates=20, seed=31))
    random.Random(4).shuffle(grid)
    want = []
    for s in grid:
        try:
            want.append(sim.GridResult(s, sim.run_scenario(s)))
        except DomainError as exc:
            want.append(sim.GridResult(s, None, str(exc)))
    assert sum(r.error is not None for r in want) == 1
    assert sim.run_grid(grid, workers=1) == want
    assert sim.run_grid(grid, workers=3) == want


def test_drops_are_per_scenario_within_a_group():
    # 3 selected rows fail the odeb cell; the ols arm on the same data
    # keeps every replicate
    odeb_arm = _scenario(n_full=15, gamma=0.2, replicates=20)
    ols_arm = _scenario(n_full=15, gamma=0.2, replicates=20, estimator="ols")
    rows = sim.run_grid([odeb_arm, ols_arm])
    assert rows[0].metrics is None
    assert "need at least 4 selected pairs" in rows[0].error
    assert rows[1].error is None
    assert rows[1].metrics.replicates_used == 20
    assert rows[1].metrics == sim.run_scenario(ols_arm)


KEY_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1)


def test_philox_keys_match_seed_sequence():
    replicates = [0, 1, 2, 99, 2**16, 2**31, 2**32 - 1]
    for seed in KEY_SEEDS:
        for stream in (0, 1):
            want = [
                np.random.Philox(seed=[seed, r, stream]).state["state"]["key"]
                for r in replicates
            ]
            got = sim._philox_keys(seed, replicates, stream)
            assert got.dtype == np.uint64
            assert np.array_equal(got, np.array(want))
    with pytest.raises(DomainError):
        sim._philox_keys(1, [2**32], 0)


def test_rekeyed_generator_draws_like_a_fresh_one():
    rng = sim._keyed_generator()
    rng.normal(size=7)  # state left mid-buffer by an earlier row
    for seed in KEY_SEEDS:
        for r, stream in ((0, 0), (5, 1), (2**32 - 1, 0)):
            fresh = np.random.Generator(
                np.random.Philox(seed=[seed, r, stream])
            )
            sim._rekey(rng, sim._philox_keys(seed, [r], stream)[0].tolist())
            for draw in (
                lambda g: g.normal(1.0, 2.0, 9),
                lambda g: g.standard_t(5, 9),
                lambda g: g.lognormal(0.0, 1.5, 9),
                lambda g: g.choice(50, 10, replace=False),
                lambda g: g.integers(2**32, size=3),
            ):
                assert np.array_equal(draw(rng), draw(fresh))


def test_overflowing_draws_fail_every_arm_alike():
    # beta_y * x overflows: one DomainError for every arm, and no
    # RuntimeWarning (the suite turns those into errors)
    grid = [
        _scenario(
            n_full=50, beta_y=1e300, x_var=1e20, replicates=5, seed=1,
            sampling=samp, estimator=est,
        )
        for samp in ("extreme", "random")
        for est in ("ols", "odeb")
    ]
    rows = sim.run_grid(grid)
    assert [r.metrics for r in rows] == [None] * 4
    assert len({r.error for r in rows}) == 1
    assert "beyond double range" in rows[0].error
    with pytest.raises(DomainError, match="beyond double range"):
        sim.generate_dataset(grid[0], 0)
    with pytest.raises(DomainError, match="beyond double range"):
        sim.run_scenario(grid[1])


def test_finite_draws_whose_fits_overflow_fail_every_arm():
    # every draw is finite, but squares of y near 1e200 overflow: the
    # ols arm in the fit's sums, the odeb arm in the response variance
    grid = [
        _scenario(
            n_full=50, beta_y=1e200, replicates=3, seed=1,
            sampling=samp, estimator=est,
        )
        for samp in ("extreme", "random")
        for est in ("ols", "odeb")
    ]
    rows = sim.run_grid(grid)
    assert [r.metrics for r in rows] == [None] * 4
    assert all("beyond double range" in r.error for r in rows)
    for s in grid:
        with pytest.raises(DomainError, match="replicate 0: "):
            sim.run_scenario(s)


def test_overflowing_reverse_fit_fails_the_odeb_arm():
    # a fit that overflows where the response variance does not: the
    # replicate named is the one flagged, past a row that is not
    # converted for its zero variance
    y_sub = np.tile(np.arange(6.0), (4, 1))
    x_sub = np.ones((4, 6))
    x_sub[2, :5] = 1e300
    moments = (np.zeros(4), np.array([0.0, 1.0, 1.0, 1.0]))
    s = _scenario(n_full=10, gamma=0.6)
    with pytest.raises(DomainError, match="replicate 7: sums of squares"):
        sim._arm(s, x_sub, y_sub, moments, 5)


def test_first_failed_check_decides_stop_or_drop():
    # every y is alpha_y exactly and x is near double range: each odeb
    # reverse fit has a zero-variance predictor, which drops the
    # replicate, though its sums overflow too; the ols fit's sums
    # overflow, which stops the cell. The odeb cells once stopped,
    # naming the zero-variance verdict
    grid = [
        _scenario(
            n_full=40, beta_y=0.0, noise_variance=1e-40, x_var=1.7e308,
            replicates=5, seed=3, sampling=samp, estimator=est,
        )
        for samp in ("extreme", "random")
        for est in ("ols", "odeb")
    ]
    rows = sim.run_grid(grid)
    for r in rows[0::2]:
        assert r.metrics is None
        assert r.error == (
            f"replicate 0: {regress.FIT_OVERFLOW}; the scenario's scales "
            "are too large"
        )
    for r in rows[1::2]:
        assert r.error is None
        assert r.metrics.replicates_used == 0
        metrics = dataclasses.astuple(r.metrics)[:-1]
        assert all(math.isnan(v) for v in metrics)


def test_metrics_beyond_double_range_fail_only_their_cell():
    # every replicate is kept, but the squared errors overflow, and at a
    # tiny alpha_level the intervals too; the cells once wrote rmse inf
    # and, at 1e-300, mean_ci_length inf and ci_coverage 1.0
    cell = dict(n_full=20, beta_y=0.0, sampling="random", replicates=5, seed=1)
    wild = dict(cell, x_var=1e-300, noise_variance=1e20)
    grid = [
        _scenario(**wild),
        _scenario(**wild, alpha_level=1e-300),
        _scenario(**cell),
    ]
    rows = sim.run_grid(grid)
    for r in rows[:2]:
        assert r.metrics is None
        assert r.error.startswith("metrics beyond double range")
    assert rows[2].error is None
    assert rows[2].metrics == sim.run_scenario(grid[2])
    with pytest.raises(DomainError, match="beyond double range"):
        sim.run_scenario(grid[1])


def _counting(monkeypatch, module, name):
    calls = []
    wrapped = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_run_grid_computes_no_p_values(monkeypatch):
    # 48 cells in 12 data groups, one of them failing; a replicate is
    # rejected at its interval's t point, so with the t-quantile cache
    # warm no p-value and no t cdf is computed
    grid = [
        _scenario(
            n_full=n, beta_y=b, residual_family=family, sampling=samp,
            estimator=est, replicates=6, seed=3,
        )
        for n in (30, 60)
        for b in (0.0, 0.4)
        for family in ("normal", "scaled_t(10)", "shifted_lognormal")
        for samp in ("extreme", "random")
        for est in ("odeb", "ols")
    ]
    grid[5] = dataclasses.replace(grid[5], gamma=0.05)  # selects 2 rows
    want = sim.run_grid(grid)  # also fills the t-quantile cache
    assert sum(r.error is not None for r in want) == 1
    p_values = _counting(monkeypatch, regress, "slope_p_value")
    t_cdf = _counting(monkeypatch, dist, "t_cdf")
    assert sim.run_grid(grid) == want
    assert sim.run_scenario(grid[0]) == want[0].metrics
    assert p_values == []
    assert t_cdf == []


def test_one_law_group_shares_draws_across_effects():
    # three slopes and two intercepts at one residual law: one data group
    grid = [
        _scenario(
            n_full=80, beta_y=b, alpha_y=a, gamma=g, sampling=samp,
            estimator=est, replicates=25, seed=17,
        )
        for b in (0.0, 0.4, -0.4)
        for a in (5.0, -1.0)
        for samp in ("extreme", "random")
        for est in ("odeb", "ols")
        for g in (0.2, 0.3)
    ]
    assert len({sim._data_key(s) for s in grid}) == 1
    want = [sim.GridResult(s, sim.run_scenario(s)) for s in grid]
    assert sim.run_grid(grid, workers=1) == want
    assert sim.run_grid(grid, workers=3) == want


def test_draw_block_runs_once_per_law_group_and_block(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 2 * 60)  # 2 rows a block
    grid = [
        _scenario(
            n_full=60, beta_y=b, residual_family=family, sampling=samp,
            replicates=7, seed=5,
        )
        for family in ("normal", "scaled_t(10)")
        for b in (0.0, 0.4, -0.4)
        for samp in ("extreme", "random")
    ]
    calls = _counting(monkeypatch, sim, "_draw_block")
    sim.run_grid(grid)
    assert len(calls) == 2 * 4  # 2 law groups, 4 blocks of 7 replicates


def test_overflowing_effect_fails_only_its_own_cells():
    # beta_y * x overflows at 1e300 only; the 0.4 cells of the same law
    # group run as they would alone
    grid = [
        _scenario(
            n_full=50, beta_y=b, x_var=1e20, replicates=5, seed=1,
            sampling=samp, estimator=est,
        )
        for b in (0.4, 1e300)
        for samp in ("extreme", "random")
        for est in ("ols", "odeb")
    ]
    rows = sim.run_grid(grid)
    failed = [r for r in rows if r.scenario.beta_y == 1e300]
    assert [r.metrics for r in failed] == [None] * 4
    assert len({r.error for r in failed}) == 1
    assert "draws values beyond double range" in failed[0].error
    for r in rows[:4]:
        assert r.error is None
        assert r.metrics == sim.run_scenario(r.scenario)


def test_stopped_cells_leave_their_group_running_unchanged(monkeypatch):
    # two 409- and 91-replicate blocks: a y beyond range stops the 1e308
    # effect in block 0, and 3 selected pairs stop the gamma 0.075 odeb
    # subset, so block 1 skips an effect and a subset that no longer run
    monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 2**14)

    def cell(beta_y=0.4, estimator="odeb", gamma=0.2):
        return _scenario(n_full=40, beta_y=beta_y, gamma=gamma,
                         estimator=estimator, replicates=500, seed=11)

    running = [cell(), cell(estimator="ols"), cell(estimator="ols", gamma=0.5)]
    stopped = [cell(beta_y=1e308, estimator="ols"), cell(gamma=0.075)]
    rows = sim.run_grid(running + stopped)
    assert "replicate 0 draws values beyond double range" in rows[3].error
    assert "need at least 4 selected pairs for variance inference" in (
        rows[4].error
    )
    alone = sim.run_grid(running)
    assert [r.metrics for r in rows[:3]] == [r.metrics for r in alone]
    assert all(r.error is None for r in rows[:3])
