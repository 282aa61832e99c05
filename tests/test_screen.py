"""Tests for extreme-subset selection, BH adjustment, and screening."""

import math
import re

import numpy as np
import pytest

from eods import dist, odeb, screen
from eods._util import MIN_ESTIMATE_PAIRS
from eods.errors import DegenerateInput, DomainError, InsufficientData

TOL_EXACT = 1e-12

REF_BH_EXAMPLE = [0.02, 0.022, 0.02666666666666667, 0.04]


def test_select_extremes_ordered_input():
    plan = screen.select_extremes([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.4)
    assert plan.low_indices == [0, 1]
    assert plan.high_indices == [8, 9]
    assert abs(plan.gamma_effective - 0.4) < TOL_EXACT
    assert plan.tie_note is None


def test_select_extremes_uneven_split():
    # n_selected = 19: low tail gets 9 rows, high tail gets 10
    rng = np.random.default_rng(7)
    values = rng.permutation(190).astype(float)
    plan = screen.select_extremes(values, 0.1)
    assert len(plan.low_indices) == 9
    assert len(plan.high_indices) == 10
    assert sorted(values[plan.low_indices]) == list(range(9))
    assert sorted(values[plan.high_indices]) == list(range(180, 190))


def test_select_extremes_rounding_half_away():
    plan = screen.select_extremes(np.arange(10.0), 0.35)
    assert len(plan.low_indices) + len(plan.high_indices) == 4
    plan = screen.select_extremes(np.arange(10.0), 0.25)
    assert len(plan.low_indices) == 1
    assert len(plan.high_indices) == 2


def test_select_extremes_tie_at_low_cut():
    plan = screen.select_extremes([1.0, 1.0, 2.0, 3.0, 4.0, 5.0], 0.5)
    assert plan.low_indices == [0]
    assert plan.high_indices == [4, 5]
    assert plan.tie_note is not None
    assert "1.0" in plan.tie_note


def test_select_extremes_tie_inside_tail_is_quiet():
    # both 5.0 rows are selected, so nothing was broken at the cut
    plan = screen.select_extremes([1.0, 2.0, 3.0, 4.0, 5.0, 5.0], 0.5)
    assert plan.high_indices == [4, 5]
    assert plan.tie_note is None


def test_select_extremes_tie_at_high_cut():
    plan = screen.select_extremes(
        [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 6.0], 0.5
    )
    assert plan.low_indices == [0, 1]
    assert plan.high_indices == [4, 7]
    assert plan.tie_note is not None
    assert "5.0" in plan.tie_note


def test_select_extremes_all_equal_full_gamma():
    plan = screen.select_extremes(np.full(6, 7.0), 1.0)
    assert plan.low_indices == [0, 1, 2]
    assert plan.high_indices == [3, 4, 5]
    assert plan.tie_note is None


def test_select_extremes_tails_disjoint_and_extreme():
    rng = np.random.default_rng(21)
    y = rng.normal(size=400)
    plan = screen.select_extremes(y, 0.2)
    low = set(plan.low_indices)
    high = set(plan.high_indices)
    assert not low & high
    assert len(low) == 40 and len(high) == 40
    untested = [i for i in range(400) if i not in low and i not in high]
    assert max(y[plan.low_indices]) <= min(y[untested])
    assert min(y[plan.high_indices]) >= max(y[untested])


def test_select_extremes_values_permutation_invariant():
    rng = np.random.default_rng(3)
    y = rng.normal(size=250)
    perm = rng.permutation(250)
    a = screen.select_extremes(y, 0.12)
    b = screen.select_extremes(y[perm], 0.12)
    assert np.allclose(
        np.sort(y[a.low_indices]), np.sort(y[perm][b.low_indices])
    )
    assert np.allclose(
        np.sort(y[a.high_indices]), np.sort(y[perm][b.high_indices])
    )


def test_selected_tails_inflate_variance():
    rng = np.random.default_rng(11)
    y = rng.normal(size=1000)
    plan = screen.select_extremes(y, 0.2)
    chosen = y[plan.low_indices + plan.high_indices]
    assert np.var(chosen, ddof=1) > 2.0 * np.var(y, ddof=1)


def test_select_extremes_validation():
    with pytest.raises(DomainError):
        screen.select_extremes(np.arange(10.0), 0.0)
    with pytest.raises(DomainError):
        screen.select_extremes(np.arange(10.0), 1.2)
    with pytest.raises(DomainError):
        screen.select_extremes([1.0, 2.0, 3.0, 4.0], 0.9)
    with pytest.raises(DomainError):
        # 0.1 * 20 rounds to 2 selected rows, below the floor of 3
        screen.select_extremes(np.arange(20.0), 0.1)
    with pytest.raises(DomainError):
        screen.select_extremes(np.zeros((5, 2)), 0.5)


def test_select_extremes_rejects_non_finite_responses():
    for bad in (math.nan, math.inf, -math.inf):
        y = np.arange(20.0)
        y[7] = bad
        with pytest.raises(DomainError, match="finite"):
            screen.select_extremes(y, 0.5)


def test_bh_adjust_worked_example():
    q = screen.bh_adjust([0.005, 0.011, 0.02, 0.04])
    assert len(q) == 4
    for got, want in zip(q, REF_BH_EXAMPLE):
        assert abs(got - want) < 1e-9


def test_bh_adjust_preserves_input_order():
    p = [0.04, 0.005, 0.02, 0.011]
    q = screen.bh_adjust(p)
    assert abs(q[0] - REF_BH_EXAMPLE[3]) < 1e-9
    assert abs(q[1] - REF_BH_EXAMPLE[0]) < 1e-9
    assert abs(q[2] - REF_BH_EXAMPLE[2]) < 1e-9
    assert abs(q[3] - REF_BH_EXAMPLE[1]) < 1e-9


def test_bh_adjust_bounded_and_order_preserving():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.uniform(size=rng.integers(1, 40))
        q = screen.bh_adjust(p)
        assert all(0.0 <= v <= 1.0 for v in q)
        # scale-then-divide can land one ulp under p, hence the slack
        assert all(v >= pi - 1e-12 for v, pi in zip(q, p))
        for i in range(len(p)):
            for j in range(len(p)):
                if p[i] <= p[j]:
                    assert q[i] <= q[j] + TOL_EXACT
    # a flat vector is a fixed point
    flat = screen.bh_adjust([0.4] * 6)
    assert np.allclose(flat, [0.4] * 6, atol=TOL_EXACT)


def _bh_brute_force(p):
    m = len(p)
    order = sorted(range(m), key=lambda i: (p[i], i))
    q = [0.0] * m
    for pos in range(1, m + 1):
        idx = order[pos - 1]
        candidates = [
            m * p[order[k - 1]] / k for k in range(pos, m + 1)
        ]
        q[idx] = min(1.0, min(candidates))
    return q


def test_bh_adjust_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = int(rng.integers(1, 25))
        p = rng.uniform(size=m)
        if rng.random() < 0.3:
            # inject ties
            p[rng.integers(0, m)] = p[rng.integers(0, m)]
        got = screen.bh_adjust(p)
        want = _bh_brute_force(list(p))
        assert np.allclose(got, want, atol=TOL_EXACT)


def test_bh_adjust_edge_cases():
    assert screen.bh_adjust([]) == []
    assert screen.bh_adjust([0.3]) == [0.3]
    assert screen.bh_adjust([1.0, 1.0]) == [1.0, 1.0]
    with pytest.raises(DomainError):
        screen.bh_adjust([0.1, -0.2])
    with pytest.raises(DomainError):
        screen.bh_adjust([0.1, 1.4])
    with pytest.raises(DomainError):
        screen.bh_adjust([0.1, math.nan])


def _tested_only(n_full, idx, values):
    """A full-length biomarker column, NaN off the tested rows idx."""
    col = np.full(n_full, np.nan)
    col[idx] = values
    return col


def _screen_fixture(seed=5, n_full=300, gamma=0.2):
    rng = np.random.default_rng(seed)
    x_assoc = rng.normal(size=n_full)
    y = 2.0 + 0.8 * x_assoc + rng.normal(scale=1.5, size=n_full)
    plan = screen.select_extremes(y, gamma)
    idx = plan.low_indices + plan.high_indices
    table = {
        "bm_assoc": _tested_only(n_full, idx, x_assoc[idx]),
        "bm_null_a": _tested_only(n_full, idx, rng.normal(size=len(idx))),
        "bm_null_b": _tested_only(n_full, idx, rng.normal(size=len(idx))),
    }
    return table, y, idx


def test_screen_rows_sorted_ranked_and_consistent():
    table, y, idx = _screen_fixture()
    rows = screen.screen_biomarkers(y, table)
    assert [r.rank for r in rows] == [1, 2, 3]
    assert rows[0].biomarker_id == "bm_assoc"
    ps = [r.p_value for r in rows]
    assert ps == sorted(ps)
    # q-values are the BH adjustment of the reported p-values
    want_q = screen.bh_adjust(ps)
    for row, q in zip(rows, want_q):
        assert abs(row.q_value - q) < TOL_EXACT
    # each row reproduces a direct single-biomarker analysis
    full = odeb.FullResponseSummary.from_responses(y)
    gamma = len(idx) / full.n_full
    for row in rows:
        subset = odeb.SelectedSubset.from_arrays(
            table[row.biomarker_id][idx], y[idx], gamma
        )
        est = odeb.estimate(subset, full)
        assert abs(row.estimate - est.beta_y) < TOL_EXACT
        assert abs(row.se - est.se_beta_y) < TOL_EXACT
        assert abs(row.ci_low - est.ci_low) < TOL_EXACT
        assert abs(row.ci_high - est.ci_high) < TOL_EXACT
        assert abs(row.p_value - est.p_value) < TOL_EXACT
        assert row.error is None


def test_screen_failed_biomarker_is_flagged_not_fatal():
    table, y, idx = _screen_fixture(seed=9)
    table["bm_flat"] = _tested_only(len(y), idx, 3.25)
    rows = screen.screen_biomarkers(y, table)
    assert len(rows) == 4
    flat = [r for r in rows if r.biomarker_id == "bm_flat"]
    assert len(flat) == 1
    assert flat[0].error is not None
    assert math.isnan(flat[0].estimate)
    assert math.isnan(flat[0].q_value)
    assert flat[0].rank == 4  # failed rows sort last
    ok = [r for r in rows if r.error is None]
    assert len(ok) == 3
    # q-values ignore the failed test entirely
    want_q = screen.bh_adjust([r.p_value for r in ok])
    for row, q in zip(ok, want_q):
        assert abs(row.q_value - q) < TOL_EXACT


def test_screen_tie_break_by_biomarker_id():
    table, y, _ = _screen_fixture(seed=13)
    table["aa_dup"] = table["bm_assoc"].copy()
    rows = screen.screen_biomarkers(y, table)
    dup_rank = next(r.rank for r in rows if r.biomarker_id == "aa_dup")
    orig_rank = next(r.rank for r in rows if r.biomarker_id == "bm_assoc")
    assert dup_rank == orig_rank - 1  # identical p, "aa" sorts first


def test_screen_misaligned_biomarker_rejected():
    table, y, _ = _screen_fixture()
    table["bm_short"] = np.ones(5)
    with pytest.raises(DomainError, match="bm_short"):
        screen.screen_biomarkers(y, table)


@pytest.mark.parametrize(
    "column", [1.0, np.ones((10, 1))], ids=["scalar", "2-D"]
)
def test_screen_biomarker_of_another_shape_named(column):
    # a DomainError naming both shapes, not an IndexError on shape[0]
    text = f"'b' has shape {np.shape(column)}; expected (10,)"
    with pytest.raises(DomainError, match=re.escape(text)):
        screen.screen_biomarkers(np.arange(10.0), {"b": column})


def test_screen_null_family_wise_error_controlled():
    # 13 independent null biomarkers; the chance that BH at level 0.05
    # flags anything should itself stay near or below 0.05
    rng = np.random.default_rng(2024)
    n_full, gamma, n_markers, reps = 440, 0.2, 13, 2000
    hits = 0
    for _ in range(reps):
        y = rng.normal(size=n_full)
        plan = screen.select_extremes(y, gamma)
        idx = plan.low_indices + plan.high_indices
        table = {
            f"m{k:02d}": _tested_only(n_full, idx, rng.normal(size=len(idx)))
            for k in range(n_markers)
        }
        rows = screen.screen_biomarkers(y, table)
        if any(r.q_value <= 0.05 for r in rows if r.error is None):
            hits += 1
    assert hits / reps <= 0.07


def _mask_fixture():
    """Columns on several tested-row masks, with every per-column failure.

    Returns (y, table, n_masks): n_masks counts the distinct masks.
    """
    rng = np.random.default_rng(31)
    n_full = 200
    y = rng.normal(10.0, 3.0, size=n_full)
    y[[5, 6, 7, 8]] = 4.0  # four tied responses
    order = np.argsort(y)
    tails = np.concatenate([order[:20], order[-20:]])
    gappy_a = np.setdiff1d(tails, tails[[0, 7, 33]])
    gappy_b = np.setdiff1d(tails, tails[[2, 21]])
    table = {}
    for k in range(6):
        table[f"bm_tails_{k}"] = _tested_only(
            n_full, tails, rng.normal(k, 1.0 + k, size=tails.size)
        )
    table["bm_gappy_a"] = _tested_only(
        n_full, gappy_a, rng.normal(size=gappy_a.size)
    )
    table["bm_constant"] = _tested_only(n_full, tails, 2.5)
    table["bm_gappy_b0"] = _tested_only(
        n_full, gappy_b, 0.4 * y[gappy_b] + rng.normal(size=gappy_b.size)
    )
    # a biomarker in tiny units: the slope variance's s^4 denominator
    # used to underflow here, and its SE now scales with the units
    table["bm_tiny"] = _tested_only(
        n_full, tails, 1e-100 * rng.normal(size=tails.size)
    )
    table["bm_three"] = _tested_only(n_full, tails[:3], [1.0, 2.0, 4.0])
    table["bm_tied_y"] = _tested_only(n_full, [5, 6, 7, 8], [1.0, 2.0, 3.0, 5.0])
    table["bm_two"] = _tested_only(n_full, tails[:2], [1.0, 2.0])
    table["bm_empty"] = np.full(n_full, np.nan)
    table["bm_gappy_b1"] = _tested_only(
        n_full, gappy_b, rng.normal(size=gappy_b.size)
    )
    # tails, gappy_a, gappy_b, tails[:3], [5, 6, 7, 8], tails[:2], none
    return y, table, 7


def test_screen_batched_fits_equal_per_column_estimate():
    y, table, _ = _mask_fixture()
    rows = {r.biomarker_id: r for r in screen.screen_biomarkers(y, table)}
    full = odeb.FullResponseSummary.from_responses(y)
    p_ok = []
    for biomarker_id, column in table.items():
        row = rows[biomarker_id]
        tested = ~np.isnan(column)
        try:
            if np.count_nonzero(tested) < MIN_ESTIMATE_PAIRS:
                # the estimator's refusal, which a subset of 0-2 pairs
                # would pre-empt with its own
                odeb.estimate_rows(
                    y[tested], column[tested], full.mean_y, full.var_y,
                    full.n_full,
                )
            subset = odeb.SelectedSubset.from_tested(y, column)
            est = odeb.estimate(subset, full)
        except (DegenerateInput, InsufficientData) as exc:
            assert row.error == str(exc)
            for value in (row.estimate, row.se, row.p_value, row.q_value):
                assert math.isnan(value)
            continue
        assert row.error is None
        assert row.estimate == est.beta_y
        assert row.se == est.se_beta_y
        assert row.ci_low == est.ci_low
        assert row.ci_high == est.ci_high
        assert row.p_value == est.p_value
        p_ok.append((biomarker_id, est.p_value))
    q_ok = screen.bh_adjust([p for _, p in p_ok])
    for (biomarker_id, _), q in zip(p_ok, q_ok):
        assert rows[biomarker_id].q_value == q
    errors = {r.biomarker_id: r.error for r in rows.values() if r.error}
    assert errors == {
        "bm_constant": (
            "reverse fit is deterministic with zero slope; conversion "
            "undefined"
        ),
        "bm_three": "need at least 4 selected pairs for variance inference",
        "bm_tied_y": "predictor has zero sample variance",
        "bm_two": "need at least 4 selected pairs for variance inference",
        "bm_empty": "need at least 4 selected pairs for variance inference",
    }
    assert 0.0 < rows["bm_tiny"].se * 1e-100 < math.inf
    for biomarker_id, column in table.items():
        tested = ~np.isnan(column)
        assert rows[biomarker_id].rows_inside == screen.rows_inside(y, tested)
    assert rows["bm_gappy_a"].rows_inside > 0


def test_screen_rejects_overflowing_response_variance():
    # one DomainError for the whole screen, not every biomarker flagged
    y = np.random.default_rng(3).uniform(1e307, 9e307, size=50)
    table = {"bm": np.where(np.arange(50) % 5 == 0, 1.0, np.nan)}
    with pytest.raises(DomainError, match="beyond double range"):
        screen.screen_biomarkers(y, table)


def test_screen_fits_once_per_tested_mask(monkeypatch):
    y, table, n_masks = _mask_fixture()
    calls = []
    estimate_rows = odeb.estimate_rows

    def counting(responses, biomarkers, *args):
        calls.append(np.shape(biomarkers))
        return estimate_rows(responses, biomarkers, *args)

    monkeypatch.setattr(odeb, "estimate_rows", counting)
    screen.screen_biomarkers(y, table)
    assert len(calls) == n_masks
    # the eight columns on the shared tails are one (8, 40) block
    assert calls[0] == (8, 40)


def test_screen_computes_p_values_once(monkeypatch):
    y, table, _ = _mask_fixture()
    want = screen.screen_biomarkers(y, table)  # also warms t_quantile
    calls = []
    t_cdf = dist.t_cdf

    def counting(x, df):
        calls.append(df)
        return t_cdf(x, df)

    monkeypatch.setattr(dist, "t_cdf", counting)
    assert screen.screen_biomarkers(y, table) == want
    # one t cdf per fitted column, each at its tested-row count less two
    fitted = [row for row in want if row.error is None]
    assert len(calls) == len(fitted)
    assert len(set(calls)) > 1


def test_screen_tested_takes_any_rows_that_hold_the_tested_ones():
    # screen_biomarkers keeps the rows where some biomarker was tested;
    # every row, untested ones too, gives the same screen bit for bit
    y, table, _ = _mask_fixture()
    want = screen.screen_biomarkers(y, table)
    every = np.arange(len(y))
    assert screen.screen_tested(y, every, table) == want
    with pytest.raises(DomainError, match="one value per tested row"):
        screen.screen_tested(y, every[:-1], table)


def test_tested_groups_in_order_of_first_appearance():
    y, table, _ = _mask_fixture()
    groups = screen.tested_groups(list(table.values()))
    names = list(table)
    got = [[names[i] for i in positions] for _, positions in groups]
    assert got == [
        [f"bm_tails_{k}" for k in range(6)] + ["bm_constant", "bm_tiny"],
        ["bm_gappy_a"],
        ["bm_gappy_b0", "bm_gappy_b1"],
        ["bm_three"],
        ["bm_tied_y"],
        ["bm_two"],
        ["bm_empty"],
    ]
    for tested, positions in groups:
        for i in positions:
            assert np.array_equal(tested, ~np.isnan(table[names[i]]))


def test_screen_fits_a_wide_mask_in_chunks_bit_for_bit(monkeypatch):
    # one mask of two full chunks and a partial one; constant columns on
    # either side of the first chunk edge fail without moving their
    # neighbours' results
    rng = np.random.default_rng(17)
    n_full = 150
    y = rng.normal(10.0, 3.0, size=n_full)
    order = np.argsort(y)
    tails = np.concatenate([order[:15], order[-15:]])
    width = 2 * screen._FIT_COLUMNS + 88
    table = {
        f"bm{j:03d}": _tested_only(
            n_full, tails, 0.05 * (j % 7) * y[tails] + rng.normal(size=30)
        )
        for j in range(width)
    }
    edge = screen._FIT_COLUMNS
    for j in (edge - 1, edge):
        table[f"bm{j:03d}"] = _tested_only(n_full, tails, 1.5)
    calls = []
    estimate_rows = odeb.estimate_rows

    def counting(responses, biomarkers, *args):
        calls.append(np.shape(biomarkers))
        return estimate_rows(responses, biomarkers, *args)

    monkeypatch.setattr(odeb, "estimate_rows", counting)
    rows = {r.biomarker_id: r for r in screen.screen_biomarkers(y, table)}
    assert calls == [(edge, 30), (edge, 30), (88, 30)]
    full = odeb.FullResponseSummary.from_responses(y)
    for biomarker_id, column in table.items():
        row = rows[biomarker_id]
        subset = odeb.SelectedSubset.from_tested(y, column)
        try:
            est = odeb.estimate(subset, full)
        except DegenerateInput as exc:
            assert row.error == str(exc)
            continue
        assert row.error is None
        got = (row.estimate, row.se, row.ci_low, row.ci_high, row.p_value)
        assert got == (
            est.beta_y, est.se_beta_y, est.ci_low, est.ci_high, est.p_value
        )
    assert sum(row.error is not None for row in rows.values()) == 2
