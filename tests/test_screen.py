"""Tests for extreme-subset selection, BH adjustment, and screening."""

import math

import numpy as np
import pytest

from eods import odeb, screen
from eods.errors import DomainError

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
