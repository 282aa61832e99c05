"""Extreme-subset selection and multi-biomarker screening."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import odeb, regress
from ._util import check_gamma, selected_count, whole_number
from .errors import DomainError, InsufficientData

# The most columns of one tested-row mask fit at a time. A row's fit
# depends on no other row, so the chunks keep every bit. They bound the
# fit's (columns, tested rows) temporaries: fit at once, a 2000-column
# mask's added about as much memory as the loaded study.
_FIT_COLUMNS = 256


@dataclass
class SelectionPlan:
    """Which rows to biomarker-test, split by response tail.

    Index lists are sorted ascending. tie_note is set when a response
    value at a cut boundary also occurs on a row that was not selected,
    so the stable lowest-original-index rule decided membership.
    """

    low_indices: list
    high_indices: list
    gamma_effective: float
    tie_note: Optional[str] = None


@dataclass
class ScreenRow:
    """One biomarker's forward-effect inference within a screen."""

    biomarker_id: str
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float
    q_value: float
    rank: int
    error: Optional[str] = None
    # tested rows strictly inside the untested response range; nonzero
    # means the tested subset does not look extreme
    rows_inside: int = 0


def extreme_rows(y, n_selected):
    """Each row's response tails, and whether a tie at a cut decided them.

    y is a finite (R, n) array and 3 <= n_selected <= n. A row's low
    tail is its floor(n_selected / 2) smallest values and its high tail
    the largest of what the low tail left, so the two are disjoint even
    when one value spans both cuts. Among equal values at a cut the
    lower original index wins. Returns (indices, low_tie, high_tie):
    indices is (R, n_selected), each row's low-tail indices ascending
    and then its high-tail indices ascending; low_tie and high_tie flag
    the rows whose low or high cut value also occurs on a row left out.
    """
    n = y.shape[1]
    n_low = n_selected // 2
    n_high = n_selected - n_low
    ranked = np.sort(y, axis=1)
    low_cut = ranked[:, n_low - 1 : n_low]
    high_cut = ranked[:, n - n_high : n - n_high + 1]
    # a left-out value equal to a cut sits next to it in the sorted row
    tied = (
        (low_cut == high_cut)
        | (ranked[:, n_low : n_low + 1] == low_cut)
        | (ranked[:, n - n_high - 1 : n - n_high] == high_cut)
    )[:, 0]
    idx = np.empty((len(y), n_selected), dtype=np.intp)
    settled = np.flatnonzero(~tied)
    if settled.size:
        # a settled row's tails are its values at or below the low cut
        # and at or above the high cut, found in index order
        sub = y if settled.size == len(y) else y[settled]
        # flat positions, row by row, less each row's first one
        offset = n * np.arange(settled.size)[:, None]
        low = np.flatnonzero(sub <= low_cut[settled]).reshape(-1, n_low)
        high = np.flatnonzero(sub >= high_cut[settled]).reshape(-1, n_high)
        idx[settled, :n_low] = low - offset
        idx[settled, n_low:] = high - offset
    low_tie = np.zeros(len(y), dtype=bool)
    high_tie = np.zeros(len(y), dtype=bool)
    if tied.any():
        rows = np.flatnonzero(tied)
        sub = y[rows]
        low = np.argsort(sub, axis=1, kind="stable")[:, :n_low]
        out = np.ones(sub.shape, dtype=bool)
        np.put_along_axis(out, low, False, axis=1)
        # the low tail sorts last, so the high tail is drawn from the rest
        rest = np.where(out, -sub, np.inf)
        high = np.argsort(rest, axis=1, kind="stable")[:, :n_high]
        np.put_along_axis(out, high, False, axis=1)
        idx[rows, :n_low] = np.sort(low, axis=1)
        idx[rows, n_low:] = np.sort(high, axis=1)
        low_tie[rows] = (out & (sub == low_cut[rows])).any(axis=1)
        high_tie[rows] = (out & (sub == high_cut[rows])).any(axis=1)
    return idx, low_tie, high_tie


def select_extremes(responses, gamma):
    """Pick the bottom and top response tails for biomarker testing.

    n_selected = round(gamma * n), ties at x.5 rounding away from zero;
    the low tail gets floor(n_selected / 2) rows, the high tail the
    remainder. Ties at a cut boundary go to the lower original index,
    by extreme_rows on this one row.
    """
    y = np.asarray(responses, dtype=float)
    if y.ndim != 1:
        raise DomainError("responses must be a one-dimensional vector")
    n = y.shape[0]
    if not bool(np.all(np.isfinite(y))):
        raise DomainError("responses must be finite")
    check_gamma(gamma)
    whole_number("number of responses", n, 5)
    n_selected = selected_count(gamma, n)
    idx, low_tie, high_tie = extreme_rows(y[None], n_selected)
    low, high = np.split(idx[0], [n_selected // 2])
    notes = []
    if low_tie[0]:
        notes.append(
            f"low-tail boundary value {float(y[low].max())!r} tied across "
            "the cut; kept the lower original indices"
        )
    if high_tie[0]:
        notes.append(
            f"high-tail boundary value {float(y[high].min())!r} tied across "
            "the cut; kept the lower original indices"
        )
    return SelectionPlan(
        low_indices=low.tolist(),
        high_indices=high.tolist(),
        gamma_effective=n_selected / n,
        tie_note="; ".join(notes) or None,
    )


def bh_adjust(p_values):
    """Step-up adjusted p-values controlling the false discovery rate.

    Sort ascending, scale p_(i) by m/i, then enforce monotonicity with a
    cumulative minimum taken from the largest rank down; capped at 1 and
    returned in the original input order.
    """
    arr = np.asarray(p_values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("p-values must be a one-dimensional vector")
    m = arr.shape[0]
    if m == 0:
        return []
    if not bool(np.all((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("p-values must lie in [0, 1]")
    order = np.argsort(arr, kind="stable")
    scaled = arr[order] * m / np.arange(1, m + 1)
    monotone = np.minimum.accumulate(scaled[::-1])[::-1]
    capped = np.minimum(monotone, 1.0)
    out = np.empty(m, dtype=float)
    out[order] = capped
    return [float(v) for v in out]


def rows_inside(responses, tested):
    """Tested rows strictly inside the untested response range."""
    untested = responses[~tested]
    if not untested.size:
        return 0
    y = responses[tested]
    return np.count_nonzero((untested.min() < y) & (y < untested.max()))


def tested_mask(n, rows):
    """A length-n boolean mask, true at the positions rows."""
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def tested_groups(columns):
    """Column positions grouped by tested-row mask, in first-seen order.

    columns are equal-length vectors with NaN on the rows that were not
    tested. Returns [(tested, positions)]: a boolean mask and the
    positions of the columns tested on exactly those rows.
    """
    groups = {}
    for i, column in enumerate(columns):
        untested = np.isnan(column)
        key = untested.tobytes()
        if key in groups:
            groups[key][1].append(i)
        else:
            groups[key] = (~untested, [i])
    return list(groups.values())


def screen_biomarkers(responses, biomarkers, confidence_level=0.95):
    """Univariable screen of many biomarkers against one response vector.

    responses is the full response vector. biomarkers maps each id to a
    vector aligned with it row for row, NaN where that biomarker was not
    tested. Every row is handed to screen_tested, which fits each
    biomarker on its own tested rows.
    """
    y = np.asarray(responses, dtype=float)
    columns = {}
    for biomarker_id, values in biomarkers.items():
        x = np.asarray(values, dtype=float)
        if x.shape != y.shape:
            raise DomainError(
                f"biomarker {biomarker_id!r} has shape {x.shape}; "
                f"expected {y.shape}"
            )
        columns[biomarker_id] = x
    return screen_tested(y, np.arange(y.size), columns, confidence_level)


def screen_tested(responses, rows, biomarkers, confidence_level=0.95):
    """The screen on given rows: at least every row a biomarker was tested on.

    responses is the full response vector and rows are ascending
    positions in it. biomarkers maps each id to its values on those
    rows, NaN where that biomarker was not tested. Each biomarker is
    fit on its own tested rows, and the columns tested on the same rows
    are fit together, one odeb.estimate_rows call per _FIT_COLUMNS of
    them; each successful column's p-value is one regress.slope_p_value
    call. Per-biomarker estimation failures flag the row and the batch
    keeps going; rows are sorted by ascending p-value (failed rows last,
    ties by biomarker id) and carry BH q-values over the successful
    tests. Each row's rows_inside counts, once per tested-row mask, the
    tested rows strictly inside the untested response range.
    """
    y = np.asarray(responses, dtype=float)
    full = odeb.FullResponseSummary.from_responses(y)
    rows = np.asarray(rows, dtype=np.intp)
    names = [str(biomarker_id) for biomarker_id in biomarkers]
    columns = [np.asarray(x, dtype=float) for x in biomarkers.values()]
    if any(x.shape != rows.shape for x in columns):
        raise DomainError("every biomarker needs one value per tested row")
    screened = [None] * len(columns)
    for tested, positions in tested_groups(columns):
        mask = tested_mask(len(y), rows[tested])
        inside = rows_inside(y, mask)
        y_tested = y[mask]
        for start in range(0, len(positions), _FIT_COLUMNS):
            chunk = positions[start : start + _FIT_COLUMNS]
            try:
                est = odeb.estimate_rows(
                    y_tested,
                    np.stack([columns[i][tested] for i in chunk]),
                    full.mean_y,
                    full.var_y,
                    full.n_full,
                    confidence_level,
                )
            except InsufficientData as exc:  # too few tested rows
                reasons = [str(exc)] * len(chunk)
                values = [None] * len(chunk)
            else:
                reasons = [r and r[1] for r in odeb.drop_reasons(est)]
                values = zip(
                    est.beta_y.tolist(),
                    est.se_beta_y.tolist(),
                    est.ci_low.tolist(),
                    est.ci_high.tolist(),
                    est.reverse_fit.t_stat.tolist(),
                )
            for i, reason, value in zip(chunk, reasons, values):
                if reason is None:
                    *fit, t = value
                    p_value = regress.slope_p_value(t, est.reverse_fit.df)
                else:
                    fit, p_value = [math.nan] * 4, math.nan
                screened[i] = ScreenRow(
                    names[i], *fit, p_value, math.nan, rank=0, error=reason,
                    rows_inside=inside,
                )
    tests = [row for row in screened if row.error is None]
    for row, q_value in zip(tests, bh_adjust([r.p_value for r in tests])):
        row.q_value = q_value

    def sort_key(row):
        failed = math.isnan(row.p_value)
        return (failed, 0.0 if failed else row.p_value, row.biomarker_id)

    screened.sort(key=sort_key)
    for i, row in enumerate(screened, start=1):
        row.rank = i
    return screened
