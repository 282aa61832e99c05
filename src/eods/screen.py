"""Extreme-subset selection and multi-biomarker screening."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import odeb
from ._util import round_half_away_from_zero
from .errors import DegenerateInput, DomainError, InsufficientData


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


def select_extremes(responses, gamma):
    """Pick the bottom and top response tails for biomarker testing.

    n_selected = round(gamma * n), ties at x.5 rounding away from zero;
    the low tail gets floor(n_selected / 2) rows, the high tail the
    remainder. Ties at a cut boundary go to the lower original index.
    """
    y = np.asarray(responses, dtype=float)
    if y.ndim != 1:
        raise DomainError("responses must be a one-dimensional vector")
    n = y.shape[0]
    if not bool(np.all(np.isfinite(y))):
        raise DomainError("responses must be finite")
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma!r}")
    if n < 5:
        raise DomainError(f"need at least 5 responses, got {n}")
    n_selected = round_half_away_from_zero(gamma * n)
    if n_selected < 3:
        raise DomainError(
            f"gamma {gamma!r} selects only {n_selected} of {n} rows; need 3"
        )
    n_low = n_selected // 2
    n_high = n_selected - n_low

    ascending = np.argsort(y, kind="stable")
    low = ascending[:n_low]
    remaining = ascending[n_low:]
    # Descending by value, ties by ascending original index; picking the
    # high tail from the rows left after the low tail keeps the two
    # disjoint even when one value spans both cuts.
    desc = remaining[np.lexsort((remaining, -y[remaining]))]
    high = desc[:n_high]

    selected = np.zeros(n, dtype=bool)
    selected[low] = True
    selected[high] = True
    notes = []
    if n_low > 0:
        low_cut = float(np.max(y[low]))
        if bool(np.any(~selected & (y == low_cut))):
            notes.append(
                f"low-tail boundary value {low_cut!r} tied across the cut; "
                "kept the lower original indices"
            )
    high_cut = float(np.min(y[high]))
    if bool(np.any(~selected & (y == high_cut))):
        notes.append(
            f"high-tail boundary value {high_cut!r} tied across the cut; "
            "kept the lower original indices"
        )
    return SelectionPlan(
        low_indices=sorted(int(i) for i in low),
        high_indices=sorted(int(i) for i in high),
        gamma_effective=n_selected / n,
        tie_note="; ".join(notes) if notes else None,
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


def screen_biomarkers(responses, biomarkers, confidence_level=0.95):
    """Univariable screen of many biomarkers against one response vector.

    responses is the full response vector. biomarkers maps each id to a
    vector aligned with it row for row, NaN where that biomarker was not
    tested; each biomarker is fit on its own tested rows. Per-biomarker
    estimation failures flag the row and the batch keeps going; rows are
    sorted by ascending p-value (failed rows last, ties by biomarker id)
    and carry BH q-values over the successful tests.
    """
    y = np.asarray(responses, dtype=float)
    full = odeb.FullResponseSummary.from_responses(y)

    worked = []
    for biomarker_id, values in biomarkers.items():
        x = np.asarray(values, dtype=float)
        if x.shape != y.shape:
            raise DomainError(
                f"biomarker {biomarker_id!r} has {x.shape[0]} rows; "
                f"expected {y.shape[0]}"
            )
        try:
            subset = odeb.SelectedSubset.from_tested(y, x)
            est = odeb.estimate(subset, full, confidence_level)
            worked.append((str(biomarker_id), est, None))
        except (DegenerateInput, InsufficientData) as exc:
            worked.append((str(biomarker_id), None, str(exc)))

    p_ok = [est.p_value for _, est, err in worked if err is None]
    q_ok = iter(bh_adjust(p_ok))
    rows = []
    for biomarker_id, est, err in worked:
        if err is None:
            rows.append(
                ScreenRow(
                    biomarker_id=biomarker_id,
                    estimate=est.beta_y,
                    se=est.se_beta_y,
                    ci_low=est.ci_low,
                    ci_high=est.ci_high,
                    p_value=est.p_value,
                    q_value=next(q_ok),
                    rank=0,
                )
            )
        else:
            rows.append(ScreenRow(biomarker_id, *[math.nan] * 6, rank=0, error=err))

    def sort_key(row):
        failed = math.isnan(row.p_value)
        return (failed, 0.0 if failed else row.p_value, row.biomarker_id)

    rows.sort(key=sort_key)
    for i, row in enumerate(rows, start=1):
        row.rank = i
    return rows
