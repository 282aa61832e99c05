"""Monte Carlo engine for design comparisons.

Generates bivariate (x, y) data, applies extreme or random subset
selection, runs the OLS and reverse-regression estimator arms, and
aggregates bias / RMSE / MAE / rejection rate / CI coverage / CI length
over replicates.

Determinism contract: every replicate derives its own generator from
(seed, replicate_index, stream), so results are bit-identical for a
fixed seed no matter how work is scheduled across processes. Stream 0
drives data generation, stream 1 the random-sampling subset draw;
scenarios differing only in sampling, estimator, gamma or alpha_level
therefore see the same data replicate-for-replicate (paired comparison).

The engine works on blocks of replicates, row r of a (rows, n_full)
array being one replicate; each row is still drawn from its own
generator, so blocking changes no value. A block holds about
_BLOCK_ELEMENTS values whatever n_full is, which bounds memory. run_grid
groups the scenarios that share data, draws each group's blocks once
and runs every scenario of the group on them; selection, fits and
intervals are computed row-wise, and a replicate whose subset
degenerates is dropped from its own scenario only.
"""

import dataclasses
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import odeb, regress, screen
from ._util import check_alpha, check_gamma, round_half_away_from_zero
from .dist import t_quantile
from .errors import (
    DomainError,
    EodsError,
    Infeasible,
    InsufficientData,
)

_FAMILIES = ("normal", "scaled_t", "shifted_lognormal")
_SCALED_T_TOKEN = re.compile(r"^scaled_t\((\d+)\)$")
_SEED_MAX = 2**64 - 1
# Values per replicate block: rows = max(1, _BLOCK_ELEMENTS // n_full).
_BLOCK_ELEMENTS = 2**14


@dataclass
class SimScenario:
    """One cell of a simulation grid."""

    n_full: int
    beta_y: float
    gamma: float
    sampling: str
    estimator: str
    replicates: int
    seed: int
    alpha_y: float = 5.0
    noise_variance: float = 5.0
    x_mean: float = 0.0
    x_var: float = 1.0
    residual_family: str = "normal"
    t_df: Optional[int] = None
    alpha_level: float = 0.05

    def __post_init__(self):
        self.residual_family, self.t_df = _residual_family(
            self.residual_family, self.noise_variance, self.t_df
        )
        self.n_full = int(self.n_full)
        self.replicates = int(self.replicates)
        self.seed = int(self.seed)
        if self.n_full < 5:
            raise DomainError(f"n_full must be at least 5, got {self.n_full}")
        if self.replicates < 1:
            raise DomainError("replicates must be at least 1")
        check_gamma(self.gamma)
        if not self.x_var > 0.0:
            raise DomainError("x_var must be positive")
        check_alpha(self.alpha_level)
        if self.sampling not in ("extreme", "random"):
            raise DomainError(f"unknown sampling {self.sampling!r}")
        if self.estimator not in ("ols", "odeb"):
            raise DomainError(f"unknown estimator {self.estimator!r}")
        if not 0 <= self.seed <= _SEED_MAX:
            raise DomainError("seed must fit in an unsigned 64-bit integer")

    @property
    def n_selected(self):
        return round_half_away_from_zero(self.gamma * self.n_full)


@dataclass
class SimMetrics:
    """Aggregates over the replicates that produced an estimate."""

    mean_estimate: float
    bias: float
    rmse: float
    mae: float  # median absolute error
    rejection_rate: float
    ci_coverage: float
    mean_ci_length: float
    replicates_used: int


@dataclass
class GridResult:
    """One grid row: the scenario, its metrics, or the error that stopped it."""

    scenario: SimScenario
    metrics: Optional[SimMetrics]
    error: Optional[str] = None


@dataclass
class ResidualSampler:
    """Draws centered-noise vectors for one residual family.

    For shifted_lognormal the solver metadata records the numerically
    determined log-scale variance and mode shift.
    """

    family: str
    noise_variance: float
    t_df: Optional[int] = None
    sigma2_star: Optional[float] = None
    mode_shift: Optional[float] = None
    solver_tolerance: Optional[float] = None

    def draw(self, rng, n):
        if self.family == "normal":
            return rng.normal(0.0, math.sqrt(self.noise_variance), n)
        if self.family == "scaled_t":
            # literal scale factor: variance is v * df / (df - 2), not v
            return math.sqrt(self.noise_variance) * rng.standard_t(
                self.t_df, n
            )
        draws = rng.lognormal(0.0, math.sqrt(self.sigma2_star), n)
        return draws - self.mode_shift


_LOGNORMAL_SOLVER_TOL = 1e-10


def _solve_lognormal_sigma2(variance):
    """Root of (e^s - 1) e^s = variance, s being the log-scale variance."""
    target = float(variance)

    def g(s):
        return math.expm1(s) * math.exp(s)

    lo, hi = 0.0, 1.0
    while g(hi) < target:
        hi *= 2.0
        if hi > 700.0:
            raise Infeasible(
                f"cannot bracket lognormal scale for variance {variance!r}"
            )
    while hi - lo > _LOGNORMAL_SOLVER_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _residual_family(family, noise_variance, t_df):
    """Checked (family, t_df) of a residual law; the one home of its rules.

    The scaled_t(df) spelling carries its own df, which t_df, if given,
    must repeat.
    """
    token = _SCALED_T_TOKEN.match(str(family))
    if token:
        df = int(token.group(1))
        if t_df is not None and int(t_df) != df:
            raise DomainError(
                f"residual_family {family!r} conflicts with t_df={t_df!r}"
            )
        family, t_df = "scaled_t", df
    if family not in _FAMILIES:
        raise DomainError(f"unknown residual_family {family!r}")
    if not noise_variance > 0.0:
        raise DomainError("noise_variance must be positive")
    if family != "scaled_t":
        if t_df is not None:
            raise DomainError(f"t_df only applies to scaled_t, not {family!r}")
        return family, None
    if t_df is None or int(t_df) <= 2:
        raise DomainError("scaled_t needs degrees of freedom above 2")
    return family, int(t_df)


def residual_sampler(family, noise_variance, t_df=None):
    """Build the centered-noise sampler for a residual family.

    normal: N(0, v). scaled_t: sqrt(v) * T_df, taken literally, so the
    realized variance is v * df / (df - 2). shifted_lognormal: a
    log-normal with log-mean 0 whose log-scale variance solves
    (e^s - 1) e^s = v, shifted by its mode e^{-s} so the mode sits at 0.
    """
    family, t_df = _residual_family(family, noise_variance, t_df)
    if family != "shifted_lognormal":
        return ResidualSampler(family, noise_variance, t_df)
    sigma2 = _solve_lognormal_sigma2(noise_variance)
    return ResidualSampler(
        family="shifted_lognormal",
        noise_variance=noise_variance,
        sigma2_star=sigma2,
        mode_shift=math.exp(-sigma2),
        solver_tolerance=_LOGNORMAL_SOLVER_TOL,
    )


def _replicate_rng(seed, replicate_index, stream):
    return np.random.Generator(
        np.random.Philox(seed=[seed, replicate_index, stream])
    )


def _draw_block(scenario, sampler, first, rows):
    """Replicates first .. first + rows - 1 as (rows, n_full) x and y."""
    n = scenario.n_full
    x = np.empty((rows, n))
    eps = np.empty((rows, n))
    for i in range(rows):
        rng = _replicate_rng(scenario.seed, first + i, 0)
        x[i] = rng.normal(scenario.x_mean, math.sqrt(scenario.x_var), n)
        eps[i] = sampler.draw(rng, n)
    return x, scenario.alpha_y + scenario.beta_y * x + eps


def generate_dataset(scenario, replicate_index):
    """One replicate's (x, y) sample, deterministic in (seed, index)."""
    sampler = residual_sampler(
        scenario.residual_family, scenario.noise_variance, scenario.t_df
    )
    x, y = _draw_block(scenario, sampler, replicate_index, 1)
    return x[0], y[0]


def _extreme_indices(y, gamma, n_selected):
    """screen.select_extremes row by row: sorted low tail, sorted high tail.

    A partition finds each row's tails. A row where that choice is not
    unique (a cut value also outside its tail, or both cuts equal) or
    that holds a non-finite value goes to select_extremes, the one home
    of the lower-index tie rule and of the finite check.
    """
    n = y.shape[1]
    n_low = n_selected // 2
    n_high = n_selected - n_low
    order = np.argpartition(y, (n_low - 1, n - n_high), axis=1)
    ranked = np.take_along_axis(y, order, axis=1)
    low_cut = ranked[:, n_low - 1 : n_low]
    high_cut = ranked[:, n - n_high : n - n_high + 1]
    rest = ranked[:, n_low : n - n_high]
    unclear = (
        (low_cut[:, 0] == high_cut[:, 0])
        | np.any(rest == low_cut, axis=1)
        | np.any(rest == high_cut, axis=1)
        | ~np.all(np.isfinite(y), axis=1)
    )
    low = np.sort(order[:, :n_low], axis=1)
    high = np.sort(order[:, n - n_high :], axis=1)
    idx = np.concatenate([low, high], axis=1)
    for i in np.flatnonzero(unclear).tolist():
        plan = screen.select_extremes(y[i], gamma)
        idx[i] = plan.low_indices + plan.high_indices
    return idx


def _random_indices(scenario, first, rows):
    idx = np.empty((rows, scenario.n_selected), dtype=np.intp)
    for i in range(rows):
        rng = _replicate_rng(scenario.seed, first + i, 1)
        idx[i] = np.sort(
            rng.choice(scenario.n_full, size=scenario.n_selected, replace=False)
        )
    return idx


def _run_block(scenario, x, y, first, shared):
    """(estimate, ci_low, ci_high, p_value) of a block's kept replicates.

    shared caches, per block, what scenarios of one group can reuse: the
    selected subsets and the full-response moments.
    """
    key = (scenario.sampling, scenario.n_selected)
    if key not in shared:
        if scenario.sampling == "extreme":
            idx = _extreme_indices(y, scenario.gamma, scenario.n_selected)
        else:
            idx = _random_indices(scenario, first, x.shape[0])
        shared[key] = (
            np.take_along_axis(x, idx, axis=1),
            np.take_along_axis(y, idx, axis=1),
        )
    x_sub, y_sub = shared[key]
    if scenario.estimator == "ols":
        fit = regress.fit_rows(x_sub, y_sub)
        half = t_quantile(1.0 - scenario.alpha_level / 2.0, fit.df) * (
            fit.se_slope
        )
        kept = ~fit.degenerate
        lo, hi = fit.slope - half, fit.slope + half
        return fit.slope[kept], lo[kept], hi[kept], fit.p_value[kept]
    if "moments" not in shared:
        shared["moments"] = odeb.response_moments(y)
    mean_y, var_y = shared["moments"]
    full = var_y > 0.0
    try:
        est = odeb.estimate_rows(
            y_sub[full],
            x_sub[full],
            mean_y[full],
            var_y[full],
            scenario.n_full,
            1.0 - scenario.alpha_level,
        )
    except InsufficientData:
        return (np.empty(0),) * 4
    kept = est.kept
    return (
        est.beta_y[kept], est.ci_low[kept], est.ci_high[kept], est.p_value[kept]
    )


def _metrics(scenario, blocks):
    est, lo, hi, p = (np.concatenate(part) for part in zip(*blocks))
    used = est.shape[0]
    if used == 0:
        nan = math.nan
        return SimMetrics(nan, nan, nan, nan, nan, nan, nan, 0)
    err = est - scenario.beta_y
    mean_est = float(np.mean(est))
    return SimMetrics(
        mean_estimate=mean_est,
        bias=mean_est - scenario.beta_y,
        rmse=float(np.sqrt(np.mean(err * err))),
        mae=float(np.median(np.abs(err))),
        rejection_rate=float(np.mean(p <= scenario.alpha_level)),
        ci_coverage=float(
            np.mean((lo <= scenario.beta_y) & (scenario.beta_y <= hi))
        ),
        mean_ci_length=float(np.mean(hi - lo)),
        replicates_used=used,
    )


# The fields a scenario may change without changing its data.
_ARM_FIELDS = ("sampling", "estimator", "gamma", "alpha_level")


def _data_key(scenario):
    return tuple(
        getattr(scenario, f.name)
        for f in dataclasses.fields(scenario)
        if f.name not in _ARM_FIELDS
    )


def _run_group(scenarios):
    """Run scenarios that share one _data_key on the same replicate blocks.

    Returns, per scenario, its SimMetrics or the EodsError that stopped
    it; one scenario's error leaves the others running.
    """
    outcomes = [None] * len(scenarios)
    blocks = {}
    for i, s in enumerate(scenarios):
        if s.n_selected < 3:
            outcomes[i] = DomainError(
                f"gamma {s.gamma!r} selects only {s.n_selected} "
                f"of {s.n_full} rows; need 3"
            )
        else:
            blocks[i] = []
    data = scenarios[0]
    if blocks:
        try:
            sampler = residual_sampler(
                data.residual_family, data.noise_variance, data.t_df
            )
        except EodsError as exc:
            outcomes = [exc if out is None else out for out in outcomes]
            blocks = {}
    rows = max(1, _BLOCK_ELEMENTS // data.n_full)
    for first in range(0, data.replicates, rows):
        if not blocks:
            break
        count = min(rows, data.replicates - first)
        x, y = _draw_block(data, sampler, first, count)
        shared = {}
        for i in list(blocks):
            try:
                blocks[i].append(_run_block(scenarios[i], x, y, first, shared))
            except EodsError as exc:
                outcomes[i] = exc
                del blocks[i]
    for i, parts in blocks.items():
        outcomes[i] = _metrics(scenarios[i], parts)
    return outcomes


def run_scenario(scenario):
    """Run all replicates of one scenario and aggregate the metrics.

    Replicates whose subset degenerates (for example zero biomarker
    variance) are dropped and excluded from replicates_used; the run
    itself never aborts on one bad replicate.
    """
    (outcome,) = _run_group([scenario])
    if isinstance(outcome, EodsError):
        raise outcome
    return outcome


def run_grid(scenarios, workers=1):
    """Run a list of scenarios, emitting one result row per input row.

    Row order follows input order. A failing scenario yields a row with
    its error message rather than aborting the grid. Scenarios that
    differ only in sampling, estimator, gamma or alpha_level form one
    group and share its data draws; workers > 1 fans groups out to
    processes, and the per-replicate seeding makes output identical for
    any worker count.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise DomainError("scenario grid is empty")
    if workers is None:
        workers = 1
    workers = int(workers)
    if workers < 1:
        raise DomainError("workers must be at least 1")
    members = {}
    for i, s in enumerate(scenarios):
        members.setdefault(_data_key(s), []).append(i)
    groups = [[scenarios[i] for i in m] for m in members.values()]
    if workers == 1 or len(groups) == 1:
        outcomes = [_run_group(g) for g in groups]
    else:
        workers = min(workers, len(groups))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_group, groups))
    results = [None] * len(scenarios)
    for indices, group_outcomes in zip(members.values(), outcomes):
        for i, out in zip(indices, group_outcomes):
            if isinstance(out, EodsError):
                results[i] = GridResult(scenarios[i], None, str(out))
            else:
                results[i] = GridResult(scenarios[i], out)
    return results
