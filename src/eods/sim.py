"""Monte Carlo engine for design comparisons.

Generates bivariate (x, y) data, applies extreme or random subset
selection, runs the OLS and reverse-regression estimator arms, and
aggregates bias / RMSE / MAE / rejection rate / CI coverage / CI length
over replicates.

Determinism contract: every replicate derives its own generator from
(seed, replicate_index, stream), so results are bit-identical for a
fixed seed no matter how work is scheduled across processes. Stream 0
drives x and the noise, stream 1 the random-sampling subset draw, and
y = alpha_y + beta_y * x + noise; scenarios differing only in sampling,
estimator, gamma, alpha_level, alpha_y or beta_y therefore see the same
x and noise replicate-for-replicate (paired comparison), and those that
also share the effect (alpha_y, beta_y) the same y.

The engine works on blocks of replicates, row r of a (rows, n_full)
array being one replicate; each row is still drawn from its own
generator, so blocking changes no value. The generators' Philox keys
are derived for a whole data group at once, with the SeedSequence hash
written over an array of replicate indices, and one generator is
re-keyed row by row for both streams. A block holds about
_BLOCK_ELEMENTS values whatever n_full is, which bounds memory.
run_grid groups the scenarios that share a residual law; for each
block of a group the loops nest effect (alpha_y, beta_y), subset
(sampling, n_selected) and scenario. x and the noise are drawn once per
block, random subsets once per block and n_selected, y and its moments
once per effect, and each subset once per effect. Each scenario's arm,
_arm, turns the batched fit of its subset into estimates, intervals and
rejections in one step, the same for either estimator; a replicate
whose subset degenerates is dropped from its own scenario only. A
replicate rejects the null when its |t| reaches the interval's
two-sided t point, so no p-value is computed; each group's metrics are
finished in the process that ran it.

Extreme sampling picks every replicate's tails with screen.extreme_rows,
the function behind screen.select_extremes, so a replicate's subset is
the one select_extremes picks from its y: at a cut between equal
responses the lower original index wins.
"""

import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import odeb, regress, screen
from ._util import MAX_N_FULL, check_alpha, check_gamma, selected_count
from ._util import whole_number
from .dist import t_quantile
from .errors import DomainError, EodsError

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
        self.n_full = whole_number("n_full", self.n_full, 5, MAX_N_FULL)
        self.replicates = whole_number("replicates", self.replicates, 1)
        self.seed = whole_number("seed", self.seed, 0)
        check_gamma(self.gamma)
        if not self.x_var > 0.0:
            raise DomainError("x_var must be positive")
        for name in ("alpha_y", "beta_y", "x_mean", "x_var"):
            _check_finite(name, getattr(self, name))
        check_alpha(self.alpha_level)
        if self.sampling not in ("extreme", "random"):
            raise DomainError(f"unknown sampling {self.sampling!r}")
        if self.estimator not in ("ols", "odeb"):
            raise DomainError(f"unknown estimator {self.estimator!r}")
        if self.seed > _SEED_MAX:
            raise DomainError("seed must fit in an unsigned 64-bit integer")

    @property
    def n_selected(self):
        return selected_count(self.gamma, self.n_full)


@dataclass
class SimMetrics:
    """Aggregates over the replicates that produced an estimate."""

    mean_estimate: float
    bias: float
    rmse: float
    mae: float  # median absolute error
    rejection_rate: float  # share with |t| at or past the two-sided t point
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

    For shifted_lognormal it records the log-scale variance and the mode
    shift that residual_sampler computes in closed form.
    """

    family: str
    noise_variance: float
    t_df: Optional[int] = None
    sigma2_star: Optional[float] = None
    mode_shift: Optional[float] = None

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


def _check_finite(name, value):
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _residual_family(family, noise_variance, t_df):
    """Checked (family, t_df) of a residual law; the one home of its rules.

    The scaled_t(df) spelling carries its own df, which t_df, if given,
    must repeat.
    """
    token = _SCALED_T_TOKEN.match(str(family))
    if token:
        df = int(token.group(1))
        if t_df is not None and whole_number("t_df", t_df, 3) != df:
            raise DomainError(
                f"residual_family {family!r} conflicts with t_df={t_df!r}"
            )
        family, t_df = "scaled_t", df
    if family not in _FAMILIES:
        raise DomainError(f"unknown residual_family {family!r}")
    if not noise_variance > 0.0:
        raise DomainError("noise_variance must be positive")
    _check_finite("noise_variance", noise_variance)
    if family != "scaled_t":
        if t_df is not None:
            raise DomainError(f"t_df only applies to scaled_t, not {family!r}")
        return family, None
    if t_df is None:
        raise DomainError("scaled_t needs degrees of freedom above 2")
    return family, whole_number("t_df", t_df, 3)


def residual_sampler(family, noise_variance, t_df=None):
    """Build the centered-noise sampler for a residual family.

    normal: N(0, v). scaled_t: sqrt(v) * T_df, taken literally, so the
    realized variance is v * df / (df - 2). shifted_lognormal: a
    log-normal with log-mean 0 whose log-scale variance s solves
    (e^s - 1) e^s = v, shifted by its mode e^{-s} so the mode sits at 0.
    That is a quadratic in e^s, whose root gives
    e^s - 1 = v / (1/2 + sqrt(v + 1/4)) without cancellation or overflow.
    """
    family, t_df = _residual_family(family, noise_variance, t_df)
    if family != "shifted_lognormal":
        return ResidualSampler(family, noise_variance, t_df)
    v = noise_variance
    sigma2 = math.log1p(v / (0.5 + math.sqrt(v + 0.25)))
    return ResidualSampler(
        family="shifted_lognormal",
        noise_variance=noise_variance,
        sigma2_star=sigma2,
        mode_shift=math.exp(-sigma2),
    )


# O'Neill's seed_seq constants, as NumPy's SeedSequence uses them.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _words32(value):
    """A nonnegative int as SeedSequence reads it: 32-bit words, low first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _philox_keys(seed, replicates, stream):
    """Keys of Philox(seed=[seed, r, stream]) for each r, as (len, 2) uint64.

    Philox keys itself with SeedSequence([seed, r, stream])
    .generate_state(2, uint64): O'Neill's seed_seq hash, which NumPy
    documents as stable. This is that hash in uint32 arithmetic over an
    array of r, which wraps as the C code does. seed takes one or two
    32-bit words and r and stream one each, so the entropy fits the pool
    of four words and no further mixing round applies.
    """
    r = np.asarray(replicates, dtype=np.int64)
    if r.size and not 0 <= r.min() <= r.max() <= _MASK32:
        raise DomainError("replicate indices must fit in 32 bits")
    entropy = [*_words32(seed), r, *_words32(stream)]
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else 0
        pool.append(hashmix(np.full(r.shape, word, dtype=np.uint32)))
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # generate_state(2, uint64): the same step on each pool word, with
    # its own constants; the words pair up low word first
    hash_const = _INIT_B
    state = [hashmix(word, _MULT_B).astype(np.uint64) for word in pool]
    low = state[0] | (state[1] << np.uint64(32))
    high = state[2] | (state[3] << np.uint64(32))
    return np.stack([low, high], axis=-1)


def _keyed_generator():
    """One Generator over one Philox, re-keyed per replicate by _rekey."""
    return np.random.Generator(np.random.Philox(0))


def _rekey(rng, key):
    """Reset rng to the state of Philox(key=key) as freshly seeded."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_block(scenario, sampler, rng, keys):
    """A block's stream-0 draws as (rows, n_full) x and eps, unchecked.

    keys is (rows, 2) uint64, each row's Philox key. A draw beyond
    double range shows as a non-finite value, which _responses rejects.
    """
    n = scenario.n_full
    x_sd = math.sqrt(scenario.x_var)
    x = np.empty((len(keys), n))
    eps = np.empty((len(keys), n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, key in enumerate(keys.tolist()):
            _rekey(rng, key)
            x[i] = rng.normal(scenario.x_mean, x_sd, n)
            eps[i] = sampler.draw(rng, n)
    return x, eps


def _responses(scenario, x, eps, first):
    """The block's y = alpha_y + beta_y * x + eps under scenario's effect.

    first is the replicate index of the block's first row. A y beyond
    double range raises DomainError; a non-finite x or eps makes y
    non-finite too, so this one check covers the draws as well.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = scenario.alpha_y + scenario.beta_y * x + eps
    finite = np.isfinite(y)
    if not finite.all():
        row = first + int(np.argmin(finite.all(axis=1)))
        raise DomainError(
            f"replicate {row} draws values beyond double range; the "
            "scenario's scales are too large"
        )
    return y


def generate_dataset(scenario, replicate_index):
    """One replicate's (x, y) sample, deterministic in (seed, index)."""
    sampler = residual_sampler(
        scenario.residual_family, scenario.noise_variance, scenario.t_df
    )
    keys = _philox_keys(scenario.seed, [replicate_index], 0)
    x, eps = _draw_block(scenario, sampler, _keyed_generator(), keys)
    return x[0], _responses(scenario, x, eps, replicate_index)[0]


def _beyond_range(replicate, what):
    """The DomainError for a replicate whose what is beyond double range."""
    return DomainError(
        f"replicate {replicate}: {what}; the scenario's scales are too large"
    )


def _arm(scenario, x_sub, y_sub, moments, first):
    """(estimate, ci_low, ci_high, rejected) of a block's kept replicates.

    x_sub and y_sub are the block's selected rows, first the replicate
    index of its first row and moments the block's full-response (mean,
    variance), which only the odeb arm reads. A response variance beyond
    double range, or a row whose first failed check is a DomainError,
    raises it; a row with any other failed check is dropped. A subset
    too small for the estimator raises InsufficientData. The two-sided t
    point is solved on the lower tail from alpha_level, so a tiny
    alpha_level keeps its digits. A row rejects the null when |t|
    reaches that point, which is p <= alpha_level for the slope test's
    two-sided p-value.
    """
    if scenario.estimator == "ols":
        rows = fit = regress.fit_rows(x_sub, y_sub)
        est, se, verdicts = fit.slope, fit.se_slope, regress.FIT_VERDICTS
    else:
        mean_y, var_y = moments
        finite = np.isfinite(var_y)
        if not finite.all():
            raise _beyond_range(
                first + int(np.argmin(finite)), odeb.RESPONSE_VARIANCE_OVERFLOW
            )
        rows = odeb.estimate_rows(y_sub, x_sub, mean_y, var_y, scenario.n_full)
        fit = rows.reverse_fit
        est, se, verdicts = rows.beta_y, rows.se_beta_y, odeb.DROP_VERDICTS
    # the first row whose verdict is a DomainError stops the scenario;
    # a row with any other nonzero verdict is dropped
    for row in np.flatnonzero(rows.verdict).tolist():
        error, text = verdicts[rows.verdict[row]]
        if error is DomainError:
            raise _beyond_range(first + row, text)
    kept = rows.verdict == 0
    est, se = est[kept], se[kept]
    t_point = -t_quantile(scenario.alpha_level / 2.0, scenario.n_selected - 2)
    # an interval beyond double range is infinite, which _metrics rejects
    with np.errstate(over="ignore"):
        half = t_point * se
        lo, hi = est - half, est + half
    return est, lo, hi, np.abs(fit.t_stat[kept]) >= t_point


def _median(values):
    """np.median of a 1-D array, bit for bit, as a float.

    np.median's NaN check imports numpy.ma, the one import simulate
    would make after start-up; its even case is np.mean of the two
    middle values, which is their sum halved.
    """
    ranked = np.sort(values)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return float(ranked[mid])
    return float((ranked[mid - 1] + ranked[mid]) / 2)


def _metrics(scenario, est, lo, hi, rejected):
    """The SimMetrics of a scenario's kept replicates.

    All NaN when no replicate was kept. A metric beyond double range,
    an RMSE whose squared errors overflow for one, raises DomainError.
    """
    used = est.shape[0]
    if used == 0:
        nan = math.nan
        return SimMetrics(nan, nan, nan, nan, nan, nan, nan, 0)
    # an overflow shows as a non-finite metric, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        err = est - scenario.beta_y
        mean_est = float(np.mean(est))
        metrics = SimMetrics(
            mean_estimate=mean_est,
            bias=mean_est - scenario.beta_y,
            rmse=float(np.sqrt(np.mean(err * err))),
            mae=_median(np.abs(err)),
            rejection_rate=float(np.mean(rejected)),
            ci_coverage=float(
                np.mean((lo <= scenario.beta_y) & (scenario.beta_y <= hi))
            ),
            mean_ci_length=float(np.mean(hi - lo)),
            replicates_used=used,
        )
    if not all(map(math.isfinite, dataclasses.astuple(metrics))):
        raise DomainError(
            "metrics beyond double range; the scenario's scales are too large"
        )
    return metrics


# The fields a scenario may change without changing its draws: the arm
# and the effect. Scenarios equal in every other field form one data
# group, one residual law's x and noise; y = alpha_y + beta_y * x + eps
# is formed from them once per effect.
_ARM_FIELDS = (
    "sampling", "estimator", "gamma", "alpha_level", "alpha_y", "beta_y"
)


def _data_key(scenario):
    return tuple(
        getattr(scenario, f.name)
        for f in dataclasses.fields(scenario)
        if f.name not in _ARM_FIELDS
    )


def _run_group(scenarios):
    """Run scenarios that share one _data_key on the same replicate blocks.

    Returns, per scenario, its SimMetrics, or the EodsError that
    stopped it; one scenario's error leaves the others running. The
    loops nest block, effect (alpha_y, beta_y), subset (sampling,
    n_selected) and scenario. A block's x and noise are drawn once and
    its random subsets once per n_selected; its y and response moments
    are formed once per effect, and each subset once per effect. A y
    beyond double range stops every scenario of that effect. Each
    stream's keys are derived once for the whole group, stream 1's only
    when a scenario samples at random, and one generator, re-keyed row
    by row, draws both streams.
    """
    outcomes = [None] * len(scenarios)
    parts = {}  # running scenario -> its blocks' _arm results
    effects = {}  # (alpha_y, beta_y) -> (sampling, n_selected) -> indices
    for i, s in enumerate(scenarios):
        try:
            subset = (s.sampling, selected_count(s.gamma, s.n_full))
        except DomainError as exc:
            outcomes[i] = exc
            continue
        parts[i] = []
        effect = effects.setdefault((s.alpha_y, s.beta_y), {})
        effect.setdefault(subset, []).append(i)
    data = scenarios[0]
    sampler = residual_sampler(
        data.residual_family, data.noise_variance, data.t_df
    )
    rng = _keyed_generator()
    replicates = np.arange(data.replicates)
    keys = _philox_keys(data.seed, replicates, 0)
    if any(scenarios[i].sampling == "random" for i in parts):
        random_keys = _philox_keys(data.seed, replicates, 1)
    n = data.n_full
    rows = max(1, _BLOCK_ELEMENTS // n)
    for first in range(0, data.replicates, rows):
        if not parts:
            break
        block = slice(first, first + rows)
        x, eps = _draw_block(data, sampler, rng, keys[block])
        picks = {}  # n_selected -> each row's sorted random subset, its x
        for k in {
            scenarios[i].n_selected
            for i in parts
            if scenarios[i].sampling == "random"
        }:
            idx = np.empty((len(x), k), dtype=np.intp)
            for r, key in enumerate(random_keys[block].tolist()):
                _rekey(rng, key)
                idx[r] = np.sort(rng.choice(n, size=k, replace=False))
            picks[k] = idx, np.take_along_axis(x, idx, axis=1)
        for effect in effects.values():
            running = [i for m in effect.values() for i in m if i in parts]
            if not running:
                continue
            try:
                y = _responses(scenarios[running[0]], x, eps, first)
            except DomainError as exc:
                for i in running:
                    outcomes[i] = exc
                    del parts[i]
                continue
            moments = None
            if any(scenarios[i].estimator == "odeb" for i in running):
                # an overflow shows as a non-finite variance, which the
                # odeb arm rejects
                with np.errstate(over="ignore", invalid="ignore"):
                    moments = odeb.response_moments(y)
            for (sampling, k), members in effect.items():
                members = [i for i in members if i in parts]
                if not members:
                    continue
                if sampling == "random":
                    idx, x_sub = picks[k]
                else:
                    idx = screen.extreme_rows(y, k)[0]
                    x_sub = np.take_along_axis(x, idx, axis=1)
                y_sub = np.take_along_axis(y, idx, axis=1)
                for i in members:
                    try:
                        parts[i].append(
                            _arm(scenarios[i], x_sub, y_sub, moments, first)
                        )
                    except EodsError as exc:
                        outcomes[i] = exc
                        del parts[i]
    for i, results in parts.items():
        try:
            outcomes[i] = _metrics(
                scenarios[i], *(np.concatenate(part) for part in zip(*results))
            )
        except DomainError as exc:
            outcomes[i] = exc
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
    differ only in sampling, estimator, gamma, alpha_level, alpha_y or
    beta_y form one group and share its x and noise draws; those that
    also share (alpha_y, beta_y) share y and its subsets. workers > 1
    fans groups out to processes, so a grid at one residual law and
    n_full runs in one process; the per-replicate seeding makes output
    identical for any worker count.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise DomainError("scenario grid is empty")
    workers = int(workers)
    if workers < 1:
        raise DomainError("workers must be at least 1")
    members = {}
    for i, s in enumerate(scenarios):
        members.setdefault(_data_key(s), []).append(i)
    groups = [[scenarios[i] for i in m] for m in members.values()]
    if workers == 1 or len(groups) == 1:
        group_outcomes = [_run_group(g) for g in groups]
    else:
        # imported here: the pool's modules cost start-up time and
        # memory that a single-process run would pay for nothing
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(groups))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            group_outcomes = list(pool.map(_run_group, groups))
    outcomes = [None] * len(scenarios)
    for indices, group in zip(members.values(), group_outcomes):
        for i, out in zip(indices, group):
            outcomes[i] = out
    return [
        GridResult(s, None, str(out)) if isinstance(out, EodsError)
        else GridResult(s, out)
        for s, out in zip(scenarios, outcomes)
    ]
