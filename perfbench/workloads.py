"""The benchmark's four workloads: generated inputs and CLI operations.

Each ``make_*`` function writes its inputs under ``workdir`` from the
seed alone and returns the list of operations of one round. An
operation is one ``eods`` CLI call (its argv), the files it writes and
a check that returns the problems found in its output (see oracle.py).
Sizes are keyword arguments so the checker tests can build small
instances; the benchmark always uses the defaults.
"""

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

@dataclass
class Op:
    name: str
    argv: list
    # check(stdout_text) -> list of problems; reads output files itself
    check: Callable
    outputs: list = field(default_factory=list)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _fmt(v):
    return "%.12g" % v


# -------------------------------------------------------------- simulate

SIM_BASE = {
    "gamma": 0.2,
    "alpha_y": 5.0,
    "noise_variance": 5.0,
    "x_mean": 0.0,
    "x_var": 5.0,
    "alpha_level": 0.05,
}


def make_simulate(seed, workdir, n_full=(200, 2000), replicates=100):
    """A grid with a small n_full (per-replicate overhead dominates) and a
    large one (draws and sorting dominate), both samplings, both
    estimators, three residual families, null and non-null slopes."""
    grid_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1, np.uint64)[0])
    axes = {
        "n_full": n_full,
        "beta_y": (0.0, 0.4),
        "residual_family": ("normal", "scaled_t(10)", "shifted_lognormal"),
        "sampling": ("extreme", "random"),
        "estimator": ("odeb", "ols"),
    }
    config = os.path.join(workdir, "grid.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        for key, values in axes.items():
            fh.write(f"{key} = {', '.join(map(str, values))}\n")
        fh.write(f"replicates = {replicates}\nseed = {grid_seed}\n")
        for key, value in SIM_BASE.items():
            fh.write(f"{key} = {value}\n")
    # the axes are listed in the CLI's expansion order, outermost first
    cells = []
    for values in itertools.product(*axes.values()):
        cell = dict(SIM_BASE, replicates=replicates, seed=grid_seed,
                    **dict(zip(axes, values)))
        family = cell["residual_family"]
        cell["t_df"] = int(family[9:-1]) if family.startswith("scaled_t(") else None
        cells.append(cell)
    out = os.path.join(workdir, "sim.csv")

    def check(stdout):
        with open(out, encoding="utf-8") as fh:
            return oracle.check_simulate(cells, fh.read())

    argv = ["simulate", "--config", config, "--out", out, "--workers", "1"]
    return [Op("simulate", argv, check, [out])]


# ---------------------------------------------------------------- screen


def _write_study(path, y, columns):
    """CSV with id, response and biomarker columns; NaN cells left empty."""
    names = list(columns)
    matrix = np.column_stack([columns[c] for c in names])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["id", "response"] + names) + "\n")
        for i, row in enumerate(matrix.tolist()):
            cells = [_fmt(v) if v == v else "" for v in row]  # NaN != NaN
            fh.write(f"s{i + 1},{_fmt(y[i])}," + ",".join(cells) + "\n")


def _extreme_rows(y, gamma):
    n = y.shape[0]
    k = oracle.round_half_up(gamma * n)
    order = np.argsort(y)
    return np.concatenate([order[: k // 2], order[n - (k - k // 2):]])


def make_screen(seed, workdir, n_rows=1000, n_biomarkers=2000, gamma=0.2,
                n_planted=5, n_constant=3, n_gappy=20):
    """A wide study: one shared tested-row mask (the two response tails),
    a few columns with extra missing cells, a few constant on the tested
    rows and a few with a planted effect."""
    rng = _rng(seed, 1)
    y = 10.0 + 3.0 * rng.standard_normal(n_rows)
    tested = _extreme_rows(y, gamma)
    z = (y[tested] - y[tested].mean()) / y[tested].std()
    ids = [f"bm{j:05d}" for j in range(n_biomarkers)]
    special = rng.permutation(n_biomarkers)
    planted = [ids[j] for j in special[:n_planted]]
    constant = [ids[j] for j in special[n_planted:n_planted + n_constant]]
    gappy = [ids[j] for j in special[n_planted + n_constant:
                                     n_planted + n_constant + n_gappy]]
    columns = {}
    for name in ids:
        col = np.full(n_rows, np.nan)
        if name in constant:
            col[tested] = float(rng.integers(1, 10))
        else:
            values = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), tested.size)
            if name in planted:
                values += 1.5 * z
            col[tested] = values
            if name in gappy:
                col[rng.choice(tested, size=5, replace=False)] = np.nan
        columns[name] = col
    study = os.path.join(workdir, "wide_study.csv")
    _write_study(study, y, columns)
    out = os.path.join(workdir, "screen.csv")
    confidence, bh_level = 0.95, 0.05

    def check(stdout):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        return oracle.check_screen(study, "response", text, confidence,
                                   bh_level, constant, planted)

    argv = ["screen", "--input", study, "--response", "response",
            "--bh-level", str(bh_level), "--out", out]
    return [Op("screen", argv, check, [out])]


# --------------------------------------------------------------- analyze


def make_analyze(seed, workdir, n_rows=20000, gamma=0.1):
    """A tall study with one biomarker tested on the two response tails."""
    rng = _rng(seed, 2)
    y = 50.0 + 8.0 * rng.standard_normal(n_rows)
    tested = _extreme_rows(y, gamma)
    bm = np.full(n_rows, np.nan)
    bm[tested] = 2.0 + 0.05 * y[tested] + rng.standard_normal(tested.size)
    study = os.path.join(workdir, "tall_study.csv")
    _write_study(study, y, {"bm": bm})
    base = ["--input", study, "--response", "response", "--biomarker", "bm"]
    a_prefix = os.path.join(workdir, "tall_analyze")
    c_prefix = os.path.join(workdir, "tall_check")
    qq = ("_qq_response.csv", "_qq_residuals.csv")

    def check_analyze(stdout):
        return oracle.check_analyze(study, "response", "bm", 0.95, a_prefix)

    def check_check(stdout):
        return oracle.check_check(study, "response", "bm", c_prefix, stdout)

    return [
        Op("analyze", ["analyze", *base, "--out", a_prefix], check_analyze,
           [a_prefix + s for s in ("_report.csv",) + qq]),
        Op("check", ["check", *base, "--out", c_prefix], check_check,
           [c_prefix + s for s in qq]),
    ]


# ------------------------------------------------------------------ plan

# Fixed queries: the linear min-gamma scan dominates and its cost is set
# by the answer, so the seed only orders the calls.
PLAN_QUERIES = (
    dict(kind="min_gamma", n_full=20000, effect_f=0.035, alpha=0.05, target_power=0.9),
    dict(kind="min_gamma", n_full=4000, effect_f=0.08, alpha=0.01, target_power=0.8),
    dict(kind="min_nfull", gamma=0.2, effect_f=0.1, alpha=5e-8, target_power=0.8),
    dict(kind="min_nfull", gamma=0.1, effect_rho=0.1, alpha=0.05, target_power=0.9),
    dict(kind="power", n_full=200, gamma=0.19, effect_f=0.3, alpha=0.05),
    dict(kind="power", n_full=100000, gamma=0.02, effect_f=0.05, alpha=5e-8),
)


def _plan_argv(query):
    argv = ["plan", "--alpha", repr(query["alpha"])]
    for key, flag in (("n_full", "--n-full"), ("gamma", "--gamma"),
                      ("target_power", "--target-power"),
                      ("effect_f", "--effect-f"), ("effect_rho", "--effect-rho")):
        if key in query:
            argv += [flag, repr(query[key])]
    return argv


def make_plan(seed, workdir, queries=PLAN_QUERIES):
    ops = []
    for i in _rng(seed, 3).permutation(len(queries)):
        query = dict(queries[i])
        argv = _plan_argv(query)
        if "effect_rho" in query:
            rho = query["effect_rho"]
            query["effect_f"] = float(np.sqrt(rho * rho / (1.0 - rho * rho)))

        def check(stdout, query=query):
            return oracle.check_plan(query, stdout)

        ops.append(Op(f"plan-{query['kind']}-{i}", argv, check))
    return ops


MAKERS = {
    "simulate": make_simulate,
    "screen": make_screen,
    "analyze": make_analyze,
    "plan": make_plan,
}
WORKLOADS = tuple(MAKERS)
