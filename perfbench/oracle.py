"""Output checks for the benchmark, computed apart from the eods package.

Every check recomputes what a CLI call should have written with NumPy
and SciPy alone (``scipy.stats.linregress`` fits, ``ncf`` power,
``norm.ppf`` quantiles, ``false_discovery_control`` q-values) and
returns a list of human-readable problems; an empty list means the
output passed. Nothing here imports ``eods``.
"""

import csv
import io
import math
import os

import numpy as np
from scipy import stats

# Relative tolerance for values the package and the oracle compute by
# different but exact routes (summation order, root finding to 1e-12).
REL_TOL = 1e-9
# Absolute tolerance for normal quantiles (package bisects to 1e-12).
QQ_ABS_TOL = 1e-9
# A simulation check reads a binomial count as wrong only when it is
# this improbable under the claimed rate, on either side.
WINDOW_TAIL = 1e-7
# Monte Carlo standard errors an unbiased estimator may stray from 0.
BIAS_MC_SE = 5.0


def close(got, want, rel=REL_TOL, abs_tol=0.0):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= max(rel * abs(want), abs_tol)


def read_csv_text(text):
    return list(csv.reader(io.StringIO(text)))


def parse_cell(token):
    token = token.strip()
    return math.nan if token in ("", "NA") else float(token)


def load_study(path, response, columns=None):
    """(y, {column: values with NaN where untested}) from a study CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    j = header.index(response)
    y = np.array([float(r[j]) for r in body])
    if columns is None:
        columns = [h for h in header if h not in (response, "id")]
    table = {}
    for name in columns:
        j = header.index(name)
        table[name] = np.array([parse_cell(r[j]) for r in body])
    return y, table


# ------------------------------------------------ reverse-regression fit


def reverse_estimate(y_full, x_tested, y_tested, confidence):
    """Forward-slope inference from the reverse fit of x on y.

    Returns a dict of the values the CLI reports, or None when the
    reverse fit is deterministic with zero slope (constant biomarker).
    """
    n_full = y_full.shape[0]
    k = y_tested.shape[0]
    mean_y = float(np.mean(y_full))
    var_y = float(np.var(y_full, ddof=1))
    if np.ptp(x_tested) == 0.0:
        return None
    fit = stats.linregress(y_tested, x_tested)
    bx, ax = fit.slope, fit.intercept
    resid = x_tested - (ax + bx * y_tested)
    s2 = float(np.sum(resid * resid)) / (k - 2)
    # joint-normal moments of (X, Y) recovered from the reverse fit
    var_x = s2 + bx * bx * var_y
    beta = bx * var_y / var_x
    alpha = mean_y - beta * (ax + bx * mean_y)
    sigma2 = var_y - beta * beta * var_x
    # delta method: gradient of beta in (bx, s2, var_y) against the
    # normal-theory variances of the three estimates
    grad = np.array([
        var_y * (s2 - bx * bx * var_y) / var_x**2,
        -bx * var_y / var_x**2,
        bx * s2 / var_x**2,
    ])
    var = np.array([
        fit.stderr**2,
        2.0 * s2 * s2 / (k - 2),
        2.0 * var_y * var_y / (n_full - 1),
    ])
    se = math.sqrt(float(np.sum(grad * grad * var)))
    t_mult = stats.t.ppf(1.0 - (1.0 - confidence) / 2.0, k - 2)
    return {
        "beta_y": beta,
        "alpha_y": alpha,
        "sigma2_eps_y": sigma2,
        "se_beta_y": se,
        "ci_low": beta - t_mult * se,
        "ci_high": beta + t_mult * se,
        "p_value": fit.pvalue,
        "residuals": resid,
    }


# ---------------------------------------------------------------- screen


def check_screen(study_path, response, out_text, confidence, bh_level,
                 constant_ids, planted_ids):
    problems = []
    y, table = load_study(study_path, response)
    rows = read_csv_text(out_text)
    header = ["biomarker", "Estimate", "Std. Error", "LCL", "UCL",
              "P-Value", "q_value", "rank", "error"]
    if not rows or rows[0] != header:
        return ["screen output header differs"]
    body = rows[1:]
    if sorted(r[0] for r in body) != sorted(table):
        return ["screen output does not list every biomarker once"]

    want = {}
    for name, values in table.items():
        tested = ~np.isnan(values)
        want[name] = reverse_estimate(y, values[tested], y[tested], confidence)
    ok_names = [n for n in table if want[n] is not None]
    q_want = stats.false_discovery_control(
        [want[n]["p_value"] for n in ok_names], method="bh"
    )
    for name, q in zip(ok_names, q_want):
        want[name]["q_value"] = float(q)

    for row in body:
        name = row[0]
        w = want[name]
        if w is None:
            if not row[8] or any(v != "NA" for v in row[1:7]):
                problems.append(f"{name}: degenerate column not flagged")
            continue
        if row[8]:
            problems.append(f"{name}: unexpected error {row[8]!r}")
            continue
        for col, key in ((1, "beta_y"), (2, "se_beta_y"), (3, "ci_low"),
                         (4, "ci_high"), (5, "p_value"), (6, "q_value")):
            got = float(row[col])
            if not close(got, w[key]):
                problems.append(
                    f"{name}: {header[col]} {got!r}, oracle {w[key]!r}"
                )

    # order: ascending p-value, then id; failed rows last; ranks 1..m
    def key(row):
        failed = row[8] != ""
        return (failed, 0.0 if failed else float(row[5]), row[0])

    if body != sorted(body, key=key):
        problems.append("rows are not sorted by p-value, then id")
    if [r[7] for r in body] != [str(i) for i in range(1, len(body) + 1)]:
        problems.append("ranks are not 1..m in row order")
    q_sorted = [float(r[6]) for r in body if not r[8]]
    if any(b < a for a, b in zip(q_sorted, q_sorted[1:])):
        problems.append("q-values are not in step-up (nondecreasing) order")
    flagged = {r[0] for r in body if r[8]}
    if not set(constant_ids) <= flagged:
        problems.append("a constant column is not flagged")
    found = {r[0] for r in body if not r[8] and float(r[6]) <= bh_level}
    if not set(planted_ids) <= found:
        problems.append("a planted signal is not discovered")
    return problems


# ---------------------------------------------------- analyze and check


def check_qq(path, observed):
    """QQ series: norm.ppf((i - 0.5)/n) beside the sorted observations."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    path = os.path.basename(path)
    if rows[0] != ["theoretical_quantile", "observed_value"]:
        return [f"{path}: header differs"]
    got = np.array([[float(a), float(b)] for a, b in rows[1:]])
    ordered = np.sort(observed)
    n = ordered.shape[0]
    if got.shape != (n, 2):
        return [f"{path}: {got.shape[0]} points, expected {n}"]
    theory = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    problems = []
    bad = np.abs(got[:, 0] - theory) > QQ_ABS_TOL
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(
            f"{path}: theoretical quantile {i + 1} is {float(got[i, 0])!r}, "
            f"oracle {float(theory[i])!r}"
        )
    scale = float(np.max(np.abs(ordered)))
    bad = np.abs(got[:, 1] - ordered) > REL_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(
            f"{path}: observed value {i + 1} is {float(got[i, 1])!r}, "
            f"oracle {float(ordered[i])!r}"
        )
    return problems


def _tested(study_path, response, biomarker):
    y, table = load_study(study_path, response, [biomarker])
    x = table[biomarker]
    tested = ~np.isnan(x)
    return y, x[tested], y[tested]


def check_analyze(study_path, response, biomarker, confidence, prefix):
    y, x_t, y_t = _tested(study_path, response, biomarker)
    w = reverse_estimate(y, x_t, y_t, confidence)
    with open(f"{prefix}_report.csv", newline="", encoding="utf-8") as fh:
        report = dict(list(csv.reader(fh))[1:])
    problems = []
    exact = {
        "biomarker": biomarker,
        "n_full": str(y.shape[0]),
        "n_selected": str(y_t.shape[0]),
        "qq_response": f"{prefix}_qq_response.csv",
        "qq_residuals": f"{prefix}_qq_residuals.csv",
    }
    for key, value in exact.items():
        if report.get(key) != value:
            problems.append(f"report {key} {report.get(key)!r}, want {value!r}")
    numeric = {
        "gamma_effective": y_t.shape[0] / y.shape[0],
        "confidence_level": confidence,
    }
    for key in ("beta_y", "se_beta_y", "ci_low", "ci_high", "p_value",
                "alpha_y", "sigma2_eps_y"):
        numeric[key] = w[key]
    for key, value in numeric.items():
        if key not in report or not close(float(report[key]), value):
            problems.append(
                f"report {key} {report.get(key)!r}, oracle {value!r}"
            )
    problems += check_qq(f"{prefix}_qq_response.csv", y)
    problems += check_qq(f"{prefix}_qq_residuals.csv", w["residuals"])
    return problems


def check_check(study_path, response, biomarker, prefix, stdout):
    y, x_t, y_t = _tested(study_path, response, biomarker)
    w = reverse_estimate(y, x_t, y_t, 0.95)
    moments = {}
    for line in stdout.splitlines():
        for part in line.split(", "):
            key, _, value = part.partition(" ")
            if key.endswith(("_skewness", "_kurtosis")):
                moments[key] = float(value)
    problems = []
    for label, series, flag in (
        ("response", y, "flag: response skewness"),
        ("residual", w["residuals"], "flag: reverse-fit residual skewness"),
    ):
        skew = float(stats.skew(series))
        kurt = float(stats.kurtosis(series))
        for key, value in ((f"{label}_skewness", skew),
                           (f"{label}_excess_kurtosis", kurt)):
            got = moments.get(key)
            if got is None or not close(got, value, abs_tol=1e-12):
                problems.append(f"check {key} {got!r}, oracle {value!r}")
        if (flag in stdout) != (abs(skew) > 0.5):
            problems.append(f"check {label} skewness flag is wrong")
    problems += check_qq(f"{prefix}_qq_response.csv", y)
    problems += check_qq(f"{prefix}_qq_residuals.csv", w["residuals"])
    return problems


# ------------------------------------------------------------------ plan


def power_eods(n_full, gamma, effect_f, alpha):
    """Extreme-design power from SciPy alone.

    The design selects round(gamma * n_full) subjects; the variance
    inflation and the noncentrality use the design's gamma itself.
    """
    z = stats.norm.isf(gamma / 2.0)
    vif = (2.0 * z * stats.norm.pdf(z) + gamma) / gamma
    ncp = n_full * effect_f**2 * gamma * vif
    df2 = round_half_up(gamma * n_full) - 2
    return float(stats.ncf.sf(stats.f.isf(alpha, 1, df2), 1, df2, ncp))


def round_half_up(x):
    return int(math.floor(x + 0.5))


def plan_answer(stdout):
    """{n_full, gamma, n_selected, power} as printed by ``eods plan``."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("n_full ") and "," not in line:
            out["n_full"] = int(line.split()[1])
        elif line.startswith("gamma ") and "," not in line:
            out["gamma"] = float(line.split()[1])
        elif line.startswith("select "):
            out["n_selected"] = int(line.split()[1].rstrip(","))
            out["power"] = line.rsplit("power ", 1)[1]
    return out


def check_plan(query, stdout):
    """query: dict with kind, effect_f, alpha and the given design values."""
    ans = plan_answer(stdout)
    if "power" not in ans:
        return ["plan output has no power line"]
    f, alpha = query["effect_f"], query["alpha"]
    problems = []
    if query["kind"] == "min_gamma":
        n = query["n_full"]
        k = ans["n_selected"]
        if k % 2 or ans.get("gamma") != k / n:
            problems.append(f"min-gamma answer {k} / gamma {ans.get('gamma')!r}")
        power = power_eods(n, k / n, f, alpha)
        if power < query["target_power"]:
            problems.append(f"{k} selected misses the target: {power!r}")
        if k - 2 >= 4 and power_eods(n, (k - 2) / n, f, alpha) >= query["target_power"]:
            problems.append(f"{k - 2} selected already meets the target")
    elif query["kind"] == "min_nfull":
        g = query["gamma"]
        n = ans.get("n_full", 0)
        k = round_half_up(g * n)
        if ans["n_selected"] != k:
            problems.append(f"min-n_full selects {ans['n_selected']}, want {k}")
        power = power_eods(n, g, f, alpha)
        if power < query["target_power"]:
            problems.append(f"n_full {n} misses the target: {power!r}")
        if (round_half_up(g * (n - 1)) >= 3 and n - 1 >= 5
                and power_eods(n - 1, g, f, alpha) >= query["target_power"]):
            problems.append(f"n_full {n - 1} already meets the target")
    else:
        n = query["n_full"]
        k = round_half_up(query["gamma"] * n)
        if ans["n_selected"] != k:
            problems.append(f"power query selects {ans['n_selected']}, want {k}")
        power = power_eods(n, query["gamma"], f, alpha)
    if abs(float(ans["power"]) - power) > 0.5e-4 + 1e-12:
        problems.append(f"printed power {ans['power']}, oracle {power!r}")
    return problems


# -------------------------------------------------------------- simulate


def _lognormal_sigma2(variance):
    # (e^s - 1) e^s = v is a quadratic in u = e^s
    return math.log((1.0 + math.sqrt(1.0 + 4.0 * variance)) / 2.0)


def replicate_data(cell, rep):
    """(x, y) of one replicate under the per-replicate Philox contract."""
    rng = np.random.Generator(np.random.Philox(seed=[cell["seed"], rep, 0]))
    n = cell["n_full"]
    x = rng.normal(cell["x_mean"], math.sqrt(cell["x_var"]), n)
    v = cell["noise_variance"]
    family = cell["residual_family"]
    if family == "normal":
        eps = rng.normal(0.0, math.sqrt(v), n)
    elif family.startswith("scaled_t"):
        eps = math.sqrt(v) * rng.standard_t(cell["t_df"], n)
    else:
        s2 = _lognormal_sigma2(v)
        eps = rng.lognormal(0.0, math.sqrt(s2), n) - math.exp(-s2)
    return x, cell["alpha_y"] + cell["beta_y"] * x + eps


def _selected(cell, y, rep):
    n = cell["n_full"]
    k = round_half_up(cell["gamma"] * n)
    if cell["sampling"] == "extreme":
        order = np.argsort(y, kind="stable")
        return np.sort(np.concatenate([order[: k // 2], order[n - (k - k // 2):]]))
    rng = np.random.Generator(np.random.Philox(seed=[cell["seed"], rep, 1]))
    return np.sort(rng.choice(n, size=k, replace=False))


def simulate_cell(cell):
    """Per-replicate (estimate, ci_low, ci_high, p_value) arrays of a cell."""
    level = cell["alpha_level"]
    out = []
    for rep in range(cell["replicates"]):
        x, y = replicate_data(cell, rep)
        idx = _selected(cell, y, rep)
        if cell["estimator"] == "ols":
            fit = stats.linregress(x[idx], y[idx])
            half = stats.t.ppf(1.0 - level / 2.0, idx.size - 2) * fit.stderr
            out.append((fit.slope, fit.slope - half, fit.slope + half, fit.pvalue))
        else:
            w = reverse_estimate(y, x[idx], y[idx], 1.0 - level)
            out.append((w["beta_y"], w["ci_low"], w["ci_high"], w["p_value"]))
    return np.array(out)


def binomial_window(trials, rate):
    lo = float(stats.binom.ppf(WINDOW_TAIL, trials, rate))
    hi = float(stats.binom.isf(WINDOW_TAIL, trials, rate))
    return lo / trials, hi / trials


def _cell_name(cell):
    return (f"cell n_full={cell['n_full']} beta_y={cell['beta_y']} "
            f"{cell['residual_family']} {cell['sampling']} {cell['estimator']}")


def check_simulate_row(cell, row):
    """Compare one CLI metrics row with a full recomputation of its cell."""
    name = _cell_name(cell)
    if row["error"]:
        return [f"{name}: error {row['error']!r}"]
    est, lo, hi, p = simulate_cell(cell).T
    err = est - cell["beta_y"]
    rmse = float(np.sqrt(np.mean(err * err)))
    want = {
        "mean_estimate": float(np.mean(est)),
        "bias": float(np.mean(est)) - cell["beta_y"],
        "rmse": rmse,
        "mae": float(np.median(np.abs(err))),
        "mean_ci_length": float(np.mean(hi - lo)),
    }
    exact = {
        "rejection_rate": float(np.mean(p <= cell["alpha_level"])),
        "ci_coverage": float(np.mean((lo <= cell["beta_y"]) & (cell["beta_y"] <= hi))),
    }
    problems = []
    for key, value in want.items():
        got = float(row[key])
        # estimates near 0 are compared on the scale of their spread
        if not close(got, value, abs_tol=REL_TOL * rmse):
            problems.append(f"{name}: {key} {got!r}, oracle {value!r}")
    for key, value in exact.items():
        if float(row[key]) != value:
            problems.append(f"{name}: {key} {row[key]}, oracle {value!r}")
    problems += check_simulate_properties(cell, row)
    return problems


def check_simulate_properties(cell, row):
    """Properties the method must have, apart from any recomputation."""
    name = _cell_name(cell)
    r = cell["replicates"]
    level = cell["alpha_level"]
    problems = []
    if int(row["replicates_used"]) != r:
        problems.append(f"{name}: replicates_used {row['replicates_used']}")
    if cell["residual_family"] != "normal":
        return problems
    null = cell["beta_y"] == 0.0
    if null:
        lo, hi = binomial_window(r, level)
        rate = float(row["rejection_rate"])
        if not lo <= rate <= hi:
            problems.append(f"{name}: rejection_rate {rate} outside [{lo}, {hi}]")
    # naive forward OLS on an extreme subset is biased away from a
    # nonzero slope, so its interval is not expected to cover
    if null or not (cell["sampling"] == "extreme" and cell["estimator"] == "ols"):
        lo, hi = binomial_window(r, 1.0 - level)
        cov = float(row["ci_coverage"])
        if not lo <= cov <= hi:
            problems.append(f"{name}: ci_coverage {cov} outside [{lo}, {hi}]")
    if cell["estimator"] == "odeb":
        bias = float(row["bias"])
        sd = math.sqrt(max(float(row["rmse"]) ** 2 - bias * bias, 0.0))
        if abs(bias) > BIAS_MC_SE * sd / math.sqrt(r):
            problems.append(f"{name}: bias {bias} beyond {BIAS_MC_SE} MC SE")
    return problems


def check_simulate(cells, out_text):
    rows = read_csv_text(out_text)
    header, body = rows[0], rows[1:]
    if len(body) != len(cells):
        return [f"simulate wrote {len(body)} rows for {len(cells)} cells"]
    problems = []
    for cell, values in zip(cells, body):
        row = dict(zip(header, values))
        key = (int(row["n_full"]), float(row["beta_y"]), row["sampling"],
               row["estimator"], row["residual_family"])
        want = (cell["n_full"], cell["beta_y"], cell["sampling"],
                cell["estimator"], cell["residual_family"].split("(")[0])
        if key != want:
            problems.append(f"row {key} is out of grid order, expected {want}")
            continue
        problems += check_simulate_row(cell, row)
    return problems
