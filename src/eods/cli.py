"""Command line interface: analyze, plan, screen, simulate, check.

File conventions: input CSVs are comma-separated UTF-8 with a header
row; missing values are empty fields or "NA". Numeric output uses
shortest round-trip formatting (up to 17 significant digits) so that
written values parse back bit-identically and golden files stay stable.

Grid config files are line-oriented `key = v1, v2, ...` pairs with '#'
comments. List values are allowed for n_full, beta_y, gamma,
residual_family, sampling and estimator; the grid is their cross
product, expanded with n_full outermost and estimator innermost. All
other keys take a single value. A t_df value applies only to cells
whose residual_family is the plain token "scaled_t"; parenthesized
tokens such as scaled_t(10) carry their own degrees of freedom.
"""

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from . import design, odeb, screen, sim
from ._util import round_half_away_from_zero
from .errors import (
    ConfigError,
    DomainError,
    EodsError,
    FileError,
    SchemaError,
)

_MISSING_TOKENS = ("", "NA")


def _fmt(value):
    """One CSV cell: round-trip floats, NA for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        return repr(value)
    return str(value)


# ---------------------------------------------------------------- input


def _read_rows(path):
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, a header row is required")
        rows = list(reader)
    if len(set(header)) != len(header):
        dup = sorted({h for h in header if header.count(h) > 1})
        raise SchemaError(f"{path}: duplicate column name {dup[0]!r}")
    return header, rows


def _parse_cell(text, line_no, column):
    """One numeric cell: NaN when missing, SchemaError when not finite."""
    token = text.strip()
    if token in _MISSING_TOKENS:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        raise SchemaError(
            f"line {line_no}, column {column!r}: cannot parse {text!r} "
            "as a number"
        )
    if not math.isfinite(value):
        raise SchemaError(
            f"line {line_no}, column {column!r}: {text!r} is not a finite "
            "number"
        )
    return value


def _load_study(path, response_column, biomarker_columns=None, log10=False):
    """Responses plus biomarker columns, from one read of the file.

    Returns (responses, biomarkers): float64 arrays, biomarkers mapping
    column name to its values with NaN on rows where that biomarker was
    not tested. biomarker_columns None means every column except the
    response and 'id'. log10 transforms each biomarker's tested values.
    """
    header, raw = _read_rows(path)
    if biomarker_columns is None:
        biomarker_columns = [
            h for h in header if h not in (response_column, "id")
        ]
        if not biomarker_columns:
            raise SchemaError(f"{path}: no biomarker columns found")
    names = list(dict.fromkeys(biomarker_columns))
    for name in [response_column, *names]:
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r}")
    if not raw:
        raise SchemaError(f"{path}: no data rows")
    y_col = header.index(response_column)
    cols = [(header.index(name), name) for name in names]
    responses = np.empty(len(raw))
    values = np.empty((len(names), len(raw)))
    for i, row in enumerate(raw):
        line_no = i + 2  # header is line 1
        if len(row) != len(header):
            raise SchemaError(
                f"line {line_no}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        y = _parse_cell(row[y_col], line_no, response_column)
        if math.isnan(y):
            raise SchemaError(
                f"line {line_no}: missing response in column "
                f"{response_column!r}"
            )
        responses[i] = y
        values[:, i] = [_parse_cell(row[j], line_no, name) for j, name in cols]
    biomarkers = dict(zip(names, values))
    if log10:
        for name, column in biomarkers.items():
            _log10_in_place(column, name)
    return responses, biomarkers


def _log10_in_place(column, biomarker_id):
    tested = np.flatnonzero(~np.isnan(column))
    bad = tested[~(column[tested] > 0.0)]
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"line {i + 2}, biomarker {biomarker_id!r}: log10 "
            f"transform needs positive values, got {float(column[i])!r}"
        )
    # math.log10 per value: np.log10 is not guaranteed to round the same
    column[tested] = [math.log10(v) for v in column[tested].tolist()]


def _warn_if_not_extreme(responses, biomarker, label):
    """The design needs the tested rows to be the response extremes."""
    tested = ~np.isnan(biomarker)
    untested = responses[~tested]
    if not untested.size:
        return
    y = responses[tested]
    inside = np.count_nonzero((untested.min() < y) & (y < untested.max()))
    if inside:
        print(
            f"warning: {inside} tested row(s) for {label} lie strictly "
            "inside the untested response range; the subset does not "
            "look extreme",
            file=sys.stderr,
        )


def _write_qq(path, series):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theoretical_quantile", "observed_value"])
        for tq, ov in series:
            writer.writerow([_fmt(float(tq)), _fmt(float(ov))])


# ------------------------------------------------------------- analyze


def cmd_analyze(args):
    responses, biomarkers = _load_study(
        args.input, args.response, [args.biomarker], args.log10
    )
    values = biomarkers[args.biomarker]
    full = odeb.FullResponseSummary.from_responses(responses)
    subset = odeb.SelectedSubset.from_tested(responses, values)
    est = odeb.estimate(subset, full, args.confidence)
    _warn_if_not_extreme(responses, values, f"biomarker {args.biomarker!r}")
    n_full = full.n_full
    n_selected = subset.n_selected
    gamma_effective = subset.gamma

    print(
        f"n_full {n_full}, n_selected {n_selected}, "
        f"gamma_effective {_fmt(gamma_effective)}"
    )
    print(f"beta_y {_fmt(est.beta_y)}")
    print(f"se_beta_y {_fmt(est.se_beta_y)}")
    print(
        f"ci_low {_fmt(est.ci_low)}, ci_high {_fmt(est.ci_high)} "
        f"(confidence {_fmt(args.confidence)})"
    )
    print(f"p_value {_fmt(est.p_value)}")
    print(f"alpha_y {_fmt(est.alpha_y)} (point estimate only)")
    print(f"sigma2_eps_y {_fmt(est.sigma2_eps_y)}")

    if args.out:
        report_path = f"{args.out}_report.csv"
        qq_response = f"{args.out}_qq_response.csv"
        qq_residuals = f"{args.out}_qq_residuals.csv"
        diag = odeb.check_model(subset, responses)
        _write_qq(qq_response, diag.response_qq)
        _write_qq(qq_residuals, diag.residual_qq)
        with open(report_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["key", "value"])
            for key, value in (
                ("biomarker", args.biomarker),
                ("n_full", n_full),
                ("n_selected", n_selected),
                ("gamma_effective", gamma_effective),
                ("confidence_level", float(args.confidence)),
                ("beta_y", est.beta_y),
                ("se_beta_y", est.se_beta_y),
                ("ci_low", est.ci_low),
                ("ci_high", est.ci_high),
                ("p_value", est.p_value),
                ("alpha_y", est.alpha_y),
                ("sigma2_eps_y", est.sigma2_eps_y),
                ("qq_response", qq_response),
                ("qq_residuals", qq_residuals),
            ):
                writer.writerow([key, _fmt(value)])
        print(f"report written to {report_path}")
    return 0


# ---------------------------------------------------------------- plan


def _select_phrase(n_selected):
    low = n_selected // 2
    high = n_selected - low
    if low == high:
        return f"select {n_selected} ({low} per tail)"
    return f"select {n_selected} ({low} low, {high} high)"


def _resolve_effect(args):
    if (args.effect_f is None) == (args.effect_rho is None):
        raise DomainError("provide exactly one of --effect-f, --effect-rho")
    if args.effect_f is not None:
        return args.effect_f
    return math.sqrt(design.cohen_f2(args.effect_rho))


def cmd_plan(args):
    given = [
        args.n_full is not None,
        args.gamma is not None,
        args.target_power is not None,
    ]
    if sum(given) != 2:
        raise DomainError(
            "provide exactly two of --n-full, --gamma, --target-power"
        )
    effect_f = _resolve_effect(args)
    alpha = args.alpha

    if args.n_full is not None and args.gamma is not None:
        result = design.power_eods(
            design.DesignSpec(args.n_full, args.gamma, effect_f, alpha)
        )
        n_selected = round_half_away_from_zero(args.gamma * args.n_full)
        print(
            f"n_full {args.n_full}, gamma {_fmt(args.gamma)}, "
            f"effect_f {_fmt(effect_f)}, alpha {_fmt(alpha)}"
        )
        print(f"{_select_phrase(n_selected)}, power {result.power:.4f}")
    elif args.n_full is not None:
        gamma, n_selected, power = design.min_gamma_for_power(
            args.n_full, effect_f, alpha, args.target_power
        )
        print(
            f"n_full {args.n_full}, effect_f {_fmt(effect_f)}, "
            f"alpha {_fmt(alpha)}, target_power {_fmt(args.target_power)}"
        )
        print(f"gamma {_fmt(gamma)}")
        print(f"{_select_phrase(n_selected)}, power {power:.4f}")
    else:
        n_full = design.min_nfull_for_power(
            args.gamma, effect_f, alpha, args.target_power
        )
        result = design.power_eods(
            design.DesignSpec(n_full, args.gamma, effect_f, alpha)
        )
        n_selected = round_half_away_from_zero(args.gamma * n_full)
        print(
            f"gamma {_fmt(args.gamma)}, effect_f {_fmt(effect_f)}, "
            f"alpha {_fmt(alpha)}, target_power {_fmt(args.target_power)}"
        )
        print(f"n_full {n_full}")
        print(f"{_select_phrase(n_selected)}, power {result.power:.4f}")
    return 0


# -------------------------------------------------------------- screen


_SCREEN_HEADER = [
    "biomarker",
    "Estimate",
    "Std. Error",
    "LCL",
    "UCL",
    "P-Value",
    "q_value",
    "rank",
    "error",
]


def cmd_screen(args):
    responses, biomarkers = _load_study(
        args.input, args.response, _screen_columns(args), args.log10
    )
    table = screen.screen_biomarkers(responses, biomarkers, args.confidence)
    failed = {row.biomarker_id for row in table if row.error is not None}
    for biomarker_id, values in biomarkers.items():
        if biomarker_id not in failed:
            _warn_if_not_extreme(
                responses, values, f"biomarker {biomarker_id!r}"
            )

    csv_rows = [_SCREEN_HEADER] + [
        [
            row.biomarker_id,
            _fmt(row.estimate),
            _fmt(row.se),
            _fmt(row.ci_low),
            _fmt(row.ci_high),
            _fmt(row.p_value),
            _fmt(row.q_value),
            str(row.rank),
            row.error or "",
        ]
        for row in table
    ]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(csv_rows)
        discoveries = sum(
            1
            for row in table
            if row.error is None and row.q_value <= args.bh_level
        )
        print(
            f"{len(table)} biomarkers screened; {discoveries} with "
            f"q-value <= {_fmt(args.bh_level)}"
        )
        print(f"table written to {args.out}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(csv_rows)
    return 0


def _screen_columns(args):
    """The --biomarkers list, or None for the loader's default set."""
    if not args.biomarkers:
        return None
    names = [name.strip() for name in args.biomarkers.split(",")]
    if not all(names):
        raise DomainError("--biomarkers contains an empty column name")
    return names


# ------------------------------------------------------------ simulate


_GRID_LIST_KEYS = {
    "n_full": int,
    "beta_y": float,
    "gamma": float,
    "residual_family": str,
    "sampling": str,
    "estimator": str,
}
_GRID_SCALAR_KEYS = {
    "replicates": int,
    "seed": int,
    "alpha_y": float,
    "noise_variance": float,
    "x_mean": float,
    "x_var": float,
    "alpha_level": float,
    "t_df": int,
}
_GRID_REQUIRED = (
    "n_full",
    "beta_y",
    "gamma",
    "sampling",
    "estimator",
    "replicates",
    "seed",
)


def _parse_grid_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None

    lists = {}
    scalars = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path} line {line_no}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, rest = line.partition("=")
        key = key.strip()
        tokens = [tok.strip() for tok in rest.split(",")]
        if key in lists or key in scalars:
            raise ConfigError(f"{path} line {line_no}: duplicate key {key!r}")
        if any(not tok for tok in tokens):
            raise ConfigError(
                f"{path} line {line_no}: empty value for key {key!r}"
            )
        if key in _GRID_LIST_KEYS:
            cast = _GRID_LIST_KEYS[key]
            try:
                lists[key] = [cast(tok) for tok in tokens]
            except ValueError:
                raise ConfigError(
                    f"{path} line {line_no}: cannot parse value for {key!r}"
                )
        elif key in _GRID_SCALAR_KEYS:
            if len(tokens) != 1:
                raise ConfigError(
                    f"{path} line {line_no}: {key!r} expects a single value"
                )
            try:
                scalars[key] = _GRID_SCALAR_KEYS[key](tokens[0])
            except ValueError:
                raise ConfigError(
                    f"{path} line {line_no}: cannot parse value for {key!r}"
                )
        else:
            raise ConfigError(
                f"{path} line {line_no}: unknown key {key!r}"
            )

    provided = set(lists) | set(scalars)
    missing = [key for key in _GRID_REQUIRED if key not in provided]
    if missing:
        raise ConfigError(f"{path}: missing required key {missing[0]!r}")
    families = lists.get("residual_family", ["normal"])
    t_df = scalars.get("t_df")

    # expansion order: n_full, beta_y, gamma, residual_family, sampling,
    # estimator (outermost to innermost)
    scenarios = []
    for n_full in lists["n_full"]:
        for beta_y in lists["beta_y"]:
            for gamma in lists["gamma"]:
                for family in families:
                    for sampling in lists["sampling"]:
                        for estimator in lists["estimator"]:
                            kwargs = {
                                "n_full": n_full,
                                "beta_y": beta_y,
                                "gamma": gamma,
                                "residual_family": family,
                                "sampling": sampling,
                                "estimator": estimator,
                                "replicates": scalars["replicates"],
                                "seed": scalars["seed"],
                            }
                            if (
                                family.startswith("scaled_t")
                                and t_df is not None
                            ):
                                # a token like scaled_t(10) carries its
                                # own df; disagreement with t_df is an
                                # ambiguity the scenario check rejects
                                kwargs["t_df"] = t_df
                            for opt in (
                                "alpha_y",
                                "noise_variance",
                                "x_mean",
                                "x_var",
                                "alpha_level",
                            ):
                                if opt in scalars:
                                    kwargs[opt] = scalars[opt]
                            try:
                                scenarios.append(sim.SimScenario(**kwargs))
                            except DomainError as exc:
                                raise ConfigError(
                                    f"{path}: cell (n_full={n_full}, "
                                    f"beta_y={beta_y}, gamma={gamma}, "
                                    f"family={family}, sampling={sampling}, "
                                    f"estimator={estimator}): {exc}"
                                )
    return scenarios


_SIM_CSV_HEADER = [
    "n_full",
    "beta_y",
    "gamma",
    "sampling",
    "estimator",
    "residual_family",
    "t_df",
    "alpha_y",
    "noise_variance",
    "x_mean",
    "x_var",
    "alpha_level",
    "replicates",
    "seed",
    "mean_estimate",
    "bias",
    "rmse",
    "mae",
    "rejection_rate",
    "ci_coverage",
    "mean_ci_length",
    "replicates_used",
    "error",
]


def cmd_simulate(args):
    scenarios = _parse_grid_config(args.config)
    if args.seed is not None:
        scenarios = [
            dataclasses.replace(s, seed=args.seed) for s in scenarios
        ]
    results = sim.run_grid(scenarios, workers=args.workers)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SIM_CSV_HEADER)
        for row in results:
            s = row.scenario
            m = row.metrics
            writer.writerow(
                [
                    str(s.n_full),
                    _fmt(float(s.beta_y)),
                    _fmt(float(s.gamma)),
                    s.sampling,
                    s.estimator,
                    s.residual_family,
                    "" if s.t_df is None else str(s.t_df),
                    _fmt(float(s.alpha_y)),
                    _fmt(float(s.noise_variance)),
                    _fmt(float(s.x_mean)),
                    _fmt(float(s.x_var)),
                    _fmt(float(s.alpha_level)),
                    str(s.replicates),
                    str(s.seed),
                    "" if m is None else _fmt(m.mean_estimate),
                    "" if m is None else _fmt(m.bias),
                    "" if m is None else _fmt(m.rmse),
                    "" if m is None else _fmt(m.mae),
                    "" if m is None else _fmt(m.rejection_rate),
                    "" if m is None else _fmt(m.ci_coverage),
                    "" if m is None else _fmt(m.mean_ci_length),
                    "" if m is None else str(m.replicates_used),
                    row.error or "",
                ]
            )
    failures = sum(1 for row in results if row.error is not None)
    print(
        f"{len(results)} cells written to {args.out}"
        + (f" ({failures} failed)" if failures else "")
    )
    return 0


# --------------------------------------------------------------- check


def cmd_check(args):
    responses, biomarkers = _load_study(
        args.input, args.response, [args.biomarker]
    )
    subset = odeb.SelectedSubset.from_tested(
        responses, biomarkers[args.biomarker]
    )
    diag = odeb.check_model(subset, responses)

    prefix = args.out or _default_check_prefix(args.input)
    qq_response = f"{prefix}_qq_response.csv"
    qq_residuals = f"{prefix}_qq_residuals.csv"
    _write_qq(qq_response, diag.response_qq)
    _write_qq(qq_residuals, diag.residual_qq)

    print(
        f"response_skewness {_fmt(diag.response_skewness)}, "
        f"response_excess_kurtosis {_fmt(diag.response_excess_kurtosis)}"
    )
    print(
        f"residual_skewness {_fmt(diag.residual_skewness)}, "
        f"residual_excess_kurtosis {_fmt(diag.residual_excess_kurtosis)}"
    )
    if abs(diag.response_skewness) > 0.5:
        print("flag: response skewness magnitude exceeds 0.5")
    if abs(diag.residual_skewness) > 0.5:
        print("flag: reverse-fit residual skewness magnitude exceeds 0.5")
    print(f"qq series written to {qq_response} and {qq_residuals}")
    return 0


def _default_check_prefix(input_path):
    stem = input_path[:-4] if input_path.endswith(".csv") else input_path
    return f"{stem}_check"


# ----------------------------------------------------------------- cli


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eods",
        description=(
            "Extreme outcome-dependent sampling: reverse-regression "
            "estimation, design power planning, biomarker screening, "
            "and Monte Carlo evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="estimate one biomarker's forward effect"
    )
    p.add_argument("--input", required=True, help="study CSV path")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument("--biomarker", required=True, help="biomarker column name")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument(
        "--log10", action="store_true", help="log10-transform the biomarker"
    )
    p.add_argument(
        "--out", help="path prefix for the report and QQ series files"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="power and sample-size planning")
    p.add_argument("--n-full", type=int, dest="n_full")
    p.add_argument("--gamma", type=float)
    p.add_argument("--target-power", type=float, dest="target_power")
    p.add_argument("--effect-f", type=float, dest="effect_f")
    p.add_argument("--effect-rho", type=float, dest="effect_rho")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("screen", help="screen many biomarker columns")
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument(
        "--biomarkers",
        help="comma-separated column names (default: every non-response column except 'id')",
    )
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--bh-level", type=float, default=0.05, dest="bh_level")
    p.add_argument("--log10", action="store_true")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("simulate", help="run a Monte Carlo scenario grid")
    p.add_argument("--config", required=True, help="grid config file")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--seed", type=int, help="override the config seed for every cell"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "check", help="emit QQ series and moment diagnostics"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--biomarker", required=True)
    p.add_argument("--out", help="path prefix for the QQ series files")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EodsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
