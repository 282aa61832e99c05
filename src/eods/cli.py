"""Command line interface: analyze, plan, screen, simulate, check.

File conventions: input CSVs are comma-separated UTF-8 with a header
row, a leading byte order mark dropped; missing values are empty
fields or "NA". Numeric output uses shortest round-trip formatting (up
to 17 significant digits) so that written values parse back
bit-identically and golden files stay stable.

Grid config files are line-oriented `key = v1, v2, ...` pairs with '#'
comments. List values are allowed for n_full, beta_y, gamma,
residual_family, sampling and estimator; the grid is their cross
product, expanded with n_full outermost and estimator innermost. All
other keys take a single value. A t_df value is the degrees of freedom
of every scaled_t cell, and other cells ignore it; a scaled_t(10) token
that carries a different df fails the whole config as a conflict.
"""

import argparse
import csv
import dataclasses
import itertools
# argparse's gettext imports locale while each call builds its parser;
# loaded here it is start-up, not time inside main
import locale
import math
import operator
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import design, odeb, regress, screen, sim
from .errors import (
    ConfigError,
    DomainError,
    EodsError,
    FileError,
    SchemaError,
)

_MISSING_TOKENS = ("", "NA")
# NaN for each missing token: dict.get(cell, cell) ahead of float()
_MISSING_VALUES = dict.fromkeys(_MISSING_TOKENS, math.nan)
# Cells (rows x picked columns) the loader holds as text and converts at
# a time. A block bounds the cell text, Python floats and converted rows
# held beside the study, the only memory an untested row's cells take;
# 2^16 raised the peak memory of a 20000-row load by about 1 MiB.
_BLOCK_VALUES = 2**14


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


def _not_utf8(path):
    """The message for a file that does not decode, with the bad byte.

    A text stream decodes in chunks, so its error's offset is not the
    file's; the file is decoded whole once more to find it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{path}: not valid UTF-8 at byte offset {exc.start}"
    return f"{path}: not valid UTF-8"


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


def _parse_rows(held, first_line, columns):
    """The held rows through _parse_cell, raising the first error in order.

    held lists each row's picked cells, the response first, from line
    first_line on; columns names the cells. Returns the values row by row.
    """
    values = []
    for line_no, cells in enumerate(held, start=first_line):
        y = _parse_cell(cells[0], line_no, columns[0])
        if math.isnan(y):
            raise SchemaError(
                f"line {line_no}: missing response in column "
                f"{columns[0]!r}"
            )
        values.append(y)
        values += [
            _parse_cell(c, line_no, name)
            for c, name in zip(cells[1:], columns[1:])
        ]
    return values


class Study(NamedTuple):
    """A study as the loader holds it: only its tested rows carry biomarkers.

    responses holds every row's response, in file order. rows holds the
    positions, ascending, of the rows with at least one tested biomarker
    cell. biomarkers maps each picked column to its values on those
    rows, NaN where it was not tested; every one is a view of a single
    (len(rows), len(biomarkers)) table.
    """

    responses: np.ndarray
    rows: np.ndarray
    biomarkers: dict


def _load_study(path, response_column, biomarker_columns=None, log10=False):
    """The Study in the file, from one streaming read of it.

    biomarker_columns None means every column except the response and
    'id'. log10 transforms each biomarker's tested values.
    """
    try:
        # utf-8-sig drops the byte order mark of a spreadsheet's "CSV UTF-8"
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None
    with handle:
        try:
            header = [h.strip() for h in next(csv.reader(handle))]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, a header row is required")
        except UnicodeDecodeError:
            raise FileError(_not_utf8(path)) from None
        except csv.Error as exc:
            raise SchemaError(f"line 1: {exc}") from None
        if len(set(header)) != len(header):
            dup = sorted({h for h in header if header.count(h) > 1})
            raise SchemaError(f"{path}: duplicate column name {dup[0]!r}")
        if biomarker_columns is None:
            biomarker_columns = [
                h for h in header if h not in (response_column, "id")
            ]
            if not biomarker_columns:
                raise SchemaError(f"{path}: no biomarker columns found")
        if response_column in biomarker_columns:
            raise DomainError(
                f"column {response_column!r} is the response; it cannot "
                "also be a biomarker"
            )
        columns = [response_column, *dict.fromkeys(biomarker_columns)]
        position = {name: i for i, name in enumerate(header)}
        for name in columns:
            if name not in position:
                raise SchemaError(f"{path}: missing column {name!r}")
        try:
            responses, rows, table = _read_blocks(
                handle, len(header), columns,
                [position[name] for name in columns],
            )
        except UnicodeDecodeError:
            raise FileError(_not_utf8(path)) from None
    if not len(responses):
        raise SchemaError(f"{path}: no data rows")
    biomarkers = dict(zip(columns[1:], table.T))  # the table's column views
    if log10:
        for name, column in biomarkers.items():
            _log10_in_place(column, rows, name)
    return Study(responses, rows, biomarkers)


def _read_blocks(handle, width, columns, picks):
    """The data rows as (responses, rows, table), NaN = missing.

    handle yields the data lines; picks holds the header positions of
    columns, the response first, all distinct. responses holds every
    row's response. table, float64 with a column per biomarker in
    columns[1:], holds the biomarker values of the rows with at least
    one, at the positions rows. A row whose biomarker cells are all
    missing, however they are spelled, never enters the table: a study
    tested on its response tails holds 8 bytes per untested row and
    nothing per untested cell.

    Lines are read in blocks of about _BLOCK_VALUES picked cells. A
    plain block, one that str.split reads as csv would, goes to
    _convert_lines, which keeps its untested lines as text; any other
    block goes through csv.reader, which also takes the further lines a
    quoted field spans. A record of the wrong width or with a field over
    csv's limit raises after the block's earlier records are parsed, so
    the first error in file order is the one raised.
    """
    take = _picker(picks)
    ends = _untested_ends(width, picks)
    block_rows = -(-_BLOCK_VALUES // len(columns))
    responses = np.empty(block_rows)
    rows = np.empty(block_rows, dtype=np.intp)
    table = np.empty((block_rows, len(columns) - 1))
    n_rows = n_tested = 0
    while True:
        block = list(itertools.islice(handle, block_rows))
        if not block:
            break
        first_line = n_rows + 2  # the header is line 1
        if _plain(block, width):
            y, converted, values = _convert_lines(
                block, first_line, columns, take, ends, picks[0]
            )
        else:
            records = csv.reader(itertools.chain(block, handle))
            held = _held_records(records, len(block), first_line, width,
                                 columns, take)
            y, converted, values = _convert_block(
                held, len(columns)
            ) or _parse_block(held, first_line, columns)
        # read off the values, so an all-NA row is as untested as an
        # all-empty one, whichever path converted it
        tested = ~np.isnan(values).all(axis=1)
        _put(rows, n_tested, n_rows + converted[tested])
        n_tested = _put(table, n_tested, values[tested])
        n_rows = _put(responses, n_rows, y)
    for array, n in ((responses, n_rows), (rows, n_tested), (table, n_tested)):
        array.resize((n, *array.shape[1:]), refcheck=False)  # the trim
    return responses, rows, table


def _picker(picks):
    """The fields at picks, in order: one slice when they are adjacent."""
    if picks == list(range(picks[0], picks[0] + len(picks))):
        return operator.itemgetter(slice(picks[0], picks[-1] + 1))
    return operator.itemgetter(*picks)


def _untested_ends(width, picks):
    """The endings of a plain line whose biomarker cells are all empty.

    When the last biomarker is the row's last column and the response
    comes before the first biomarker, a line whose cells from the first biomarker
    on are all empty ends in one comma per such cell, then its line
    terminator, if any. Otherwise no ending is known: str.endswith(())
    is False, so every line is split and picked.
    """
    first = min(picks[1:])
    if max(picks[1:]) != width - 1 or picks[0] > first:
        return ()
    run = "," * (width - first)
    return tuple(run + end for end in ("", "\n", "\r\n", "\r"))


def _plain(block, width):
    """Whether str.split reads each line of block as csv.reader does.

    It does for a line with no quote and width - 1 commas, and no line
    longer than csv's field limit can hold a field over it; a longer
    line goes to csv, which refuses only such a field. A blank line has
    no field for csv, so it is never plain.
    """
    text = "".join(block)  # one search for a quote, not one per line
    limit = csv.field_size_limit()
    return (
        '"' not in text
        and set(map(str.count, block, itertools.repeat(","))) == {width - 1}
        and (len(text) <= limit or max(map(len, block)) <= limit)
    )


def _held_records(records, n_records, first_line, width, columns, take):
    """The picked cells of n_records records, from line first_line on.

    A record of the wrong width, or one csv refuses, raises a
    SchemaError after the records before it are parsed.
    """
    held = []
    try:
        for row in itertools.islice(records, n_records):
            if len(row) != width:
                error = f"expected {width} fields, got {len(row)}"
                break
            held.append(take(row))
        else:
            return held
    except csv.Error as exc:
        error = str(exc)
    _parse_rows(held, first_line, columns)
    raise SchemaError(f"line {first_line + len(held)}: {error}")


def _convert_lines(block, first_line, columns, take, ends, at):
    """The plain lines of block as (responses, converted, values).

    A line that ends in one of ends leaves every biomarker cell empty:
    it stays text, and only its response, field at, is split off and
    converted. The other lines are split into fields and picked for
    _convert_block. If any conversion fails, the whole block is split
    and goes once through _parse_rows, as _parse_block.
    """
    untested = list(map(str.endswith, block, itertools.repeat(ends)))
    held = [
        take(line.rstrip("\r\n").split(","))
        for line in itertools.compress(block, map(operator.not_, untested))
    ]
    got = _convert_block(held, len(columns))
    texts = map(str.split, itertools.compress(block, untested),
                itertools.repeat(","), itertools.repeat(at + 1))
    try:
        responses = list(map(float, map(operator.itemgetter(at), texts)))
    except ValueError:
        got = None  # _parse_rows names the cell
    if got is not None:
        y_held, converted, values = got
        mask = np.frombuffer(bytes(untested), bool)
        others = np.flatnonzero(~mask)
        y = np.empty(len(block))
        y[mask] = responses
        y[others] = y_held
        if np.isfinite(y).all():
            return y, others[converted], values
    held = [take(line.rstrip("\r\n").split(",")) for line in block]
    return _parse_block(held, first_line, columns)


def _put(array, start, values):
    """Write values into array's rows from start on; return the end row.

    ndarray.resize is realloc, which glibc serves for a large array by
    mremap, so the old and new buffers are never both resident. Growing
    by a quarter bounds the unused rows held to a quarter of the array.
    Skipping the reference check is safe only because no view of the
    array is alive while the loader fills it.
    """
    end = start + len(values)
    if end > len(array):
        grown = max(end, len(array) + len(array) // 4)
        array.resize((grown, *array.shape[1:]), refcheck=False)
    array[start:end] = values
    return end


def _convert_block(held, width):
    """held's rows as (responses, converted, values), or None.

    Each row holds width picked cells, the response first. responses
    holds every held row's response. converted holds the positions in
    held, ascending, of the rows not found untested by their empty
    cells, and values those rows' biomarker cells, float64 and NaN =
    missing.

    A row's count of empty cells sorts it. An untested row, every
    biomarker cell empty, converts only its response, so its biomarker
    cells are never Python floats; a row with no missing token converts
    in one map(float), any other in one map(float) after a dict maps
    its missing tokens to NaN. None, for _parse_block to decide, means a
    failed float(), a non-finite value that is not one of the missing
    tokens or a missing response: an error, or a padded token such as
    " NA".
    """
    # local names: the loop below runs once per row
    empty, na = _MISSING_TOKENS
    as_nan = _MISSING_VALUES.get
    # the untested rows' indices and responses; the other rows' indices
    # and values, row after row. Extending values by a bare map raised
    # the peak memory of a 2000-column screen by about 3 MiB
    untested, responses, converted, values = [], [], [], []
    n_missing = 0  # the missing tokens among values
    try:
        for r, cells in enumerate(held):
            n_empty = cells.count(empty)
            if n_empty == width - 1:
                untested.append(r)
                responses.append(float(cells[0]))
                continue
            converted.append(r)
            if not n_empty and na not in cells:
                values += list(map(float, cells))
            else:
                values += list(map(float, map(as_nan, cells, cells)))
                n_missing += n_empty + cells.count(na)
    except ValueError:
        return None  # a padded token, or an error that _parse_rows names
    rows = np.fromiter(values, float, len(values)).reshape(-1, width)
    y = np.empty(len(held))
    y[untested] = responses
    y[converted] = rows[:, 0]
    # every non-finite value must come from one of the n_missing
    # missing tokens, and every response must be finite
    non_finite = rows.size - np.count_nonzero(np.isfinite(rows))
    if non_finite != n_missing or not np.isfinite(y).all():
        return None
    return y, np.array(converted, np.intp), rows[:, 1:]


def _parse_block(held, first_line, columns):
    """held's rows through _parse_rows, as _convert_block's triple."""
    rows = np.reshape(_parse_rows(held, first_line, columns), (-1, len(columns)))
    return rows[:, 0], np.arange(len(held)), rows[:, 1:]


def _log10_in_place(column, rows, biomarker_id):
    """log10 of column's tested values; rows are its entries' positions."""
    tested = np.flatnonzero(~np.isnan(column))
    bad = tested[~(column[tested] > 0.0)]
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"line {rows[i] + 2}, biomarker {biomarker_id!r}: log10 "
            f"transform needs positive values, got {float(column[i])!r}"
        )
    # math.log10 per value: np.log10 is not guaranteed to round the same
    column[tested] = [math.log10(v) for v in column[tested].tolist()]


def _full_summary(responses, response_column):
    """The full-response summary; a DomainError names the column."""
    try:
        return odeb.FullResponseSummary.from_responses(responses)
    except DomainError as exc:
        raise DomainError(
            f"response column {response_column!r}: {exc}"
        ) from None


def _tested_subset(study, biomarker):
    """The tested pairs of a study loaded with biomarker as its one column.

    With one picked column, every row the table holds is tested for it.
    gamma is the tested rows' share of all rows.
    """
    n_tested = len(study.rows)
    return odeb.SelectedSubset.from_arrays(
        study.biomarkers[biomarker],
        study.responses[study.rows],
        n_tested / len(study.responses),
    )


def _warn_if_not_extreme(inside, label):
    """The design needs the tested rows to be the response extremes."""
    if inside:
        print(
            f"warning: {inside} tested row(s) for {label} lie strictly "
            "inside the untested response range; the subset does not "
            "look extreme",
            file=sys.stderr,
        )


def _open_out(path):
    """An output file opened for writing; one that cannot be is a FileError."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from None


def _write_qq(prefix, diag):
    """Write check_model's two QQ series under prefix; return the paths."""
    paths = (f"{prefix}_qq_response.csv", f"{prefix}_qq_residuals.csv")
    # lines straight to each file: a csv.writer call per row cost as much
    # as the rest of the write, no formatted float needs quoting, and one
    # joined string would raise the peak memory by about its size twice;
    # every value is a finite float, so repr is _fmt's text
    for path, series in zip(paths, (diag.response_qq, diag.residual_qq)):
        with _open_out(path) as fh:
            fh.write("theoretical_quantile,observed_value\n")
            fh.writelines(
                f"{tq!r},{ov!r}\n"
                for tq, ov in zip(series[:, 0].tolist(), series[:, 1].tolist())
            )
    return paths


# ------------------------------------------------------------- analyze


def cmd_analyze(args):
    study = _load_study(
        args.input, args.response, [args.biomarker], args.log10
    )
    full = _full_summary(study.responses, args.response)
    # 0-3 tested rows get the estimator's refusal, as in a screen
    odeb.check_selected_count(len(study.rows))
    subset = _tested_subset(study, args.biomarker)
    est = odeb.estimate(subset, full, args.confidence)
    tested = screen.tested_mask(len(study.responses), study.rows)
    _warn_if_not_extreme(
        screen.rows_inside(study.responses, tested),
        f"biomarker {args.biomarker!r}",
    )
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
        diag = odeb.check_model(est.reverse_fit, study.responses)
        qq_response, qq_residuals = _write_qq(args.out, diag)
        with _open_out(report_path) as fh:
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
        spec = design.DesignSpec(args.n_full, args.gamma, effect_f, alpha)
        n_selected, power = spec.n_selected, design.power_eods(spec).power
        print(
            f"n_full {args.n_full}, gamma {_fmt(args.gamma)}, "
            f"effect_f {_fmt(effect_f)}, alpha {_fmt(alpha)}"
        )
    elif args.n_full is not None:
        gamma, n_selected, power = design.min_gamma_for_power(
            args.n_full, effect_f, alpha, args.target_power
        )
        print(
            f"n_full {args.n_full}, effect_f {_fmt(effect_f)}, "
            f"alpha {_fmt(alpha)}, target_power {_fmt(args.target_power)}"
        )
        print(f"gamma {_fmt(gamma)}")
    else:
        n_full, n_selected, power = design.min_nfull_for_power(
            args.gamma, effect_f, alpha, args.target_power
        )
        print(
            f"gamma {_fmt(args.gamma)}, effect_f {_fmt(effect_f)}, "
            f"alpha {_fmt(alpha)}, target_power {_fmt(args.target_power)}"
        )
        print(f"n_full {n_full}")
    print(f"{_select_phrase(n_selected)}, power {power:.4f}")
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
    if not 0.0 < args.bh_level <= 1.0:
        raise DomainError(
            f"--bh-level must lie in (0, 1], got {args.bh_level!r}"
        )
    study = _load_study(
        args.input, args.response, _screen_columns(args), args.log10
    )
    # names the column on failure
    _full_summary(study.responses, args.response)
    table = screen.screen_tested(
        study.responses, study.rows, study.biomarkers, args.confidence
    )
    by_id = {row.biomarker_id: row for row in table}
    for biomarker_id in study.biomarkers:
        row = by_id[biomarker_id]
        if row.error is None:
            label = f"biomarker {biomarker_id!r}"
            _warn_if_not_extreme(row.rows_inside, label)

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
        with _open_out(args.out) as fh:
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


# the keys that take a list of values, in the grid's expansion order;
# every other SimScenario field takes a single value
_GRID_AXES = (
    "n_full", "beta_y", "gamma", "residual_family", "sampling", "estimator",
)
# a ConfigError names a cell by these labels, the other keys as they are
_CELL_LABELS = {"residual_family": "family"}
# each key's cast is its field's type, t_df's Optional[int] read as int
_GRID_CASTS = {
    f.name: int if f.type == Optional[int] else f.type
    for f in dataclasses.fields(sim.SimScenario)
}


def _parse_grid_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(_not_utf8(path)) from None

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
        if key not in _GRID_CASTS:
            raise ConfigError(
                f"{path} line {line_no}: unknown key {key!r}"
            )
        if key not in _GRID_AXES and len(tokens) != 1:
            raise ConfigError(
                f"{path} line {line_no}: {key!r} expects a single value"
            )
        try:
            values = [_GRID_CASTS[key](tok) for tok in tokens]
        except ValueError:
            raise ConfigError(
                f"{path} line {line_no}: cannot parse value for {key!r}"
            )
        if key in _GRID_AXES:
            lists[key] = values
        else:
            scalars[key] = values[0]

    # SimScenario's fields say which keys are required, and the default
    # of an omitted list key; its required fields come first
    for field in dataclasses.fields(sim.SimScenario):
        if field.name in lists or field.name in scalars:
            continue
        if field.default is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key {field.name!r}")
        if field.name in _GRID_AXES:
            lists[field.name] = [field.default]
    t_df = scalars.pop("t_df", None)
    scenarios = []
    for cell in itertools.product(*(lists[key] for key in _GRID_AXES)):
        kwargs = dict(zip(_GRID_AXES, cell), **scalars)
        family = kwargs["residual_family"]
        if t_df is not None and family.startswith("scaled_t"):
            # a token like scaled_t(10) carries its own df; disagreement
            # with t_df is an ambiguity the scenario check rejects
            kwargs["t_df"] = t_df
        try:
            scenarios.append(sim.SimScenario(**kwargs))
        except DomainError as exc:
            label = ", ".join(
                f"{_CELL_LABELS.get(key, key)}={value}"
                for key, value in zip(_GRID_AXES, cell)
            )
            raise ConfigError(f"{path}: cell ({label}): {exc}")
    return scenarios


# the metrics CSV's scenario columns, before SimMetrics' fields and error
_SIM_COLUMNS = (
    "n_full", "beta_y", "gamma", "sampling", "estimator", "residual_family",
    "t_df", "alpha_y", "noise_variance", "x_mean", "x_var", "alpha_level",
    "replicates", "seed",
)


def cmd_simulate(args):
    scenarios = _parse_grid_config(args.config)
    if args.seed is not None:
        scenarios = [
            dataclasses.replace(s, seed=args.seed) for s in scenarios
        ]
    results = sim.run_grid(scenarios, workers=args.workers)
    metrics = [f.name for f in dataclasses.fields(sim.SimMetrics)]
    with _open_out(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*_SIM_COLUMNS, *metrics, "error"])
        for row in results:
            writer.writerow(
                _fmt(value)
                for value in (
                    *(getattr(row.scenario, name) for name in _SIM_COLUMNS),
                    # a failed cell leaves its metric columns empty
                    *(getattr(row.metrics, name, None) for name in metrics),
                    row.error,
                )
            )
    failures = sum(1 for row in results if row.error is not None)
    print(
        f"{len(results)} cells written to {args.out}"
        + (f" ({failures} failed)" if failures else "")
    )
    return 0


# --------------------------------------------------------------- check


def cmd_check(args):
    study = _load_study(args.input, args.response, [args.biomarker])
    subset = _tested_subset(study, args.biomarker)
    _full_summary(study.responses, args.response)  # the moments must be finite
    diag = odeb.check_model(
        regress.fit_simple(subset.pairs), study.responses
    )
    prefix = args.out or _default_check_prefix(args.input)
    qq_response, qq_residuals = _write_qq(prefix, diag)

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
