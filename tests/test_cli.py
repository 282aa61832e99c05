"""End-to-end tests of the command line interface."""

import csv
import importlib.util
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from eods import cli, dist, odeb, regress, sim
from eods.cli import main
from eods.errors import DomainError, SchemaError

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_STUDY = os.path.join(DATA_DIR, "golden_study.csv")

TOL_EXACT = 1e-12


def _load_gen_golden():
    path = os.path.join(DATA_DIR, "gen_golden.py")
    spec = importlib.util.spec_from_file_location("gen_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the generator of the golden files: their configs and plan queries
GEN_GOLDEN = _load_gen_golden()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _report_dict(path):
    rows = _read_csv(path)
    assert rows[0] == ["key", "value"]
    return {k: v for k, v in rows[1:]}


def _write_study(path, rows, header=("id", "resp", "bm")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ------------------------------------------------------------- analyze


def test_analyze_golden_byte_stable(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "analyze",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--biomarker", "bm1",
            "--out", "golden_analyze",
        ]
    )
    assert code == 0
    for name in (
        "golden_analyze_report.csv",
        "golden_analyze_qq_response.csv",
        "golden_analyze_qq_residuals.csv",
    ):
        with open(tmp_path / name, "rb") as fh:
            got = fh.read()
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            want = fh.read()
        assert got == want, f"{name} drifted from the committed golden file"


@pytest.mark.parametrize(
    "command",
    [["analyze", "--out", "fits"], ["check", "--out", "fits"]],
    ids=["analyze", "check"],
)
def test_one_reverse_fit_per_call(tmp_path, monkeypatch, command):
    # the diagnostics read the residuals of the fit the estimate made
    monkeypatch.chdir(tmp_path)
    calls = []
    fit_rows = regress.fit_rows

    def counted(*args, **kwargs):
        calls.append(None)
        return fit_rows(*args, **kwargs)

    monkeypatch.setattr(regress, "fit_rows", counted)
    code = main(
        command
        + ["--input", GOLDEN_STUDY, "--response", "resp", "--biomarker", "bm1"]
    )
    assert code == 0
    assert len(calls) == 1


def test_analyze_golden_matches_hand_normal_equations():
    # re-derive the reported effect from scratch: reverse-fit normal
    # equations on the tested rows plus the full-sample response moments
    rows = _read_csv(GOLDEN_STUDY)
    header, data = rows[0], rows[1:]
    resp_i, bm_i = header.index("resp"), header.index("bm1")
    y_all = [float(r[resp_i]) for r in data]
    pairs = [
        (float(r[bm_i]), float(r[resp_i]))
        for r in data
        if r[bm_i] not in ("", "NA")
    ]
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    n_s, n_f = len(pairs), len(y_all)
    xbar, ybar = sum(x) / n_s, sum(y) / n_s
    sxy = sum((a - xbar) * (b - ybar) for a, b in zip(x, y))
    syy = sum((b - ybar) ** 2 for b in y)
    beta_x = sxy / syy
    alpha_x = xbar - beta_x * ybar
    rss = sum((a - alpha_x - beta_x * b) ** 2 for a, b in zip(x, y))
    s2_eps_x = rss / (n_s - 2)
    mu_y = sum(y_all) / n_f
    var_y = sum((v - mu_y) ** 2 for v in y_all) / (n_f - 1)
    beta_y = beta_x * var_y / (s2_eps_x + beta_x**2 * var_y)

    report = _report_dict(
        os.path.join(DATA_DIR, "golden_analyze_report.csv")
    )
    assert abs(float(report["beta_y"]) - beta_y) < TOL_EXACT
    assert n_s == int(report["n_selected"]) == 80
    assert n_f == int(report["n_full"]) == 400
    # the reported effect sits inside its own interval, significantly
    assert float(report["ci_low"]) < beta_y < float(report["ci_high"])
    assert float(report["p_value"]) < 0.05


def test_analyze_report_roundtrip_precision():
    report = _report_dict(
        os.path.join(DATA_DIR, "golden_analyze_report.csv")
    )
    value = float(report["beta_y"])
    assert repr(value) == report["beta_y"]


@pytest.mark.parametrize("scale", [1e40, 1e-45])
def test_analyze_se_scales_with_the_biomarker(tmp_path, capsys, scale):
    # the forward slope, its SE and its interval carry 1 / scale; the SE
    # used to overflow to 0.0 at 1e40 and collapse at 1e-45
    rows = _read_csv(GOLDEN_STUDY)
    study = tmp_path / "scaled.csv"
    _write_study(
        study,
        [
            row[:2] + [repr(float(v) * scale) if v not in ("", "NA") else v
                       for v in row[2:]]
            for row in rows[1:]
        ],
        header=rows[0],
    )
    code = main(
        [
            "analyze", "--input", str(study), "--response", "resp",
            "--biomarker", "bm1", "--out", str(tmp_path / "scaled"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    got = _report_dict(tmp_path / "scaled_report.csv")
    want = _report_dict(os.path.join(DATA_DIR, "golden_analyze_report.csv"))
    for key in ("beta_y", "se_beta_y", "ci_low", "ci_high"):
        assert math.isclose(
            float(got[key]) * scale, float(want[key]), rel_tol=1e-12
        ), key
    assert got["p_value"] == want["p_value"]


def test_analyze_full_gamma_close_to_forward_ols(tmp_path, capsys):
    rng = np.random.default_rng(88)
    n = 400
    x = rng.normal(0.0, 2.0, n)
    y = 1.0 + 0.5 * x + rng.normal(0.0, 1.0, n)
    path = tmp_path / "full.csv"
    _write_study(
        path,
        [
            [f"r{i}", repr(float(y[i])), repr(float(x[i]))]
            for i in range(n)
        ],
    )
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    beta_line = next(l for l in out.splitlines() if l.startswith("beta_y "))
    beta_cli = float(beta_line.split()[1])
    sx = x - x.mean()
    ols = float(np.sum(sx * (y - y.mean())) / np.sum(sx * sx))
    # the residual-variance divisor (n_S - 2 vs n_F - 1) keeps the
    # conversion from matching the forward fit exactly at gamma = 1;
    # the gap shrinks as O(1/n)
    assert abs(beta_cli - ols) / abs(ols) < 0.01


def test_analyze_missing_response_names_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    _write_study(
        path,
        [
            ["a", "1.0", "2.0"],
            ["b", "", "3.0"],
            ["c", "2.0", "4.0"],
        ],
    )
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "resp" in err


def test_analyze_missing_column_named(tmp_path, capsys):
    path = tmp_path / "cols.csv"
    _write_study(path, [["a", "1.0", "2.0"]])
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "nope",
        ]
    )
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_analyze_unreadable_file(capsys):
    code = main(
        [
            "analyze",
            "--input", "/nonexistent/x.csv",
            "--response", "r",
            "--biomarker", "b",
        ]
    )
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_subset_below_four_rejected(tmp_path, capsys):
    rows = [["a", "1.0", "1.5"], ["b", "2.0", "1.9"], ["c", "3.0", "2.3"]]
    rows += [[f"x{i}", repr(1.0 + i / 7.0), ""] for i in range(9)]
    path = tmp_path / "tiny.csv"
    _write_study(path, rows)
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("n_tested", [0, 1, 2, 3])
def test_analyze_names_too_few_tested_rows_as_the_estimator(
    tmp_path, capsys, n_tested
):
    # one text for every count below four, the one screen gives
    rows = [
        [f"r{i}", repr(1.0 + i / 7.0), repr(0.5 * i) if i < n_tested else ""]
        for i in range(12)
    ]
    path = tmp_path / "few.csv"
    _write_study(path, rows)
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: need at least 4 selected pairs for variance inference\n"
    )


def test_analyze_non_numeric_cell_context(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    _write_study(path, [["a", "1.0", "2.0"], ["b", "oops", "3.0"]])
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "oops" in err


def test_analyze_warns_when_subset_not_extreme(tmp_path, capsys):
    rng = np.random.default_rng(4)
    y = rng.normal(size=60)
    tested = set(range(0, 60, 5))  # arbitrary rows, not tails
    rows = []
    for i in range(60):
        bm = repr(float(rng.normal())) if i in tested else "NA"
        rows.append([f"r{i}", repr(float(y[i])), bm])
    path = tmp_path / "mid.csv"
    _write_study(path, rows)
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 0
    assert "does not look extreme" in capsys.readouterr().err


def test_analyze_no_warning_on_golden_extremes(capsys):
    code = main(
        [
            "analyze",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--biomarker", "bm1",
        ]
    )
    assert code == 0
    assert "does not look extreme" not in capsys.readouterr().err


def test_analyze_log10_matches_manual_transform(tmp_path, capsys):
    rows = _read_csv(GOLDEN_STUDY)
    header, data = rows[0], rows[1:]
    bm_i = header.index("bm1")
    exp_rows = []
    for r in data:
        r = list(r)
        if r[bm_i] not in ("", "NA"):
            r[bm_i] = repr(math.exp(float(r[bm_i])))
        exp_rows.append(r)
    path = tmp_path / "expo.csv"
    _write_study(path, exp_rows, header=header)
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm1",
            "--log10",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    beta_line = next(l for l in out.splitlines() if l.startswith("beta_y "))
    got = float(beta_line.split()[1])
    # log10(e^x) = x / ln 10, so the slope scales by ln 10
    report = _report_dict(
        os.path.join(DATA_DIR, "golden_analyze_report.csv")
    )
    want = float(report["beta_y"]) * math.log(10.0)
    assert abs(got - want) < 1e-9


def test_analyze_log10_rejects_nonpositive(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    rows = [[f"r{i}", repr(float(i)), repr(0.5 + i)] for i in range(12)]
    rows[4][2] = "-2.0"
    _write_study(path, rows)
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
            "--log10",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 6" in err and "log10" in err


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity", "+INF"])
@pytest.mark.parametrize("column", [1, 2])
def test_analyze_rejects_non_finite_cell(tmp_path, capsys, token, column):
    rows = [[f"r{i}", repr(float(i)), repr(0.5 + i)] for i in range(12)]
    rows[5][column] = token
    path = tmp_path / "nonfinite.csv"
    _write_study(path, rows)
    code = main(
        [
            "analyze",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "finite" in err


def _wide_study(path, cell, n_rows, width=2000):
    """id, resp and `width` biomarker columns; cell(i, j) for row i, column j."""
    header = ["id", "resp"] + [f"bm{j:04d}" for j in range(width)]
    rows = [
        [f"r{i}", repr(float(i)), *(cell(i, j) for j in range(width))]
        for i in range(n_rows)
    ]
    _write_study(path, rows, header=header)


def _load_full(path, *args, **kwargs):
    """_load_study's responses, and its biomarkers spread over every row.

    Each biomarker's tested-row values go back to their rows of a
    full-length column, NaN elsewhere, so the loader's values compare
    bit for bit with references that list every row.
    """
    study = cli._load_study(str(path), *args, **kwargs)
    biomarkers = {}
    for name, column in study.biomarkers.items():
        biomarkers[name] = np.full(len(study.responses), math.nan)
        biomarkers[name][study.rows] = column
    return study.responses, biomarkers


@pytest.mark.parametrize(
    "token", [" 1.5 ", " NA ", " ", "1_000", "1e999", "nan", "-Infinity"]
)
def test_loader_matches_parse_cell_inside_a_wide_row(tmp_path, token):
    # the block-wise float pass must agree with the one per-cell parser,
    # on values and on the error text; row 40 (line 42) lies past the
    # first block
    path = tmp_path / "wide.csv"

    def cell(i, j):
        if (i, j) == (40, 1234):
            return token
        return "" if (i + j) % 3 else repr(0.5 * j - i)

    _wide_study(path, cell, n_rows=70)
    try:
        want = cli._parse_cell(token, 42, "bm1234")
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            cli._load_study(str(path), "resp")
        assert str(got.value) == str(exc)
        return
    responses, biomarkers = _load_full(path, "resp")
    assert responses.tolist() == [float(i) for i in range(70)]
    for j, (name, column) in enumerate(biomarkers.items()):
        expect = [cli._parse_cell(cell(i, j), i + 2, name) for i in range(70)]
        if j == 1234:
            expect[40] = want
        np.testing.assert_array_equal(column, expect)


_ODD_TOKENS = ["", "NA", " NA", "nan", "inf", "x", " 1.5 ", "1_000"]


def _assert_loads_as_parse_rows(path, table, columns):
    """_load_study gives _parse_rows' values, or raises its error text."""
    try:
        want = cli._parse_rows(table, 2, columns)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            cli._load_study(str(path), columns[0], columns[1:])
        assert str(got.value) == str(exc)
        return
    responses, biomarkers = _load_full(path, columns[0], columns[1:])
    got = np.column_stack([responses, *biomarkers.values()])
    np.testing.assert_array_equal(got, np.reshape(want, got.shape))


@pytest.mark.parametrize("place", ["lone", "response", "end", "start"])
@pytest.mark.parametrize("token", _ODD_TOKENS)
def test_loader_matches_parse_rows_with_untested_rows(tmp_path, token, place):
    # untested rows leave every biomarker cell empty. The odd token is
    # the one biomarker cell of an otherwise empty row, the response of
    # an all-empty row, or a cell of a complete row at the end or the
    # start of a block
    width = 300
    block_rows = -(-cli._BLOCK_VALUES // (width + 1))
    complete = {i for i in range(120) if i % 4 == 0}
    complete |= {block_rows - 1, block_rows}
    at = {
        "lone": (block_rows + 3, 1 + 123),
        "response": (block_rows + 6, 0),
        "end": (block_rows - 1, 1 + 123),
        "start": (block_rows, 1 + 123),
    }[place]
    assert at[0] not in complete or place in ("end", "start")
    table = [
        [repr(float(i))] + [
            repr(0.5 * j - i) if i in complete else "" for j in range(width)
        ]
        for i in range(120)
    ]
    table[at[0]][at[1]] = token
    path = tmp_path / "untested.csv"
    columns = ["resp"] + [f"bm{j:04d}" for j in range(width)]
    _write_study(
        path, [[f"r{i}", *cells] for i, cells in enumerate(table)],
        header=["id", *columns],
    )
    _assert_loads_as_parse_rows(path, table, columns)


def test_loader_valid_rows_skip_the_per_cell_parser(tmp_path, monkeypatch):
    # untested, complete, NA-only and mixed rows each convert on their
    # fast path and pass their block's check; only a failure re-parses
    columns = ["resp", "bm1", "bm2", "bm3"]
    kinds = [
        ["", "", ""], ["1.5", "-2", "3e-5"], ["NA", "NA", "NA"],
        ["", "NA", "4.0"], ["NA", "", ""],
    ]
    table = [
        [repr(0.25 * i), *kinds[i % len(kinds)]] for i in range(9000)
    ]
    path = tmp_path / "valid.csv"
    _write_study(
        path, [[f"r{i}", *cells] for i, cells in enumerate(table)],
        header=["id", *columns],
    )
    want = cli._parse_rows(table, 2, columns)

    def no_reparse(*args):
        raise AssertionError("a valid row went through _parse_rows")

    monkeypatch.setattr(cli, "_parse_rows", no_reparse)
    responses, biomarkers = _load_full(path, "resp", columns[1:])
    got = np.column_stack([responses, *biomarkers.values()])
    np.testing.assert_array_equal(got, np.reshape(want, got.shape))


def test_loader_row_of_na_cells(tmp_path):
    # NA in every biomarker cell is an untested row; NA in the response
    # too is a missing response
    columns = ["resp", "bm1", "bm2", "bm3"]
    table = [[repr(float(i)), "1.0", "2.0", repr(i * 0.5)] for i in range(8)]
    table[3] = ["3.0", "NA", "NA", "NA"]
    path = tmp_path / "na_row.csv"
    _write_study(
        path, [[f"r{i}", *cells] for i, cells in enumerate(table)],
        header=["id", *columns],
    )
    _assert_loads_as_parse_rows(path, table, columns)
    responses, biomarkers = _load_full(path, "resp", columns[1:])
    assert all(math.isnan(v[3]) for v in biomarkers.values())
    table[5] = ["NA"] * 4
    _write_study(
        path, [[f"r{i}", *cells] for i, cells in enumerate(table)],
        header=["id", *columns],
    )
    with pytest.raises(SchemaError, match="line 7: missing response"):
        cli._load_study(str(path), "resp", columns[1:])


def test_loader_reports_the_first_error_in_the_file(tmp_path):
    # a non-finite cell on line 4 and a short row on line 6 fall in one
    # block; the earlier one is reported
    path = tmp_path / "two_errors.csv"
    _wide_study(path, lambda i, j: "inf" if (i, j) == (2, 7) else "1.0", 4)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("short,1.0\n")
    with pytest.raises(SchemaError, match="line 4, column 'bm0007'"):
        cli._load_study(str(path), "resp")
    # without the non-finite cell the short row is the first error
    path.write_text(path.read_text().replace(",inf,", ",2.0,"))
    with pytest.raises(SchemaError, match="line 6: expected 2002 fields"):
        cli._load_study(str(path), "resp")


def test_loader_missing_response_reported_before_a_later_bad_cell(tmp_path):
    path = tmp_path / "gap.csv"
    _write_study(
        path, [["a", "1.0", "2.0"], ["b", "NA", "3.0"], ["c", "2.0", "x"]]
    )
    with pytest.raises(SchemaError, match="line 3: missing response"):
        cli._load_study(str(path), "resp")


def _padded_study(tmp_path):
    """A tall study, and the same with ", " separators (plain, padded)."""
    rows = [
        [f"r{i}", repr(float(i)), repr(0.5 * i) if i % 50 < 5 else "NA"]
        for i in range(20000)
    ]
    plain = tmp_path / "plain.csv"
    padded = tmp_path / "padded.csv"
    _write_study(plain, rows)
    padded.write_text(plain.read_text().replace(",", ", "))
    return plain, padded


def test_loader_padded_missing_cells_load_in_linear_time(tmp_path):
    # ", " separators make every missing cell " NA", which float()
    # rejects; each block holding one is parsed once more, cell by cell
    plain, padded = _padded_study(tmp_path)
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "eods.cli", "analyze", "--input",
             str(path), "--response", "resp", "--biomarker", "bm"],
            capture_output=True, text=True, timeout=10,
        )
        for path in (plain, padded)
    ]
    assert outputs[0].returncode == 0, outputs[0].stderr
    assert outputs[1].returncode == 0, outputs[1].stderr
    assert outputs[1].stdout == outputs[0].stdout


def test_loader_parses_a_padded_block_once(tmp_path, monkeypatch):
    # a failed float() sends its whole block through _parse_rows once,
    # not each failing row on its own
    plain, padded = _padded_study(tmp_path)
    parse_rows = cli._parse_rows
    calls = []

    def counting(held, first_line, columns):
        calls.append(first_line)
        return parse_rows(held, first_line, columns)

    monkeypatch.setattr(cli, "_parse_rows", counting)
    got = _load_full(padded, "resp")
    blocks = -(-20000 // -(-cli._BLOCK_VALUES // 2))
    assert 0 < len(calls) <= blocks
    monkeypatch.setattr(cli, "_parse_rows", parse_rows)
    want = _load_full(plain, "resp")
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1]["bm"], want[1]["bm"])


def test_loader_error_before_a_padded_row_reported_first(tmp_path):
    # line 3 holds a non-finite value that float() accepts; line 4 holds
    # a padded token and a bad cell, so float() fails there first
    path = tmp_path / "padded_errors.csv"
    _write_study(
        path,
        [["a", "1.0", " NA"], ["b", "2.0", "inf"], ["c", "3.0", " x"]],
    )
    with pytest.raises(SchemaError, match="line 3, column 'bm'"):
        cli._load_study(str(path), "resp")
    path.write_text(path.read_text().replace("inf", "4.0"))
    with pytest.raises(SchemaError, match="line 4, column 'bm'.*' x'"):
        cli._load_study(str(path), "resp")


def _grown_study(path, n_rows, width):
    """A study of every row kind over n_rows rows and `width` biomarkers.

    Rows cycle through complete, untested (every biomarker cell empty),
    mixed empty and NA, and all-NA biomarker cells; every 50th row from
    row 7 on pads its missing cells as " NA", which float() rejects.
    Returns the rows as written, the response first.
    """
    rng = np.random.default_rng(8)
    table = []
    for i in range(n_rows):
        values = [repr(v) for v in rng.normal(size=width).tolist()]
        kind = i % 4
        if kind == 1:
            values = [""] * width
        elif kind == 2:
            values = [v if j % 3 else ("", "NA")[j % 2] for j, v in
                      enumerate(values)]
        elif kind == 3:
            values = ["NA"] * width
        if i % 50 == 7:
            values = [" NA" if v in ("", "NA") else v for v in values]
        if kind == 0:
            values[i % width] = "-0.0"
        table.append([repr(float(i) - 0.5), *values])
    columns = ["resp"] + [f"bm{j:03d}" for j in range(width)]
    _write_study(
        path, [[f"r{i}", *cells] for i, cells in enumerate(table)],
        header=["id", *columns],
    )
    return table, columns


def test_loader_table_matches_a_plain_csv_reference(tmp_path):
    # enough rows to cross block edges and several growth steps of the
    # table; every array must hold the csv module's text through float()
    # bit for bit. The table holds the rows with a biomarker value, as
    # the reference has them, and every biomarker column is a view of it
    width = 37
    block_rows = -(-cli._BLOCK_VALUES // (width + 1))
    table, columns = _grown_study(tmp_path / "grown.csv", 9 * block_rows + 5,
                                  width)

    def reference(cell):
        return math.nan if cell.strip() in ("", "NA") else float(cell)

    want = np.array([[reference(c) for c in row] for row in table])
    tested = np.flatnonzero(~np.isnan(want[:, 1:]).all(axis=1))
    study = cli._load_study(str(tmp_path / "grown.csv"), "resp")
    assert list(study.biomarkers) == columns[1:]
    assert study.responses.tobytes() == want[:, 0].tobytes()
    assert study.rows.tolist() == tested.tolist()
    assert 0 < len(tested) < len(table)
    for j, column in enumerate(study.biomarkers.values(), start=1):
        assert column.tobytes() == want[tested, j].tobytes(), columns[j]
    base = study.biomarkers[columns[1]].base
    assert base is not None and base.shape == (len(tested), width)
    assert all(column.base is base for column in study.biomarkers.values())


def test_loader_table_holds_only_the_rows_with_a_tested_cell(tmp_path):
    # _grown_study's rows 1 and 3 of every 4 leave their biomarker cells
    # empty, "NA" or padded " NA": none of them enters the table. The
    # same study without them keeps every row
    width = 37
    block_rows = -(-cli._BLOCK_VALUES // (width + 1))
    n_rows = 4 * block_rows + 3
    table, columns = _grown_study(tmp_path / "mixed.csv", n_rows, width)
    study = cli._load_study(str(tmp_path / "mixed.csv"), "resp")
    assert len(study.responses) == n_rows
    assert study.rows.tolist() == [i for i in range(n_rows) if i % 4 in (0, 2)]
    assert study.rows.dtype == np.intp
    kept = [row for i, row in enumerate(table) if i % 4 in (0, 2)]
    _write_study(
        tmp_path / "all.csv",
        [[f"r{i}", *cells] for i, cells in enumerate(kept)],
        header=["id", *columns],
    )
    every = cli._load_study(str(tmp_path / "all.csv"), "resp")
    assert every.rows.tolist() == list(range(len(kept)))
    assert every.responses.tobytes() == study.responses[study.rows].tobytes()
    for name, column in every.biomarkers.items():
        assert column.tobytes() == study.biomarkers[name].tobytes(), name
        assert column.base.shape == (len(kept), width)


@pytest.mark.parametrize("fault", ["cell", "width"])
def test_loader_reports_a_late_block_error_at_its_line(tmp_path, fault):
    width = 37
    block_rows = -(-cli._BLOCK_VALUES // (width + 1))
    row = 8 * block_rows + 3
    path = tmp_path / "late.csv"
    table, _ = _grown_study(path, 9 * block_rows + 5, width)
    lines = path.read_text().splitlines(keepends=True)
    if fault == "cell":
        table[row][13] = "1.0x"
        match = (
            f"line {row + 2}, column 'bm012': cannot parse '1.0x' as a number"
        )
    else:
        table[row].append("1.0")
        match = f"line {row + 2}: expected {width + 2} fields, got {width + 3}"
    lines[row + 1] = ",".join([f"r{row}", *table[row]]) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(SchemaError) as got:
        cli._load_study(str(path), "resp")
    assert str(got.value) == match


def test_loader_log10_transforms_through_the_column_views(tmp_path):
    # --log10 writes each tested value's math.log10 into the shared
    # table of the tested rows; the responses stay as read
    width = 11
    block_rows = -(-cli._BLOCK_VALUES // (width + 1))
    n_rows = 3 * block_rows + 1
    rng = np.random.default_rng(4)
    raw = rng.uniform(0.01, 100.0, size=(n_rows, width))
    raw[1::3] = math.nan
    rows = [
        [f"r{i}", repr(0.25 * i), *("" if math.isnan(v) else repr(v)
                                    for v in raw[i].tolist())]
        for i in range(n_rows)
    ]
    path = tmp_path / "log10.csv"
    columns = [f"bm{j:02d}" for j in range(width)]
    _write_study(path, rows, header=["id", "resp", *columns])
    study = cli._load_study(str(path), "resp", log10=True)
    assert study.responses.tolist() == [0.25 * i for i in range(n_rows)]
    tested = [i for i in range(n_rows) if i % 3 != 1]
    assert study.rows.tolist() == tested
    base = study.biomarkers[columns[0]].base
    assert base is not None and base.shape == (len(tested), width)
    for j, name in enumerate(columns):
        want = [math.log10(v) for v in raw[tested, j].tolist()]
        assert study.biomarkers[name].tobytes() == np.array(want).tobytes()
        assert study.biomarkers[name].base is base


def test_loader_log10_error_names_the_file_line(tmp_path):
    # every fifth row is tested, so the bad value's table row, 27, is
    # not its file line, 139; it lies past the first block
    width = 150
    rows = [
        [f"r{i}", repr(0.25 * i),
         *(repr(1.0 + i + j) if i % 5 == 2 else "" for j in range(width))]
        for i in range(200)
    ]
    rows[137][2 + 3] = "-0.5"
    path = tmp_path / "log10_bad.csv"
    columns = [f"bm{j:03d}" for j in range(width)]
    _write_study(path, rows, header=["id", "resp", *columns])
    assert -(-cli._BLOCK_VALUES // (width + 1)) < 137
    with pytest.raises(DomainError) as got:
        cli._load_study(str(path), "resp", log10=True)
    assert str(got.value) == (
        "line 139, biomarker 'bm003': log10 transform needs positive "
        "values, got -0.5"
    )


def _reference_study(path, response, biomarkers=None, log10=False):
    """A Study read by csv.reader and float() alone, row by row.

    Raises the SchemaError _load_study raises: a record of the wrong
    width, then per row the response's cell, a missing response and
    the biomarker cells in order.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = list(csv.reader(fh))
    header = [h.strip() for h in records[0]]
    names = biomarkers or [h for h in header if h not in (response, "id")]
    columns = [response, *names]
    at = [header.index(name) for name in columns]
    responses, table = [], []
    for line_no, record in enumerate(records[1:], start=2):
        if len(record) != len(header):
            raise SchemaError(
                f"line {line_no}: expected {len(header)} fields, "
                f"got {len(record)}"
            )
        values = []
        for name, i in zip(columns, at):
            cell = record[i]
            if cell.strip() in ("", "NA"):
                values.append(math.nan)
            else:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SchemaError(
                        f"line {line_no}, column {name!r}: cannot parse "
                        f"{cell!r} as a number"
                    )
            if name == response and math.isnan(values[0]):
                raise SchemaError(
                    f"line {line_no}: missing response in column "
                    f"{response!r}"
                )
        responses.append(values[0])
        table.append(values[1:])
    table = np.array(table).reshape(len(responses), len(names))
    rows = np.flatnonzero(~np.isnan(table).all(axis=1))
    table = table[rows]
    if log10:
        table = np.array([
            [v if math.isnan(v) else math.log10(v) for v in row]
            for row in table.tolist()
        ]).reshape(table.shape)
    return np.array(responses), rows, names, table


# the rows of each layout: enough to cross a block edge
_LAYOUTS = {
    "wide": (300, 3 * -(-cli._BLOCK_VALUES // 301) + 7),
    "tall": (3, -(-cli._BLOCK_VALUES // 4) + 90),
}


def _differential_study(layout, case):
    """The text of a study in the layout, altered as case says.

    Every third row is tested, with a value in each biomarker cell; the
    others leave their biomarker cells empty. The alterations fall past
    the first block, or also at its end. Returns (text, response,
    biomarkers, log10).
    """
    width, n_rows = _LAYOUTS[layout]
    rng = np.random.default_rng(len(case) + width)
    names = [f"bm{j:03d}" for j in range(width)]
    rows = []
    for i in range(n_rows):
        cells = [""] * width
        if i % 3 == 0:
            cells = [repr(v) for v in rng.uniform(0.1, 10.0, width).tolist()]
        rows.append([f"r{i}", repr(0.5 * i - 40.0), *cells])
    late = n_rows - 5
    header = ["id", "resp", *names]
    response, biomarkers, log10, end = "resp", None, False, "\n"
    if case in ("crlf", "cr"):
        end = {"crlf": "\r\n", "cr": "\r"}[case]
    elif case == "quoted_numbers":
        rows[late - 1][1] = '"3.25"'  # an untested row's response
        rows[late][2] = '" 1.5"'
    elif case == "quoted_id_comma":
        rows[late][0] = '"r, 5"'
    elif case == "quoted_spanning_lines":
        # one record ends its block, so csv reads on past the block
        block_rows = -(-cli._BLOCK_VALUES // (width + 1))
        rows[block_rows - 1][0] = rows[late][0] = '"r\nfive"'
    elif case == "missing_tokens":
        tested = late - late % 3
        # an empty last cell ends the line in part of an untested run
        rows[tested][2] = "NA"
        rows[tested][-1] = ""
        rows[3][3] = " NA"  # its block goes through _parse_rows
        rows[tested + 1][2:] = ["NA"] * width
    elif case in ("quoted_padded_na", "quoted_bad_cell"):
        # a quote sends the block through csv.reader, and the cell fails
        # _convert_block, so _parse_block reads it
        tested = late - late % 3
        rows[tested][0] = '"r q"'
        rows[tested][3] = " NA" if case == "quoted_padded_na" else "1.5x"
    elif case == "too_few_fields":
        rows[late].pop()
    elif case == "too_many_fields":
        rows[late].append("1.0")
    elif case == "response_last":
        header = ["id", *names, "resp"]
        rows = [[row[0], *row[2:], row[1]] for row in rows]
    elif case == "non_adjacent_pick":
        biomarkers = [names[2], names[0]]
    elif case == "log10":
        log10 = True
    lines = [",".join(header), *(",".join(row) for row in rows)]
    if case == "blank_line":
        lines.insert(late, "")
    text = end.join(lines) + end
    if case == "blank_line_at_end":
        text += end
    return text, response, biomarkers, log10


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize(
    "case",
    [
        "lf", "crlf", "cr", "blank_line", "blank_line_at_end",
        "quoted_numbers", "quoted_id_comma", "quoted_spanning_lines",
        "missing_tokens", "quoted_padded_na", "quoted_bad_cell",
        "too_few_fields", "too_many_fields", "response_last",
        "non_adjacent_pick", "log10",
    ],
)
def test_loader_matches_a_csv_reader_reference(tmp_path, layout, case):
    # the loader's text path and csv path against csv.reader and float():
    # the same arrays, bit for bit, or the same first error
    text, response, biomarkers, log10 = _differential_study(layout, case)
    path = tmp_path / "study.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _reference_study(path, response, biomarkers, log10)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            cli._load_study(str(path), response, biomarkers, log10)
        assert str(got.value) == str(exc)
        return
    responses, rows, names, table = want
    study = cli._load_study(str(path), response, biomarkers, log10)
    assert study.responses.tobytes() == responses.tobytes()
    assert study.rows.tolist() == rows.tolist()
    assert list(study.biomarkers) == names
    got = np.column_stack(list(study.biomarkers.values()))
    assert got.tobytes() == table.tobytes()


def test_loader_reads_a_bom_file_as_without_it(tmp_path):
    # a spreadsheet's "CSV UTF-8" starts with a byte order mark
    plain = tmp_path / "plain.csv"
    bom = tmp_path / "bom.csv"
    shutil.copy(GOLDEN_STUDY, plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = cli._load_study(str(plain), "resp")
    got = cli._load_study(str(bom), "resp")
    assert got.responses.tobytes() == want.responses.tobytes()
    assert got.rows.tolist() == want.rows.tolist()
    assert list(got.biomarkers) == list(want.biomarkers)
    for name, column in want.biomarkers.items():
        assert got.biomarkers[name].tobytes() == column.tobytes()
    outputs = []
    for path in (plain, bom):
        out = tmp_path / f"{path.stem}_screen.csv"
        assert main(["screen", "--input", str(path), "--response", "resp",
                     "--out", str(out)]) == 0
        prefix = str(tmp_path / f"{path.stem}_analyze")
        assert main(["analyze", "--input", str(path), "--response", "resp",
                     "--biomarker", "bm1", "--out", prefix]) == 0
        outputs.append([
            out.read_bytes(),
            *(open(prefix + suffix, "rb").read() for suffix in (
                "_qq_response.csv", "_qq_residuals.csv"))
        ])
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("quoted", [True, False])
def test_loader_field_over_csv_limit_is_a_schema_error(tmp_path, capsys,
                                                        quoted):
    # csv.reader refuses a field longer than its limit; a quoted line
    # and a plain one both report it as the line's error, in the data
    # rows and in the header
    limit = csv.field_size_limit()
    cell = "x" * (limit + 1)
    if quoted:
        cell = f'"{cell}"'
    path = tmp_path / "long.csv"
    for text, line in ((f"id,resp,bm\na,1.0,2.0\n{cell},2.0,3.0\n", 3),
                       (f"{cell},resp,bm\na,1.0,2.0\n", 1)):
        path.write_text(text)
        for command in (["screen"], ["analyze", "--biomarker", "bm"]):
            argv = [command[0], "--input", str(path), "--response", "resp"]
            assert main(argv + command[1:]) == 2
            assert capsys.readouterr().err == (
                f"error: line {line}: field larger than field limit ({limit})\n"
            )


@pytest.mark.parametrize(
    "command",
    [
        ["screen", "--biomarkers", "resp,bm1"],
        ["analyze", "--biomarker", "resp"],
        ["check", "--biomarker", "resp"],
    ],
)
def test_response_column_refused_as_a_biomarker(tmp_path, capsys, command):
    # screened against itself, the response would read estimate 1.0
    # and p 0.0, a discovery
    argv = [command[0], "--input", GOLDEN_STUDY, "--response", "resp",
            "--out", str(tmp_path / "out")]
    assert main(argv + command[1:]) == 2
    assert capsys.readouterr().err == (
        "error: column 'resp' is the response; it cannot also be a "
        "biomarker\n"
    )
    with pytest.raises(DomainError):
        cli._load_study(GOLDEN_STUDY, "resp", ["resp"])


@pytest.mark.parametrize("command", ["analyze", "screen", "check"])
def test_response_variance_overflow_rejected(tmp_path, capsys, command):
    # the suite turns RuntimeWarning into an error, so none may leak
    rng = np.random.default_rng(3)
    y = rng.uniform(1e307, 9e307, size=50)
    rows = [
        [f"r{i}", repr(float(v)), repr(float(i)) if i % 5 == 0 else ""]
        for i, v in enumerate(y)
    ]
    path = tmp_path / "huge.csv"
    _write_study(path, rows)
    argv = [command, "--input", str(path), "--response", "resp"]
    if command != "screen":
        argv += ["--biomarker", "bm"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "response column 'resp'" in err and "double range" in err


def _huge_biomarker_study(path):
    # bm's tested values are about +-1e300, so its sums of squares
    # overflow; ok is tested on the same rows with ordinary values
    rng = np.random.default_rng(5)
    y = rng.normal(10.0, 3.0, 60)
    order = np.argsort(y)
    tested = set(order[:6].tolist()) | set(order[-6:].tolist())
    rows = []
    for i, v in enumerate(y):
        sign = 1.0 if i % 2 else -1.0
        bm = repr(sign * 1e300 * rng.uniform(0.5, 1.0)) if i in tested else ""
        ok = repr(float(rng.normal())) if i in tested else ""
        rows.append([f"r{i}", repr(float(v)), bm, ok])
    _write_study(path, rows, header=("id", "resp", "bm", "ok"))


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_biomarker_overflow_rejected(tmp_path, capsys, command):
    # the suite turns RuntimeWarning into an error, so none may leak
    path = tmp_path / "huge_bm.csv"
    _huge_biomarker_study(path)
    argv = [command, "--input", str(path), "--response", "resp",
            "--biomarker", "bm", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "beyond double range" in capsys.readouterr().err
    argv[argv.index("bm")] = "ok"
    assert main(argv) == 0


def test_screen_flags_overflowing_biomarker(tmp_path):
    path = tmp_path / "huge_bm.csv"
    out = tmp_path / "screen.csv"
    _huge_biomarker_study(path)
    assert main(["screen", "--input", str(path), "--response", "resp",
                 "--out", str(out)]) == 0
    rows = {row[0]: row for row in _read_csv(out)[1:]}
    assert rows["bm"][1:8] == ["NA"] * 6 + ["2"]
    assert "beyond double range" in rows["bm"][8]
    assert rows["ok"][8] == ""
    # the failed column leaves the BH family, as every failed column does
    assert rows["ok"][5] == rows["ok"][6]


def _tiny_response_study(path):
    # y = 1e-155 x + 2e-162 noise: the reverse slope is about 1e155, so
    # its square in the conversion leaves double range
    rng = np.random.default_rng(1)
    x = rng.normal(size=200)
    y = 1e-155 * x + 2e-162 * rng.normal(size=200)
    order = np.argsort(y)
    tested = set(order[:20].tolist()) | set(order[-20:].tolist())
    _write_study(path, [
        [f"r{i}", repr(float(y[i])), repr(float(x[i])) if i in tested else ""]
        for i in range(200)
    ])


def _scaled_response_study(path):
    # the golden study with its response times 1e-157: the response
    # variance is subnormal and the reverse fit overflows
    rows = _read_csv(GOLDEN_STUDY)
    _write_study(
        path,
        [[r[0], repr(float(r[1]) * 1e-157), *r[2:]] for r in rows[1:]],
        header=rows[0],
    )


@pytest.mark.parametrize(
    "study", [_tiny_response_study, _scaled_response_study]
)
def test_conversion_overflow_rejected(tmp_path, capsys, study):
    # the suite turns RuntimeWarning into an error, so none may leak;
    # the tiny-response study once printed beta_y 0.0 and exit 0
    path = tmp_path / "study.csv"
    study(path)
    biomarker = _read_csv(path)[0][2]
    assert main(["analyze", "--input", str(path), "--response", "resp",
                 "--biomarker", biomarker]) == 2
    assert "beyond double range" in capsys.readouterr().err
    out = tmp_path / "screen.csv"
    assert main(["screen", "--input", str(path), "--response", "resp",
                 "--out", str(out)]) == 0
    for row in _read_csv(out)[1:]:
        assert row[1:7] == ["NA"] * 6
        assert "beyond double range" in row[8]


def test_conversion_overflow_names_the_forward_estimate(tmp_path, capsys):
    # the reverse fit of the tiny-response study is finite; its
    # conversion once got the fit's overflow verdict
    path = tmp_path / "study.csv"
    _tiny_response_study(path)
    verdict = "forward estimate, SE or interval beyond double range"
    assert main(["analyze", "--input", str(path), "--response", "resp",
                 "--biomarker", "bm"]) == 2
    assert capsys.readouterr().err == f"error: {verdict}\n"
    out = tmp_path / "screen.csv"
    assert main(["screen", "--input", str(path), "--response", "resp",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(out)[1:]
    assert row[8] == verdict


def test_simulate_conversion_overflow_fails_the_cell(tmp_path):
    # the cell once reported mean_estimate 0.0 and all 20 replicates used
    cfg = tmp_path / "tiny.cfg"
    _write_config(cfg, "n_full = 40\nbeta_y = 1e-155\ngamma = 0.5\n"
                  "sampling = extreme\nestimator = odeb\nalpha_y = 0\n"
                  "noise_variance = 5e-324\nreplicates = 20\nseed = 1\n")
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert row["replicates_used"] == ""
    assert "beyond double range" in row["error"]


@pytest.mark.parametrize("alpha_level", ["0.05", "1e-300"])
def test_simulate_metrics_overflow_fails_the_cell(tmp_path, alpha_level):
    # the odeb cell once wrote rmse inf (and at 1e-300 an infinite
    # mean_ci_length) with a RuntimeWarning; its ols cell fails in the fit
    cfg = tmp_path / "wild.cfg"
    _write_config(cfg, "n_full = 20\nbeta_y = 0.0\ngamma = 0.2\n"
                  "sampling = random\nestimator = odeb, ols\nreplicates = 5\n"
                  "seed = 1\nx_var = 1e-300\nnoise_variance = 1e20\n"
                  f"alpha_level = {alpha_level}\n")
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        odeb_row, ols_row = csv.DictReader(fh)
    assert odeb_row["rmse"] == ""
    assert odeb_row["error"].startswith("metrics beyond double range")
    assert ols_row["error"].startswith("replicate 0: sums of squares")


# ---------------------------------------------------------------- plan


def test_plan_golden_byte_stable():
    with open(os.path.join(DATA_DIR, "golden_plan.txt"), "rb") as fh:
        assert GEN_GOLDEN.plan_transcript().encode("utf-8") == fh.read()


def test_plan_golden_queries_take_few_t_cdf_calls(monkeypatch):
    # the nine queries, from an empty quantile cache, made 3042 t_cdf
    # calls when the t quantile was solved by bisection
    bisection_calls = 3042
    calls = []
    t_cdf = dist.t_cdf
    monkeypatch.setattr(dist, "t_cdf", lambda x, df: calls.append(x) or t_cdf(x, df))
    dist.t_quantile.cache_clear()
    GEN_GOLDEN.plan_transcript()
    assert len(calls) <= bisection_calls / 5, len(calls)


def test_plan_min_gamma_line(capsys):
    code = main(
        [
            "plan",
            "--n-full", "200",
            "--effect-f", "0.3",
            "--alpha", "0.05",
            "--target-power", "0.90",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma 0.19" in out
    assert "select 38 (19 per tail), power 0.9073" in out


def test_plan_full_sampling_power(capsys):
    code = main(
        ["plan", "--n-full", "119", "--gamma", "1.0", "--effect-f", "0.3"]
    )
    assert code == 0
    assert "power 0.9007" in capsys.readouterr().out


def test_plan_power_at_design(capsys):
    code = main(
        ["plan", "--n-full", "200", "--gamma", "0.1", "--effect-f", "0.3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "select 20 (10 per tail), power 0.7579" in out


def test_plan_min_nfull(capsys):
    code = main(
        [
            "plan",
            "--gamma", "1.0",
            "--effect-f", "0.3",
            "--target-power", "0.90",
        ]
    )
    assert code == 0
    assert "n_full 119" in capsys.readouterr().out


def test_plan_zero_effect_power_equals_alpha(capsys):
    code = main(
        ["plan", "--n-full", "100", "--gamma", "0.2", "--effect-f", "0"]
    )
    assert code == 0
    assert "power 0.0500" in capsys.readouterr().out


def test_plan_effect_rho_equivalent(capsys):
    rho = math.sqrt(0.09 / 1.09)  # gives f = 0.3 exactly up to rounding
    code = main(
        ["plan", "--n-full", "200", "--gamma", "0.1", "--effect-rho", repr(rho)]
    )
    assert code == 0
    assert "power 0.7579" in capsys.readouterr().out


def test_plan_argument_validation(capsys):
    # not exactly two of the triplet
    assert main(["plan", "--n-full", "200", "--effect-f", "0.3"]) == 2
    assert (
        main(
            [
                "plan",
                "--n-full", "200",
                "--gamma", "0.2",
                "--target-power", "0.9",
                "--effect-f", "0.3",
            ]
        )
        == 2
    )
    # effect given twice or not at all
    assert (
        main(
            [
                "plan",
                "--n-full", "200",
                "--gamma", "0.2",
                "--effect-f", "0.3",
                "--effect-rho", "0.2",
            ]
        )
        == 2
    )
    assert main(["plan", "--n-full", "200", "--gamma", "0.2"]) == 2
    capsys.readouterr()
    # too few selected subjects: every count below four gets the
    # estimator's text
    assert (
        main(["plan", "--n-full", "10", "--gamma", "0.2", "--effect-f", "0.3"])
        == 2
    )
    assert capsys.readouterr().err == (
        "error: gamma 0.2 selects only 2 of 10 rows; the estimator needs "
        "at least 4\n"
    )

    # three selected subjects: a design the estimator refuses
    assert (
        main(["plan", "--n-full", "25", "--gamma", "0.1", "--effect-f", "5"])
        == 2
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: gamma 0.1 selects only 3 of 25 rows; the estimator needs "
        "at least 4\n"
    )


SMALLEST_NORMAL = "2.2250738585072014e-308"


@pytest.mark.parametrize("alpha", ["5e-324", "1e-320", "1e-310"])
def test_plan_rejects_subnormal_alpha(capsys, alpha):
    argv = ["plan", "--n-full", "200", "--gamma", "0.2", "--effect-f", "0.3"]
    assert main(argv + ["--alpha", alpha]) == 2
    assert capsys.readouterr().err == (
        f"error: alpha must be at least {SMALLEST_NORMAL}, the smallest "
        f"normal double, got {alpha}\n"
    )
    # the smallest normal double plans
    assert main(argv + ["--alpha", SMALLEST_NORMAL]) == 0


def test_simulate_rejects_a_subnormal_alpha_level(tmp_path, capsys):
    base = (
        "n_full = 100\nbeta_y = 0.4\ngamma = 0.2\nsampling = extreme\n"
        "estimator = ols\nreplicates = 5\nseed = 7\n"
    )
    cfg = tmp_path / "tiny.cfg"
    out = tmp_path / "tiny.csv"
    _write_config(cfg, base + "alpha_level = 1e-320\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "estimator=ols): alpha must be at least "
        f"{SMALLEST_NORMAL}, the smallest normal double, got 1e-320\n"
    )
    _write_config(cfg, base + f"alpha_level = {SMALLEST_NORMAL}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_csv(out)[1][-1] == ""  # the cell ran


@pytest.mark.parametrize(
    "design",
    [
        ["--n-full", "200", "--gamma", "0.2"],
        ["--gamma", "0.2", "--target-power", "0.9"],
        ["--n-full", "200", "--target-power", "0.9"],
    ],
)
@pytest.mark.parametrize("effect", ["inf", "nan", "-0.5"])
def test_plan_effect_f_must_be_finite_and_nonnegative(capsys, design, effect):
    assert main(["plan", *design, "--effect-f", effect]) == 2
    err = capsys.readouterr().err
    assert "effect_f" in err and "Traceback" not in err


def test_plan_infeasible_target_reported(capsys):
    code = main(
        [
            "plan",
            "--n-full", "200",
            "--effect-f", "0.3",
            "--target-power", "0.999",
        ]
    )
    assert code == 2
    assert "full sampling" in capsys.readouterr().err


@pytest.mark.parametrize("effect", ["1e3", "1e4", "1e10", "1e200"])
def test_plan_huge_effect_ends_within_time(effect):
    # the noncentral F sweep once visited all ncp/2 Poisson terms below
    # the mode, and effect_f ** 2 overflowed at 1e200
    proc = subprocess.run(
        [sys.executable, "-m", "eods.cli", "plan", "--n-full", "200",
         "--gamma", "0.2", "--effect-f", effect],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, answer",
    [
        (["--n-full", "200", "--gamma", "0.2"],
         "select 40 (20 per tail), power 1.0000"),
        (["--gamma", "0.2", "--target-power", "0.9"], "n_full 18"),
        (["--n-full", "200", "--target-power", "0.9"], "gamma 0.02"),
    ],
)
def test_plan_overflowing_effect_squared_has_power_one(capsys, args, answer):
    # effect_f * effect_f overflows to inf, an infinite ncp, so power 1
    assert main(["plan", "--effect-f", "1e200", *args]) == 0
    assert answer in capsys.readouterr().out.splitlines()


def test_plan_tiny_gamma_infeasible_within_time():
    # no n_full up to the search cap selects 3 subjects at this gamma
    proc = subprocess.run(
        [sys.executable, "-m", "eods.cli", "plan", "--gamma", "1e-9",
         "--effect-f", "0.1", "--target-power", "0.8"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no design up to n_full = 10000000 reaches power" in proc.stderr
    assert "Traceback" not in proc.stderr


# -------------------------------------------------------------- screen


def test_screen_golden_byte_stable(tmp_path):
    out = tmp_path / "screen.csv"
    code = main(
        [
            "screen",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, "rb") as fh:
        got = fh.read()
    with open(os.path.join(DATA_DIR, "golden_screen.csv"), "rb") as fh:
        assert got == fh.read()


def test_screen_matches_analyze_per_biomarker(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = _read_csv(os.path.join(DATA_DIR, "golden_screen.csv"))
    header, table = rows[0], rows[1:]
    est_i = header.index("Estimate")
    p_i = header.index("P-Value")
    for row in table:
        code = main(
            [
                "analyze",
                "--input", GOLDEN_STUDY,
                "--response", "resp",
                "--biomarker", row[0],
                "--out", f"per_{row[0]}",
            ]
        )
        assert code == 0
        report = _report_dict(f"per_{row[0]}_report.csv")
        assert report["beta_y"] == row[est_i]
        assert report["p_value"] == row[p_i]


def test_screen_sorted_by_p_value():
    rows = _read_csv(os.path.join(DATA_DIR, "golden_screen.csv"))
    header, table = rows[0], rows[1:]
    p_i = header.index("P-Value")
    ps = [float(r[p_i]) for r in table]
    assert ps == sorted(ps)
    assert [r[header.index("rank")] for r in table] == ["1", "2", "3"]


def test_screen_each_biomarker_uses_its_own_subset(tmp_path, capsys):
    # bm_a observed on rows 0-19, bm_b only on rows 0-11
    rng = np.random.default_rng(19)
    y = np.concatenate([np.linspace(-9, -5, 10), np.linspace(5, 9, 10)])
    a = rng.normal(size=20)
    rows = []
    for i in range(20):
        b = repr(float(a[i] * 0.5)) if i < 6 or i >= 14 else "NA"
        rows.append([f"r{i}", repr(float(y[i])), repr(float(a[i])), b])
    path = tmp_path / "ragged.csv"
    _write_study(path, rows, header=("id", "resp", "bm_a", "bm_b"))
    out = tmp_path / "out.csv"
    code = main(
        [
            "screen",
            "--input", str(path),
            "--response", "resp",
            "--out", str(out),
        ]
    )
    assert code == 0
    table = _read_csv(out)
    by_id = {r[0]: r for r in table[1:]}
    # recompute bm_b on its 12-row subset directly
    idx = [i for i in range(20) if i < 6 or i >= 14]
    full = odeb.FullResponseSummary.from_responses(y)
    subset = odeb.SelectedSubset.from_arrays(
        [a[i] * 0.5 for i in idx], y[idx], len(idx) / 20
    )
    est = odeb.estimate(subset, full)
    assert float(by_id["bm_b"][1]) == pytest.approx(est.beta_y, abs=1e-12)


def test_screen_flags_failed_biomarker(tmp_path):
    rows = _read_csv(GOLDEN_STUDY)
    header, data = rows[0], rows[1:]
    bm_i = header.index("bm2")
    flat = []
    for r in data:
        r = list(r)
        if r[bm_i] not in ("", "NA"):
            r[bm_i] = "7.5"
        flat.append(r)
    path = tmp_path / "flat.csv"
    _write_study(path, flat, header=header)
    out = tmp_path / "out.csv"
    code = main(
        [
            "screen",
            "--input", str(path),
            "--response", "resp",
            "--out", str(out),
        ]
    )
    assert code == 0
    table = _read_csv(out)
    last = table[-1]
    assert last[0] == "bm2"
    assert last[1] == "NA"  # estimate
    assert last[-1] != ""  # error text
    assert last[-2] == "3"  # failed rows rank last


def test_screen_explicit_biomarker_list(tmp_path):
    out = tmp_path / "subset.csv"
    code = main(
        [
            "screen",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--biomarkers", "bm1,bm3",
            "--out", str(out),
        ]
    )
    assert code == 0
    ids = [r[0] for r in _read_csv(out)[1:]]
    assert sorted(ids) == ["bm1", "bm3"]


def test_screen_repeated_biomarker_screened_once(tmp_path):
    out = tmp_path / "dup.csv"
    code = main(
        [
            "screen",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--biomarkers", "bm1,bm1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert [r[0] for r in _read_csv(out)[1:]] == ["bm1"]


def test_screen_constant_response_rejected(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    _write_study(path, [[f"r{i}", "5.0", repr(0.5 + i)] for i in range(12)])
    code = main(["screen", "--input", str(path), "--response", "resp"])
    assert code == 2
    assert "full response variance" in capsys.readouterr().err


def test_screen_unknown_biomarker_rejected(capsys):
    code = main(
        [
            "screen",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--biomarkers", "bm1,missing_col",
        ]
    )
    assert code == 2
    assert "missing_col" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["7", "-1", "0", "nan", "inf"])
def test_screen_rejects_bh_level_outside_unit_interval(
    tmp_path, capsys, level
):
    # the input does not exist: the level is checked before it is read
    out = tmp_path / "screen.csv"
    code = main(
        [
            "screen",
            "--input", str(tmp_path / "absent.csv"),
            "--response", "resp",
            "--bh-level", level,
            "--out", str(out),
        ]
    )
    assert code == 2
    want = f"--bh-level must lie in (0, 1], got {float(level)!r}"
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_screen_accepts_bh_level_one(tmp_path, capsys):
    out = tmp_path / "screen.csv"
    code = main(
        [
            "screen",
            "--input", GOLDEN_STUDY,
            "--response", "resp",
            "--bh-level", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    said = capsys.readouterr().out
    assert said.startswith("3 biomarkers screened; 3 with q-value <= 1.0\n")


def test_screen_stdout_when_no_out_file(capsys):
    code = main(
        ["screen", "--input", GOLDEN_STUDY, "--response", "resp"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("biomarker,Estimate,Std. Error,LCL,UCL,P-Value")


def test_screen_warns_when_subset_not_extreme(tmp_path, capsys):
    rng = np.random.default_rng(4)
    y = rng.normal(size=60)
    rows = []
    for i in range(60):
        tail = repr(float(rng.normal())) if i < 6 or i >= 54 else "NA"
        mid = repr(float(rng.normal())) if i % 5 == 0 else "NA"
        rows.append([f"r{i}", repr(float(np.sort(y)[i])), tail, mid])
    path = tmp_path / "mid.csv"
    _write_study(path, rows, header=("id", "resp", "bm_tail", "bm_mid"))
    code = main(
        ["screen", "--input", str(path), "--response", "resp",
         "--out", str(tmp_path / "out.csv")]
    )
    assert code == 0
    warnings = [
        line for line in capsys.readouterr().err.splitlines()
        if "does not look extreme" in line
    ]
    assert len(warnings) == 1 and "'bm_mid'" in warnings[0]


def test_screen_reads_input_once(tmp_path, monkeypatch):
    import builtins

    from eods import cli

    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    out = tmp_path / "screen.csv"
    code = main(
        ["screen", "--input", GOLDEN_STUDY, "--response", "resp",
         "--out", str(out)]
    )
    assert code == 0
    assert opened.count(GOLDEN_STUDY) == 1


# Runs one eods command and prints its exit code and how far the peak
# resident set rose above the one after import, in bytes
_PEAK_CHILD = """
import sys

from eods import cli


def high_water_mark():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


base = high_water_mark()
code = cli.main(sys.argv[1:])
print(code, high_water_mark() - base)
"""


def _tail_tested_study(path, n_rows, width):
    """A wide study tested on its 100 lowest and 100 highest responses.

    Returns the path as a string.
    """
    rng = np.random.default_rng(21)
    y = rng.normal(10.0, 3.0, size=n_rows)
    order = np.argsort(y)
    tested = set(order[:100].tolist()) | set(order[-100:].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        names = (f"bm{j:04d}" for j in range(width))
        fh.write(",".join(["id", "resp", *names]) + "\n")
        for i, v in enumerate(y.tolist()):
            cells = "," * width
            if i in tested:
                values = np.round(rng.normal(size=width), 6).tolist()
                cells = "," + ",".join(map(repr, values))
            fh.write(f"r{i},{v!r}{cells}\n")
    return str(path)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_screen_peak_memory_holds_the_study_once(tmp_path):
    # a wide study tested on its response tails, as a screen's input is.
    # The bound is on a table of n_rows x (width + 1) doubles. Holding
    # it twice, as a list of blocks beside their concatenation, rose
    # 2.3-2.6 times its size; one table grown in place rose about 1.4
    # times, and the tested rows alone rise about 0.46 times
    n_rows, width = 1000, 2000
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, "screen", "--input",
         _tail_tested_study(tmp_path / "wide.csv", n_rows, width),
         "--response", "resp", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, grown = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    table_bytes = n_rows * (width + 1) * 8
    assert int(grown) < 1.75 * table_bytes


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_screen_peak_memory_scales_with_the_tested_cells(tmp_path):
    # the study above, with its 200 tested rows of 1000: the loader
    # holds only those rows' biomarker cells. Holding every row's, as a
    # table 80% NaN, rose 6.95 times the tested cells' bytes; holding
    # the tested rows alone rises about 2.3 times
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, "screen", "--input",
         _tail_tested_study(tmp_path / "wide.csv", 1000, 2000),
         "--response", "resp", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, grown = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    tested_bytes = 200 * 2000 * 8
    assert int(grown) < 4.5 * tested_bytes


@pytest.mark.parametrize("token", ["nan", "-inf", "Infinity"])
@pytest.mark.parametrize("column", [1, 3])
def test_screen_rejects_non_finite_cell(tmp_path, capsys, token, column):
    rows = _read_csv(GOLDEN_STUDY)
    header, data = rows[0], [list(r) for r in rows[1:]]
    data[9][column] = token
    path = tmp_path / "nonfinite.csv"
    _write_study(path, data, header=header)
    code = main(["screen", "--input", str(path), "--response", "resp"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 11" in err and "finite" in err


def test_screen_log10_matches_manual_transform(tmp_path):
    rows = _read_csv(GOLDEN_STUDY)
    header, data = rows[0], rows[1:]
    names = [h for h in header if h.startswith("bm")]
    exp_rows = []
    for r in data:
        r = list(r)
        for name in names:
            i = header.index(name)
            if r[i] not in ("", "NA"):
                r[i] = repr(math.exp(float(r[i])))
        exp_rows.append(r)
    path = tmp_path / "expo.csv"
    _write_study(path, exp_rows, header=header)
    out = tmp_path / "out.csv"
    code = main(
        ["screen", "--input", str(path), "--response", "resp", "--log10",
         "--out", str(out)]
    )
    assert code == 0
    by_id = {r[0]: r for r in _read_csv(out)[1:]}
    assert sorted(by_id) == sorted(names)
    y = np.array([float(r[header.index("resp")]) for r in exp_rows])
    full = odeb.FullResponseSummary.from_responses(y)
    for name in names:
        i = header.index(name)
        tested = [k for k, r in enumerate(exp_rows) if r[i] not in ("", "NA")]
        raw = np.array([float(exp_rows[k][i]) for k in tested])
        subset = odeb.SelectedSubset.from_arrays(
            np.log10(raw), y[tested], len(tested) / len(y)
        )
        est = odeb.estimate(subset, full)
        assert abs(float(by_id[name][1]) - est.beta_y) < TOL_EXACT


def test_screen_log10_rejects_nonpositive(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    rows = [
        [f"r{i}", repr(float(i)), repr(0.5 + i), repr(1.5 + i)]
        for i in range(12)
    ]
    rows[7][3] = "0.0"
    _write_study(path, rows, header=("id", "resp", "bm_ok", "bm_bad"))
    code = main(
        ["screen", "--input", str(path), "--response", "resp", "--log10"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 9" in err and "log10" in err and "bm_bad" in err


# ------------------------------------------------------------ simulate


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", GEN_GOLDEN.SIMULATE_CONFIGS)
def test_simulate_golden_byte_stable(tmp_path, capsys, name, workers):
    out = tmp_path / f"{name}.csv"
    config = os.path.join(DATA_DIR, f"{name}.cfg")
    code = main(
        ["simulate", "--config", config, "--out", str(out), "--workers", workers]
    )
    assert code == 0
    capsys.readouterr()
    with open(out, "rb") as fh:
        got = fh.read()
    with open(os.path.join(DATA_DIR, f"{name}.csv"), "rb") as fh:
        assert got == fh.read(), f"{name}.csv drifted from the golden file"


def _write_config(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# every config is _EXTREME_BASE with one key or two changed
_EXTREME_BASE = {
    "n_full": "30, 200",
    "beta_y": "0.0, 0.4",
    "gamma": "0.2",
    "sampling": "extreme, random",
    "estimator": "ols, odeb",
    "replicates": "20",
    "seed": "4",
}
_EXTREME_CASES = [
    {"x_mean": "1e308"},
    {"x_mean": "-1e308"},
    {"beta_y": "1e308"},
    {"beta_y": "-1e308"},
    {"x_var": "1e80"},
    {"x_var": "1e100"},
    {"x_var": "1e-80"},
    *(
        {"noise_variance": v, "residual_family": family}
        for family in ("normal", "scaled_t(3)", "shifted_lognormal")
        for v in ("1e308", "1e-300", "5e-324")
    ),
    {"alpha_level": "1e-310"},
    {"alpha_level": "5e-324"},
    {"beta_y": "nan"},
    {"x_mean": "-inf"},
    {"x_var": "inf"},
    {"alpha_y": "inf"},
    {"noise_variance": "nan"},
    {"noise_variance": "inf"},
    {"gamma": "inf"},
    {"alpha_level": "nan"},
]


@pytest.mark.parametrize("change", _EXTREME_CASES, ids=str)
def test_simulate_extreme_input_fails_by_name(tmp_path, capsys, change):
    # exit 0 or 2 and no exception or RuntimeWarning; a config error
    # names the key changed, a failed cell says "beyond double range"
    cfg = tmp_path / "grid.cfg"
    _write_config(
        cfg,
        "".join(f"{k} = {v}\n" for k, v in {**_EXTREME_BASE, **change}.items()),
    )
    out = tmp_path / "metrics.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        key = next(iter(change))
        assert ("alpha" if key == "alpha_level" else key) in err
        return
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert all("beyond double range" in e for e in errors if e)


def test_simulate_imports_no_numpy_ma(tmp_path):
    # np.median would import numpy.ma on its first call
    cfg = tmp_path / "small.cfg"
    _write_config(
        cfg,
        "n_full = 40, 41\nbeta_y = 0.4\ngamma = 0.2\n"
        "sampling = extreme\nestimator = odeb, ols\n"
        "replicates = 30\nseed = 5\n",
    )
    child = (
        "import sys\n"
        "from eods import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "small.csv")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    rows = _read_csv(tmp_path / "small.csv")
    assert len(rows) == 5 and all(row[-1] == "" for row in rows[1:])


def test_import_loads_no_pool_or_statistics():
    # the process pool is imported by simulate --workers > 1 alone, and
    # the normal quantile needs no statistics module
    child = (
        "import sys\n"
        "import eods.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
        " 'statistics', 'decimal', 'fractions') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_single_cell_matches_run_scenario(tmp_path):
    cfg = tmp_path / "one.cfg"
    _write_config(
        cfg,
        "n_full = 200\nbeta_y = 0.4\ngamma = 0.2\n"
        "sampling = extreme\nestimator = odeb\n"
        "replicates = 80\nseed = 604\n",
    )
    out = tmp_path / "one.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    header, row = rows
    want = sim.run_scenario(
        sim.SimScenario(
            n_full=200, beta_y=0.4, gamma=0.2, sampling="extreme",
            estimator="odeb", replicates=80, seed=604,
        )
    )
    cell = dict(zip(header, row))
    assert float(cell["mean_estimate"]) == want.mean_estimate
    assert float(cell["rmse"]) == want.rmse
    assert float(cell["ci_coverage"]) == want.ci_coverage
    assert int(cell["replicates_used"]) == want.replicates_used
    assert cell["error"] == ""


def test_simulate_grid_order_and_workers_byte_identical(tmp_path):
    cfg = tmp_path / "grid.cfg"
    _write_config(
        cfg,
        "# comment line\n"
        "n_full = 100, 200\n"
        "beta_y = 0, 0.4\n"
        "gamma = 0.2\n"
        "sampling = extreme, random\n"
        "estimator = odeb, ols\n"
        "replicates = 30\n"
        "seed = 91\n"
        "x_var = 5   # trailing comment\n",
    )
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(out1), "--workers", "1"]
    ) == 0
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(out8), "--workers", "8"]
    ) == 0
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out8, "rb") as fh:
        assert b1 == fh.read()
    rows = _read_csv(out1)
    assert len(rows) == 1 + 16
    # expansion order: n_full outermost, estimator innermost
    first_cells = [(r[0], r[1], r[3], r[4]) for r in rows[1:5]]
    assert first_cells == [
        ("100", "0.0", "extreme", "odeb"),
        ("100", "0.0", "extreme", "ols"),
        ("100", "0.0", "random", "odeb"),
        ("100", "0.0", "random", "ols"),
    ]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "seeded.cfg"
    _write_config(
        cfg,
        "n_full = 100\nbeta_y = 0.4\ngamma = 0.2\nsampling = extreme\n"
        "estimator = odeb\nreplicates = 25\nseed = 1\n",
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(b), "--seed", "2"]
    ) == 0
    ra, rb = _read_csv(a)[1], _read_csv(b)[1]
    assert ra[13] == "1" and rb[13] == "2"
    assert ra[14] != rb[14]  # different draws, different mean estimate


def test_simulate_scaled_t_token_in_config(tmp_path):
    cfg = tmp_path / "fam.cfg"
    _write_config(
        cfg,
        "n_full = 100\nbeta_y = 0\ngamma = 0.2\nsampling = extreme\n"
        "estimator = odeb\nreplicates = 10\nseed = 7\n"
        "residual_family = normal, scaled_t(10), shifted_lognormal\n",
    )
    out = tmp_path / "fam.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    families = [(r[5], r[6]) for r in rows[1:]]
    assert families == [
        ("normal", ""),
        ("scaled_t", "10"),
        ("shifted_lognormal", ""),
    ]


def test_simulate_t_df_key_applies_to_plain_scaled_t(tmp_path):
    cfg = tmp_path / "df.cfg"
    _write_config(
        cfg,
        "n_full = 100\nbeta_y = 0\ngamma = 0.2\nsampling = extreme\n"
        "estimator = odeb\nreplicates = 10\nseed = 7\n"
        "residual_family = normal, scaled_t\nt_df = 20\n",
    )
    out = tmp_path / "df.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [(r[5], r[6]) for r in rows[1:]] == [
        ("normal", ""),
        ("scaled_t", "20"),
    ]


def test_simulate_config_errors(tmp_path, capsys):
    base = (
        "n_full = 100\nbeta_y = 0\ngamma = 0.2\nsampling = extreme\n"
        "estimator = odeb\nreplicates = 10\nseed = 7\n"
    )
    cases = [
        (base + "volume = 3\n", "unknown key"),
        (base + "seed = 9\n", "duplicate key"),
        (base.replace("replicates = 10", "replicates = 5, 10"), "single value"),
        (base.replace("seed = 7\n", ""), "missing required key"),
        (base + "nonsense line\n", "expected 'key = value'"),
        (base + "x_var = soft\n", "cannot parse"),
        (base.replace("beta_y = 0\n", "beta_y = \n"),
         "line 2: empty value for key 'beta_y'"),
        (base.replace("gamma = 0.2", "gamma = 1.5"), "gamma"),
        (
            base + "residual_family = scaled_t(10)\nt_df = 20\n",
            "conflicts",
        ),
        (
            base.replace("beta_y = 0\n", "beta_y = nan\n"),
            "cell (n_full=100, beta_y=nan, gamma=0.2, family=normal, "
            "sampling=extreme, estimator=odeb): "
            "beta_y must be finite, got nan",
        ),
        (
            base.replace("n_full = 100", "n_full = 4"),
            "cell (n_full=4, beta_y=0.0, gamma=0.2, family=normal, "
            "sampling=extreme, estimator=odeb): "
            "n_full must be at least 5, got 4",
        ),
        (
            base.replace("replicates = 10", "replicates = 0"),
            "cell (n_full=100, beta_y=0.0, gamma=0.2, family=normal, "
            "sampling=extreme, estimator=odeb): "
            "replicates must be at least 1, got 0",
        ),
        (
            base.replace("seed = 7", "seed = -1"),
            "cell (n_full=100, beta_y=0.0, gamma=0.2, family=normal, "
            "sampling=extreme, estimator=odeb): "
            "seed must be at least 0, got -1",
        ),
    ]
    for i, (text, needle) in enumerate(cases):
        cfg = tmp_path / f"bad{i}.cfg"
        _write_config(cfg, text)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2, needle
        assert needle in capsys.readouterr().err


def test_simulate_config_not_utf8_rejected(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n_full = 100\n# caf\xe9\nbeta_y = 0\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: not valid UTF-8 at byte offset 18\n"
    assert not out.exists()


def test_simulate_runtime_failure_lands_in_error_column(tmp_path):
    cfg = tmp_path / "thin.cfg"
    # 0.1 * 20 rounds to 2 selected rows: valid scenario values, but the
    # design is unusable, so the cell fails at run time
    _write_config(
        cfg,
        "n_full = 20, 100\nbeta_y = 0\ngamma = 0.1\nsampling = extreme\n"
        "estimator = odeb\nreplicates = 10\nseed = 7\n",
    )
    out = tmp_path / "thin.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert "selects only" in rows[1][-1]
    assert rows[1][14] == ""  # no metrics on the failed row
    assert rows[2][-1] == ""  # second cell still ran


def test_simulate_csv_layout(tmp_path):
    cfg = tmp_path / "layout.cfg"
    _write_config(
        cfg,
        "n_full = 20\nbeta_y = 0\ngamma = 0.1, 0.3\n"
        "residual_family = normal, scaled_t\nt_df = 20\n"
        "sampling = extreme, random\nestimator = ols\n"
        "replicates = 5\nseed = 7\n",
    )
    out = tmp_path / "layout.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "n_full,beta_y,gamma,sampling,estimator,residual_family,t_df,"
        "alpha_y,noise_variance,x_mean,x_var,alpha_level,replicates,seed,"
        "mean_estimate,bias,rmse,mae,rejection_rate,ci_coverage,"
        "mean_ci_length,replicates_used,error"
    )
    # residual_family expands between gamma and sampling
    cells = [row[2:6] for row in _read_csv(out)[1:]]
    assert cells == [
        [gamma, sampling, "ols", family]
        for gamma in ("0.1", "0.3")
        for family in ("normal", "scaled_t")
        for sampling in ("extreme", "random")
    ]
    # gamma 0.1 selects 2 of 20 rows: the cell fails with empty metrics
    assert lines[4] == (
        "20,0.0,0.1,random,ols,scaled_t,20,5.0,5.0,0.0,1.0,0.05,5,7,"
        ",,,,,,,,gamma 0.1 selects only 2 of 20 rows; need 3"
    )


# ------------------------------------------------------------ encoding


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--biomarker", "bm"],
        ["screen"],
        ["check", "--biomarker", "bm"],
    ],
)
def test_study_not_utf8_rejected(tmp_path, capsys, command):
    # A text stream decodes a chunk at a time. The short file's bad byte
    # lies past the header but in the header read's chunk; the long
    # one's, after 80 KiB of rows, surfaces in the data rows' read.
    head = b"id,resp,bm\na,1.0,2.0\n"
    rows = b"".join(b"r%d,1.0,2.0\n" % i for i in range(6000))
    study = tmp_path / "bad.csv"
    argv = [command[0], "--input", str(study), "--response", "resp"]
    for before in (head, head + rows):
        study.write_bytes(before + b"b,\xff,3.0\n")
        assert main(argv + command[1:]) == 2
        err = capsys.readouterr().err
        offset = len(before) + 2
        assert err == f"error: {study}: not valid UTF-8 at byte offset {offset}\n"


# --------------------------------------------------------------- check


def test_check_normal_data_qq_slope_near_one(tmp_path, capsys):
    rng = np.random.default_rng(55)
    n = 800
    x = rng.normal(0.0, 1.0, n)
    y = 5.0 + 0.4 * x + rng.normal(0.0, math.sqrt(5.0), n)
    order = np.argsort(y)
    tested = set(map(int, np.concatenate([order[:80], order[-80:]])))
    rows = []
    for i in range(n):
        bm = repr(float(x[i])) if i in tested else ""
        rows.append([f"r{i}", repr(float(y[i])), bm])
    path = tmp_path / "normal.csv"
    _write_study(path, rows)
    prefix = tmp_path / "chk"
    code = main(
        [
            "check",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
            "--out", str(prefix),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flag:" not in out
    for name, col in (
        (f"{prefix}_qq_response.csv", 0),
        (f"{prefix}_qq_residuals.csv", 0),
    ):
        table = _read_csv(name)
        assert table[0] == ["theoretical_quantile", "observed_value"]
        tq = np.array([float(r[0]) for r in table[1:]])
        ov = np.array([float(r[1]) for r in table[1:]])
        ov = (ov - ov.mean()) / ov.std(ddof=1)
        slope = float(np.sum(tq * ov) / np.sum(tq * tq))
        assert 0.95 < slope < 1.05


def test_check_lognormal_response_raises_skewness_flag(tmp_path, capsys):
    rng = np.random.default_rng(56)
    n = 500
    y = rng.lognormal(0.0, 1.0, n)
    order = np.argsort(y)
    tested = set(map(int, np.concatenate([order[:50], order[-50:]])))
    rows = []
    for i in range(n):
        bm = repr(float(rng.normal())) if i in tested else "NA"
        rows.append([f"r{i}", repr(float(y[i])), bm])
    path = tmp_path / "logn.csv"
    _write_study(path, rows)
    code = main(
        [
            "check",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
            "--out", str(tmp_path / "chk"),
        ]
    )
    assert code == 0
    assert "flag: response skewness magnitude exceeds 0.5" in (
        capsys.readouterr().out
    )


def test_check_subset_below_three_rejected(tmp_path, capsys):
    rows = [["a", "1.0", "1.0"], ["b", "2.0", "2.0"]]
    rows += [[f"x{i}", repr(3.0 + i), ""] for i in range(6)]
    path = tmp_path / "small.csv"
    _write_study(path, rows)
    code = main(
        [
            "check",
            "--input", str(path),
            "--response", "resp",
            "--biomarker", "bm",
        ]
    )
    assert code == 2


def test_check_default_prefix_from_input_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(GOLDEN_STUDY, "study.csv")
    code = main(
        [
            "check",
            "--input", "study.csv",
            "--response", "resp",
            "--biomarker", "bm1",
        ]
    )
    assert code == 0
    assert os.path.exists("study_check_qq_response.csv")
    assert os.path.exists("study_check_qq_residuals.csv")


# ------------------------------------------------------------- refusals


def _small_grid(path):
    _write_config(
        path,
        "n_full = 40\nbeta_y = 0.4\ngamma = 0.2\nsampling = extreme\n"
        "estimator = odeb\nreplicates = 20\nseed = 3\n",
    )


@pytest.mark.parametrize("command", ["analyze", "check", "screen", "simulate"])
def test_unwritable_out_is_a_file_error(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "x")
    if command == "simulate":
        cfg = tmp_path / "grid.cfg"
        _small_grid(cfg)
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = [command, "--input", GOLDEN_STUDY, "--response", "resp"]
        if command != "screen":
            argv += ["--biomarker", "bm1"]
    assert main([*argv, "--out", out]) == 2
    # the first file each command opens: the QQ series, or the one table
    first = f"{out}_qq_response.csv" if command in ("analyze", "check") else out
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {first}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, command, message",
    [
        ("", "screen", "empty file, a header row is required"),
        ("id,resp,bm,bm\na,1.0,2.0,3.0\n", "screen",
         "duplicate column name 'bm'"),
        ("id,resp\na,1.0\n", "screen", "no biomarker columns found"),
        ("id,resp,bm\n", "screen", "no data rows"),
        ("id,resp,bm\n", "analyze", "no data rows"),
    ],
    ids=["empty", "duplicate", "no-biomarker", "header-only-screen",
         "header-only-analyze"],
)
def test_study_layout_refused(tmp_path, capsys, text, command, message):
    path = tmp_path / "study.csv"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(path), "--response", "resp"]
    if command == "analyze":
        argv += ["--biomarker", "bm"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_screen_empty_biomarker_name_refused(capsys):
    argv = ["screen", "--input", GOLDEN_STUDY, "--response", "resp",
            "--biomarkers", "bm1,,bm2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --biomarkers contains an empty column name\n"
    )


def test_simulate_missing_config_refused(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {cfg}: ")
    assert not out.exists()


def test_simulate_zero_workers_refused(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    _small_grid(cfg)
    out = tmp_path / "x.csv"
    argv = ["simulate", "--config", str(cfg), "--out", str(out),
            "--workers", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: workers must be at least 1\n"
    assert not out.exists()


def test_check_skewed_biomarker_noise_raises_residual_flag(tmp_path, capsys):
    # normal responses, lognormal noise on the tail-tested biomarker: the
    # reverse fit's residuals are skewed, the response is not
    rng = np.random.default_rng(57)
    n = 800
    y = rng.normal(0.0, 1.0, n)
    order = np.argsort(y)
    tested = set(map(int, np.concatenate([order[:80], order[-80:]])))
    rows = []
    for i in range(n):
        bm = ""
        if i in tested:
            bm = repr(float(0.5 * y[i] + rng.lognormal(0.0, 1.0)))
        rows.append([f"r{i}", repr(float(y[i])), bm])
    path = tmp_path / "skewed.csv"
    _write_study(path, rows)
    argv = ["check", "--input", str(path), "--response", "resp",
            "--biomarker", "bm", "--out", str(tmp_path / "chk")]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert "flag: reverse-fit residual skewness magnitude exceeds 0.5" in out
    assert "flag: response skewness magnitude exceeds 0.5" not in out


# ------------------------------------------------------------- console


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eods.cli", "plan", "--n-full", "119",
         "--gamma", "1.0", "--effect-f", "0.3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "power 0.9007" in proc.stdout
