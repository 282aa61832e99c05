"""End-to-end tests of the command line interface."""

import csv
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from eods import odeb, sim
from eods.cli import main

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_STUDY = os.path.join(DATA_DIR, "golden_study.csv")

TOL_EXACT = 1e-12


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


# ---------------------------------------------------------------- plan


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


def _write_config(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
        (base.replace("gamma = 0.2", "gamma = 1.5"), "gamma"),
        (
            base + "residual_family = scaled_t(10)\nt_df = 20\n",
            "conflicts",
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


# ------------------------------------------------------------- console


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eods.cli", "plan", "--n-full", "119",
         "--gamma", "1.0", "--effect-f", "0.3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "power 0.9007" in proc.stdout
