"""The benchmark's checkers pass real CLI output and reject doctored output.

Run from the root of a checkout (SciPy needed):

    python3 -m pytest -q perfbench

Each workload is built at a small size, its operations run through the
real ``eods`` CLI once, and each test edits one output the way a wrong
program might.
"""

import contextlib
import csv
import os
import subprocess
import sys

import pytest

import oracle
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def _run(op):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "eods.cli", *op.argv],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _build(tmp_path_factory, name, **sizes):
    workdir = str(tmp_path_factory.mktemp(name))
    ops = workloads.MAKERS[name](SEED, workdir, **sizes)
    return [(op, _run(op)) for op in ops]


@pytest.fixture(scope="module")
def screen_run(tmp_path_factory):
    return _build(tmp_path_factory, "screen", n_rows=300, n_biomarkers=60,
                  n_planted=3, n_constant=2, n_gappy=4)


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    return _build(tmp_path_factory, "analyze", n_rows=2000)


@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    return _build(tmp_path_factory, "simulate", n_full=(200,), replicates=100)


SMALL_PLAN = (
    dict(kind="min_gamma", n_full=2000, effect_f=0.1, alpha=0.05, target_power=0.9),
    dict(kind="min_nfull", gamma=0.2, effect_f=0.1, alpha=5e-8, target_power=0.8),
    dict(kind="power", n_full=200, gamma=0.19, effect_f=0.3, alpha=0.05),
)


@pytest.fixture(scope="module")
def plan_run(tmp_path_factory):
    return _build(tmp_path_factory, "plan", queries=SMALL_PLAN)


@contextlib.contextmanager
def doctored(path, edit):
    """Temporarily replace the CSV at path by edit(rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        original = fh.read()
    rows = list(csv.reader(original.splitlines()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))
    try:
        yield
    finally:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(original)


@pytest.mark.parametrize("name", ["screen_run", "analyze_run", "simulate_run", "plan_run"])
def test_real_output_passes(name, request):
    for op, stdout in request.getfixturevalue(name):
        assert op.check(stdout) == [], op.name


def test_screen_rejects_p_value_off_in_sixth_digit(screen_run):
    (op, stdout), = screen_run

    def edit(rows):
        p = float(rows[1][5])
        mantissa, exponent = f"{p:.5e}".split("e")
        last = (int(mantissa[-1]) + 1) % 10
        rows[1][5] = repr(float(f"{mantissa[:-1]}{last}e{exponent}"))
        return rows

    with doctored(op.outputs[0], edit):
        problems = op.check(stdout)
    assert any("P-Value" in p for p in problems), problems


def test_screen_rejects_q_values_out_of_step_up_order(screen_run):
    (op, stdout), = screen_run

    def edit(rows):
        ok = [r for r in rows[1:] if not r[8]]
        i = next(i for i in range(len(ok) - 1) if ok[i][6] != ok[i + 1][6])
        ok[i][6], ok[i + 1][6] = ok[i + 1][6], ok[i][6]
        return rows

    with doctored(op.outputs[0], edit):
        problems = op.check(stdout)
    assert any("step-up" in p for p in problems), problems


def _plan_op(plan_run, kind):
    return next((op, out) for op, out in plan_run if op.name.startswith(f"plan-{kind}"))


def test_plan_rejects_answer_two_subjects_too_large(plan_run):
    op, stdout = _plan_op(plan_run, "min_gamma")
    query = SMALL_PLAN[0]
    n = query["n_full"]
    k = oracle.plan_answer(stdout)["n_selected"] + 2
    power = oracle.power_eods(n, k / n, query["effect_f"], query["alpha"])
    lines = stdout.splitlines()
    lines[1] = f"gamma {k / n!r}"
    lines[2] = f"select {k} ({k // 2} per tail), power {power:.4f}"
    problems = op.check("\n".join(lines) + "\n")
    assert any("already meets the target" in p for p in problems), problems


def test_plan_rejects_n_full_two_too_large(plan_run):
    op, stdout = _plan_op(plan_run, "min_nfull")
    query = SMALL_PLAN[1]
    n = oracle.plan_answer(stdout)["n_full"] + 2
    k = oracle.round_half_up(query["gamma"] * n)
    power = oracle.power_eods(n, query["gamma"], query["effect_f"], query["alpha"])
    lines = stdout.splitlines()
    lines[1] = f"n_full {n}"
    lines[2] = f"select {k} ({k // 2} low, {k - k // 2} high), power {power:.4f}"
    problems = op.check("\n".join(lines) + "\n")
    assert any("already meets the target" in p for p in problems), problems


def test_analyze_rejects_qq_theoretical_shifted(analyze_run):
    op, stdout = analyze_run[0]
    qq = next(p for p in op.outputs if p.endswith("_qq_response.csv"))

    def edit(rows):
        for row in rows[1:]:
            row[0] = repr(float(row[0]) + 1e-6)
        return rows

    with doctored(qq, edit):
        problems = op.check(stdout)
    assert any("theoretical quantile" in p for p in problems), problems


def test_check_rejects_wrong_moment(analyze_run):
    op, stdout = analyze_run[1]
    line = next(l for l in stdout.splitlines() if l.startswith("response_skewness"))
    value = float(line.split(",")[0].split()[1])
    problems = op.check(stdout.replace(repr(value), repr(value * (1 + 1e-6))))
    assert any("response_skewness" in p for p in problems), problems


def test_simulate_rejects_rejection_rate_outside_window(simulate_run):
    (op, stdout), = simulate_run
    _, hi = oracle.binomial_window(100, workloads.SIM_BASE["alpha_level"])

    def edit(rows):
        header = rows[0]
        for row in rows[1:]:
            r = dict(zip(header, row))
            if (float(r["beta_y"]) == 0.0 and r["residual_family"] == "normal"
                    and r["sampling"] == "random" and r["estimator"] == "ols"):
                row[header.index("rejection_rate")] = repr(hi + 0.01)
        return rows

    with doctored(op.outputs[0], edit):
        problems = op.check(stdout)
    assert any("rejection_rate" in p and "outside" in p for p in problems), problems
