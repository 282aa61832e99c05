"""Regenerates the committed golden fixtures in this directory.

Run from the repository root:

    python3 tests/data/gen_golden.py

The study table is synthetic: n_full = 400 subjects, response built as
y = 5 + 0.4 * bm1 + noise (variance 5, predictor variance 5), with only
the 40 lowest and 40 highest responders biomarker-tested (gamma = 0.2).
Untested rows alternate between the two missing-value encodings. The
expected analyze/screen outputs are produced by the installed package;
the analyze numbers are independently re-derived from normal equations
inside the test suite before the golden files are trusted.

It also writes the metrics CSV of `eods simulate` on each SIMULATE_CONFIGS
grid, and golden_plan.txt: every PLAN_ARGS command line followed by what
`eods plan` prints for it.
"""

import contextlib
import csv
import io
import os
import subprocess
import sys

import numpy as np

from eods import cli, screen

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


# grid configs in this directory; each golden CSV takes its config's name
SIMULATE_CONFIGS = ("golden_simulate", "golden_simulate_zero_variance")

# six fixed planning queries (two min-gamma searches, two min-n_full
# searches, two power evaluations), then the README's three examples
PLAN_ARGS = (
    "--alpha 0.05 --n-full 20000 --target-power 0.9 --effect-f 0.035",
    "--alpha 0.01 --n-full 4000 --target-power 0.8 --effect-f 0.08",
    "--alpha 5e-08 --gamma 0.2 --target-power 0.8 --effect-f 0.1",
    "--alpha 0.05 --gamma 0.1 --target-power 0.9 --effect-rho 0.1",
    "--alpha 0.05 --n-full 200 --gamma 0.19 --effect-f 0.3",
    "--alpha 5e-08 --n-full 100000 --gamma 0.02 --effect-f 0.05",
    "--n-full 200 --effect-f 0.3 --alpha 0.05 --target-power 0.90",
    "--gamma 0.2 --effect-f 0.3 --alpha 0.05 --target-power 0.90",
    "--n-full 200 --gamma 0.1 --effect-f 0.3 --alpha 0.05",
)


def plan_transcript():
    """Each PLAN_ARGS line as a shell prompt, then eods plan's stdout."""
    parts = []
    for args in PLAN_ARGS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["plan", *args.split()])
        if code != 0:
            raise RuntimeError(f"eods plan {args} exited {code}")
        parts.append(f"$ eods plan {args}\n{out.getvalue()}")
    return "".join(parts)


def main():
    rng = np.random.default_rng(20260817)
    n = 400
    bm1 = rng.normal(0.0, np.sqrt(5.0), n)
    bm2 = rng.normal(0.0, np.sqrt(5.0), n)
    noise = rng.normal(0.0, np.sqrt(5.0), n)
    bm3 = 0.3 * bm1 + rng.normal(0.0, np.sqrt(5.0), n)
    y = 5.0 + 0.4 * bm1 + noise

    plan = screen.select_extremes(y, 0.2)
    tested = set(plan.low_indices + plan.high_indices)

    study = os.path.join(HERE, "golden_study.csv")
    with open(study, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "resp", "bm1", "bm2", "bm3"])
        for i in range(n):
            row = [f"s{i:03d}", repr(float(y[i]))]
            if i in tested:
                row += [repr(float(v[i])) for v in (bm1, bm2, bm3)]
            else:
                row += ["", "NA", ""] if i % 2 == 0 else ["NA", "", "NA"]
            w.writerow(row)

    # the CLI runs inside this directory, where a relative PYTHONPATH
    # such as src would no longer find the package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    subprocess.run(
        [
            sys.executable, "-m", "eods.cli", "analyze",
            "--input", "golden_study.csv",
            "--response", "resp", "--biomarker", "bm1",
            "--out", "golden_analyze",
        ],
        cwd=HERE, env=env, check=True,
    )
    subprocess.run(
        [
            sys.executable, "-m", "eods.cli", "screen",
            "--input", "golden_study.csv",
            "--response", "resp", "--out", "golden_screen.csv",
        ],
        cwd=HERE, env=env, check=True,
    )
    for name in SIMULATE_CONFIGS:
        subprocess.run(
            [
                sys.executable, "-m", "eods.cli", "simulate",
                "--config", f"{name}.cfg", "--out", f"{name}.csv",
            ],
            cwd=HERE, env=env, check=True,
        )
    with open(
        os.path.join(HERE, "golden_plan.txt"), "w", encoding="utf-8"
    ) as fh:
        fh.write(plan_transcript())


if __name__ == "__main__":
    main()
