"""Repeat the benchmark over several seeds and report its spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload plan --seeds 1-10 [--trace 0]

Each run is ``run.py`` with one seed and BENCHMARK.json's run_seconds;
its result line is appended to perfbench/results/<workload>.jsonl. The
summary gives, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, beside a third of the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def summarize(results, bounds):
    lines = []
    failed = {(r["failed"], r["attempted"]) for r in results}
    lines.append(f"runs {len(results)}, (failed, attempted) seen: {sorted(failed)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        line = f"{name}: median {med:.6g}"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line += f", quartiles {q1:.6g} .. {q3:.6g}, spread {spread:.2%}"
            if name in bounds:
                line += f" (a third of the bound: {bounds[name] / 3:.2%})"
        lines.append(line)
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log = os.path.join(HERE, "results", f"{args.workload}-trace{args.trace}.jsonl")
    results = []
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["run_s"] = time.monotonic() - start
        results.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed} ({result['run_s']:.1f} s): " + json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()}), flush=True)
    print(summarize(results, bounds))


if __name__ == "__main__":
    main()
