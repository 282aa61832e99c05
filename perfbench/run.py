"""Benchmark of the eods command line: four workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

With --trace 0 the named workload runs whole rounds of its CLI calls
until --seconds have passed, each call in a fresh interpreter, and the
last line of standard output is a JSON object with the end-to-end
metrics (medians over rounds). With --trace 1 one round of every
workload runs with the per-layer tracer installed; the split per
workload is printed above the result line, which holds the totals.
Metric names come from BENCHMARK.json at the checkout root.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# every run, with its set-up and checks, ends well inside this
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts CLI calls one at a time, each in a fresh interpreter."""

    def __init__(self, workroot, deadline):
        self.workroot = workroot
        self.deadline = deadline
        self.count = 0
        # the same interpreter settings whoever calls: bytecode cached
        # after the warm-up call, as for an installed package
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
        self.env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def call(self, argv, trace=False):
        self.count += 1
        base = os.path.join(self.workroot, f"call{self.count}")
        result_path = base + ".json"
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            spawn = _clock()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), repr(spawn),
                 result_path, "1" if trace else "0", *argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - _clock()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"eods {' '.join(argv)} ran past the time limit")
        with open(base + ".out", encoding="utf-8") as fh:
            stdout = fh.read()
        with open(base + ".err", encoding="utf-8") as fh:
            stderr = fh.read()
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(
                f"benchmark child failed (exit {proc.returncode}): {stderr[-2000:]}"
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        for path in (base + ".out", base + ".err", result_path):
            os.remove(path)
        result.update(stdout=stdout, stderr=stderr)
        return result


def _digest(stdout, paths):
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Judges each call; a repeat with identical output keeps the verdict."""

    def __init__(self):
        self.verdicts = {}  # op name -> (digest, problems)
        self.attempted = 0
        self.failed = 0
        self.unverified = 0

    def judge(self, op, result):
        self.attempted += 1
        if result["rc"] != 0:
            problems = [f"exit {result['rc']}: {result['stderr'].strip()[-500:]}"]
        else:
            digest = _digest(result["stdout"], op.outputs)
            known = self.verdicts.get(op.name)
            if known and known[0] == digest:
                problems = known[1]
            else:
                try:
                    problems = op.check(result["stdout"])
                except Exception as exc:  # a checker that breaks proves nothing
                    self.unverified += 1
                    problems = [f"check raised {exc!r}"]
                self.verdicts[op.name] = (digest, problems)
        if problems:
            self.failed += 1
            for line in problems[:10]:
                print(f"FAILED {op.name}: {line}", file=sys.stderr)


def make_ops(workload, seed, workroot):
    """Write the workload's inputs under workroot; return one round of calls."""
    workdir = os.path.join(workroot, workload)
    os.makedirs(workdir)
    return workloads.MAKERS[workload](seed, workdir)


def timed_run(ops, seconds, runner, checker):
    runner.call([])  # warm-up: byte-compiles eods and fills the page cache
    rounds, setups = [], []
    start = _clock()
    while not rounds or _clock() - start < seconds:
        calls = []
        for op in ops:
            result = runner.call(op.argv)
            checker.judge(op, result)
            calls.append(result)
        setups += [c["setup_s"] for c in calls]
        rounds.append({
            "wall_s": sum(c["wall_s"] for c in calls),
            "cpu_s": sum(c["cpu_s"] for c in calls),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        })
        print(f"round {len(rounds)}: " + json.dumps(rounds[-1]), file=sys.stderr)
    values = {key: statistics.median(r[key] for r in rounds)
              for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return values


def traced_run(seed, runner, checker):
    runner.call([])
    totals = {}
    for workload in workloads.WORKLOADS:
        ops = make_ops(workload, seed, runner.workroot)
        split = {"trace.wall_s": 0.0}
        for op in ops:
            result = runner.call(op.argv, trace=True)
            checker.judge(op, result)
            split["trace.wall_s"] += result["wall_s"]
            for key, value in result["trace"].items():
                split[key] = split.get(key, 0) + value
        split["cli.self_s"] = split["cli.main.s"]
        print(json.dumps({"workload": workload, "split": split}))
        for key, value in split.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = _clock() + RUN_LIMIT_S
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.exists(os.path.join(ROOT, "src", "eods", "cli.py")):
        raise BenchError(f"no eods source under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    checker = Checker()
    workroot = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workroot)
    runner = Runner(workroot, deadline)
    try:
        if args.trace:
            values = traced_run(args.seed, runner, checker)
        else:
            ops = make_ops(args.workload, args.seed, workroot)
            values = timed_run(ops, args.seconds, runner, checker)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workroot))
    print(json.dumps({
        "correct": checker.unverified == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
