"""One timed ``eods`` CLI call in a fresh interpreter.

Usage: child.py SPAWN_TIME RESULT_JSON TRACE [CLI ARGS...]

SPAWN_TIME is CLOCK_MONOTONIC when the parent started this process, so
set-up time runs from the fresh interpreter until ``eods.cli`` is
imported. The wall and CPU clocks then run only around
``cli.main(argv)``. With no CLI ARGS the child only imports. ``eods``
is found through PYTHONPATH, which the parent points at the checkout's
``src``.
"""

import json
import sys
import time


def peak_rss_mb():
    """High-water resident set of this process image, in MiB.

    Read from VmHWM rather than getrusage: after a vfork and exec the
    kernel carries the parent's peak into ru_maxrss.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    spawn = float(sys.argv[1])
    result_path = sys.argv[2]
    trace = sys.argv[3] == "1"
    argv = sys.argv[4:]

    import eods.cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
    result = {"setup_s": setup_s, "rc": 0}
    if argv:
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            rc = eods.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        sys.stdout.flush()
        result.update(rc=rc or 0, wall_s=wall, cpu_s=cpu)
        if tracer is not None:
            result["trace"] = tracer.report()
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
