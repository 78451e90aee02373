#!/usr/bin/env python3
"""Runs one workload of the lqdb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an lqdb checkout. It builds the benchmark package
in perfbench/ (which builds the library from the checkout's sources) into
.bench_build/, then runs the untraced driver (--trace 0, end-to-end metrics)
or the traced one (--trace 1, per-layer metrics; spans go to .bench_out/).
Build output goes to stderr; the driver's report goes to stdout and ends
with one JSON line. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; leave the driver a margin to report.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(target):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "lqdb"))):
        return fail("no lqdb sources around " + HERE)

    target = "lqdb_trace" if args.trace else "lqdb_e2e"
    if not build(target):
        return fail("build of " + target + " failed")
    command = [os.path.join(BUILD, target), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    if args.trace:
        command += ["--out-dir", OUT]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
