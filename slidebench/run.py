#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or its self-test.

    python3 slidebench/run.py --workload xc-train --seed 1 --seconds 25 --trace 0
    python3 slidebench/run.py --selftest

The repository root (this directory's parent) is built as a subproject into
.bench_build/ under the root; generated inputs live in a per-run scratch
directory there and are removed afterwards.  The program's last line of
output is the run's JSON result.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "slidebench")
RUN_TIMEOUT_S = 170


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("slidebench: no repository sources next to " + HERE)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                           + gen, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", "4"],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def terminate(signum, _frame):
    # Raised inside subprocess.run, which then kills and reaps the child
    # before the scratch directory is removed.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    if sys.argv[1:] == ["--selftest"]:
        binary = build("slidebench_selftest")
        work = os.path.join(BUILD_ROOT, "work", "selftest-%d" % os.getpid())
        os.makedirs(work, exist_ok=True)
        try:
            return subprocess.run([binary, work], timeout=RUN_TIMEOUT_S).returncode
        finally:
            shutil.rmtree(work, ignore_errors=True)

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build("slidebench")
    except subprocess.CalledProcessError as e:
        sys.exit("slidebench: build failed: %s" % e)
    work = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    try:
        return subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", work, "--out", traces],
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("slidebench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
