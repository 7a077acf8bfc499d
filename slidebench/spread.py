#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's median and
quartile spread (the distance between the first and third quartile as a share
of the median), the figures README.md reports.

    python3 slidebench/spread.py --workload xc-train --seeds 1-10
    python3 slidebench/spread.py --workload xc-serve --seeds 1-3 --trace 1
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    results = []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=os.path.dirname(HERE), capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s%s" % (seed, out.returncode, out.stdout,
                                                          out.stderr))
        steal = next((l for l in lines if l.startswith("host steal")), "")
        result = json.loads(lines[-1])
        print("seed %d: attempted=%d failed=%d %s" % (seed, result["attempted"],
                                                      result["failed"], steal), flush=True)
        results.append(result)

    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print("%-28s %12.4f %-6s quartiles %.4f..%.4f  spread %.3f" %
              (name, med, first["unit"], q1, q3, spread))


if __name__ == "__main__":
    main()
