"""Run workloads repeatedly and print each metric's median and spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 20
    python3 perfbench/steadiness.py --workload te --runs 5 --trace 1

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``,
then the next integers), one run at a time.  For every metric the table
gives the median, the inter-quartile range as a share of the median
(what the benchmark's bounds are compared against) and the range, next
to the failed and attempted op counts.  ``--runs 1`` prints every
workload's metrics once.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from harness import spread
from run import HERE, ROOT, WORKLOAD_NAMES


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOAD_NAMES:
        results = [
            run_once(workload, args.first_seed + i, args.seconds, args.trace)
            for i in range(args.runs)
        ]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"== {workload}: {args.runs} runs, failed {failed} of "
              f"{attempted} ops, correct {all(r['correct'] for r in results)}")
        print(f"{'metric':<32} {'median':>12} {'IQR/med':>8} "
              f"{'min':>12} {'max':>12} unit")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            print(f"{name:<32} {statistics.median(values):>12.4f} "
                  f"{spread(values):>8.2%} {min(values):>12.4f} "
                  f"{max(values):>12.4f} {first['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
