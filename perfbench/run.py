"""Drift-corrected end-to-end benchmark of the ``repro`` package.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload te --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the five end-to-end metrics of the workload;
``--trace 1`` prints the per-layer ledger instead (see README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

This file is also imported as ``__mp_main__`` by the worker processes
the ``serve`` workload spawns, so everything it does at import is cheap
and all work happens in :func:`main`.
"""

import argparse
import atexit
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import harness
from refkernel import NOMINAL_MS, kernel_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("reproduce", "te", "verify", "serve")
#: Set-up samples per untraced run (this process plus fresh processes).
SETUP_SAMPLES = 3
#: Seconds allowed for one extra set-up process.
SETUP_TIMEOUT = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the corrected set-up time and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def extra_setup_samples(argv, count):
    """Corrected set-up seconds of ``count`` fresh processes, in turn."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), *argv, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None):
    # Set-up is timed from here, after three reference-kernel runs;
    # three more follow it and the median of the six corrects it.
    setup_kernels = [kernel_ms() for _ in range(3)]
    setup_start = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    tracer = None
    try:
        workload.warm()
        setup_s = time.perf_counter() - setup_start
        setup_kernels += [kernel_ms() for _ in range(3)]
        setup_s *= NOMINAL_MS / statistics.median(setup_kernels)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        latencies, ops_per_s, failed, corrector, extra = workload.measure(tracer)
        run_stats = workload.run_stats()
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    attempted = len(workload.ops)
    kernels = corrector.kernels
    print(f"host.ref_ms {statistics.median(kernels):.4f} "
          f"(IQR/median {harness.spread(kernels):.2%}, {len(kernels)} kernel runs)")
    walls = corrector.wall_ms()
    if walls:
        print(f"uncorrected: op p50 {statistics.median(walls):.4f} ms, "
              f"ops/s {len(walls) / (sum(walls) / 1000.0):.4f}")

    if args.trace:
        gaps = tracing.paper_gaps()
        metrics = tracing.layer_metrics(
            tracer, extra, run_stats, workload.generate_s, kernels, gaps
        )
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"
        ))
    else:
        rss = harness.peak_rss_mb()
        samples = [setup_s] + extra_setup_samples(argv, SETUP_SAMPLES - 1)
        metrics = harness.end_to_end(
            statistics.median(samples), latencies, ops_per_s,
            workload.tail_pct, rss,
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.4f} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(harness.result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    # Every path out stops the processes the run started: registered
    # before multiprocessing is imported, the clean-up runs after
    # multiprocessing's own exit handler (last in, first out), and
    # SIGTERM becomes an ordinary exit that runs both.
    harness.adopt_orphans()
    atexit.register(harness.stop_children)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
