"""Reference-corrected op timing, statistics, the result line and
the clean-up of child processes."""

import json
import math
import os
import resource
import signal
import statistics
import sys
import time

from refkernel import NOMINAL_MS, kernel_ms


class Corrector:
    """Scales wall times to the nominal host speed.

    Every timed interval is bracketed by two reference-kernel runs.
    Its wall time is multiplied by ``NOMINAL_MS`` over the median of the
    ``WINDOW`` kernel runs on each side of it, the bracketing two
    included.  The host drifts within seconds, so wider windows track
    it worse: over eight seeds, the run-to-run spread of p50, tail and
    ``ops_per_s`` was lowest with two runs a side and grew with ten and
    twenty (see README.md).  Every kernel sample is kept for the
    ``host.ref_ms`` diagnostics.
    """

    WINDOW = 2

    def __init__(self):
        self.kernels = []
        self._timed = []  # (wall ms, index of the kernel run before it)

    def kernel(self) -> float:
        sample = kernel_ms()
        self.kernels.append(sample)
        return sample

    def time(self, fn, *args):
        """Run ``fn(*args)`` between two kernel runs; returns its result."""
        before = len(self.kernels)
        self.kernel()
        start = time.perf_counter()
        result = fn(*args)
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.kernel()
        self._timed.append((wall_ms, before))
        return result

    def wall_ms(self):
        """Every timed interval so far, uncorrected."""
        return [wall_ms for wall_ms, _ in self._timed]

    def corrected_ms(self):
        """Every timed interval so far, in nominal-host ms."""
        window = self.WINDOW
        return [
            wall_ms * NOMINAL_MS / statistics.median(
                self.kernels[max(0, before - window + 1):before + 1 + window]
            )
            for wall_ms, before in self._timed
        ]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0-100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(setup_s, latencies_ms, ops_per_s, tail_pct, rss_mb):
    """The five end-to-end metrics every workload reports."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_tail_ms": (percentile(latencies_ms, tail_pct), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    """The JSON object that ends the benchmark's standard output."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans():
    """Become the parent of every descendant whose own parent ends first
    (Linux ``PR_SET_CHILD_SUBREAPER``), so :func:`stop_children` can stop
    and reap it, e.g. the workers of a set-up process that timed out."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def child_pids():
    """Pids of this process's children, running or exited, from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # Fields after the command name: state, ppid, ...
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children():
    """Stop every process this one started or adopted and wait for each.

    Runs at exit, after ``multiprocessing``'s own exit handler has
    joined its workers and released its semaphores.  The resource
    tracker that ``multiprocessing`` starts for the ``serve`` workers is
    built to outlive its parent, so it is stopped here; a process still
    left after that is killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop_tracker = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for _ in range(10):
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
