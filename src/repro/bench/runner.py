"""The benchmark runner: warmup, repeated timed iterations, statistics.

One :class:`BenchResult` per workload: the raw per-iteration wall
times, derived statistics (min / median / mean / stddev), and the
*metric delta* -- how much every :mod:`repro.obs.metrics` counter moved
during the timed iterations.  The delta is what ties a timing to its
cause: a ``te.tunnels.warm`` result carrying ``tunnel_cache.hit`` and no
``tunnel_cache.miss`` proves the warm path really skipped Yen's
algorithm, and a regression whose ``lp.solves`` delta doubled is an
algorithmic change, not noise.

Timing discipline: ``setup`` runs once, untimed; ``pre_iteration``
runs untimed before every iteration; warmup iterations run the real
workload but discard their time (first-call costs -- imports, lazy
caches -- land there); only the ``repeat`` timed iterations contribute
to statistics and the metric delta.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.bench.registry import BenchmarkSpec

#: Metric families worth attaching to results; everything else (e.g.
#: pipeline step histograms) is noise at benchmark granularity.
METRIC_PREFIXES = (
    "tunnel_cache.", "solver.", "lp.", "bdd.", "pipeline.", "parallel.",
    "faults.", "llm.", "retries", "store.", "serve.",
)


def _flatten(snapshot: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Reduce a metrics snapshot to ``{name: scalar}`` for delta math.

    Counters and gauges contribute their value; histograms contribute
    ``<name>.count`` and ``<name>.sum``.
    """
    flat: Dict[str, float] = {}
    for name, snap in snapshot.items():
        if not name.startswith(METRIC_PREFIXES):
            continue
        if snap.get("type") == "histogram":
            flat[f"{name}.count"] = float(snap.get("count", 0))
            flat[f"{name}.sum"] = float(snap.get("sum", 0.0))
        else:
            flat[name] = float(snap.get("value", 0))
    return flat


def metric_delta(
    before: Dict[str, Dict[str, object]],
    after: Dict[str, Dict[str, object]],
) -> Dict[str, float]:
    """Per-metric movement between two snapshots, zero deltas dropped."""
    flat_before = _flatten(before)
    flat_after = _flatten(after)
    delta = {}
    for name, value in flat_after.items():
        moved = value - flat_before.get(name, 0.0)
        if moved:
            delta[name] = moved
    return delta


@dataclass
class BenchResult:
    """Outcome of running one benchmark: timings, stats, metric deltas."""

    name: str
    layer: str
    description: str
    warmup: int
    repeat: int
    seconds: List[float]
    metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def min_seconds(self) -> float:
        """Fastest timed iteration -- the least-noisy point estimate."""
        return min(self.seconds)

    @property
    def median_seconds(self) -> float:
        """Median timed iteration -- what the comparator gates on."""
        return statistics.median(self.seconds)

    @property
    def mean_seconds(self) -> float:
        """Arithmetic mean of the timed iterations."""
        return statistics.fmean(self.seconds)

    @property
    def stddev_seconds(self) -> float:
        """Population stddev of the timed iterations (0 for one run)."""
        if len(self.seconds) < 2:
            return 0.0
        return statistics.pstdev(self.seconds)

    def stats(self) -> Dict[str, float]:
        """The artifact's ``stats`` block for this result."""
        return {
            "min": self.min_seconds,
            "median": self.median_seconds,
            "mean": self.mean_seconds,
            "stddev": self.stddev_seconds,
        }


def _jsonable(value: object) -> bool:
    """Whether a workload-returned meta value can land in an artifact."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and _jsonable(v) for k, v in value.items()
        )
    return False


def run_benchmark(
    spec: BenchmarkSpec,
    repeat: Optional[int] = None,
    warmup: int = 1,
) -> BenchResult:
    """Run one spec: setup, warmup, ``repeat`` timed iterations.

    ``repeat=None`` uses the spec's own default.  The workload's return
    value from the *last* timed iteration becomes the result's ``meta``
    (merged in when it is a dict, stored under ``"result"`` otherwise),
    so artifacts record what was computed alongside how long it took.
    """
    rounds = spec.repeat if repeat is None else repeat
    if rounds < 1:
        raise ValueError("repeat must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    with obs.span("bench.run", benchmark=spec.name, repeat=rounds):
        if spec.setup is not None:
            spec.setup()
        for _ in range(warmup):
            if spec.pre_iteration is not None:
                spec.pre_iteration()
            spec.func()
        before = obs.metrics.snapshot()
        seconds: List[float] = []
        value: object = None
        for _ in range(rounds):
            if spec.pre_iteration is not None:
                spec.pre_iteration()
            start = time.perf_counter()
            value = spec.func()
            seconds.append(time.perf_counter() - start)
        after = obs.metrics.snapshot()
    meta: Dict[str, object] = {}
    if isinstance(value, dict):
        meta.update({k: v for k, v in value.items() if _jsonable(v)})
    elif _jsonable(value) and value is not None:
        meta["result"] = value
    return BenchResult(
        name=spec.name,
        layer=spec.layer,
        description=spec.description,
        warmup=warmup,
        repeat=rounds,
        seconds=seconds,
        metrics=metric_delta(before, after),
        meta=meta,
    )


def run_benchmarks(
    specs: List[BenchmarkSpec],
    repeat: Optional[int] = None,
    warmup: int = 1,
    progress: Optional[Callable[[BenchResult], None]] = None,
) -> List[BenchResult]:
    """Run every spec in order; ``progress`` fires after each result."""
    results = []
    for spec in specs:
        result = run_benchmark(spec, repeat=repeat, warmup=warmup)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def render_results(results: List[BenchResult]) -> str:
    """Plain-text results table (what ``repro bench`` prints)."""
    lines = [
        f"{'benchmark':<26} {'layer':<9} {'min':>10} {'median':>10} "
        f"{'stddev':>9}  metrics"
    ]
    for result in results:
        interesting = ", ".join(
            f"{name}={value:g}"
            for name, value in sorted(result.metrics.items())
            if not name.endswith(".sum")
        )
        lines.append(
            f"{result.name:<26} {result.layer:<9} "
            f"{result.min_seconds:>9.4f}s {result.median_seconds:>9.4f}s "
            f"{result.stddev_seconds:>8.4f}s  {interesting}"
        )
    return "\n".join(lines)
