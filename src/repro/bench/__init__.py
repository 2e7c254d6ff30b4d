"""``repro.bench`` -- the performance benchmark harness.

End-to-end and per-layer numbers come from ``perfbench/``; this
package holds the bench pairs that decide whether a fast path earns its
code: each pair times one job with and without the fast path, and both
sides must report the same answer.  Four dependency-free pieces:

* :mod:`repro.bench.registry` -- the ``@benchmark`` workload registry
  (:func:`discover` loads the built-in catalogue from
  :mod:`repro.bench.workloads`: the BDD-profile ratio, the tunnel
  cache, warm LP sessions and thread fan-out, the disk store, sharding,
  and two telemetry-overhead guards);
* :mod:`repro.bench.runner` -- warmup + repeated timed iterations with
  min/median/stddev and :mod:`repro.obs.metrics` counter deltas
  attached to each :class:`BenchResult`;
* :mod:`repro.bench.artifact` -- schema-versioned ``BENCH_<sha>.json``
  artifacts (:func:`write_artifact` / :func:`read_artifact`);
* :mod:`repro.bench.compare` -- the regression comparator that diffs
  two artifacts' medians and fails the gate past a slowdown ratio.

Typical use is the CLI (``python -m repro bench --save`` then later
``python -m repro bench --baseline BENCH_<sha>.json``), but everything
is callable::

    from repro import bench

    bench.discover()
    results = bench.run_benchmarks(bench.select("bdd"), repeat=3)
    bench.write_artifact("BENCH_dev.json", results)
    report = bench.compare_artifacts(
        bench.read_artifact("BENCH_base.json"),
        bench.read_artifact("BENCH_dev.json"),
    )
    assert report.ok, report.render()
"""

from repro.bench.artifact import (
    SCHEMA,
    ArtifactError,
    build_artifact,
    default_artifact_path,
    find_latest_artifact,
    git_sha,
    read_artifact,
    validate_artifact,
    write_artifact,
)
from repro.bench.compare import (
    ComparisonReport,
    Delta,
    Thresholds,
    compare_artifacts,
)
from repro.bench.registry import (
    LAYERS,
    BenchmarkSpec,
    UnknownBenchmarkError,
    benchmark,
    benchmark_names,
    discover,
    get_spec,
    register,
    render_table,
    select,
    unregister,
)
from repro.bench.runner import (
    BenchResult,
    metric_delta,
    render_results,
    run_benchmark,
    run_benchmarks,
)

__all__ = [
    "ArtifactError",
    "BenchResult",
    "BenchmarkSpec",
    "ComparisonReport",
    "Delta",
    "LAYERS",
    "SCHEMA",
    "Thresholds",
    "UnknownBenchmarkError",
    "benchmark",
    "benchmark_names",
    "build_artifact",
    "compare_artifacts",
    "default_artifact_path",
    "discover",
    "find_latest_artifact",
    "get_spec",
    "git_sha",
    "metric_delta",
    "read_artifact",
    "register",
    "render_results",
    "render_table",
    "run_benchmark",
    "run_benchmarks",
    "select",
    "unregister",
    "validate_artifact",
    "write_artifact",
]
