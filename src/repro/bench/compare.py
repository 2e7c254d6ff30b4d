"""The regression comparator: diff two artifacts, gate on thresholds.

Given a *baseline* artifact and a *current* one, classify every
benchmark the baseline knows about:

* ``regression`` -- current / baseline median exceeds
  ``Thresholds.ratio`` (and the benchmark is slow enough to matter, see
  ``min_seconds``);
* ``faster``     -- the same test in the other direction (informational);
* ``ok``         -- within the noise band, including exactly equal;
* ``missing``    -- in the baseline but absent from the current run: a
  deleted workload fails the gate, because silently dropping a slow
  benchmark is indistinguishable from fixing it;
* ``skipped-fast`` -- both sides faster than ``min_seconds``; at that
  scale the ratio is timer noise, so it never gates;
* ``new``        -- in the current run only (informational).

:meth:`ComparisonReport.ok` is the gate: ``False`` (and a nonzero CLI
exit) when any regression or missing benchmark exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Thresholds:
    """Knobs for what counts as a regression.

    ``ratio`` is the median slowdown factor that fails the gate (1.5 =
    fail at +50%); ``min_seconds`` exempts benchmarks whose baseline
    *and* current median are both below it.  The median is robust
    against one noisy iteration, unlike the mean, while still moving
    when the workload does, unlike the min on a lucky run.
    """

    ratio: float = 1.5
    min_seconds: float = 0.002

    def __post_init__(self):
        if self.ratio <= 1.0:
            raise ValueError("threshold ratio must be > 1.0")
        if self.min_seconds < 0:
            raise ValueError("min_seconds must be >= 0")


@dataclass(frozen=True)
class Delta:
    """One benchmark's baseline-vs-current verdict."""

    name: str
    status: str  # 'ok' | 'faster' | 'regression' | 'missing' | 'new' | 'skipped-fast'
    baseline_seconds: Optional[float] = None
    current_seconds: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        """current / baseline, when both sides exist and baseline > 0."""
        if not self.baseline_seconds or self.current_seconds is None:
            return None
        return self.current_seconds / self.baseline_seconds


@dataclass
class ComparisonReport:
    """Every per-benchmark :class:`Delta` plus the gate verdict."""

    thresholds: Thresholds
    deltas: List[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        """Deltas that exceeded the slowdown threshold."""
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def missing(self) -> List[Delta]:
        """Baseline benchmarks absent from the current artifact."""
        return [d for d in self.deltas if d.status == "missing"]

    @property
    def ok(self) -> bool:
        """``True`` when nothing regressed and nothing went missing."""
        return not self.regressions and not self.missing

    def render(self) -> str:
        """Plain-text comparison table plus a one-line verdict."""
        lines = [
            f"{'benchmark':<26} {'baseline':>10} {'current':>10} "
            f"{'ratio':>7}  status"
        ]
        for delta in self.deltas:
            base = (
                f"{delta.baseline_seconds:>9.4f}s"
                if delta.baseline_seconds is not None else f"{'-':>10}"
            )
            cur = (
                f"{delta.current_seconds:>9.4f}s"
                if delta.current_seconds is not None else f"{'-':>10}"
            )
            ratio = (
                f"{delta.ratio:>6.2f}x" if delta.ratio is not None
                else f"{'-':>7}"
            )
            status = delta.status.upper() if delta.status in (
                "regression", "missing") else delta.status
            lines.append(f"{delta.name:<26} {base} {cur} {ratio}  {status}")
        verdict = "ok" if self.ok else (
            f"FAILED: {len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing"
        )
        lines.append(
            f"gate (median ratio > {self.thresholds.ratio:g}x, ignoring < "
            f"{self.thresholds.min_seconds:g}s): {verdict}"
        )
        return "\n".join(lines)


def _median(record: Dict[str, object]) -> float:
    return float(record["stats"]["median"])


def compare_artifacts(
    baseline: Dict[str, object],
    current: Dict[str, object],
    thresholds: Optional[Thresholds] = None,
) -> ComparisonReport:
    """Diff two validated artifacts into a :class:`ComparisonReport`.

    Iterates the union of benchmark names (baseline order first, then
    new ones) so the report is stable for byte-identical inputs.
    """
    thresholds = thresholds or Thresholds()
    base_benchmarks: Dict[str, Dict] = baseline["benchmarks"]
    cur_benchmarks: Dict[str, Dict] = current["benchmarks"]
    report = ComparisonReport(thresholds=thresholds)
    for name in sorted(base_benchmarks):
        base_seconds = _median(base_benchmarks[name])
        if name not in cur_benchmarks:
            report.deltas.append(Delta(name, "missing", base_seconds, None))
            continue
        cur_seconds = _median(cur_benchmarks[name])
        if (base_seconds < thresholds.min_seconds
                and cur_seconds < thresholds.min_seconds):
            status = "skipped-fast"
        elif base_seconds > 0 and cur_seconds / base_seconds > thresholds.ratio:
            status = "regression"
        elif base_seconds > 0 and base_seconds / max(cur_seconds, 1e-12) > thresholds.ratio:
            status = "faster"
        else:
            status = "ok"
        report.deltas.append(Delta(name, status, base_seconds, cur_seconds))
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        report.deltas.append(
            Delta(name, "new", None, _median(cur_benchmarks[name]))
        )
    return report
