"""Benchmark artifacts: schema-versioned ``BENCH_<git-sha>.json`` files.

An artifact is the repo's durable perf record for one revision: which
workloads ran, with what profile (repeat/warmup/filter), how long each
took, what its metric deltas were, and what it computed (``meta``, where
both sides of a pair must agree).  The comparator
(:mod:`repro.bench.compare`) diffs two of them to gate regressions, so
the format is versioned (:data:`SCHEMA`) and :func:`read_artifact`
refuses anything it does not understand rather than mis-comparing.

Layout::

    {
      "schema": "repro.bench/1",
      "git_sha": "0123abc",
      "created_unix": 1754462400.0,
      "environment": {"python": "3.11.7", "platform": "Linux-..."},
      "profile": {"repeat": 3, "warmup": 1, "filter": null},
      "benchmarks": {
        "te.tunnels.warm": {
          "layer": "te",
          "description": "...",
          "repeat": 3, "warmup": 1,
          "seconds": [0.251, 0.248, 0.250],
          "stats": {"min": ..., "median": ..., "mean": ..., "stddev": ...},
          "metrics": {"tunnel_cache.hit": 60, "lp.solves": ...},
          "meta": {"intervals": 4, "objectives": [9267.094, ...]}
        }, ...
      }
    }
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.bench.runner import BenchResult

#: Current artifact schema identifier; bump the suffix on breaking changes.
SCHEMA = "repro.bench/1"

_REQUIRED_BENCHMARK_KEYS = ("layer", "seconds", "stats", "metrics")


class ArtifactError(ValueError):
    """A benchmark artifact is malformed or has an unsupported schema."""


def git_sha(short: bool = True, cwd: Optional[str] = None) -> str:
    """The checkout's HEAD sha, or ``"unknown"`` outside a git repo.

    Tries ``cwd`` (the working directory by default) first, then the
    directory this package lives in, so artifacts saved from anywhere
    still carry the sha of the code that was measured.
    """
    command = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    for where in (cwd, str(Path(__file__).resolve().parent)):
        try:
            sha = subprocess.run(
                command, cwd=where, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            continue
        if sha:
            return sha
    return "unknown"


def default_artifact_path(directory: Union[str, Path] = ".") -> Path:
    """``BENCH_<sha>.json`` in ``directory`` (the repo root by convention)."""
    return Path(directory) / f"BENCH_{git_sha()}.json"


def find_latest_artifact(
    directory: Union[str, Path] = ".",
    exclude: Optional[Union[str, Path]] = None,
) -> Path:
    """The newest ``BENCH_*.json`` in ``directory`` other than ``exclude``.

    "Newest" is each artifact's own ``created_unix`` stamp (what the
    writer recorded), falling back to file mtime for artifacts that do
    not parse.  This is what ``repro bench --baseline`` (no path) and
    ``--compare`` (one path) resolve against; ``exclude`` is the current
    artifact, which must never be its own baseline.  Raises
    :class:`ArtifactError` when the directory has no candidates, so the
    caller can say "save a baseline first" instead of mis-comparing.
    """
    directory = Path(directory)
    skip = Path(exclude).resolve() if exclude is not None else None
    candidates = sorted(
        path for path in directory.glob("BENCH_*.json")
        if path.resolve() != skip
    )
    if not candidates:
        other = f" other than {exclude}" if exclude is not None else ""
        raise ArtifactError(
            f"no BENCH_*.json artifact{other} found in "
            f"{directory.resolve()}; save one first with 'repro bench --save'"
        )

    def freshness(path: Path) -> float:
        try:
            artifact = json.loads(path.read_text())
            return float(artifact["created_unix"])
        except (OSError, ValueError, KeyError, TypeError):
            return path.stat().st_mtime

    return max(candidates, key=freshness)


def build_artifact(
    results: List[BenchResult],
    profile: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the artifact dict for ``results`` (no I/O)."""
    benchmarks: Dict[str, object] = {}
    for result in results:
        benchmarks[result.name] = {
            "layer": result.layer,
            "description": result.description,
            "repeat": result.repeat,
            "warmup": result.warmup,
            "seconds": list(result.seconds),
            "stats": result.stats(),
            "metrics": dict(result.metrics),
            "meta": dict(result.meta),
        }
    return {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "argv": list(sys.argv),
        },
        "profile": dict(profile or {}),
        "benchmarks": benchmarks,
    }


def write_artifact(
    path: Union[str, Path],
    results: List[BenchResult],
    profile: Optional[Dict[str, object]] = None,
) -> Path:
    """Write ``results`` as an artifact at ``path``; returns the path.

    The write is atomic (same-directory temporary file published with
    :func:`os.replace`): a bench run killed mid-write can never leave a
    truncated ``BENCH_*.json`` where the comparator -- or
    :func:`find_latest_artifact` -- would trip over it.
    """
    path = Path(path)
    artifact = build_artifact(results, profile=profile)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def validate_artifact(artifact: object) -> Dict[str, object]:
    """Check artifact structure; returns it typed, raises :class:`ArtifactError`."""
    if not isinstance(artifact, dict):
        raise ArtifactError("artifact must be a JSON object")
    schema = artifact.get("schema")
    if schema != SCHEMA:
        raise ArtifactError(
            f"unsupported artifact schema {schema!r} (expected {SCHEMA!r})"
        )
    benchmarks = artifact.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise ArtifactError("artifact has no 'benchmarks' object")
    for name, record in benchmarks.items():
        if not isinstance(record, dict):
            raise ArtifactError(f"benchmark {name!r} is not an object")
        for key in _REQUIRED_BENCHMARK_KEYS:
            if key not in record:
                raise ArtifactError(f"benchmark {name!r} is missing {key!r}")
        if not record["seconds"]:
            raise ArtifactError(f"benchmark {name!r} has no timings")
        stats = record["stats"]
        median = stats.get("median") if isinstance(stats, dict) else None
        if isinstance(median, bool) or not isinstance(median, (int, float)):
            raise ArtifactError(
                f"benchmark {name!r} has no numeric stats.median"
            )
    return artifact


def read_artifact(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate an artifact file."""
    try:
        artifact = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON: {exc}") from exc
    return validate_artifact(artifact)
