"""The benchmark registry: the catalogue of bench pairs.

A *benchmark* is a named, deterministic workload timing one job one
way; a *pair* is two benchmarks timing the same job with and without a
fast path (a cache, a warm session, sharding).  The registry is the
single source of truth for workload definitions: the ``repro bench``
CLI, the CI perf-smoke job, and ``benchmarks/test_bench_bdd_profiles.py``
all resolve workloads here, so a timing measured in one place is the
same code measured everywhere else.

Registration mirrors :mod:`repro.te.registry`'s idiom::

    from repro.bench import benchmark

    @benchmark("bdd.build_apply", layer="bdd",
               description="prefix BDD build + apply chain (JDD profile)")
    def bench_bdd_build_apply():
        engine = JDDEngine(HEADER_BITS)
        return bdd_profile_workload(engine)

The decorated callable runs one *timed iteration* and returns either a
scalar checksum or a dict of extra metadata; both land in the result's
``meta``, so an artifact shows both sides of a pair computing the same
answer, not just one of them being faster.  Optional ``setup`` runs
once before any iteration and ``pre_iteration`` runs untimed before
every iteration (cold-store workloads clear their store there).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Layers a benchmark can belong to, in the order tables render them.
LAYERS = ("bdd", "shard", "te", "lp", "store", "obs")


class UnknownBenchmarkError(KeyError):
    """Raised when a benchmark name is not in the registry."""

    def __init__(self, name: str, known: List[str]):
        self.benchmark_name = name
        self.known = known
        self.suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        message = f"unknown benchmark {name!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions) + "?"
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registered workload: name, layer, and the callables to time.

    ``func`` performs one timed iteration and returns a checksum value
    or a dict of metadata.  ``setup`` (optional) runs once, untimed,
    before the first iteration; ``pre_iteration`` (optional) runs
    untimed before *every* iteration -- warmup and timed alike -- which
    is where cold-cache workloads invalidate their cache.  ``repeat``
    is the spec's default timed-iteration count (the runner and CLI can
    override it).
    """

    name: str
    layer: str
    func: Callable[[], object]
    setup: Optional[Callable[[], None]] = None
    pre_iteration: Optional[Callable[[], None]] = None
    description: str = ""
    repeat: int = 3

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(
                f"unknown layer {self.layer!r}; expected one of {LAYERS}"
            )
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")

    def matches(self, needle: str) -> bool:
        """Case-insensitive substring match on the name, or the exact layer."""
        needle = needle.lower()
        return needle in self.name.lower() or needle == self.layer.lower()


_REGISTRY: Dict[str, BenchmarkSpec] = {}
_discovered = False


def register(spec: BenchmarkSpec, replace: bool = False) -> BenchmarkSpec:
    """Add ``spec`` to the registry; re-registration requires ``replace``."""
    if spec.layer not in LAYERS:
        raise ValueError(
            f"benchmark {spec.name!r} has unknown layer {spec.layer!r} "
            f"(expected one of {', '.join(LAYERS)})"
        )
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"benchmark {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> BenchmarkSpec:
    """Remove and return a registered spec (tests registering probe
    benchmarks clean up with ``try/finally: unregister(...)``)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownBenchmarkError(name, benchmark_names()) from None


def benchmark(
    name: str,
    layer: str,
    description: str = "",
    setup: Optional[Callable[[], None]] = None,
    pre_iteration: Optional[Callable[[], None]] = None,
    repeat: int = 3,
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Decorator form of :func:`register`; returns ``func`` unchanged."""

    def decorate(func: Callable[[], object]) -> Callable[[], object]:
        register(BenchmarkSpec(
            name=name,
            layer=layer,
            func=func,
            setup=setup,
            pre_iteration=pre_iteration,
            description=description,
            repeat=repeat,
        ))
        return func

    return decorate


def discover() -> None:
    """Import the built-in workload catalogue (idempotent).

    Workloads live in :mod:`repro.bench.workloads`, which imports most
    of the repository; deferring that import keeps ``import repro.bench``
    cheap for consumers that only need the comparator or artifact I/O.
    """
    global _discovered
    if _discovered:
        return
    _discovered = True
    from repro.bench import workloads  # noqa: F401  (imports register)


def benchmark_names() -> List[str]:
    """All registered benchmark names, sorted."""
    return sorted(_REGISTRY)


def get_spec(name: str) -> BenchmarkSpec:
    """The :class:`BenchmarkSpec` for ``name``; raises
    :class:`UnknownBenchmarkError` with close-match suggestions."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBenchmarkError(name, benchmark_names()) from None


def select(filter_expr: Optional[str] = None) -> List[BenchmarkSpec]:
    """Specs matching ``filter_expr`` in layer-then-name order.

    ``filter_expr`` is a comma-separated list of needles; a spec is
    selected when *any* needle matches its name or layer
    (:meth:`BenchmarkSpec.matches`).  ``None`` or ``""`` selects
    everything.
    """
    specs = [_REGISTRY[name] for name in benchmark_names()]
    specs.sort(key=lambda spec: (LAYERS.index(spec.layer), spec.name))
    if not filter_expr:
        return specs
    needles = [part.strip() for part in filter_expr.split(",") if part.strip()]
    return [
        spec for spec in specs
        if any(spec.matches(needle) for needle in needles)
    ]


def render_table(specs: Optional[List[BenchmarkSpec]] = None) -> str:
    """Plain-text catalogue listing (``repro bench --list``)."""
    if specs is None:
        specs = select()
    lines = [f"{'benchmark':<26} {'layer':<9} description"]
    for spec in specs:
        lines.append(f"{spec.name:<26} {spec.layer:<9} {spec.description}")
    return "\n".join(lines)
