"""Deterministic, seed-driven fault injection.

A :class:`FaultPlan` names a seed, a fault rate, and optionally the
injection *sites* and fault *kinds* it covers; a :class:`FaultInjector`
turns the plan into per-call decisions.  Instrumented code asks the
process-wide injector (:func:`active`) whether to fail at a named site:

* ``llm.chat``         -- the LLM seam (:class:`~repro.resilience.retry.ResilientLLMClient`);
* ``lp.solve``         -- every scipy/HiGHS solve (:meth:`LPBackend._run_linprog`);
* ``lp.session.warm``  -- the warm session's reduced-model solve path;
  an injected fault there makes the session fall back to a full cold
  solve, so chaos degrades warm starts without ever corrupting results;
* ``parallel.task``    -- each task of a :func:`repro.parallel.run_ordered` fan-out;
* ``tunnel_cache.get`` -- tunnel-cache lookups feeding model builds.

Decisions are pure functions of ``(seed, site, key)`` hashed with
BLAKE2b -- no wall-clock time, no :mod:`random` state -- so the same
plan replays the same fault schedule run after run.  Sites whose call
order is thread-dependent pass an explicit ``key`` (task index, session
name + prompt number) to keep the schedule independent of scheduling;
``key=None`` falls back to a per-site call counter, which is
deterministic for serial workloads.

With no plan installed :func:`active` returns ``None`` and every
instrumented site skips injection after a single global read -- the
zero-fault hot path stays unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.resilience.errors import (
    FaultError,
    FaultKind,
    InjectedTimeout,
    TransientFault,
)

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "InjectedTimeout",
    "SITE_KINDS",
    "TransientFault",
    "active",
    "chaos",
    "install",
    "uninstall",
]

#: Which fault kinds make sense at each known injection point.  Only
#: the LLM seam produces *responses* that can be truncated or corrupted;
#: everything else fails by raising.
SITE_KINDS: Dict[str, Tuple[FaultKind, ...]] = {
    "llm.chat": (
        FaultKind.TRANSIENT,
        FaultKind.TIMEOUT,
        FaultKind.TRUNCATE,
        FaultKind.CORRUPT,
    ),
    "lp.solve": (FaultKind.TRANSIENT, FaultKind.TIMEOUT),
    "lp.session.warm": (FaultKind.TRANSIENT, FaultKind.TIMEOUT),
    "parallel.task": (FaultKind.TRANSIENT,),
    "tunnel_cache.get": (FaultKind.TRANSIENT,),
}


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos schedule: seed, rate, covered sites/kinds.

    ``sites``/``kinds`` empty means "every known site" / "every kind the
    site supports".  ``rate`` is the per-decision fault probability.
    """

    seed: int = 0
    rate: float = 0.0
    sites: Tuple[str, ...] = ()
    kinds: Tuple[FaultKind, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        for site in self.sites:
            if site not in SITE_KINDS:
                raise ValueError(
                    f"unknown fault site {site!r} "
                    f"(known: {', '.join(sorted(SITE_KINDS))})"
                )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec string.

        Format: comma-separated ``key=value`` pairs, e.g.
        ``"rate=0.2,seed=7,sites=llm.chat+parallel.task,kinds=transient"``.
        ``sites`` and ``kinds`` take ``+``-separated lists.
        """
        seed, rate = 0, 0.0
        sites: Tuple[str, ...] = ()
        kinds: Tuple[FaultKind, ...] = ()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"cannot parse fault-plan entry {part!r}; expected key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "seed":
                seed = int(value)
            elif key == "rate":
                rate = float(value)
            elif key == "sites":
                sites = tuple(s for s in value.split("+") if s)
            elif key == "kinds":
                try:
                    kinds = tuple(FaultKind(k) for k in value.split("+") if k)
                except ValueError:
                    raise ValueError(
                        f"unknown fault kind in {value!r} "
                        f"(known: {', '.join(k.value for k in FaultKind)})"
                    ) from None
            else:
                raise ValueError(
                    f"unknown fault-plan key {key!r} "
                    "(known: seed, rate, sites, kinds)"
                )
        return cls(seed=seed, rate=rate, sites=sites, kinds=kinds)

    def describe(self) -> str:
        """The plan as its parseable spec string (``seed=...,rate=...``)."""
        parts = [f"seed={self.seed}", f"rate={self.rate:g}"]
        if self.sites:
            parts.append("sites=" + "+".join(self.sites))
        if self.kinds:
            parts.append("kinds=" + "+".join(k.value for k in self.kinds))
        return ",".join(parts)

    def covers(self, site: str) -> bool:
        """Whether this plan injects at ``site`` (no sites = all sites)."""
        return not self.sites or site in self.sites

    def kinds_at(self, site: str) -> Tuple[FaultKind, ...]:
        """Fault kinds the plan may inject at ``site``: the site's
        supported kinds intersected with the plan's ``kinds`` filter."""
        supported = SITE_KINDS.get(site, ())
        if not self.kinds:
            return supported
        return tuple(k for k in supported if k in self.kinds)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, for post-run reporting."""

    site: str
    key: str
    kind: FaultKind

    def __str__(self) -> str:
        return f"{self.site}[{self.key}]: {self.kind.value}"


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-call fault decisions.

    Thread-safe: the fault log and the per-site fallback counters are
    lock-protected, and keyed decisions are pure hashes.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._records: List[FaultRecord] = []

    # ------------------------------------------------------------------
    def _auto_key(self, site: str, prefix: str = "") -> str:
        counter_key = f"{site}|{prefix}"
        with self._lock:
            count = self._counters.get(counter_key, 0)
            self._counters[counter_key] = count + 1
        return f"{prefix}#{count}"

    def _hash(self, site: str, key: str) -> Tuple[float, int]:
        digest = hashlib.blake2b(
            f"{self.plan.seed}|{site}|{key}".encode(), digest_size=16
        ).digest()
        roll = int.from_bytes(digest[:8], "big") / 2**64
        pick = int.from_bytes(digest[8:], "big")
        return roll, pick

    def decide(
        self, site: str, key: Optional[str] = None, prefix: str = ""
    ) -> Optional[FaultKind]:
        """The fault (if any) to inject for this call, or ``None``.

        ``key`` makes the decision a pure function of the call identity,
        independent of call order.  Without one, a per-``(site, prefix)``
        counter keys the call -- fully deterministic for serial
        workloads; under worker threads the *multiset* of injected
        faults stays seed-stable but their assignment to callers can
        vary with scheduling.
        """
        plan = self.plan
        if plan.rate <= 0.0 or not plan.covers(site):
            return None
        kinds = plan.kinds_at(site)
        if not kinds:
            return None
        if key is None:
            key = self._auto_key(site, prefix)
        roll, pick = self._hash(site, key)
        if roll >= plan.rate:
            return None
        kind = kinds[pick % len(kinds)]
        with self._lock:
            self._records.append(FaultRecord(site, key, kind))
        obs.metrics.counter("faults.injected").inc()
        obs.metrics.counter(f"faults.injected.{site}").inc()
        return kind

    def maybe_fail(
        self, site: str, key: Optional[str] = None, prefix: str = ""
    ) -> Optional[FaultKind]:
        """Decide and *raise* raising kinds; return response-level kinds.

        :class:`TransientFault`/:class:`InjectedTimeout` are raised in
        place; ``TRUNCATE``/``CORRUPT`` (which need the site's response
        object to apply) are returned to the caller.
        """
        kind = self.decide(site, key, prefix)
        if kind is FaultKind.TRANSIENT:
            raise TransientFault(site, key or "?")
        if kind is FaultKind.TIMEOUT:
            raise InjectedTimeout(site, key or "?")
        return kind

    def records(self) -> List[FaultRecord]:
        """Every injected fault so far, in injection order (a copy)."""
        with self._lock:
            return list(self._records)

    def summary(self) -> str:
        """Deterministic per-site/kind counts of every injected fault."""
        counts: Dict[Tuple[str, str], int] = {}
        for record in self.records():
            bucket = (record.site, record.kind.value)
            counts[bucket] = counts.get(bucket, 0) + 1
        lines = [f"fault plan {self.plan.describe()}: {sum(counts.values())} injected"]
        for (site, kind), count in sorted(counts.items()):
            lines.append(f"  {site} {kind}: {count}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide installation (mirrors obs.set_tracer)
# ----------------------------------------------------------------------
_active: Optional[FaultInjector] = None
_swap_lock = threading.Lock()


def active() -> Optional[FaultInjector]:
    """The installed injector, or ``None`` when chaos is off."""
    return _active


def install(plan: FaultPlan) -> FaultInjector:
    """Install a fresh injector for ``plan``; returns it."""
    global _active
    injector = FaultInjector(plan)
    with _swap_lock:
        _active = injector
    return injector


def uninstall() -> Optional[FaultInjector]:
    """Remove the active injector; returns it for post-run inspection."""
    global _active
    with _swap_lock:
        injector = _active
        _active = None
    return injector


@contextlib.contextmanager
def chaos(plan: FaultPlan):
    """Temporarily install ``plan``; yields the injector::

        with faults.chaos(FaultPlan(seed=7, rate=0.2)) as injector:
            run_workload()
        print(injector.summary())
    """
    global _active
    with _swap_lock:
        previous = _active
    injector = install(plan)
    try:
        yield injector
    finally:
        with _swap_lock:
            _active = previous
