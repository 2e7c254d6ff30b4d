"""Traced runs: spans recorded from outside the program.

The program is not edited.  :func:`install` replaces each layer's public
functions with wrappers that record a span (name, start, end, parent,
op id) in memory while the tracer is active; spans are written out when
the run ends.  A layer's self time is its span minus the part of it
that child spans cover, so the self times of one op, plus the op's
uncovered remainder, add up to the op's duration.
"""

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

#: ``(module, class or None, attribute, span name)`` for every wrapped
#: public function.  The span name is the layer the time is charged to.
PATCH_POINTS = [
    ("repro.core.pipeline", "ReproductionPipeline", "run", "core.pipeline"),
    ("repro.core.simulated", "SimulatedLLM", "chat", "core.chat"),
    ("repro.lp.backends", "SlowLPBackend", "solve", "lp.slow_solve"),
    ("repro.lp.backends", None, "write_lp_text", "lp.text_roundtrip"),
    ("repro.lp.backends", None, "parse_lp_text", "lp.text_roundtrip"),
    ("repro.lp.backends", "FastLPBackend", "solve", "lp.fast_solve"),
    ("repro.lp.model", "Model", "to_matrices", "lp.matrix_build"),
    ("repro.te.ncflow", "NCFlowSolver", "solve", "te.ncflow"),
    ("repro.te.maxflow", None, "solve_max_flow", "te.pf4"),
    ("repro.te.tunnelcache", None, "k_shortest_tunnels", "te.tunnels"),
    ("repro.ap.verifier", "APVerifier", "__init__", "ap.build"),
    ("repro.ap.verifier", "APVerifier", "find_loops", "ap.query"),
    ("repro.ap.verifier", "APVerifier", "find_blackholes", "ap.query"),
    ("repro.ap.verifier", "APVerifier", "allocated_atoms", "ap.query"),
    ("repro.ap.verifier", "APVerifier", "reachability_tree", "ap.query"),
    ("repro.apkeep.network", "APKeepVerifier", "insert_rule", "apkeep.update"),
    ("repro.apkeep.network", "APKeepVerifier", "remove_rule", "apkeep.update"),
    ("repro.shard.streaming", "StreamingVerifier", "apply", "shard.apply"),
    ("repro.store.cas", "ArtifactStore", "get", "store.get"),
    ("repro.store.cas", "ArtifactStore", "put", "store.put"),
    ("repro.serve.client", "ServeClient", "submit", "serve.http"),
    ("repro.serve.client", "ServeClient", "job", "serve.http"),
    ("repro.serve.client", "ServeClient", "result", "serve.http"),
]

#: Campaign factories whose *returned* callables are wrapped: the
#: per-component tests and the system validator of each run.
FACTORY_POINTS = [
    ("repro.experiments.campaign", "get_component_tests", "core.component_test"),
    ("repro.experiments.campaign", "get_validator", "core.validation"),
]

#: ``repro.obs.metrics`` accessors whose calls ``obs.metric_updates`` counts.
METRIC_ACCESSORS = ("counter", "histogram")

#: Program counters read before and after every traced op.
COUNTERS = (
    "lp.solves", "tunnel_cache.hit", "tunnel_cache.miss",
    "store.hit", "store.miss", "serve.worker_restarts",
)


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        #: ``[name, start, end, parent index, op id]`` per span.
        self.spans = []
        self.counts = defaultdict(float)
        #: Wrappers record only while this is set (traced ops only).
        self.active = False
        #: Parent for spans opened on threads with no open span, such as
        #: the campaign's worker threads.
        self.root = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # -- spans ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent, op=None):
        with self._lock:
            if parent is not None:
                op = self.spans[parent][4]
            self.spans.append([name, time.perf_counter(), None, parent, op])
            return len(self.spans) - 1

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()

    def op(self, op_id, fn, *args, shared=True):
        """Run ``fn(*args)`` as op ``op_id`` under a root span.

        ``shared`` makes the root the parent of spans from threads the
        op starts; concurrent ops (the serve clients) pass ``False``.
        """
        index = self._open("op", None, op_id)
        stack = self._stack()
        stack.append(index)
        if shared:
            self.root = index
        try:
            return fn(*args)
        finally:
            stack.pop()
            self._close(index)
            if shared:
                self.root = None

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            index = tracer._open(name, stack[-1] if stack else tracer.root)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._close(index)

        return traced

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every patch point; :meth:`uninstall` restores them."""
        for module_name, class_name, attr, span in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, self.wrap(span, owner.__dict__[attr]))
        for module_name, attr, span in FACTORY_POINTS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap_factory(span, getattr(module, attr)))
        metrics = importlib.import_module("repro.obs.metrics")
        for attr in METRIC_ACCESSORS:
            self._patch(metrics, attr, self._counting(getattr(metrics, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap_factory(self, span, factory):
        wrap = self.wrap

        @functools.wraps(factory)
        def wrapped_factory(key):
            made = factory(key)
            if isinstance(made, dict):
                return {name: wrap(span, test) for name, test in made.items()}
            return wrap(span, made)

        return wrapped_factory

    def _counting(self, accessor):
        tracer = self

        @functools.wraps(accessor)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.count("obs.metric_updates")
            return accessor(*args, **kwargs)

        return counted

    # -- reading -------------------------------------------------------
    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")

    def self_times(self):
        """Per span: its duration minus the union of its children."""
        children = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            result.append((end - start) - _covered(children[index], start, end))
        return result

    def ledger(self):
        """``{span name: (total self seconds, total seconds, count)}``."""
        table = defaultdict(lambda: [0.0, 0.0, 0])
        for span, own in zip(self.spans, self.self_times()):
            entry = table[span[0]]
            entry[0] += own
            entry[1] += span[2] - span[1]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in table.items()}

    def durations(self, name):
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def counter_values():
    """Current totals of :data:`COUNTERS` and the LP iteration sum."""
    from repro.obs import metrics

    values = {}
    for name in COUNTERS:
        series = metrics.REGISTRY.get(name)
        values[name] = series.value if series is not None else 0
    iterations = metrics.REGISTRY.get("lp.iterations")
    values["lp.iterations"] = iterations.total if iterations is not None else 0
    return values


def paper_gaps(repeats=3):
    """Participant A's LP-toolchain gap and D's BDD-library gap.

    Each is the reproduced prototype's time over the reference's, the
    median of ``repeats`` participant runs (the paper reports 111x and
    20x).  A speed-up of shared LP or BDD code that shrinks a paper
    result shows here.
    """
    from repro.experiments import run_participant

    toolchain, library = [], []
    for _ in range(repeats):
        details = run_participant("A").validation_details
        toolchain.append(details["reproduced_seconds"] / details["reference_seconds"])
        details = run_participant("D").validation_details
        library.append(
            details["reproduced_build_seconds"] / details["reference_build_seconds"]
        )
    return statistics.median(toolchain), statistics.median(library)


def tail_percentile(count):
    """Highest whole percentile with at least ten of ``count`` samples beyond it."""
    return 100 * (count - 10) // count if count > 10 else 0


def layer_metrics(tracer, extra, run_stats, generate_s, kernels, gaps):
    """Every per-layer metric of a traced run, as ``{name: (value, unit)}``.

    Times are self times per traced op unless the name says otherwise;
    layers a workload does not reach read 0.
    """
    from harness import percentile, spread

    split = extra["split"]
    ops = max(1, split[True][0])
    ledger = tracer.ledger()
    own = tracer.self_times()

    def self_ms(name):
        return ledger.get(name, (0.0, 0.0, 0))[0] * 1000.0 / ops

    def calls(name):
        return ledger.get(name, (0.0, 0.0, 0))[2]

    def rate(traced):
        count, total_ms = split[traced]
        return count / (total_ms / 1000.0) if total_ms else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    deltas = defaultdict(float)
    for delta in extra["deltas"]:
        for name, value in delta.items():
            deltas[name] += value
    stats = defaultdict(float)
    for entry in extra["stats"]:
        for name, value in entry.items():
            stats[name] += value
    snapshots = max(1, len(extra["stats"]))
    applies = tracer.durations("shard.apply")
    pairs = [sum(applies[i:i + 2]) * 1000.0 for i in range(0, len(applies) - 1, 2)]
    pair_count = max(1, len(pairs))
    op_spans = sum(s for span, s in zip(tracer.spans, own) if span[4] is not None)
    hits, misses = deltas["tunnel_cache.hit"], deltas["tunnel_cache.miss"]
    store_hits, store_misses = deltas["store.hit"], deltas["store.miss"]

    metrics = {
        "host.ref_ms": (statistics.median(kernels), "ms"),
        "host.ref_spread": (spread(kernels), "ratio"),
        "host.trace_overhead": (ratio(rate(True), rate(False)), "ratio"),
        "trace.op_ms": (ledger.get("op", (0.0, 0.0, 0))[1] * 1000.0 / ops, "ms"),
        "trace.self_sum_ms": (op_spans * 1000.0 / ops, "ms"),
        "trace.uncovered_ms": (self_ms("op"), "ms"),
        "core.chat_calls": (calls("core.chat") / ops, "count"),
        "core.chat_ms": (self_ms("core.chat"), "ms"),
        "core.component_test_ms": (self_ms("core.component_test"), "ms"),
        "core.validation_ms": (self_ms("core.validation"), "ms"),
        "core.pipeline_self_ms": (self_ms("core.pipeline"), "ms"),
        "experiments.parallel_efficiency": (ratio(
            sum(tracer.durations("core.pipeline")),
            2 * sum(tracer.durations("op")),
        ), "ratio"),
        "lp.slow_solve_ms": (self_ms("lp.slow_solve"), "ms"),
        "lp.text_roundtrip_ms": (self_ms("lp.text_roundtrip"), "ms"),
        "lp.fast_solve_ms": (self_ms("lp.fast_solve"), "ms"),
        "lp.matrix_build_ms": (self_ms("lp.matrix_build"), "ms"),
        "lp.solves": (deltas["lp.solves"] / ops, "count"),
        "lp.iterations": (deltas["lp.iterations"] / ops, "count"),
        "te.ncflow_ms": (self_ms("te.ncflow"), "ms"),
        "te.pf4_ms": (self_ms("te.pf4"), "ms"),
        "te.ncflow_lps": (stats["te.ncflow_lps"] / ops, "count"),
        "te.tunnels_ms": (self_ms("te.tunnels"), "ms"),
        "te.tunnel_hits": (hits, "count"),
        "te.tunnel_misses": (misses, "count"),
        "te.tunnel_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "netmodel.generate_s": (generate_s, "s"),
        "ap.build_ms": (self_ms("ap.build"), "ms"),
        "ap.query_ms": (self_ms("ap.query"), "ms"),
        "ap.atoms": (stats["ap.atoms"] / snapshots, "count"),
        "bdd.snapshot_nodes": (stats["bdd.snapshot_nodes"] / snapshots, "count"),
        "bdd.cache_hit_ratio": (
            ratio(stats["bdd.cache_hits"], stats["bdd.cache_lookups"]), "ratio"),
        "bdd.stream_nodes": (run_stats.get("bdd.stream_nodes", 0), "count"),
        "bdd.stream_cache_entries": (
            run_stats.get("bdd.stream_cache_entries", 0), "count"),
        "apkeep.update_ms": (ratio(
            ledger.get("apkeep.update", (0.0, 0.0, 0))[0] * 1000.0,
            calls("apkeep.update") / 2,
        ), "ms"),
        "shard.apply_p50_ms": (statistics.median(pairs) if pairs else 0.0, "ms"),
        "shard.apply_tail_ms": (
            percentile(pairs, tail_percentile(len(pairs))) if pairs else 0.0, "ms"),
        "shard.restitch_ms": (
            ledger.get("shard.apply", (0.0, 0.0, 0))[0] * 1000.0 / pair_count, "ms"),
        "store.get_ms": (self_ms("store.get"), "ms"),
        "store.put_ms": (self_ms("store.put"), "ms"),
        "store.hits": (store_hits, "count"),
        "store.misses": (store_misses, "count"),
        "store.hit_ratio": (ratio(store_hits, store_hits + store_misses), "ratio"),
        "serve.http_ms": (self_ms("serve.http"), "ms"),
        "serve.queue_wait_ms": (run_stats.get("serve.queue_wait_ms", 0.0), "ms"),
        "serve.run_ms": (run_stats.get("serve.run_ms", 0.0), "ms"),
        "serve.notify_lag_ms": (run_stats.get("serve.notify_lag_ms", 0.0), "ms"),
        "serve.cached_frac": (run_stats.get("serve.cached_frac", 0.0), "ratio"),
        "serve.worker_restarts": (deltas["serve.worker_restarts"], "count"),
        "obs.metric_updates": (tracer.counts["obs.metric_updates"] / ops, "count"),
        "lp.toolchain_gap": (gaps[0], "ratio"),
        "bdd.library_gap": (gaps[1], "ratio"),
    }
    return metrics
