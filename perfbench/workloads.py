"""The four workloads: seeded inputs, fixed op sequences, answer checks.

Every workload drives the program through the entry points its users
call.  The op sequence is fixed by ``--seed`` and ``--seconds`` alone:
its length is ``--seconds`` times a nominal rate measured on the
reference host, so a slower host runs the same ops for longer instead
of fewer ops of a different mix.  Answer checks run outside the timed
region; a wrong answer counts as a failed op.
"""

import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time

from harness import Corrector

#: The campaign one ``reproduce`` op runs (the ``repro campaign`` path).
PAPERS = ["ncflow", "arrow", "apkeep", "ap"]


def op_count(seconds, rate, period, minimum):
    """Ops in a run: ``seconds * rate``, whole periods, at least ``minimum``."""
    periods = max(minimum, round(seconds * rate / period))
    return periods * period


class ClosedLoop:
    """One client; each op starts when the previous one has finished.

    Subclasses set ``ops`` (the fixed sequence), ``tail_pct`` (the
    ``op_tail_ms`` percentile: at least ten ops beyond it at 20 s) and
    implement ``warm``, ``run`` and ``check``.
    """

    #: Input-generation time, for ``netmodel.generate_s``.
    generate_s = 0.0

    def measure(self, tracer=None):
        """Run every op; traced runs trace every second op.

        Returns ``(latencies_ms, ops_per_s, failed, corrector, extra)``
        where ``extra`` carries the traced/untraced split.
        """
        from tracing import counter_values

        corrector = Corrector()
        failed = 0
        traced_flags, deltas, stats = [], [], []
        for index, op in enumerate(self.ops):
            traced = tracer is not None and index % 2 == 1
            if traced:
                before = counter_values()
                tracer.active = True
                result = corrector.time(tracer.op, index, self.run, op)
                tracer.active = False
                after = counter_values()
                deltas.append({k: after[k] - before[k] for k in after})
                stats.append(self.op_stats(result))
            else:
                result = corrector.time(self.run, op)
            traced_flags.append(traced)
            if not self.check(op, result):
                failed += 1
            del result
        latencies = corrector.corrected_ms()
        split = {
            flag: [traced_flags.count(flag),
                   sum(ms for ms, t in zip(latencies, traced_flags) if t == flag)]
            for flag in (True, False)
        }
        ops_per_s = len(latencies) / (sum(latencies) / 1000.0)
        extra = {"split": split, "deltas": deltas, "stats": stats}
        return latencies, ops_per_s, failed, corrector, extra

    def op_stats(self, result):
        return {}

    def run_stats(self):
        return {}

    def close(self):
        pass


class Reproduce(ClosedLoop):
    """``run_campaign`` over the four papers with two workers."""

    tail_pct = 67

    def __init__(self, seed, seconds, root):
        from repro.experiments import run_campaign

        self._run_campaign = run_campaign
        self.ops = [None] * op_count(seconds, 1.55, 1, 12)
        self.reference = None

    def warm(self):
        result = self.run(None)
        if result.num_succeeded == len(PAPERS):
            self.reference = result.summary()

    def run(self, op):
        return self._run_campaign(PAPERS, workers=2)

    def check(self, op, result):
        return (
            result.num_runs == len(PAPERS)
            and result.num_succeeded == len(PAPERS)
            and result.summary() == self.reference
        )


#: Share of total link capacity offered as demand on ``te``.
TE_LOAD = 0.1
#: Commodities per traffic matrix on ``te``.
TE_COMMODITIES = 300
#: One re-solve interval in this many draws a fresh gravity matrix.
TE_FRESH_EVERY = 4
#: Spread of the per-commodity volume factors of one interval.
TE_VOLUME_SIGMA = 0.15


class TE(ClosedLoop):
    """Re-solve intervals over the 13 NCFlow topologies."""

    tail_pct = 93

    def __init__(self, seed, seconds, root):
        from repro.te import registry

        self.registry = registry
        start = time.perf_counter()
        self.ops = te_series(seed, seconds)
        self.generate_s = time.perf_counter() - start

    def warm(self):
        # An instance outside the sequence, so the tunnel cache starts
        # empty for every topology the timed ops use.
        from repro.netmodel.instances import make_te_instance

        instance = make_te_instance("B4", max_commodities=60)
        self.run((instance.topology, instance.traffic))

    def run(self, op):
        topology, traffic = op
        return (
            self.registry.solve("ncflow", topology, traffic),
            self.registry.solve("pf4", topology, traffic),
        )

    def check(self, op, result):
        topology, traffic = op
        bound = cut_bound(topology, traffic)
        return all(
            flow_is_feasible(solution, traffic, bound) for solution in result
        )

    def op_stats(self, result):
        return {"te.ncflow_lps": result[0].lp_count}


def te_series(seed, seconds):
    """The seeded re-solve intervals: ``(topology, traffic)`` per op.

    Op ``i`` re-solves topology ``i mod 13``.  Every fourth interval of
    a topology draws a fresh gravity matrix, a new commodity set (a
    tunnel-cache miss); the three after it keep that commodity set (a
    hit).  Every interval's volumes are the fresh matrix's times seeded
    log-normal factors (sigma ``TE_VOLUME_SIGMA``), rescaled to the same
    total load.  The fresh commodity sets are the same for every seed:
    drawn from the seed, they alone moved the p93 of a run by up to 20%
    between seeds, because each run sees only three per topology.
    Volumes drawn as a
    random walk (each interval's times sigma 0.3 factors) strayed far
    enough that one seed's p93 sat about 20% above other seeds' on
    every run of it.
    """
    import numpy as np
    from repro.netmodel.topozoo import NCFLOW_INSTANCE_NAMES, make_topology
    from repro.netmodel.traffic import TrafficMatrix, gravity_traffic_matrix

    topologies = [make_topology(name) for name in NCFLOW_INSTANCE_NAMES]
    period = len(topologies) * TE_FRESH_EVERY
    rng = np.random.RandomState(seed)
    ops = []
    fresh = {}
    for index in range(op_count(seconds, 8.0, period, 1)):
        position, interval = index % len(topologies), index // len(topologies)
        topology = topologies[position]
        if interval % TE_FRESH_EVERY == 0:
            fresh[position] = gravity_traffic_matrix(
                topology, seed=1000 * position + interval,
                total_demand_fraction=TE_LOAD,
                max_commodities=TE_COMMODITIES,
            ).demands
        base = fresh[position]
        keys = sorted(base)
        raw = [base[key] * factor for key, factor in
               zip(keys, rng.lognormal(0.0, TE_VOLUME_SIGMA, size=len(keys)))]
        scale = topology.total_capacity() * TE_LOAD / sum(raw)
        ops.append((topology, TrafficMatrix(
            {key: value * scale for key, value in zip(keys, raw)}
        )))
    return ops


def cut_bound(topology, traffic):
    """An upper bound on any feasible total flow.

    Every unit of a commodity leaves its source over the source's
    out-links and enters its destination over in-links, and no
    commodity exceeds its demand.
    """
    out_demand, in_demand = {}, {}
    for (src, dst), amount in traffic.demands.items():
        out_demand[src] = out_demand.get(src, 0.0) + amount
        in_demand[dst] = in_demand.get(dst, 0.0) + amount
    by_source = sum(
        min(amount, sum(link.capacity for link in topology.out_links(node)))
        for node, amount in out_demand.items()
    )
    by_destination = sum(
        min(amount, sum(topology.capacity(p, node) for p in topology.predecessors(node)))
        for node, amount in in_demand.items()
    )
    return min(by_source, by_destination)


def flow_is_feasible(solution, traffic, bound, tol=1e-6):
    """``ok``, flows within demands, objective = sum of flows <= bound."""
    if not solution.ok:
        return False
    flows = solution.flow_per_commodity
    scale = max(1.0, abs(solution.objective))
    if abs(sum(flows.values()) - solution.objective) > tol * scale:
        return False
    for key, flow in flows.items():
        if flow < -tol or flow > traffic.demand(*key) * (1 + tol) + tol:
            return False
    return solution.objective <= bound * (1 + tol)


#: Data planes in the ``verify`` snapshot pool, and their size.  The
#: pool is odd so that a traced run, which traces every second op,
#: traces and skips every plane alike.
VERIFY_POOL = 23
VERIFY_DEVICES = 24
VERIFY_RULES = 120
#: Insert/remove rule pairs per ``verify`` op, and tracked sources.
VERIFY_PAIRS = 3
VERIFY_SOURCES = 3
#: ``random_dataset`` seed of the plane the long-lived stream verifies.
STREAM_PLANE_SEED = 0
#: Burst rules outrank every ``random_dataset`` rule (priority < 32),
#: so removing one restores the plane exactly.
BURST_PRIORITY = (40, 63)


class Verify(ClosedLoop):
    """An AP snapshot plus an update burst on a long-lived stream."""

    tail_pct = 95

    def __init__(self, seed, seconds, root):
        from repro.ap import APVerifier
        from repro.shard import StreamingVerifier, whole_reference_document

        self._ap = APVerifier
        start = time.perf_counter()
        inputs = verify_inputs(seed, seconds)
        self.generate_s = time.perf_counter() - start
        self.pool = inputs["pool"]
        self.warm_plane = inputs["warm_plane"]
        self.ops = inputs["ops"]
        self.warm_burst = inputs["warm_burst"]
        stream_plane = inputs["stream_plane"]
        self.stream = StreamingVerifier(stream_plane, sources=inputs["sources"])
        self.reference = json.dumps(
            whole_reference_document(stream_plane), sort_keys=True
        )
        self._apkeep_atoms = {}

    def warm(self):
        self.run((None, self.warm_burst))

    def _snapshot(self, plane):
        verifier = self._ap(plane)
        loops = verifier.find_loops()
        blackholes = verifier.find_blackholes(scope=verifier.allocated_atoms())
        sources = plane.topology.nodes[:VERIFY_SOURCES]
        reach = {src: verifier.reachability_tree(src) for src in sources}
        return verifier, loops, blackholes, reach

    def run(self, op):
        index, burst = op
        snapshot = self._snapshot(
            self.warm_plane if index is None else self.pool[index]
        )
        for device, rule in burst:
            self.stream.apply("insert", device, rule)
            self.stream.apply("remove", device, rule)
        return snapshot

    def check(self, op, result):
        from repro.apkeep import APKeepVerifier

        index = op[0]
        if index not in self._apkeep_atoms:
            self._apkeep_atoms[index] = APKeepVerifier(
                self.pool[index]
            ).num_atoms_minimal
        streamed = json.dumps(self.stream.comparison_document(), sort_keys=True)
        return (
            result[0].num_atoms == self._apkeep_atoms[index]
            and streamed == self.reference
        )

    def op_stats(self, result):
        stats = result[0].engine.stats()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        return {
            "ap.atoms": result[0].num_atoms,
            "bdd.snapshot_nodes": stats["num_nodes"],
            "bdd.cache_hits": stats["cache_hits"],
            "bdd.cache_lookups": lookups,
        }

    def run_stats(self):
        engines = [v.engine.stats() for v in self.stream.shard_verifiers]
        return {
            "bdd.stream_nodes": sum(s["num_nodes"] for s in engines),
            "bdd.stream_cache_entries": sum(s["cache_size"] for s in engines),
        }


def verify_inputs(seed, seconds):
    """The seeded snapshot pool and update bursts, and the stream plane."""
    from repro.netmodel.datasets import random_dataset

    rng = random.Random(seed)

    def plane(name):
        return random_dataset(
            num_nodes=VERIFY_DEVICES, rules_per_device=VERIFY_RULES,
            seed=rng.randrange(2**31), name=name,
        )

    pool = [plane(f"plane{i}") for i in range(VERIFY_POOL)]
    warm_plane = plane("warm")
    # The stream models one long-lived network with a fixed feed of
    # route changes whose order the seed draws.  When the seed drew the
    # network, its structure moved node growth, and so peak RSS, by
    # +-15% between seeds; when it drew the changes themselves, by +-7%.
    stream_plane = random_dataset(
        num_nodes=VERIFY_DEVICES, rules_per_device=VERIFY_RULES,
        seed=STREAM_PLANE_SEED, name="stream",
    )
    sources = stream_plane.topology.nodes[:VERIFY_SOURCES]
    count = op_count(seconds, 11.0, 1, 40)
    feed = burst_rules(
        stream_plane, random.Random(STREAM_PLANE_SEED), count * VERIFY_PAIRS + 1
    )
    rng.shuffle(feed)
    ops = [
        (i % VERIFY_POOL, feed[1 + i * VERIFY_PAIRS:1 + (i + 1) * VERIFY_PAIRS])
        for i in range(count)
    ]
    return {
        "pool": pool, "warm_plane": warm_plane, "stream_plane": stream_plane,
        "sources": sources, "ops": ops, "warm_burst": feed[:1],
    }


def burst_rules(dataset, rng, pairs):
    """``pairs`` seeded route changes: an existing prefix of a device,
    re-routed to another port by a rule that outranks the plane's."""
    from repro.netmodel.rules import DROP_PORT, ForwardingRule

    nodes = dataset.topology.nodes
    rules = []
    for _ in range(pairs):
        device = rng.choice(nodes)
        prefix = rng.choice(dataset.devices[device].rules).prefix
        port = rng.choice(dataset.topology.successors(device) + [DROP_PORT])
        priority = rng.randint(*BURST_PRIORITY)
        rules.append((device, ForwardingRule(prefix, port, priority)))
    return rules


#: Concurrent ``serve`` clients, each waiting for its previous job.
SERVE_CLIENTS = 2
#: Light job specs the ``serve`` schedule draws from, per kind.
SERVE_CATALOGUE = {
    "solve": [
        {"instance": instance, "solver": solver, "commodities": commodities}
        for instance in ("B4", "IbmBackbone")
        for solver in ("pf4", "ncflow")
        for commodities in (20, 30)
    ],
    "verify": [{"dataset": name} for name in ("Internet2", "Stanford", "Purdue")],
    "campaign": [{"papers": [paper]} for paper in ("rps", "apkeep", "ap")],
}


class Serve:
    """Closed loop of two ``repro submit --wait`` clients on a daemon."""

    tail_pct = 98

    def __init__(self, seed, seconds, root):
        from repro.serve import ReproDaemon, ServeClient
        from repro.store import ArtifactStore

        self._client_class = ServeClient
        start = time.perf_counter()
        self.schedules = serve_schedules(seed, seconds)
        self.generate_s = time.perf_counter() - start
        work_dir = os.path.join(root, ".perfbench")
        os.makedirs(work_dir, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="serve-store-", dir=work_dir)
        self.daemon = ReproDaemon(store=ArtifactStore(self.store_dir))
        try:
            self.daemon.start()
        except BaseException:
            self.close()
            raise
        self.ops = [job for schedule in self.schedules for job in schedule]
        self._references = {}

    def warm(self):
        # Each client sends one job of every kind at the same time as
        # the other, so both workers import every kind's code before
        # the timed region.  Negative job seeds keep them out of the
        # schedule's store keys.
        self._drive([
            [(kind, SERVE_CATALOGUE[kind][0], -1 - 10 * client - position)
             for position, kind in enumerate(SERVE_CATALOGUE)]
            for client in range(SERVE_CLIENTS)
        ], None)

    def _drive(self, schedules, tracer):
        """Run each schedule on its own client thread; returns the
        per-job outcomes and the wall time."""
        outcomes = [[] for _ in schedules]
        errors = []

        def client_loop(index):
            client = self._client_class(self.daemon.url)
            try:
                for position, (kind, params, job_seed) in enumerate(schedules[index]):
                    if tracer is None:
                        outcomes[index].append(
                            self._one_job(client, kind, params, job_seed)
                        )
                    else:
                        outcomes[index].append(tracer.op(
                            (index, position), self._one_job,
                            client, kind, params, job_seed, shared=False,
                        ))
            except Exception as exc:  # reported as failed ops below
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(len(schedules))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return outcomes, wall, errors

    @staticmethod
    def _one_job(client, kind, params, job_seed):
        record = client.submit(kind, params, seed=job_seed)
        final = client.wait(record["id"], timeout=60.0)
        seen = time.time()
        payload = None
        if final["state"] == "completed":
            payload = client.result(record["id"]).get("payload")
        return {"kind": kind, "params": params, "record": final,
                "seen": seen, "payload": payload}

    def measure(self, tracer=None):
        """Drive both clients; traced runs trace the second half."""
        from tracing import counter_values

        corrector = Corrector()
        deltas = []
        for _ in range(5):
            corrector.kernel()
        halves = [[], []]
        split = {}
        if tracer is None:
            outcomes, wall, errors = self._drive(self.schedules, None)
        else:
            half = len(self.schedules[0]) // 8 * 4  # whole blocks of four
            outcomes = [[] for _ in self.schedules]
            errors = []
            for traced in (False, True):
                part = [s[half:] if traced else s[:half] for s in self.schedules]
                before = counter_values()
                tracer.active = traced
                got, wall, errs = self._drive(part, tracer if traced else None)
                tracer.active = False
                if traced:
                    after = counter_values()
                    deltas = [{k: after[k] - before[k] for k in after}]
                errors.extend(errs)
                jobs = sum(len(g) for g in got)
                split[traced] = [jobs, wall * 1000.0]
                for index, more in enumerate(got):
                    outcomes[index].extend(more)
                halves[traced] = got
            wall = sum(entry[1] for entry in split.values()) / 1000.0
        for _ in range(5):
            corrector.kernel()
        done = [job for client in outcomes for job in client]
        latencies = [
            (job["record"]["finished_unix"] - job["record"]["created_unix"]) * 1000.0
            for job in done if job["record"]["finished_unix"] is not None
        ]
        failed = len(self.ops) - len(done) + sum(1 for job in done if not self.check(job))
        self.done = done
        self.traced_jobs = [job for client in halves[True] for job in client]
        if errors:
            raise RuntimeError(f"serve client failed: {errors[0]!r}")
        extra = {"split": split, "deltas": deltas, "stats": []}
        return latencies, len(done) / wall, failed, corrector, extra

    def check(self, job):
        from repro.serve.jobs import JobSpec, execute_job

        if job["record"]["state"] != "completed":
            return False
        key = json.dumps([job["kind"], job["params"]], sort_keys=True)
        if key not in self._references:
            self._references[key] = execute_job(JobSpec(job["kind"], job["params"]))
        return job["payload"] == self._references[key]

    def run_stats(self):
        fresh = [job for job in self.traced_jobs if not job["record"]["cached"]]
        records = [job["record"] for job in fresh]
        jobs = len(self.traced_jobs) or 1

        def mean_ms(values):
            return statistics.fmean(values) * 1000.0 if values else 0.0

        return {
            "serve.queue_wait_ms": mean_ms(
                [r["started_unix"] - r["created_unix"] for r in records]),
            "serve.run_ms": mean_ms(
                [r["finished_unix"] - r["started_unix"] for r in records]),
            "serve.notify_lag_ms": mean_ms(
                [job["seen"] - job["record"]["finished_unix"]
                 for job in self.traced_jobs]),
            "serve.cached_frac": (len(self.traced_jobs) - len(fresh)) / jobs,
        }

    def close(self):
        daemon, self.daemon = getattr(self, "daemon", None), None
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def serve_schedules(seed, seconds):
    """Each client's seeded job list of ``(kind, params, job seed)``.

    In every four submissions a client sends one fresh spec of each
    kind, in seeded order, then repeats one of its own earlier specs,
    which has completed by then, so the daemon answers it from the
    store.  Fresh specs get unique job seeds, hence unique store keys.
    """
    rng = random.Random(seed)
    count = op_count(seconds, 18.3, 4, 8)
    schedules = []
    for client in range(SERVE_CLIENTS):
        jobs = []
        for block in range(count // 4):
            kinds = list(SERVE_CATALOGUE)
            rng.shuffle(kinds)
            for kind in kinds:
                job_seed = (seed % 100_000) * 1_000_000 + client * 100_000 + len(jobs)
                jobs.append((kind, rng.choice(SERVE_CATALOGUE[kind]), job_seed))
            jobs.append(rng.choice(jobs[: 4 * block + 3]))
        schedules.append(jobs)
    return schedules


WORKLOADS = {
    "reproduce": Reproduce,
    "te": TE,
    "verify": Verify,
    "serve": Serve,
}
