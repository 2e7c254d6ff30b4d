"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the library's main flows so a downstream user can
explore the reproduction without writing code:

* ``experiment``   -- run participants A-D and print Figures 4-5;
* ``participant``  -- run one participant (optionally changing the
  prompting style) and print the component log;
* ``study``        -- print the Figure 1-2 statistics;
* ``verify``       -- verify a data plane with AP and APKeep, optionally
  injecting an anomaly first, padding FIBs (``--rules-per-device``),
  partitioning across shard-local BDD engines (``--shards N``), or
  replaying a rule-change burst through the streaming verifier
  (``--stream``);
* ``te``           -- solve a TE instance with any registry solver
  (``--solver list`` shows them), optionally sweeping demand scales
  in parallel (``--sweep`` / ``--workers``) with an injected LP
  backend (``--lp-backend``) and warm-started sweep points
  (``--warm-start``);
* ``motivating``   -- replay the rock-paper-scissors example and play it;
* ``transcript``   -- run a participant session and dump the markdown
  conversation log;
* ``analyze``      -- comparative discrepancy analysis of a reproduced
  system against its reference prototype;
* ``paperdoc``     -- render a paper's structured document;
* ``trace-view``   -- render a ``--trace`` JSONL file as a span tree;
* ``bench``        -- run the performance benchmark harness
  (``--filter``/``--repeat``/``--save``/``--baseline``), list the
  workload catalogue (``--list``), or diff two saved artifacts
  (``--compare``) with regression gating; ``--baseline`` with no path
  (or ``--compare`` with one) auto-discovers the newest committed
  ``BENCH_*.json``;
* ``store``        -- inspect and maintain a persistent artifact store
  (``ls``/``stats``/``verify``/``gc``/``clear``);
* ``fuzz``         -- the standing differential-correctness gate:
  ``fuzz run`` sweeps seeded cases through the oracle registry
  (``--oracle list`` shows it) with per-case watchdog time-boxing and
  failure minimization, ``fuzz ls`` lists stored failure artifacts,
  and ``fuzz repro <key>`` (or ``--seed/--case/--oracle``) replays a
  failure live;
* ``obs``          -- live telemetry utilities (``obs serve`` runs the
  ``/metrics`` exposition endpoint standalone);
* ``profile-view`` -- top-N rollup of a ``--profile`` collapsed-stacks
  file;
* ``serve``        -- run the long-lived reproduction service: an HTTP
  daemon with an admission-controlled job queue fanning out to a
  multi-process worker pool (``--workers``/``--queue-limit``/
  ``--job-budget``); with ``--store DIR`` repeat submissions are
  answered from the artifact store at admission;
* ``submit``       -- submit one job (``campaign``/``solve``/
  ``verify``/``probe``) to a running service and optionally ``--wait``
  for its result;
* ``jobs``         -- list a running service's jobs, or show one job's
  record/result (``--result``) or the daemon ``--stats``;
* ``loadgen``      -- hammer a running service with N deterministic
  jobs at C-way client concurrency and report jobs/sec plus p50/p95/p99
  latency.

Every command accepts the global flags ``--trace FILE`` (record obs
spans; ``.json`` gets Chrome trace_event format, anything else JSON
lines), ``--metrics`` (print the metrics registry after the run),
``--serve-metrics PORT`` (serve live Prometheus ``/metrics`` + JSON
``/snapshot`` with campaign progress and ETA for the duration of the
command), and ``--profile OUT`` (sample thread stacks and write
flamegraph collapsed stacks to OUT),
plus the resilience flags ``--fault-plan SPEC`` (install a seeded
fault-injection plan for the duration of the command, e.g.
``--fault-plan rate=0.2,seed=7``), ``--retries N`` (max attempts for
the LLM retry policy in fail-soft runs) and ``--on-error
{raise,collect}`` (fan-out failure policy for sweeps and campaigns).

``--store DIR`` (also global) installs a persistent artifact store for
the duration of the command: tunnel-cache entries are written through
to disk (a second process starts warm), campaign runs are checkpointed
(``campaign --resume`` skips the completed ones), and the ``store``
subcommand manages the same directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _observability_flags() -> argparse.ArgumentParser:
    """Shared ``--trace`` / ``--metrics`` flags, valid before or after the
    subcommand.

    ``SUPPRESS`` keeps a flag given *before* the subcommand from being
    clobbered by the subparser's default when it is absent *after* it;
    read the values with ``getattr(args, ..., fallback)``.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="FILE", default=argparse.SUPPRESS,
        help="record obs spans to FILE (.json = Chrome trace, else JSONL)",
    )
    common.add_argument(
        "--metrics", action="store_true", default=argparse.SUPPRESS,
        help="print the metrics registry after the command",
    )
    common.add_argument(
        "--fault-plan", metavar="SPEC", default=argparse.SUPPRESS,
        help="install a fault-injection plan for this command "
             "(e.g. 'rate=0.2,seed=7,sites=llm.chat+lp.solve')",
    )
    common.add_argument(
        "--retries", type=int, metavar="N", default=argparse.SUPPRESS,
        help="max attempts for the LLM retry policy (campaign runs)",
    )
    common.add_argument(
        "--on-error", choices=["raise", "collect"], default=argparse.SUPPRESS,
        help="fan-out failure policy for --sweep and campaign runs "
             "(collect = fail-soft with structured failure records)",
    )
    common.add_argument(
        "--store", metavar="DIR", default=argparse.SUPPRESS,
        help="persistent artifact store directory: tunnel-cache entries "
             "and campaign checkpoints survive the process",
    )
    common.add_argument(
        "--serve-metrics", type=int, metavar="PORT", default=argparse.SUPPRESS,
        help="serve live telemetry on PORT for the duration of the "
             "command (/metrics Prometheus text, /snapshot JSON with "
             "progress+ETA, /health); 0 picks a free port",
    )
    common.add_argument(
        "--profile", metavar="OUT", default=argparse.SUPPRESS,
        help="sample thread stacks during the command and write "
             "flamegraph collapsed stacks to OUT "
             "(view with 'repro profile-view OUT')",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _observability_flags()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Toward Reproducing Network Research Results "
            "Using Large Language Models' (HotNets 2023)."
        ),
        parents=[common],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return subparsers.add_parser(name, parents=[common], **kwargs)

    add_parser("experiment", help="run participants A-D")

    campaign = add_parser(
        "campaign", help="batch-reproduce several papers"
    )
    campaign.add_argument(
        "papers", nargs="+",
        choices=["ncflow", "arrow", "apkeep", "ap", "rps"],
    )
    campaign.add_argument(
        "--styles", nargs="+",
        choices=["monolithic", "modular-text", "modular-pseudocode"],
        default=["modular-pseudocode"],
    )
    campaign.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for the (paper, style) runs",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="skip runs already checkpointed in the --store directory "
             "and execute only the missing ones",
    )

    participant = add_parser("participant", help="run one participant")
    participant.add_argument("name", choices=["A", "B", "C", "D"])
    participant.add_argument(
        "--style",
        choices=["monolithic", "modular-text", "modular-pseudocode"],
        default=None,
        help="override the prompting style",
    )

    add_parser("study", help="print the Figure 1-2 statistics")

    verify = add_parser("verify", help="verify a data plane")
    verify.add_argument("dataset", nargs="?", default="Internet2")
    verify.add_argument(
        "--inject", choices=["loop", "blackhole"], default=None
    )
    verify.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the data plane into N shards and verify each "
             "with its own BDD engine, stitching the results "
             "(1 = classic whole-network path)",
    )
    verify.add_argument(
        "--stream", action="store_true",
        help="with --shards > 1: feed a deterministic rule-change burst "
             "through the streaming verifier and report per-update "
             "re-verification latency",
    )
    verify.add_argument(
        "--rules-per-device", type=int, default=None, metavar="N",
        help="pad every FIB to at least N rules (semantically inert "
             "route splitting; scales raw rule counts for shard runs)",
    )

    te = add_parser("te", help="solve a TE instance")
    te.add_argument("instance", nargs="?", default="Colt")
    te.add_argument(
        "--solver", default="ncflow", metavar="NAME",
        help="a repro.te.registry solver name, or 'list' to show them",
    )
    te.add_argument("--commodities", type=int, default=300)
    te.add_argument("--load", type=float, default=0.1,
                    help="total demand as a fraction of total capacity")
    te.add_argument(
        "--lp-backend",
        choices=["fast", "slow", "fallback"], default=None,
        help="inject an LP backend; 'fallback' chains fast then slow "
             "(default: each solver's own default)",
    )
    te.add_argument(
        "--sweep", metavar="SCALES", default=None,
        help="comma-separated demand scales; runs a scale sweep after the "
             "base solve (e.g. --sweep 0.5,1.0,2.0)",
    )
    te.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for --sweep points",
    )
    te.add_argument(
        "--warm-start", action="store_true",
        help="carry an LP solve session along each worker's chunk of "
             "--sweep points (warm-capable solvers only; see "
             "'--solver list' for the 'warm' capability tag)",
    )

    add_parser("motivating", help="replay the motivating example")

    transcript = add_parser(
        "transcript", help="dump a participant's conversation log"
    )
    transcript.add_argument("name", choices=["A", "B", "C", "D"])
    transcript.add_argument("--out", default=None, help="write to a file")
    transcript.add_argument(
        "--format", choices=["markdown", "json", "summary"], default="markdown"
    )

    analyze = add_parser(
        "analyze", help="discrepancy analysis vs the reference prototype"
    )
    analyze.add_argument("system", choices=["ncflow", "arrow", "apkeep", "ap"])

    paperdoc = add_parser(
        "paperdoc", help="render a paper's structured document"
    )
    paperdoc.add_argument(
        "key", choices=["ncflow", "arrow", "apkeep", "ap", "rps"]
    )
    paperdoc.add_argument(
        "--lint", action="store_true",
        help="flag missing details instead of rendering",
    )

    export = add_parser(
        "export", help="write every figure/experiment series as CSV"
    )
    export.add_argument("--out", default="results", help="output directory")

    diff = add_parser(
        "diff", help="differential verification between two snapshots"
    )
    diff.add_argument("dataset", nargs="?", default="Internet2")
    diff.add_argument(
        "--inject", choices=["loop", "blackhole"], default="blackhole",
        help="perturbation applied to the second snapshot",
    )

    trace_view = add_parser(
        "trace-view", help="render a recorded JSONL trace as a span tree"
    )
    trace_view.add_argument("file", help="JSONL file written by --trace")
    trace_view.add_argument(
        "--no-meta", action="store_true",
        help="hide span metadata (names and times only)",
    )
    trace_view.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="instead of the tree, show the N slowest span names "
             "(count / total / self / %% of wall time)",
    )

    obs_cmd = add_parser(
        "obs", help="live telemetry utilities"
    )
    obs_cmd.add_argument(
        "action", choices=["serve"],
        help="serve = run the /metrics exposition endpoint until "
             "--duration elapses (or Ctrl-C)",
    )
    obs_cmd.add_argument(
        "--port", type=int, default=9109, metavar="PORT",
        help="port to bind (default 9109; 0 picks a free port)",
    )
    obs_cmd.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after SECONDS (default: serve until interrupted)",
    )

    profile_view = add_parser(
        "profile-view", help="summarise a collapsed-stacks profile"
    )
    profile_view.add_argument(
        "file", help="collapsed-stacks file written by --profile",
    )
    profile_view.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="number of frames to show (default 10)",
    )

    bench = add_parser(
        "bench", help="run the performance benchmark harness"
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_benchmarks",
        help="list the workload catalogue and exit",
    )
    bench.add_argument(
        "--filter", metavar="EXPR", default=None,
        help="comma-separated needles matched against benchmark "
             "name/layer/tags (e.g. 'bdd', 'te-warm', 'pf4')",
    )
    bench.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="timed iterations per benchmark (default: each spec's own)",
    )
    bench.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="untimed warmup iterations per benchmark (default 1)",
    )
    bench.add_argument(
        "--save", nargs="?", const="", default=None, metavar="PATH",
        help="write a BENCH_<git-sha>.json artifact "
             "(PATH omitted = default name in the current directory)",
    )
    bench.add_argument(
        "--baseline", nargs="?", const="", metavar="ARTIFACT", default=None,
        help="after running, compare against a saved artifact and exit "
             "nonzero on regressions (no path: the newest BENCH_*.json "
             "in the current directory)",
    )
    bench.add_argument(
        "--compare", nargs="+", metavar="ARTIFACT", default=None,
        help="compare two saved artifacts without running anything "
             "(one path: it is CURRENT, the baseline is the newest "
             "BENCH_*.json in the current directory)",
    )
    bench.add_argument(
        "--threshold", type=float, default=1.5, metavar="RATIO",
        help="slowdown ratio that fails the gate (default 1.5)",
    )
    bench.add_argument(
        "--min-seconds", type=float, default=0.002, metavar="S",
        help="ignore benchmarks faster than this on both sides "
             "(default 0.002)",
    )
    bench.add_argument(
        "--stat", choices=["min", "median", "mean"], default="median",
        help="statistic the comparison ratio uses (default median)",
    )

    store = add_parser(
        "store", help="inspect and maintain a persistent artifact store"
    )
    store.add_argument(
        "action", choices=["ls", "stats", "verify", "gc", "clear"],
        help="ls = list entries, stats = counters and size, verify = "
             "integrity-check every entry, gc = evict LRU entries over "
             "the byte budget, clear = remove everything",
    )
    store.add_argument(
        "path", nargs="?", default=None,
        help="store directory (defaults to the global --store flag)",
    )
    store.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="byte budget for gc (default 256 MiB)",
    )
    store.add_argument(
        "--repair", action="store_true",
        help="with verify: delete the entries that fail the check",
    )

    fuzz = add_parser(
        "fuzz", help="differential fuzzing: the standing correctness gate"
    )
    fuzz.add_argument(
        "action", choices=["run", "ls", "repro"],
        help="run = time-boxed oracle sweep, ls = list stored failure "
             "artifacts, repro = replay one failure (by stored key, or "
             "by --seed/--case/--oracle without a store)",
    )
    fuzz.add_argument(
        "key", nargs="?", default=None,
        help="artifact key for 'repro' (as printed by 'fuzz ls')",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="schedule seed: every case replays from (seed, index) "
             "(default 0)",
    )
    fuzz.add_argument(
        "--cases", type=int, default=None, metavar="N",
        help="fixed case window (default: 20 unless --budget-seconds "
             "bounds the sweep)",
    )
    fuzz.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="time-box the sweep: stop scheduling new batches after S "
             "seconds",
    )
    fuzz.add_argument(
        "--oracle", default=None, metavar="NAMES",
        help="comma-separated oracle names to run, or 'list' to show "
             "the registry (default: every registered oracle)",
    )
    fuzz.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for the (oracle, case) fan-out",
    )
    fuzz.add_argument(
        "--case-timeout", type=float, default=None, metavar="S",
        help="per-case watchdog timeout in seconds (default 30; "
             "0 disables)",
    )
    fuzz.add_argument(
        "--case", type=int, default=None, dest="case_index", metavar="I",
        help="with 'repro' and no key: the case index to regenerate",
    )
    fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="skip failure minimization after the sweep",
    )
    fuzz.add_argument(
        "--plant-defect", action="store_true",
        help="register the planted lying-warm-backend oracle before the "
             "sweep (self-test: the gate must catch it)",
    )

    serve = add_parser(
        "serve", help="run the long-lived reproduction service"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8642, metavar="PORT",
        help="port to bind (default 8642; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker pool size (default 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission control: reject submissions once N jobs are "
             "queued (HTTP 429; default 64)",
    )
    serve.add_argument(
        "--job-budget", type=float, default=None, metavar="S",
        help="default per-job wall-clock budget in seconds, applied to "
             "jobs submitted without one (over-budget jobs are killed)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after SECONDS (default: serve until SIGTERM/Ctrl-C)",
    )

    submit = add_parser(
        "submit", help="submit a job to a running service"
    )
    submit.add_argument(
        "kind", choices=["campaign", "solve", "verify", "probe"],
        help="job kind",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642", metavar="URL",
        help="service base URL (default http://127.0.0.1:8642)",
    )
    submit.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        dest="params",
        help="job parameter (repeatable); V is parsed as JSON when "
             "possible, and comma-splits into a list otherwise "
             "(e.g. --param papers=rps,apkeep --param commodities=30)",
    )
    submit.add_argument(
        "--seed", type=int, default=0,
        help="job seed (part of the store key; default 0)",
    )
    submit.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="per-job wall-clock budget (overrides the daemon default)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print its result",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="how long --wait polls before giving up (default 300)",
    )

    jobs_cmd = add_parser(
        "jobs", help="list jobs on a running service"
    )
    jobs_cmd.add_argument(
        "job_id", nargs="?", type=int, default=None,
        help="show one job's record instead of the listing",
    )
    jobs_cmd.add_argument(
        "--url", default="http://127.0.0.1:8642", metavar="URL",
        help="service base URL (default http://127.0.0.1:8642)",
    )
    jobs_cmd.add_argument(
        "--result", action="store_true",
        help="with a job id: fetch the completed job's payload",
    )
    jobs_cmd.add_argument(
        "--stats", action="store_true",
        help="print the daemon's /stats document instead of the listing",
    )

    loadgen = add_parser(
        "loadgen", help="throughput/latency load run against a service"
    )
    loadgen.add_argument(
        "--url", default="http://127.0.0.1:8642", metavar="URL",
        help="service base URL (default http://127.0.0.1:8642)",
    )
    loadgen.add_argument(
        "--jobs", type=int, default=50, metavar="N",
        help="jobs to submit (default 50)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=8, metavar="C",
        help="client submission threads (default 8)",
    )
    loadgen.add_argument(
        "--kind", default="mix",
        choices=["mix", "probe", "solve", "verify", "campaign"],
        help="workload shape (default 'mix': solve/verify/probe cycle "
             "with deliberate repeats, the store-hit workload)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the deterministic job specs (default 0)",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=120.0, metavar="S",
        help="per-job submit-to-terminal deadline (default 120)",
    )
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_experiment(args, out) -> int:
    from repro.experiments import figure4_rows, figure5_rows, run_experiment

    result = run_experiment()
    out.write("Figure 4 (prompts / words):\n")
    for participant, system, prompts, words in figure4_rows(result):
        out.write(f"  {participant} {system:<8} {prompts:>4} {words:>6}\n")
    out.write("Figure 5 (LoC reproduced / reference):\n")
    for participant, system, reproduced, reference, ratio in figure5_rows(result):
        out.write(
            f"  {participant} {system:<8} {reproduced:>5} / {reference:>5} "
            f"({ratio * 100:.0f}%)\n"
        )
    out.write(f"all succeeded: {result.all_succeeded}\n")
    return 0 if result.all_succeeded else 1


def cmd_campaign(args, out) -> int:
    from repro import store as store_mod
    from repro.core.prompts import PromptStyle
    from repro.experiments import run_campaign
    from repro.resilience import RetryPolicy

    default_store = store_mod.get_default()
    if args.resume and default_store is None:
        out.write("error: --resume needs a --store DIR to resume from\n")
        return 2
    checkpoint = (
        store_mod.CampaignCheckpoint(default_store)
        if default_store is not None else None
    )
    retries = getattr(args, "retries", None)
    result = run_campaign(
        args.papers,
        styles=[PromptStyle(style) for style in args.styles],
        workers=args.workers,
        on_error=getattr(args, "on_error", "collect"),
        retry=RetryPolicy(max_attempts=retries) if retries else None,
        checkpoint=checkpoint,
        resume=args.resume,
    )
    out.write(result.render() + "\n")
    return 0 if result.num_succeeded == result.num_runs else 1


def cmd_participant(args, out) -> int:
    from repro.core.prompts import PromptStyle
    from repro.experiments import run_participant

    style = PromptStyle(args.style) if args.style else None
    report = run_participant(args.name, style=style)
    out.write(report.summary_row() + "\n")
    for outcome in report.components:
        out.write(
            f"  {outcome.name:<16} revisions={outcome.revisions} "
            f"debug={outcome.debug_rounds} loc={outcome.final_loc} "
            f"{'ok' if outcome.passed else 'FAILED'}\n"
        )
    for key, value in sorted(report.validation_details.items()):
        out.write(f"  {key} = {value}\n")
    return 0 if report.succeeded else 1


def cmd_study(args, out) -> int:
    from repro.study import build_corpus, comparison_stats, opensource_stats

    corpus = build_corpus()
    open_stats = opensource_stats(corpus)
    comp_stats = comparison_stats(corpus)
    out.write(f"papers: {len(corpus)}\n")
    out.write(
        f"open source: SIGCOMM {open_stats.venue_fraction('SIGCOMM') * 100:.1f}%  "
        f"NSDI {open_stats.venue_fraction('NSDI') * 100:.1f}%  "
        f"combined {open_stats.combined_fraction * 100:.1f}%\n"
    )
    out.write(
        f"compare >=2: {comp_stats.frac_compared_ge2 * 100:.2f}%  "
        f"manual mean|>=1: {comp_stats.mean_manual_given_any:.2f}  "
        f"manual >=1: {comp_stats.frac_manual_ge1 * 100:.2f}%  "
        f"manual >=2: {comp_stats.frac_manual_ge2 * 100:.2f}%\n"
    )
    return 0


def cmd_verify(args, out) -> int:
    from repro.ap import APVerifier
    from repro.apkeep import APKeepVerifier
    from repro.netmodel.datasets import (
        build_verification_dataset,
        inject_blackhole,
        inject_loop,
    )

    dataset = build_verification_dataset(
        args.dataset, rules_per_device=args.rules_per_device
    )
    note = ""
    if args.inject == "loop":
        dataset, where = inject_loop(dataset, seed=3)
        note = f" (loop injected at {where})"
    elif args.inject == "blackhole":
        dataset, where = inject_blackhole(dataset, seed=3)
        note = f" (blackhole injected at {where})"
    out.write(
        f"{dataset.name}{note}: {dataset.topology.num_nodes} devices, "
        f"{dataset.total_rules} rules\n"
    )
    if args.shards > 1:
        return _cmd_verify_sharded(args, out, dataset)
    ap = APVerifier(dataset)
    apkeep = APKeepVerifier(dataset)
    loops = ap.find_loops()
    blackholes = ap.find_blackholes(scope=ap.allocated_atoms())
    out.write(
        f"AP: {ap.num_atoms} atoms in {ap.predicate_seconds:.3f}s; "
        f"loops={len(loops)} blackholes={len(blackholes)}\n"
    )
    out.write(
        f"APKeep: {apkeep.num_atoms_minimal} atoms (minimal) in "
        f"{apkeep.build_seconds:.3f}s over {len(apkeep.updates)} updates; "
        f"agrees with AP: {apkeep.num_atoms_minimal == ap.num_atoms}\n"
    )
    for atom, cycle in [(r.atom, r.cycle) for r in loops][:5]:
        out.write(f"  loop: atom {atom} via {' -> '.join(cycle)}\n")
    for report in blackholes[:5]:
        out.write(f"  blackhole: {report.device} atoms {sorted(report.atoms)}\n")
    return 0


def _cmd_verify_sharded(args, out, dataset) -> int:
    """The ``repro verify --shards N [--stream]`` path."""
    from repro.netmodel.headerspace import HEADER_BITS, Prefix
    from repro.netmodel.rules import ForwardingRule
    from repro.shard import ShardVerifier, StreamingVerifier
    from repro.store import get_default

    verifier = ShardVerifier(dataset, shards=args.shards, store=get_default())
    plan = verifier.plan
    out.write(
        f"shards: {plan.num_shards} ({plan.strategy}); "
        f"{len(plan.boundary)} of {len(plan.links)} directed links "
        f"cross shards ({plan.boundary_fraction * 100:.0f}%)\n"
    )
    for index, artifact in enumerate(verifier.artifacts):
        engine = artifact["engine"]
        out.write(
            f"  shard {index}: {len(artifact['devices'])} devices, "
            f"{artifact['atoms']} atoms, {engine['num_nodes']} BDD nodes, "
            f"built in {artifact['build_seconds']:.3f}s\n"
        )
    blackholes = verifier.blackholes()
    out.write(
        f"stitched: blackholes at {len(blackholes)} devices; "
        f"build {verifier.build_seconds:.3f}s, "
        f"store hits {verifier.store_hits}\n"
    )
    if not args.stream:
        return 0

    streamer = StreamingVerifier(dataset, shards=args.shards)
    nodes = sorted(dataset.devices)
    burst = []
    for k in range(10):
        node = nodes[k % len(nodes)]
        neighbors = dataset.topology.successors(node)
        if not neighbors:
            continue
        rule = ForwardingRule(
            Prefix((k << (HEADER_BITS - 8)) & 0xFF00, 8),
            neighbors[0], priority=90 + k,
        )
        burst.append(("insert", node, rule))
        burst.append(("remove", node, rule))
    report = streamer.apply_burst(burst)
    out.write(
        f"stream: {report['burst']} updates, latency p50 "
        f"{report['p50'] * 1e3:.2f}ms p95 {report['p95'] * 1e3:.2f}ms "
        f"max {report['max'] * 1e3:.2f}ms\n"
    )
    return 0


def cmd_te(args, out) -> int:
    from repro.netmodel.instances import make_te_instance
    from repro.te import registry
    from repro.te.demandscale import scale_sweep

    if args.solver == "list":
        out.write(registry.render_table() + "\n")
        return 0
    try:
        solver = registry.make_solver(args.solver, backend=args.lp_backend)
    except registry.UnknownSolverError as exc:
        out.write(f"error: {exc}\n")
        return 2
    instance = make_te_instance(
        args.instance,
        max_commodities=args.commodities,
        total_demand_fraction=args.load,
    )
    solution = solver.solve(instance.topology, instance.traffic)
    out.write(
        f"{args.instance} ({instance.topology.num_nodes} nodes, "
        f"{instance.num_commodities} commodities, "
        f"{instance.traffic.total_demand:.0f} Mbps demand)\n"
    )
    if solver.capabilities.objective == "min-mlu":
        out.write(
            f"{solution.solver}: MLU {solution.objective:.3f} "
            f"in {solution.solve_seconds:.2f}s "
            f"[{solution.lp_count} LPs, status {solution.status}]\n"
        )
    else:
        out.write(
            f"{solution.solver}: {solution.objective:.1f} Mbps "
            f"({solution.satisfied_fraction(instance.traffic.total_demand) * 100:.1f}% "
            f"of demand) in {solution.solve_seconds:.2f}s "
            f"[{solution.lp_count} LPs, status {solution.status}]\n"
        )
    if args.sweep:
        from repro.parallel import TaskFailure

        scales = [float(part) for part in args.sweep.split(",") if part.strip()]
        # Warm sweeps re-resolve the solver by name per worker chunk
        # so each chunk carries its own LP session.
        sweep_solver = args.solver if args.warm_start else solver
        points = scale_sweep(
            instance.topology, instance.traffic, sweep_solver, scales,
            workers=args.workers,
            backend=args.lp_backend if args.warm_start else None,
            on_error=getattr(args, "on_error", "raise"),
            warm_start=args.warm_start,
        )
        for scale, point in zip(scales, points):
            if isinstance(point, TaskFailure):
                out.write(
                    f"  scale {scale:g}: FAILED {point.error}: {point.message}\n"
                )
                continue
            out.write(
                f"  scale {point.scale:g}: objective {point.objective:.1f} "
                f"({point.satisfied_fraction * 100:.1f}% of "
                f"{point.total_demand:.0f} Mbps)\n"
            )
    return 0 if solution.ok else 1


def cmd_motivating(args, out) -> int:
    from repro.core.assembly import assemble_module
    from repro.motivating import play_scripted_game, run_motivating_session

    result = run_motivating_session()
    out.write(
        f"{result.num_prompts} prompts, {result.total_words} words, "
        f"{result.total_loc} LoC (paper: 4 / 159 / 93)\n"
    )
    module = assemble_module(result.artifacts, "rps_cli")
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        outcome = play_scripted_game(module)
    out.write(f"game verdicts: {outcome.results} (consistent: {outcome.consistent})\n")
    return 0


def cmd_transcript(args, out) -> int:
    from repro.core import transcript as transcript_mod
    from repro.core.knowledge import get_knowledge
    from repro.core.simulated import SimulatedLLM
    from repro.experiments import PARTICIPANTS, run_participant

    profile = PARTICIPANTS[args.name]
    llm = SimulatedLLM({profile.paper_key: get_knowledge(profile.paper_key)})
    # Re-run the session through the shared LLM so we hold its session.
    from repro.core.knowledge import (
        get_component_tests,
        get_logic_notes,
        get_paper_spec,
    )
    from repro.core.pipeline import PipelineConfig, ReproductionPipeline
    from repro.core.validation import get_validator

    pipeline = ReproductionPipeline(
        llm,
        get_paper_spec(profile.paper_key),
        component_tests=get_component_tests(profile.paper_key),
        logic_notes=get_logic_notes(profile.paper_key),
        validator=get_validator(profile.paper_key),
        participant=args.name,
        config=PipelineConfig(style=profile.style),
    )
    pipeline.run()
    if args.format == "markdown":
        text = transcript_mod.to_markdown(pipeline.session)
    elif args.format == "json":
        text = transcript_mod.to_json(pipeline.session)
    else:
        text = transcript_mod.summarize(pipeline.session)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text + "\n")
    return 0


def cmd_analyze(args, out) -> int:
    from repro.core.discrepancy import analyze
    from repro.core.knowledge import get_knowledge, get_paper_spec
    from repro.core.assembly import assemble_module
    from repro.core.llm import CodeArtifact

    knowledge = get_knowledge(args.system)
    artifacts = [
        CodeArtifact(c.name, "python", knowledge.components[c.name].final_source, 9)
        for c in get_paper_spec(args.system).components
    ]
    module = assemble_module(artifacts, f"analyzed_{args.system}")
    report = analyze(args.system, module)
    out.write(report.render() + "\n")
    return 0


def cmd_paperdoc(args, out) -> int:
    from repro.core.knowledge import get_paper_spec
    from repro.core.paperdoc import lint_spec, render_paperdoc

    spec = get_paper_spec(args.key)
    if args.lint:
        warnings = lint_spec(spec)
        if not warnings:
            out.write("no missing details flagged\n")
        for warning in warnings:
            out.write(f"warning: {warning}\n")
        return 0
    out.write(render_paperdoc(spec))
    return 0


def cmd_export(args, out) -> int:
    from repro.reporting import export_all

    files = export_all(args.out)
    out.write(f"wrote {len(files)} files to {args.out}/:\n")
    for name in files:
        out.write(f"  {name}\n")
    return 0


def cmd_diff(args, out) -> int:
    from repro.ap.diff import diff_snapshots
    from repro.netmodel.datasets import (
        build_verification_dataset,
        inject_blackhole,
        inject_loop,
    )

    before = build_verification_dataset(args.dataset)
    if args.inject == "loop":
        after, where = inject_loop(before, seed=3)
    else:
        after, where = inject_blackhole(before, seed=3)
    after.name = f"{before.name}+{args.inject}"
    report = diff_snapshots(before, after)
    out.write(f"perturbation at {where}\n")
    out.write(report.render() + "\n")
    return 0


def cmd_trace_view(args, out) -> int:
    from repro.obs import export

    try:
        spans, metrics, events = export.read_trace(args.file)
    except OSError as exc:
        out.write(f"error: cannot read {args.file}: {exc.strerror}\n")
        return 1
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 1
    if args.top is not None:
        out.write(export.render_top_spans(spans, top=args.top) + "\n")
    else:
        out.write(export.render_span_tree(spans, limit_meta=args.no_meta) + "\n")
    if events:
        out.write(export.render_events(events) + "\n")
    if metrics:
        out.write(export.render_metrics(metrics) + "\n")
        resilience = {
            name: snap.get("value", 0)
            for name, snap in sorted(metrics.items())
            if name.startswith((
                "retries", "llm.retries", "llm.giveups", "breaker.open",
                "faults.injected", "lp.fallback", "parallel.task_failures",
                "pipeline.llm_failures",
            ))
        }
        if resilience:
            out.write(
                "resilience: "
                + " ".join(f"{k}={v:g}" for k, v in resilience.items())
                + "\n"
            )
    return 0


def cmd_bench(args, out) -> int:
    from repro import bench

    thresholds = bench.Thresholds(
        ratio=args.threshold, min_seconds=args.min_seconds, stat=args.stat
    )

    def gate(baseline, current) -> int:
        report = bench.compare_artifacts(baseline, current, thresholds)
        out.write(report.render() + "\n")
        return 0 if report.ok else 1

    if args.compare:
        if len(args.compare) > 2:
            out.write("error: --compare takes at most two artifacts\n")
            return 2
        try:
            if len(args.compare) == 1:
                baseline_path = bench.find_latest_artifact()
                out.write(f"baseline: {baseline_path}\n")
                current_path = args.compare[0]
            else:
                baseline_path, current_path = args.compare
            baseline = bench.read_artifact(baseline_path)
            current = bench.read_artifact(current_path)
        except (OSError, bench.ArtifactError) as exc:
            out.write(f"error: {exc}\n")
            return 2
        return gate(baseline, current)

    bench.discover()
    specs = bench.select(args.filter)
    if args.list_benchmarks:
        out.write(bench.render_table(specs) + "\n")
        return 0
    if not specs:
        out.write(
            f"error: no benchmarks match {args.filter!r} "
            f"(try 'repro bench --list')\n"
        )
        return 2
    results = bench.run_benchmarks(
        specs, repeat=args.repeat, warmup=args.warmup
    )
    out.write(bench.render_results(results) + "\n")
    profile = {
        "repeat": args.repeat,
        "warmup": args.warmup,
        "filter": args.filter,
    }
    if args.save is not None:
        path = args.save or bench.default_artifact_path()
        written = bench.write_artifact(path, results, profile=profile)
        out.write(f"artifact: wrote {len(results)} benchmarks to {written}\n")
    if args.baseline is not None:
        try:
            baseline_path = args.baseline or bench.find_latest_artifact()
            if not args.baseline:
                out.write(f"baseline: {baseline_path}\n")
            baseline = bench.read_artifact(baseline_path)
        except (OSError, bench.ArtifactError) as exc:
            out.write(f"error: {exc}\n")
            return 2
        current = bench.build_artifact(results, profile=profile)
        return gate(baseline, current)
    return 0


def cmd_obs(args, out) -> int:
    import time

    from repro import obs

    try:
        server = obs.MetricsServer(port=args.port).start()
    except OSError as exc:
        out.write(f"error: cannot bind port {args.port}: {exc}\n")
        return 2
    # The server's own port, as self-telemetry: makes a bare registry
    # scrape nonempty so 'curl /metrics | grep obs_server' has a line.
    obs.metrics.gauge("obs.server.port").set(server.port)
    out.write(
        f"serving {server.url}/metrics "
        f"(also /snapshot, /health); "
        + (f"stopping after {args.duration:g}s\n" if args.duration is not None
           else "Ctrl-C to stop\n")
    )
    if hasattr(out, "flush"):
        out.flush()
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    out.write("stopped\n")
    return 0


def cmd_profile_view(args, out) -> int:
    from repro.obs import profile

    try:
        counts = profile.read_collapsed(args.file)
    except OSError as exc:
        out.write(f"error: cannot read {args.file}: {exc.strerror}\n")
        return 1
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 1
    out.write(profile.render_top(counts, top=args.top) + "\n")
    return 0


def cmd_store(args, out) -> int:
    import datetime

    from repro import store as store_mod

    if args.path is not None:
        target = store_mod.ArtifactStore(args.path)
    else:
        target = store_mod.get_default()
    if target is None:
        out.write(
            "error: no store directory; pass one as an argument "
            "(repro store stats .repro-store) or via --store DIR\n"
        )
        return 2
    if args.action == "ls":
        entries = target.entries()
        if not entries:
            out.write(f"{target.root}: empty\n")
            return 0
        out.write(f"{'key':<58} {'bytes':>8}  last used\n")
        for entry in entries:
            when = datetime.datetime.fromtimestamp(
                entry.last_used_unix
            ).strftime("%Y-%m-%d %H:%M:%S")
            out.write(f"{entry.key:<58} {entry.size_bytes:>8}  {when}\n")
        out.write(f"{len(entries)} entries, {target.total_bytes} bytes\n")
        return 0
    if args.action == "stats":
        for name, value in sorted(target.stats().items()):
            out.write(f"{name:<12} {value}\n")
        return 0
    if args.action == "verify":
        bad = target.verify(repair=args.repair)
        if not bad:
            out.write(f"{target.root}: all entries verify\n")
            return 0
        for name in bad:
            out.write(
                f"corrupt: {name}{' (removed)' if args.repair else ''}\n"
            )
        out.write(
            f"{len(bad)} corrupt entr{'y' if len(bad) == 1 else 'ies'}"
            f"{'' if args.repair else ' (re-run with --repair to remove)'}\n"
        )
        return 1
    if args.action == "gc":
        from repro.store import DEFAULT_GC_BYTES

        budget = args.max_bytes if args.max_bytes is not None else DEFAULT_GC_BYTES
        evicted = target.gc(budget)
        out.write(
            f"evicted {len(evicted)} entries; "
            f"{target.total_bytes} bytes in {budget} budget\n"
        )
        return 0
    removed = target.clear()
    out.write(f"removed {removed} entries from {target.root}\n")
    return 0


def cmd_fuzz(args, out) -> int:
    from repro import fuzz
    from repro import store as store_mod

    target = store_mod.get_default()
    if args.action == "ls":
        if target is None:
            out.write("error: 'fuzz ls' needs a --store DIR to list\n")
            return 2
        entries = fuzz.list_failures(target)
        if not entries:
            out.write(f"{target.root}: no fuzz artifacts\n")
            return 0
        for key, payload in entries:
            out.write(
                f"{key}  [{payload['failure']}] {payload['error']}: "
                f"{payload['message']}\n"
            )
        out.write(f"{len(entries)} fuzz artifacts\n")
        return 0

    if args.action == "repro":
        timeout = (
            args.case_timeout if args.case_timeout is not None
            else fuzz.runner.DEFAULT_CASE_TIMEOUT
        )
        try:
            if args.key is not None:
                if target is None:
                    out.write(
                        "error: replaying a stored key needs --store DIR\n"
                    )
                    return 2
                outcome = fuzz.reproduce(target, args.key,
                                         case_timeout=timeout)
            elif args.case_index is not None and args.oracle:
                outcome = fuzz.reproduce_live(
                    args.seed, args.case_index, args.oracle,
                    case_timeout=timeout,
                )
            else:
                out.write(
                    "error: 'fuzz repro' needs a stored key, or "
                    "--seed/--case/--oracle for a live replay\n"
                )
                return 2
        except KeyError as exc:
            out.write(f"error: {exc.args[0]}\n")
            return 2
        except fuzz.UnknownOracleError as exc:
            out.write(f"error: {exc.args[0]}\n")
            return 2
        out.write(
            f"{'reproduced' if outcome.reproduced else 'NOT reproduced'} "
            f"[{outcome.failure}] {outcome.message}\n"
        )
        return 0 if outcome.reproduced else 1

    # action == "run"
    if args.oracle == "list":
        out.write(fuzz.render_table() + "\n")
        return 0
    if args.plant_defect:
        fuzz.register_planted_defect(replace=True)
    oracle_filter = None
    if args.oracle:
        names = [part.strip() for part in args.oracle.split(",")
                 if part.strip()]
        try:
            oracle_filter = [fuzz.get_spec(name) for name in names]
        except fuzz.UnknownOracleError as exc:
            out.write(f"error: {exc.args[0]}\n")
            return 2
    timeout = (
        args.case_timeout if args.case_timeout is not None
        else fuzz.runner.DEFAULT_CASE_TIMEOUT
    )
    report = fuzz.run_fuzz(
        seed=args.seed,
        cases=args.cases,
        budget_seconds=args.budget_seconds,
        oracle_filter=oracle_filter,
        workers=args.workers,
        case_timeout=timeout if timeout > 0 else None,
        minimize=not args.no_minimize,
        store=target,
    )
    out.write(report.render() + "\n")
    return 0 if report.ok else 1


def cmd_serve(args, out) -> int:
    import signal
    import time

    from repro import store as store_mod
    from repro.serve import ReproDaemon

    daemon = ReproDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_budget=args.job_budget,
        store=store_mod.get_default(),
    )
    try:
        daemon.start()
    except OSError as exc:
        out.write(f"error: cannot bind {args.host}:{args.port}: {exc}\n")
        return 2
    try:
        # SIGTERM triggers the same clean stop as POST /shutdown; the
        # handler is optional (main-thread only) so tests can call
        # cmd_serve from worker threads.
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: daemon.request_shutdown(),
        )
    except ValueError:
        pass
    store = store_mod.get_default()
    out.write(
        f"serving {daemon.url} ({args.workers} workers, "
        f"queue limit {args.queue_limit}"
        + (f", store {store.root}" if store is not None else "")
        + ")\n"
        + (f"stopping after {args.duration:g}s\n" if args.duration is not None
           else "Ctrl-C (or SIGTERM, or POST /shutdown) to stop\n")
    )
    if hasattr(out, "flush"):
        out.flush()
    deadline = (
        time.monotonic() + args.duration if args.duration is not None
        else None
    )
    try:
        while not daemon.shutdown_requested.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            daemon.shutdown_requested.wait(timeout=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    out.write("stopped\n")
    return 0


def _parse_job_params(pairs):
    """``--param K=V`` pairs to a params dict.

    Values parse as JSON when possible (numbers, booleans, quoted
    strings, ``[...]`` lists); otherwise a comma-separated value
    becomes a list of strings and anything else stays a string.
    """
    import json as json_mod

    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param needs K=V, got {pair!r}")
        try:
            value = json_mod.loads(raw)
        except ValueError:
            value = (
                [part.strip() for part in raw.split(",") if part.strip()]
                if "," in raw else raw
            )
        params[key] = value
    return params


def cmd_submit(args, out) -> int:
    import json as json_mod
    import urllib.error

    from repro.serve import JobTimeoutError, ServeAPIError, ServeClient

    try:
        params = _parse_job_params(args.params)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2
    client = ServeClient(args.url)
    try:
        record = client.submit(
            args.kind, params, seed=args.seed,
            budget_seconds=args.budget_seconds,
        )
    except ServeAPIError as exc:
        out.write(f"error: {json_mod.dumps(exc.payload)}\n")
        return 1
    except urllib.error.URLError as exc:
        out.write(f"error: cannot reach {args.url}: {exc.reason}\n")
        return 2
    out.write(
        f"job {record['id']}: {record['kind']} {record['state']}"
        + (" (cached)" if record.get("cached") else "")
        + "\n"
    )
    if not args.wait:
        return 0
    if hasattr(out, "flush"):
        out.flush()
    try:
        final = (
            record if record["state"] in ("completed", "failed")
            else client.wait(record["id"], timeout=args.timeout)
        )
    except JobTimeoutError as exc:
        out.write(f"error: {exc}\n")
        return 1
    if final["state"] != "completed":
        out.write(
            f"job {final['id']}: FAILED [{final.get('failure_kind')}] "
            f"{final.get('error')}: {final.get('message')}\n"
        )
        return 1
    payload = client.result(final["id"])["payload"]
    out.write(f"job {final['id']}: completed\n")
    out.write(json_mod.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_jobs(args, out) -> int:
    import json as json_mod
    import urllib.error

    from repro.serve import ServeAPIError, ServeClient

    client = ServeClient(args.url)
    try:
        if args.stats:
            out.write(json_mod.dumps(client.stats(), indent=2,
                                     sort_keys=True) + "\n")
            return 0
        if args.job_id is not None:
            doc = (
                client.result(args.job_id) if args.result
                else client.job(args.job_id)
            )
            out.write(json_mod.dumps(doc, indent=2, sort_keys=True) + "\n")
            return 0
        records = client.jobs()
    except ServeAPIError as exc:
        out.write(f"error: {json_mod.dumps(exc.payload)}\n")
        return 1
    except urllib.error.URLError as exc:
        out.write(f"error: cannot reach {args.url}: {exc.reason}\n")
        return 2
    if not records:
        out.write("no jobs\n")
        return 0
    out.write(f"{'id':>4} {'kind':<9} {'state':<10} "
              f"{'elapsed':>8}  detail\n")
    for record in records:
        elapsed = record.get("elapsed_seconds")
        detail = ""
        if record.get("cached"):
            detail = "cached"
        elif record["state"] == "failed":
            detail = (
                f"[{record.get('failure_kind')}] {record.get('message')}"
            )
        out.write(
            f"{record['id']:>4} {record['kind']:<9} {record['state']:<10} "
            f"{elapsed:>7.2f}s  {detail}\n"
            if elapsed is not None else
            f"{record['id']:>4} {record['kind']:<9} {record['state']:<10} "
            f"{'-':>8}  {detail}\n"
        )
    out.write(f"{len(records)} jobs\n")
    return 0


def cmd_loadgen(args, out) -> int:
    import urllib.error

    from repro.serve import run_loadgen
    from repro.serve.client import JobTimeoutError, ServeAPIError

    try:
        report = run_loadgen(
            args.url,
            jobs=args.jobs,
            concurrency=args.concurrency,
            kind=args.kind,
            seed=args.seed,
            timeout=args.timeout,
        )
    except urllib.error.URLError as exc:
        out.write(f"error: cannot reach {args.url}: {exc.reason}\n")
        return 2
    except (ServeAPIError, JobTimeoutError) as exc:
        out.write(f"error: {exc}\n")
        return 1
    out.write(report.render() + "\n")
    return 0 if report.ok and report.jobs_per_second > 0 else 1


_COMMANDS = {
    "experiment": cmd_experiment,
    "campaign": cmd_campaign,
    "participant": cmd_participant,
    "study": cmd_study,
    "verify": cmd_verify,
    "te": cmd_te,
    "motivating": cmd_motivating,
    "transcript": cmd_transcript,
    "analyze": cmd_analyze,
    "paperdoc": cmd_paperdoc,
    "export": cmd_export,
    "diff": cmd_diff,
    "trace-view": cmd_trace_view,
    "bench": cmd_bench,
    "obs": cmd_obs,
    "profile-view": cmd_profile_view,
    "store": cmd_store,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
    "loadgen": cmd_loadgen,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    from repro import obs
    from repro.resilience import FaultPlan, chaos

    from repro import store as store_mod

    args = build_parser().parse_args(argv)
    stream = out if out is not None else sys.stdout
    trace_path = getattr(args, "trace", None)
    show_metrics = getattr(args, "metrics", False)
    fault_spec = getattr(args, "fault_plan", None)
    store_dir = getattr(args, "store", None)
    serve_port = getattr(args, "serve_metrics", None)
    profile_path = getattr(args, "profile", None)
    obs.metrics.reset()
    obs.PROGRESS.reset()
    server = None
    if serve_port is not None:
        try:
            server = obs.MetricsServer(port=serve_port).start()
        except OSError as exc:
            stream.write(
                f"error: cannot bind metrics port {serve_port}: {exc}\n"
            )
            return 2
        stream.write(f"metrics: serving at {server.url}/metrics\n")
        if hasattr(stream, "flush"):
            stream.flush()
    profiler = obs.SamplingProfiler().start() if profile_path else None
    tracer = obs.Tracer() if trace_path else None
    previous = obs.set_tracer(tracer) if tracer else None
    installed_store = None
    previous_store = None
    if store_dir:
        installed_store = store_mod.ArtifactStore(store_dir)
        previous_store = store_mod.set_default(installed_store)
    try:
        if installed_store is not None:
            from repro.te.tunnelcache import TUNNEL_CACHE

            TUNNEL_CACHE.attach_store(installed_store)
        if fault_spec:
            try:
                plan = FaultPlan.parse(fault_spec)
            except ValueError as exc:
                stream.write(f"error: bad --fault-plan: {exc}\n")
                return 2
            stream.write(f"fault plan: {plan.describe()}\n")
            with chaos(plan):
                code = _COMMANDS[args.command](args, stream)
        else:
            code = _COMMANDS[args.command](args, stream)
    finally:
        if tracer is not None:
            obs.set_tracer(previous)
        if installed_store is not None:
            from repro.te.tunnelcache import TUNNEL_CACHE

            TUNNEL_CACHE.attach_store(None)
            store_mod.set_default(previous_store)
        if profiler is not None:
            profiler.stop()
        if server is not None:
            server.stop()
    if profiler is not None:
        stacks = profiler.write(profile_path)
        stream.write(
            f"profile: wrote {stacks} stacks "
            f"({profiler.samples} samples) to {profile_path}\n"
        )
    if tracer is not None:
        count = obs.export.write_trace(
            trace_path,
            tracer.finished_spans(),
            obs.metrics.snapshot(),
            obs.PROGRESS.events(),
        )
        stream.write(f"trace: wrote {count} spans to {trace_path}\n")
    if show_metrics:
        stream.write(obs.export.render_metrics(obs.metrics.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
