"""Tests of the benchmark itself: seeded inputs and answer checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _te_bytes(seed):
    return json.dumps([
        [topology.name, sorted(traffic.demands.items())]
        for topology, traffic in workloads.te_series(seed, 2)
    ]).encode()


def _verify_bytes(seed):
    inputs = workloads.verify_inputs(seed, 2)
    planes = inputs["pool"] + [inputs["warm_plane"], inputs["stream_plane"]]
    return json.dumps({
        "planes": [
            [plane.name, plane.topology.nodes,
             {name: [repr(rule) for rule in device.rules]
              for name, device in sorted(plane.devices.items())}]
            for plane in planes
        ],
        "sources": inputs["sources"],
        "bursts": [[index, [[d, repr(r)] for d, r in burst]]
                   for index, burst in inputs["ops"]],
        "warm": [[d, repr(r)] for d, r in inputs["warm_burst"]],
    }).encode()


def _serve_bytes(seed):
    return json.dumps(workloads.serve_schedules(seed, 2)).encode()


@pytest.mark.parametrize("generate", [_te_bytes, _verify_bytes, _serve_bytes])
def test_inputs_come_from_the_seed_alone(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_serve_repeats_one_submission_in_four():
    for schedule in workloads.serve_schedules(3, 2):
        for block in range(len(schedule) // 4):
            fresh = schedule[4 * block:4 * block + 3]
            assert sorted(kind for kind, _, _ in fresh) == sorted(
                workloads.SERVE_CATALOGUE)
            assert schedule[4 * block + 3] in schedule[:4 * block + 3]


def _measure_two_ops(workload, corrupt=None):
    workload.ops = workload.ops[:2]
    if corrupt is not None:
        run = workload.run
        workload.run = lambda op: corrupt(run(op))
    latencies, ops_per_s, failed, _, _ = workload.measure()
    assert len(latencies) == 2 and ops_per_s > 0
    return failed


def test_te_counts_a_wrong_objective_as_failed():
    workload = workloads.TE(1, 1, ROOT)
    assert _measure_two_ops(workload) == 0

    def inflate(result):
        for solution in result:
            solution.objective *= 2
        return result

    assert _measure_two_ops(workloads.TE(1, 1, ROOT), inflate) == 2


def test_te_bound_holds_the_exact_optimum():
    from repro.te import registry

    topology, traffic = workloads.te_series(5, 1)[11]
    optimum = registry.solve("edge", topology, traffic)
    assert optimum.objective <= workloads.cut_bound(topology, traffic) * (1 + 1e-9)
    assert workloads.flow_is_feasible(optimum, traffic,
                                      workloads.cut_bound(topology, traffic))


def test_verify_counts_a_stream_left_changed_as_failed():
    workload = workloads.Verify(2, 1, ROOT)
    workload.warm()
    assert _measure_two_ops(workload) == 0

    from repro.netmodel.headerspace import Prefix
    from repro.netmodel.rules import DROP_PORT, ForwardingRule

    workload = workloads.Verify(2, 1, ROOT)
    device = workload.warm_burst[0][0]
    left = []

    def leave_drop_rule(result):
        if not left:  # the stream keeps the rule from the first op on
            rule = ForwardingRule(Prefix(0, 0), DROP_PORT, 63)
            workload.stream.apply("insert", device, rule)
            left.append(rule)
        return result

    assert _measure_two_ops(workload, leave_drop_rule) == 2


def test_reproduce_counts_a_changed_summary_as_failed():
    workload = workloads.Reproduce(0, 1, ROOT)
    workload.warm()
    assert workload.reference is not None
    assert _measure_two_ops(workload) == 0

    def drop_run(result):
        result.reports.pop(next(iter(result.reports)))
        return result

    assert _measure_two_ops(workload, drop_run) == 2


def test_serve_counts_a_wrong_payload_as_failed():
    workload = workloads.Serve(4, 1, ROOT)
    try:
        workload.warm()
        workload.schedules = [schedule[:2] for schedule in workload.schedules]
        workload.ops = [job for s in workload.schedules for job in s]
        one_job = workload._one_job

        def corrupt(client, kind, params, job_seed):
            outcome = one_job(client, kind, params, job_seed)
            if job_seed % 100_000 == 0:  # each client's first job
                outcome["payload"] = dict(outcome["payload"], ok=False)
            return outcome

        workload._one_job = corrupt
        latencies, _, failed, _, _ = workload.measure()
    finally:
        workload.close()
    assert len(latencies) == 4
    assert failed == 2


def test_self_times_account_for_the_op():
    tracer = tracing.Tracer()

    def child():
        sum(range(20_000))

    traced_child = tracer.wrap("child", child)

    def op():
        traced_child()
        sum(range(20_000))
        traced_child()

    tracer.active = True
    tracer.op(0, op)
    tracer.active = False
    ledger = tracer.ledger()
    total = ledger["op"][1]
    assert ledger["child"][2] == 2
    assert abs(ledger["op"][0] + ledger["child"][0] - total) < 1e-9
    assert 0 < ledger["op"][0] < total


def _session_members(session):
    """Pids of processes, exited ones included, in the given session."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # Fields after the command name: state, ppid, pgrp, session
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_serve_run_leaves_no_process_behind():
    # Its worker processes, the multiprocessing resource tracker and the
    # two set-up processes' own ones must all have ended and been reaped.
    run = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = run.communicate(timeout=170)
    assert run.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    assert "leaked" not in err
    assert _session_members(run.pid) == []
