"""Seeded, replayable fuzz-case generators.

Every case the fuzzer ever runs is a pure function of ``(seed,
case_index, kind)``: :func:`case_seed` hashes the triple with BLAKE2b
(the same scheme :class:`repro.resilience.FaultInjector` uses for fault
decisions), and that value seeds a private ``numpy`` RNG -- no global
:mod:`random` state, no wall clock.  A failure report therefore never
needs to ship the whole input: the triple alone regenerates it, and the
``repro fuzz repro`` round-trip depends on exactly that.

Cases come in three kinds:

* ``"te"``        -- a Waxman topology (:func:`~repro.netmodel.topozoo.waxman_topology`)
  with gravity-model demands
  (:func:`~repro.netmodel.traffic.gravity_traffic_matrix`) and a small
  chain of demand scales, feeding the TE/LP oracles;
* ``"dataplane"`` -- a :func:`~repro.netmodel.datasets.random_dataset`
  data plane (arbitrary overlapping rules) plus a burst of random rule
  updates, feeding the AP/APKeep/BDD oracles;
* ``"campaign"``  -- a random service-tier campaign job spec (papers x
  prompt styles + a seed), feeding the
  ``campaign.multiprocess-vs-inprocess`` execution oracle of
  :mod:`repro.serve`.

The generated instance is immediately *serialized* into a plain-JSON
``data`` dict (:class:`FuzzCase`), and every consumer -- oracles, the
minimizer, the artifact store -- works on that dict via
:func:`materialize_te` / :func:`materialize_dataplane`.  Serializing
first is what makes greedy shrinking possible: the minimizer edits the
dict (drop a demand, drop a rule) and re-materializes, which no
generator-level representation would allow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Payload schema tag for stored fuzz artifacts.
SCHEMA = "repro.fuzz/1"

#: The case kinds the generator knows how to build.
KINDS = ("te", "dataplane", "campaign")

#: Demand-scale chain attached to every TE case: three points so warm
#: sessions genuinely re-solve (the first solve is always cold).
_TE_SCALES = (0.5, 1.0, 1.8)

#: Update-burst length for dataplane cases.
_NUM_UPDATES = 3


@dataclass(frozen=True)
class FuzzCase:
    """One generated (or shrunk) fuzz input.

    ``data`` is a plain-JSON dict fully describing the instance; the
    ``(seed, index, kind)`` triple records where it came from.  After
    minimization ``data`` no longer equals the generated instance, but
    the triple still names the schedule slot the failure was found in.
    """

    seed: int
    index: int
    kind: str
    data: Dict


def case_seed(seed: int, index: int, kind: str) -> int:
    """Deterministic per-case RNG seed: BLAKE2b of ``seed|index|kind``.

    Returns a value in ``[0, 2**32)`` so it can seed
    ``numpy.random.RandomState`` directly.
    """
    digest = hashlib.blake2b(
        f"{seed}|{index}|{kind}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest[:4], "big")


def generate_case(seed: int, index: int, kind: str) -> FuzzCase:
    """Build the case at schedule slot ``(seed, index)`` for ``kind``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "te":
        data = _generate_te(case_seed(seed, index, kind))
    elif kind == "dataplane":
        data = _generate_dataplane(case_seed(seed, index, kind))
    else:
        data = _generate_campaign(case_seed(seed, index, kind))
    return FuzzCase(seed=seed, index=index, kind=kind, data=data)


# ----------------------------------------------------------------------
# TE cases
# ----------------------------------------------------------------------
def _generate_te(rng_seed: int) -> Dict:
    import numpy as np

    from repro.netmodel.topozoo import waxman_topology
    from repro.netmodel.traffic import gravity_traffic_matrix

    rng = np.random.RandomState(rng_seed)
    num_nodes = 4 + int(rng.randint(3))
    topology = waxman_topology(
        num_nodes=num_nodes,
        seed=int(rng.randint(1 << 31)),
        capacity=100.0,
        name=f"fuzz-te-{rng_seed}",
    )
    traffic = gravity_traffic_matrix(
        topology,
        seed=int(rng.randint(1 << 31)),
        total_demand_fraction=0.2,
        max_commodities=2 + int(rng.randint(5)),
    )
    links = [
        [link.src, link.dst, round(link.capacity, 6)]
        for link in topology.links()
        if link.src < link.dst  # one entry per physical (bidi) link
    ]
    demands = [
        [src, dst, round(value, 6)]
        for src, dst, value in traffic.commodities()
    ]
    return {
        "name": topology.name,
        "nodes": list(topology.nodes),
        "links": links,
        "demands": sorted(demands),
        "scales": list(_TE_SCALES),
    }


def materialize_te(data: Dict):
    """``data`` -> ``(Topology, TrafficMatrix, scales)``."""
    from repro.netmodel.topology import Topology
    from repro.netmodel.traffic import TrafficMatrix

    topology = Topology(data.get("name", "fuzz-te"))
    for node in data["nodes"]:
        topology.add_node(node)
    for src, dst, capacity in data["links"]:
        topology.add_bidi_link(src, dst, float(capacity))
    demands = {
        (src, dst): float(value) for src, dst, value in data["demands"]
    }
    return topology, TrafficMatrix(demands), [float(s) for s in data["scales"]]


# ----------------------------------------------------------------------
# Dataplane cases
# ----------------------------------------------------------------------
def _generate_dataplane(rng_seed: int) -> Dict:
    import numpy as np

    from repro.netmodel.datasets import random_dataset
    from repro.netmodel.headerspace import HEADER_BITS
    from repro.netmodel.rules import DROP_PORT, SELF_PORT

    rng = np.random.RandomState(rng_seed)
    num_nodes = 3 + int(rng.randint(3))
    rules = 2 + int(rng.randint(7))
    acl_fraction = float(rng.choice([0.0, 0.5]))
    dataset = random_dataset(
        num_nodes=num_nodes,
        rules_per_device=rules,
        seed=int(rng.randint(1 << 31)),
        acl_fraction=acl_fraction,
        name=f"fuzz-dp-{rng_seed}",
    )

    nodes = list(dataset.topology.nodes)
    links = [
        [link.src, link.dst]
        for link in dataset.topology.links()
        if link.src < link.dst
    ]
    device_rules = {
        node: [
            [rule.prefix.value, rule.prefix.length, rule.port, rule.priority]
            for rule in dataset.devices[node].rules
        ]
        for node in nodes
    }
    acls = {
        node: [
            [acl.prefix.value, acl.prefix.length, acl.action.value,
             acl.priority]
            for acl in dataset.devices[node].acl
        ]
        for node in nodes
        if dataset.devices[node].acl
    }
    prefixes = {
        node: [prefix.value, prefix.length]
        for node, prefix in dataset.prefix_of.items()
    }

    updates: List[List] = []
    for _ in range(_NUM_UPDATES):
        node = nodes[int(rng.randint(len(nodes)))]
        ports = dataset.topology.successors(node) + [DROP_PORT, SELF_PORT]
        port = ports[int(rng.randint(len(ports)))]
        length = int(rng.randint(0, HEADER_BITS + 1))
        bits = int(rng.randint(0, 1 << length)) if length else 0
        value = bits << (HEADER_BITS - length)
        updates.append([node, value, length, port, int(rng.randint(0, 40))])

    return {
        "name": dataset.name,
        "nodes": nodes,
        "links": links,
        "rules": device_rules,
        "acls": acls,
        "prefixes": prefixes,
        "updates": updates,
    }


def materialize_dataplane(data: Dict):
    """``data`` -> ``(VerificationDataset, updates)``.

    ``updates`` is a list of ``(device, ForwardingRule)`` pairs -- the
    burst the incremental-vs-batch oracle applies; other oracles ignore
    it and verify the base dataset.
    """
    from repro.netmodel.datasets import VerificationDataset
    from repro.netmodel.headerspace import Prefix
    from repro.netmodel.rules import AclAction, AclRule, Device, ForwardingRule
    from repro.netmodel.topology import Topology

    topology = Topology(data.get("name", "fuzz-dp"))
    for node in data["nodes"]:
        topology.add_node(node)
    for src, dst in data["links"]:
        topology.add_bidi_link(src, dst, 1000.0)

    devices: Dict[str, Device] = {}
    for node in data["nodes"]:
        device = Device(node)
        for value, length, port, priority in data["rules"].get(node, []):
            device.add_rule(
                ForwardingRule(Prefix(int(value), int(length)), port,
                               int(priority))
            )
        for value, length, action, priority in data.get("acls", {}).get(
            node, []
        ):
            device.add_acl_rule(
                AclRule(Prefix(int(value), int(length)), AclAction(action),
                        int(priority))
            )
        devices[node] = device

    prefix_of = {
        node: Prefix(int(value), int(length))
        for node, (value, length) in data.get("prefixes", {}).items()
        if node in devices
    }
    dataset = VerificationDataset(
        data.get("name", "fuzz-dp"), topology, devices, prefix_of
    )
    updates = [
        (node, ForwardingRule(Prefix(int(value), int(length)), port,
                              int(priority)))
        for node, value, length, port, priority in data.get("updates", [])
    ]
    return dataset, updates


# ----------------------------------------------------------------------
# Campaign cases
# ----------------------------------------------------------------------
#: The paper corpus campaign cases draw from: the three cheapest
#: reproductions, so a fuzz sweep stays time-boxable.
_CAMPAIGN_PAPERS = ("rps", "apkeep", "ap")

#: Prompt styles campaign cases may combine.
_CAMPAIGN_STYLES = ("monolithic", "modular-text", "modular-pseudocode")


def _generate_campaign(rng_seed: int) -> Dict:
    import numpy as np

    rng = np.random.RandomState(rng_seed)
    num_papers = 1 + int(rng.randint(2))
    paper_picks = rng.choice(
        len(_CAMPAIGN_PAPERS), size=num_papers, replace=False
    )
    num_styles = 1 + int(rng.randint(2))
    style_picks = rng.choice(
        len(_CAMPAIGN_STYLES), size=num_styles, replace=False
    )
    return {
        "papers": sorted(_CAMPAIGN_PAPERS[int(i)] for i in paper_picks),
        "styles": sorted(_CAMPAIGN_STYLES[int(i)] for i in style_picks),
        "max_debug_rounds": 2 + int(rng.randint(5)),
        "seed": int(rng.randint(1 << 31)),
    }


def materialize_campaign(data: Dict):
    """``data`` -> a :class:`repro.serve.jobs.JobSpec` campaign job.

    The dict maps one-to-one onto the service tier's job-spec params, so
    the campaign oracle and the minimizer both work on the same
    plain-JSON document every other consumer uses.
    """
    from repro.serve.jobs import JobSpec

    return JobSpec(
        kind="campaign",
        params={
            "papers": list(data["papers"]),
            "styles": list(data["styles"]),
            "max_debug_rounds": int(data["max_debug_rounds"]),
        },
        seed=int(data.get("seed", 0)),
    )


def case_sizes(data: Dict) -> Dict[str, int]:
    """Size summary of a case ``data`` dict (for shrink reporting)."""
    if "papers" in data:
        return {
            "papers": len(data["papers"]),
            "styles": len(data.get("styles", [])),
        }
    sizes = {
        "nodes": len(data.get("nodes", [])),
        "links": len(data.get("links", [])),
    }
    if "demands" in data:
        sizes["demands"] = len(data["demands"])
        sizes["scales"] = len(data.get("scales", []))
    if "rules" in data:
        sizes["rules"] = sum(len(r) for r in data["rules"].values())
        sizes["max_rules_per_device"] = max(
            (len(r) for r in data["rules"].values()), default=0
        )
        sizes["acls"] = sum(len(a) for a in data.get("acls", {}).values())
        sizes["updates"] = len(data.get("updates", []))
    return sizes
