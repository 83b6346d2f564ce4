"""Programmatic scenario configs shared by the integration and acceptance tests."""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from anchornet.scenario import ScenarioConfig, parse_scenario
from anchornet.simnet import Simulation
from anchornet.topology import Adjacency


def build(raw: dict[str, Any]) -> ScenarioConfig:
    return parse_scenario(json.dumps(raw))


def three_path_lossy(
    *,
    seed: int = 3,
    loss: float = 0.1,
    total_bytes: int = 1048576,
    horizon_us: int = 10_000_000,
) -> dict[str, Any]:
    """Two hosts joined by three disjoint relay routes with heterogeneous
    latencies and per-link loss; one bulk transfer over all three."""
    domains = [
        {"id": "site-a", "attachments": ["h1-port", "a-edge"]},
        {"id": "site-b", "attachments": ["h2-port", "b-edge"]},
    ]
    links = [
        {"id": "a-access", "domain": "site-a", "endpoints": ["h1-port", "a-edge"],
         "capacity_mbps": 10000, "latency_us": 20, "loss_prob": 0, "background_utilization": 0},
        {"id": "b-access", "domain": "site-b", "endpoints": ["h2-port", "b-edge"],
         "capacity_mbps": 10000, "latency_us": 20, "loss_prob": 0, "background_utilization": 0},
    ]
    anchors = [
        {"name": "gate-a", "ports": [{"domain": "site-a", "attachment": "a-edge"}], "peers": []},
        {"name": "gate-b", "ports": [{"domain": "site-b", "attachment": "b-edge"}], "peers": []},
    ]
    latencies = {1: (200, 350), 2: (500, 650), 3: (900, 1050)}
    capacities = {1: 60, 2: 50, 3: 40}
    for i in (1, 2, 3):
        west, east = f"net-{i}w", f"net-{i}e"
        domains += [
            {"id": west, "attachments": [f"a{i}", f"r{i}w"]},
            {"id": east, "attachments": [f"r{i}e", f"b{i}"]},
        ]
        links += [
            {"id": f"trunk-{i}w", "domain": west, "endpoints": [f"a{i}", f"r{i}w"],
             "capacity_mbps": capacities[i], "latency_us": latencies[i][0],
             "loss_prob": loss, "background_utilization": 0},
            {"id": f"trunk-{i}e", "domain": east, "endpoints": [f"r{i}e", f"b{i}"],
             "capacity_mbps": capacities[i], "latency_us": latencies[i][1],
             "loss_prob": loss, "background_utilization": 0},
        ]
        anchors.append(
            {"name": f"relay-{i}",
             "ports": [{"domain": west, "attachment": f"r{i}w"},
                       {"domain": east, "attachment": f"r{i}e"}],
             "peers": [{"anchor": "gate-b", "domain": east}]}
        )
        anchors[0]["peers"].append({"anchor": f"relay-{i}", "domain": west})
        anchors[1]["ports"].append({"domain": east, "attachment": f"b{i}"})
        anchors[0]["ports"].append({"domain": west, "attachment": f"a{i}"})
    hosts = [
        {"name": "site.h1", "anchor": "gate-a", "port": {"domain": "site-a", "attachment": "h1-port"}},
        {"name": "site.h2", "anchor": "gate-b", "port": {"domain": "site-b", "attachment": "h2-port"}},
    ]
    return {
        "name": "three-path-lossy",
        "seed": seed,
        "mode": "l5-multipath",
        "horizon_us": horizon_us,
        "domains": domains,
        "links": links,
        "anchors": anchors,
        "hosts": hosts,
        "policy": [{"tag": "atlas", "weight": 1}],
        "events": [
            {"time_us": 20000, "kind": "open_session", "id": "bulk",
             "src": "site.h1", "dst": "site.h2", "tag": "atlas",
             "bytes": total_bytes, "k_paths": 3}
        ],
    }


def gateway_chain(events: list[dict[str, Any]], *, seed: int = 9, horizon_us: int = 900_000) -> dict[str, Any]:
    """Three gateways in a line (origin - mid - far) plus one side gateway
    hanging off the origin; all links clean and identical."""
    domains, links = [], []

    def trunk(idx: str, a: str, b: str) -> None:
        dom = f"net-{idx}"
        domains.append({"id": dom, "attachments": [f"{idx}-x", f"{idx}-y"]})
        links.append(
            {"id": f"trunk-{idx}", "domain": dom, "endpoints": [f"{idx}-x", f"{idx}-y"],
             "capacity_mbps": 100, "latency_us": 500, "loss_prob": 0,
             "background_utilization": 0}
        )

    trunk("om", "gw-origin", "gw-mid")
    trunk("mf", "gw-mid", "gw-far")
    trunk("os", "gw-origin", "gw-side")
    anchors = [
        {"name": "gw-origin", "gateway": True,
         "ports": [{"domain": "net-om", "attachment": "om-x"},
                   {"domain": "net-os", "attachment": "os-x"}],
         "peers": [{"anchor": "gw-mid", "domain": "net-om"},
                   {"anchor": "gw-side", "domain": "net-os"}]},
        {"name": "gw-mid", "gateway": True,
         "ports": [{"domain": "net-om", "attachment": "om-y"},
                   {"domain": "net-mf", "attachment": "mf-x"}],
         "peers": [{"anchor": "gw-far", "domain": "net-mf"}]},
        {"name": "gw-far", "gateway": True,
         "ports": [{"domain": "net-mf", "attachment": "mf-y"}], "peers": []},
        {"name": "gw-side", "gateway": True,
         "ports": [{"domain": "net-os", "attachment": "os-y"}], "peers": []},
    ]
    return {
        "name": "gateway-chain",
        "seed": seed,
        "mode": "l5-multipath",
        "horizon_us": horizon_us,
        "domains": domains,
        "links": links,
        "anchors": anchors,
        "hosts": [],
        "policy": [{"tag": "cms", "weight": 1}],
        "events": events,
    }


def flood_run(
    configs: Mapping[str, Sequence[Adjacency]], events: Sequence[dict[str, Any]] = (),
    simulation: type[Simulation] = Simulation,
) -> Simulation:
    """``flood_simulation(configs, events, simulation)`` after its run."""
    sim = flood_simulation(configs, events, simulation)
    sim.run()
    return sim


def flood_simulation(
    configs: Mapping[str, Sequence[Adjacency]], events: Sequence[dict[str, Any]] = (),
    simulation: type[Simulation] = Simulation,
) -> Simulation:
    """Per-anchor adjacency legs, as ``oracles.random_connected_adjacency``
    gives them, as a scenario with ``events`` in a ``simulation`` that has
    not run yet.

    Each adjacency becomes one domain named by its ``domain_id``, with one
    attachment per anchor (named by the anchor), one link of the adjacency's
    capacity and latency (with the domain's id) and one peering.  An anchor
    with no adjacency gets a one-attachment domain of its own.
    """
    domains, links = [], []
    ports: dict[str, list[dict[str, str]]] = {name: [] for name in configs}
    peers: dict[str, list[dict[str, str]]] = {name: [] for name in configs}
    for u in sorted(configs):
        for adj in configs[u]:
            v, dom = adj.neighbor, adj.domain_id
            if u < v:
                domains.append({"id": dom, "attachments": [u, v]})
                links.append({"id": dom, "domain": dom, "endpoints": [u, v],
                              "capacity_mbps": int(adj.capacity_mbps), "latency_us": adj.latency_us})
                ports[u].append({"domain": dom, "attachment": u})
                ports[v].append({"domain": dom, "attachment": v})
                peers[u].append({"anchor": v, "domain": dom})
        if not configs[u]:
            domains.append({"id": f"solo-{u}", "attachments": [u]})
            ports[u].append({"domain": f"solo-{u}", "attachment": u})
    return simulation(build({
        "name": "flood-run",
        "domains": domains,
        "links": links,
        "anchors": [{"name": name, "ports": ports[name], "peers": peers[name]} for name in sorted(configs)],
        "policy": [{"tag": "ops", "weight": 1}],
        "events": list(events),
    }))
