"""Seeded scenario generators for the four benchmark workloads.

Each generator takes the benchmark seed and returns a scenario as a plain
JSON-ready dict in anchornet's documented scenario format; the simulator
sees only that scenario.  The seed moves topology details, latencies,
endpoint choices, arrival times and the simulator's loss RNG.  Sizes and
counts stay fixed, so two seeds cost about the same host time and give
simulated figures of the same magnitude.  session-churn varies most: the
seed decides which sessions overlap, and the allocator's work follows the
number of concurrent demands.

Sessions open only after bootstrap flooding has quiesced: a session opened
earlier raises ``ValueError("node ... not present in topology")`` from
``k_disjoint_paths`` (an uncaught failure of the simulator, not of the
benchmark).  ``_quiesce_us`` bounds that time from the generated topology.
"""

from __future__ import annotations

import heapq
import random
from typing import Any

MIB = 1 << 20

POLICY = [
    {"tag": "atlas", "weight": 1},
    {"tag": "cms", "weight": 2},
    {"tag": "lhcb", "weight": 4},
]


class _Builder:
    """Accumulates one scenario; every anchor adjacency and every host
    access leg gets a two-attachment domain of its own."""

    def __init__(self, name: str, sim_seed: int, horizon_us: int) -> None:
        self.name = name
        self.sim_seed = sim_seed
        self.horizon_us = horizon_us
        self.domains: list[dict[str, Any]] = []
        self.links: list[dict[str, Any]] = []
        self.anchors: dict[str, dict[str, Any]] = {}
        self.hosts: list[dict[str, Any]] = []
        self.events: list[dict[str, Any]] = []
        # anchor -> [(neighbor, latency_us, link id)], for the generators'
        # own route estimates
        self.adj: dict[str, list[tuple[str, int, str]]] = {}

    def anchor(self, name: str, *, gateway: bool = False) -> None:
        self.anchors[name] = {"name": name, "ports": [], "peers": [], "gateway": gateway}
        self.adj[name] = []

    def _domain(self, dom: str, capacity: int, latency: int, loss: float) -> tuple[str, str, str]:
        x, y = f"{dom}-x", f"{dom}-y"
        lid = f"{dom}-link"
        self.domains.append({"id": dom, "attachments": [x, y]})
        self.links.append(
            {"id": lid, "domain": dom, "endpoints": [x, y], "capacity_mbps": capacity,
             "latency_us": latency, "loss_prob": loss, "background_utilization": 0}
        )
        return x, y, lid

    def peer(self, a: str, b: str, *, capacity: int, latency: int, loss: float = 0.0) -> str:
        dom = f"net-{len(self.links)}"
        x, y, lid = self._domain(dom, capacity, latency, loss)
        self.anchors[a]["ports"].append({"domain": dom, "attachment": x})
        self.anchors[b]["ports"].append({"domain": dom, "attachment": y})
        self.anchors[a]["peers"].append({"anchor": b, "domain": dom})
        self.adj[a].append((b, latency, lid))
        self.adj[b].append((a, latency, lid))
        return lid

    def host(self, name: str, anchor: str, *, capacity: int, latency: int = 20) -> None:
        dom = f"site-{len(self.links)}"
        x, y, _ = self._domain(dom, capacity, latency, 0.0)
        self.anchors[anchor]["ports"].append({"domain": dom, "attachment": y})
        self.hosts.append({"name": name, "anchor": anchor, "port": {"domain": dom, "attachment": x}})

    def scenario(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.sim_seed,
            "mode": "l5-multipath",
            "horizon_us": self.horizon_us,
            "domains": self.domains,
            "links": self.links,
            "anchors": list(self.anchors.values()),
            "hosts": self.hosts,
            "policy": POLICY,
            "events": sorted(self.events, key=lambda e: e["time_us"]),
        }


def _distances(adj: dict[str, list[tuple[str, int, str]]], src: str,
               skip: frozenset[str] = frozenset()) -> dict[str, tuple[int, tuple[str, ...]]]:
    """Latency-shortest routes from ``src`` (lexicographic tie-break), as
    (latency, hop tuple), avoiding the link ids in ``skip``."""
    best = {src: (0, (src,))}
    heap = [(0, (src,), src)]
    done: set[str] = set()
    while heap:
        dist, path, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nxt, lat, lid in adj[node]:
            if nxt in done or lid in skip:
                continue
            cand = (dist + lat, path + (nxt,))
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                heapq.heappush(heap, (cand[0], cand[1], nxt))
    return best


def _quiesce_us(adj: dict[str, list[tuple[str, int, str]]]) -> int:
    """Upper bound on bootstrap flooding time: every advertisement has
    reached every anchor once the longest shortest route is crossed."""
    return max(d for src in adj for d, _ in _distances(adj, src).values())


def _mesh(b: _Builder, rng: random.Random, names: list[str], chords: int, *,
          capacity: int, latency: tuple[int, int], loss: float = 0.0,
          jitter: random.Random | None = None) -> None:
    """A ring (so every anchor has two disjoint ways out) plus random chords;
    ``jitter`` moves each latency by up to 100 us."""
    def lat() -> int:
        return rng.randrange(*latency) + (jitter.randrange(-100, 101) if jitter else 0)

    pairs = [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < len(names) + chords:
        a, c = rng.sample(names, 2)
        if frozenset((a, c)) not in seen:
            seen.add(frozenset((a, c)))
            pairs.append((a, c))
    for a, c in pairs:
        b.peer(a, c, capacity=capacity, latency=lat(), loss=loss)


def bulk_lossy(seed: int, *, size_bytes: int = 16 * MIB) -> dict[str, Any]:
    """One large transfer over three disjoint relay routes of unequal
    capacity and latency with about 1% loss per trunk."""
    rng = random.Random(f"bulk-lossy/{seed}")
    b = _Builder("bench-bulk-lossy", rng.randrange(1 << 31), 30_000_000)
    for name in ("gate-a", "gate-b", "relay-1", "relay-2", "relay-3"):
        b.anchor(name)
    for i, (cap, lat) in enumerate(((60, 250), (50, 550), (40, 950)), start=1):
        for end in ("gate-a", "gate-b"):
            b.peer(end, f"relay-{i}", capacity=cap,
                   latency=lat + rng.randrange(-50, 51), loss=rng.uniform(0.008, 0.012))
    b.host("src.host", "gate-a", capacity=10_000)
    b.host("dst.host", "gate-b", capacity=10_000)
    start = _quiesce_us(b.adj) + 1000
    b.events.append({"time_us": start, "kind": "open_session", "id": "bulk", "src": "src.host",
                     "dst": "dst.host", "tag": "cms", "bytes": size_bytes, "k_paths": 3})
    return b.scenario()


def session_churn(seed: int, *, sessions: int = 200, span_us: int = 400_000) -> dict[str, Any]:
    """Many short unicast sessions between hosts on 8 sites of a 16-anchor
    mesh; arrivals are a Poisson process conditioned on its count.  The
    mesh is fixed, and so are the multisets of sizes and tags and how often
    each host sends and receives; the seed draws arrival times and which
    session gets which endpoints, size and tag."""
    topo = random.Random("session-churn/topology")
    rng = random.Random(f"session-churn/{seed}")
    b = _Builder("bench-session-churn", rng.randrange(1 << 31), 30_000_000)
    names = [f"core-{i:02d}" for i in range(16)]
    for name in names:
        b.anchor(name)
    _mesh(b, topo, names, 8, capacity=1000, latency=(200, 1200))
    hosts = []
    for site, anchor in enumerate(sorted(topo.sample(names, 8))):
        for h in range(4):
            hosts.append(f"site{site}.host{h}")
            b.host(hosts[-1], anchor, capacity=50)
    start = _quiesce_us(b.adj) + 1000
    sizes = [(64 + 192 * i // (sessions - 1)) * 1024 for i in range(sessions)]
    tags = [POLICY[i % len(POLICY)]["tag"] for i in range(sessions)]
    rng.shuffle(sizes)
    rng.shuffle(tags)
    srcs = [hosts[i % len(hosts)] for i in range(sessions)]
    dsts = srcs[:]
    rng.shuffle(srcs)
    rng.shuffle(dsts)

    def site(host: str) -> str:
        return host.split(".")[0]

    for i in range(sessions):
        if site(srcs[i]) == site(dsts[i]):
            j = next(j for j in rng.sample(range(sessions), sessions)
                     if site(dsts[j]) != site(srcs[i]) and site(dsts[i]) != site(srcs[j]))
            dsts[i], dsts[j] = dsts[j], dsts[i]
    times = sorted(rng.randrange(span_us) for _ in range(sessions))
    for i, t in enumerate(times):
        b.events.append({"time_us": start + t, "kind": "open_session", "id": f"s{i:03d}",
                         "src": srcs[i], "dst": dsts[i], "tag": tags[i], "bytes": sizes[i],
                         "k_paths": 2})
    return b.scenario()


def failover_flood(seed: int, *, anchors: int = 100, chords: int = 50,
                   failures: int = 6, size_bytes: int = 2 * MIB) -> dict[str, Any]:
    """A large random mesh with a few transfers and a burst of link
    failures, each of which re-floods advertisements to every anchor.  The
    mesh and the hosts' places are fixed; the seed draws latencies and the
    failed links."""
    topo = random.Random("failover-flood/topology")
    rng = random.Random(f"failover-flood/{seed}")
    b = _Builder("bench-failover-flood", rng.randrange(1 << 31), 30_000_000)
    names = [f"anchor-{i:03d}" for i in range(anchors)]
    for name in names:
        b.anchor(name)
    _mesh(b, topo, names, chords, capacity=1000, latency=(100, 1000), jitter=rng)
    homes = topo.sample(names, 8)
    for i, anchor in enumerate(homes):
        b.host(f"dc{i}.host", anchor, capacity=100)
    start = _quiesce_us(b.adj) + 1000
    for i in range(4):
        b.events.append({"time_us": start, "kind": "open_session", "id": f"xfer{i}",
                         "src": f"dc{2 * i}.host", "dst": f"dc{2 * i + 1}.host", "tag": "atlas",
                         "bytes": size_bytes, "k_paths": 2})
    # Fail trunks on the transfers' current shortest routes, never one whose
    # loss would split the anchor graph; when every trunk of a route is a
    # bridge, fail another trunk instead, so every seed fails ``failures``.
    down: set[str] = set()
    every = {lid for out in b.adj.values() for _, _, lid in out}
    for n in range(failures):
        i = n % 4
        route = _distances(b.adj, homes[2 * i], frozenset(down))[homes[2 * i + 1]][1]
        lids = sorted({lid for u, v in zip(route, route[1:]) for nxt, _, lid in b.adj[u]
                       if nxt == v})
        others = sorted(every - set(lids) - down)
        rng.shuffle(lids)
        rng.shuffle(others)
        lid = next((lid for lid in lids + others
                    if len(_distances(b.adj, names[0], frozenset(down | {lid}))) == anchors),
                   None)
        if lid is None:
            raise ValueError(f"no trunk left whose failure keeps the {anchors}-anchor mesh "
                             f"connected after {n} failures")
        down.add(lid)
        b.events.append({"time_us": start + 20_000 * (n + 1), "kind": "link_down", "link": lid})
    return b.scenario()


def fanout_join(seed: int, *, size_bytes: int = 2 * MIB) -> dict[str, Any]:
    """A pub/sub tree over lossy gateway trunks, mid-stream joins, and late
    fetches served from the nearest staged replica.  The mesh and the roles
    are fixed; the seed draws latencies, join times and the loss RNG."""
    topo = random.Random("fanout-join/topology")
    rng = random.Random(f"fanout-join/{seed}")
    b = _Builder("bench-fanout-join", rng.randrange(1 << 31), 4_000_000)
    names = [f"gw-{i:02d}" for i in range(30)]
    for name in names:
        b.anchor(name, gateway=True)
    _mesh(b, topo, names, 15, capacity=200, latency=(200, 1200), loss=0.005,
          jitter=rng)
    # Joiners sit off the initial tree (hop-count shortest routes from the
    # origin, as pubsub builds it), so each one is grafted with join_seq > 0.
    hops = {a: [(n, 1, lid) for n, _, lid in out] for a, out in b.adj.items()}
    while True:
        origin, *joiners = topo.sample(names, 11)
        routes = _distances(hops, origin)
        clear = [n for n in names if n != origin and not set(routes[n][1]) & set(joiners)]
        if len(clear) >= 12:
            break
    initial = topo.sample(clear, 12)
    fetchers = topo.sample(sorted(set(names) - set(initial) - set(joiners) - {origin}), 4)
    start = _quiesce_us(b.adj) + 1000
    obj = "bench.dataset.raw"
    b.events.append({"time_us": 1000, "kind": "stage", "gateway": origin, "object": obj,
                     "size_bytes": size_bytes, "ttl_us": 60_000_000})
    b.events.append({"time_us": start, "kind": "open_session", "id": "feed",
                     "session_mode": "pubsub", "src": origin, "subscribers": sorted(initial),
                     "tag": "cms", "object": obj, "k_paths": 1})
    stream_us = size_bytes * 8 // 200
    for i, gw in enumerate(joiners):
        at = start + stream_us * (i + 1) // 40 + rng.randrange(1000)
        b.events.append({"time_us": at, "kind": "subscribe", "gateway": gw, "object": obj,
                         "tag": "cms"})
    for i, gw in enumerate(fetchers):
        at = start + 4 * stream_us + 20_000 * i
        b.events.append({"time_us": at, "kind": "subscribe", "gateway": gw, "object": obj,
                         "tag": "lhcb", "k_paths": 2})
    return b.scenario()


WORKLOADS = {
    "bulk-lossy": bulk_lossy,
    "session-churn": session_churn,
    "failover-flood": failover_flood,
    "fanout-join": fanout_join,
}
