"""Independent reference implementations the test suite checks against.

These deliberately share no code with the package: brute-force enumeration
instead of Dijkstra, float bisection instead of exact progressive filling,
round-by-round exact filling instead of a shared fill level, a set-union
fixpoint and relaxed latency distances instead of message flooding, a flood
count from anchor degrees instead of counted sends, an explicit token-bucket replay
instead of slot arithmetic, and a label-by-label name check instead of one
regular expression.  ``MersennePayloadStream`` is the earlier payload
generator, kept so that pins taken with it can still be reproduced.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from anchornet.session import SEGMENT_PAYLOAD_BYTES
from anchornet.topology import Adjacency, LinkStateAdvertisement, TopologyDatabase

# -- names ------------------------------------------------------------------------

_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-")


def reference_is_name(text: str) -> bool:
    """Whether ``text`` is a name: split on dots, every label is non-empty
    and all lowercase ASCII letters, digits and hyphens, and the whole is at
    most 255 bytes of UTF-8 (a lone surrogate has no UTF-8 form: no name)."""
    try:
        size = len(text.encode())
    except UnicodeEncodeError:
        return False
    return size <= 255 and all(label and set(label) <= _LABEL_CHARS for label in text.split("."))


# -- graph helpers ----------------------------------------------------------------


def db_from_edges(
    edges: Mapping[tuple[str, str], tuple[float, int]],
    hosts: Mapping[str, tuple[str, float, int]] | None = None,
) -> TopologyDatabase:
    """Build a converged database from undirected anchor edges.

    ``edges`` maps (u, v) -> (capacity_mbps, latency_us); ``hosts`` maps a
    host name -> (anchor, capacity, latency) access leg.
    """
    per_anchor: dict[str, list[Adjacency]] = defaultdict(list)
    for (u, v), (cap, lat) in edges.items():
        per_anchor[u].append(Adjacency(v, Fraction(str(cap)), lat, f"net-{min(u,v)}-{max(u,v)}"))
        per_anchor[v].append(Adjacency(u, Fraction(str(cap)), lat, f"net-{min(u,v)}-{max(u,v)}"))
    for host, (anchor, cap, lat) in (hosts or {}).items():
        per_anchor[anchor].append(Adjacency(host, Fraction(str(cap)), lat, f"site-{anchor}"))
    lsas = {
        name: LinkStateAdvertisement(name, 1, tuple(adjs))
        for name, adjs in per_anchor.items()
    }
    return TopologyDatabase(lsas)


def all_simple_paths(
    graph: Mapping[str, Sequence[tuple[str, int]]], src: str, dst: str
) -> list[tuple[int, tuple[str, ...]]]:
    """Every simple path with its latency metric, by exhaustive DFS."""
    out: list[tuple[int, tuple[str, ...]]] = []

    def dfs(node: str, path: tuple[str, ...], dist: int) -> None:
        if node == dst:
            out.append((dist, path))
            return
        for nbr, lat in graph.get(node, ()):
            if nbr not in path:
                dfs(nbr, path + (nbr,), dist + lat)

    dfs(src, (src,), 0)
    return out


def reference_k_disjoint(
    graph: Mapping[str, Sequence[tuple[str, int]]],
    anchors: set[str],
    src: str,
    dst: str,
    k: int,
) -> list[tuple[int, tuple[str, ...]]]:
    """Greedy edge-disjoint selection over the full (metric, lex) ordering."""
    candidates = sorted(all_simple_paths(graph, src, dst))
    chosen: list[tuple[int, tuple[str, ...]]] = []
    used: set[frozenset[str]] = set()
    for dist, path in candidates:
        edges = {
            frozenset((u, v))
            for u, v in zip(path, path[1:])
            if u in anchors and v in anchors
        }
        if edges & used:
            continue
        chosen.append((dist, path))
        used |= edges
        if len(chosen) == k:
            break
    return chosen


# -- water filling ----------------------------------------------------------------


def bisect_water_fill(
    capacities: Mapping[str, float],
    demands: Sequence[dict],
    iterations: int = 120,
) -> dict[str, float]:
    """Weighted max-min by bisection on the water level, in floats.

    ``demands`` entries: {"id", "weight", "links" (set), "cap" (float|None)}.
    Each round finds, by bisection, the highest uniform normalized level the
    unfrozen sessions can share, then freezes whoever hit a saturated link
    or their own cap.
    """
    rates: dict[str, float] = {d["id"]: 0.0 for d in demands}
    frozen: dict[str, bool] = {d["id"]: False for d in demands}

    def assigned(d: dict, level: float) -> float:
        r = d["weight"] * level
        if d["cap"] is not None:
            r = min(r, d["cap"])
        return r

    def feasible(level: float) -> bool:
        loads: dict[str, float] = defaultdict(float)
        for d in demands:
            r = rates[d["id"]] if frozen[d["id"]] else assigned(d, level)
            for link in d["links"]:
                loads[link] += r
        return all(loads[l] <= capacities[l] + 1e-12 for l in loads)

    while not all(frozen.values()):
        lo, hi = 0.0, 1e9
        if feasible(hi):
            level = hi
        else:
            for _ in range(iterations):
                mid = (lo + hi) / 2
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
            level = lo
        loads: dict[str, float] = defaultdict(float)
        for d in demands:
            r = rates[d["id"]] if frozen[d["id"]] else assigned(d, level)
            for link in d["links"]:
                loads[link] += r
        saturated = {l for l in loads if loads[l] >= capacities[l] - 1e-7}
        progressed = False
        for d in demands:
            if frozen[d["id"]]:
                continue
            r = assigned(d, level)
            capped = d["cap"] is not None and r >= d["cap"] - 1e-9
            blocked = bool(d["links"] & saturated)
            if capped or blocked:
                rates[d["id"]] = r
                frozen[d["id"]] = True
                progressed = True
        if not progressed:
            raise AssertionError("bisection oracle failed to converge")
    return rates


def progressive_fill_exact(
    capacities: Mapping[str, Fraction], demands: Sequence[dict]
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Weighted max-min by per-round progressive filling, in exact rationals.

    ``demands`` entries as for ``bisect_water_fill``, with ``Fraction``
    weights and caps.  Each round every rising session grows by the same
    normalized increment ``delta``, the smallest that fills a link or meets a
    cap; every link load and every rate is rebuilt anew each round.
    Returns (rates, residuals).
    """
    rates = {d["id"]: Fraction(0) for d in demands}
    remaining = dict(capacities)
    active = list(demands)
    while active:
        link_load: dict[str, Fraction] = {}
        for d in active:
            for link in d["links"]:
                link_load[link] = link_load.get(link, Fraction(0)) + d["weight"]
        increments = [remaining[link] / load for link, load in link_load.items()]
        for d in active:
            if d["cap"] is not None:
                increments.append((d["cap"] - rates[d["id"]]) / d["weight"])
        delta = min(increments)
        for d in active:
            rates[d["id"]] += delta * d["weight"]
        for link, load in link_load.items():
            remaining[link] -= delta * load
        saturated = {link for link in link_load if remaining[link] == 0}
        still = [
            d
            for d in active
            if not (d["cap"] is not None and rates[d["id"]] >= d["cap"])
            and not d["links"] & saturated
        ]
        if len(still) == len(active):
            raise AssertionError("exact filling oracle failed to freeze any session")
        active = still
    return rates, remaining


def random_exact_instance(rng: random.Random) -> tuple[dict[str, Fraction], list[dict]]:
    """A random exact allocation instance.

    Capacities and caps come from small grids so that links and caps often
    bind at the same level; weights include 1/3 and 3/2; caps include zero;
    a capped session may cross no links; the session list may be empty.
    """
    n_links = rng.randint(0, 6)
    links = {f"l{i}": Fraction(rng.choice([6, 12, 18, 30, 45])) for i in range(n_links)}
    demands = []
    for i in range(rng.randint(0, 7)):
        crossed = set(rng.sample(sorted(links), rng.randint(0, n_links)))
        cap = rng.choice([None, None, Fraction(0), Fraction(2), Fraction(6), Fraction(9, 2)])
        if not crossed and cap is None:
            cap = Fraction(rng.randint(0, 12))
        demands.append(
            {
                "id": f"s{i}",
                "weight": rng.choice([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)]),
                "links": crossed,
                "cap": cap,
            }
        )
    return links, demands


def random_fill_instance(rng: random.Random) -> tuple[dict[str, int], list[dict]]:
    """A random allocation instance within the checked envelope."""
    n_links = rng.randint(1, 8)
    links = {f"l{i}": rng.randint(1, 100) for i in range(n_links)}
    n_sessions = rng.randint(1, 6)
    demands = []
    for i in range(n_sessions):
        crossed = rng.sample(sorted(links), rng.randint(1, n_links))
        cap = rng.choice([None, None, None, rng.randint(1, 50)])
        demands.append(
            {
                "id": f"s{i}",
                "weight": rng.choice([1, 2, 3]),
                "links": set(crossed),
                "cap": cap,
            }
        )
    return links, demands


def max_min_property_holds(
    rates: Mapping[str, float],
    capacities: Mapping[str, float],
    demands: Sequence[dict],
    tol: float = 1e-9,
) -> bool:
    """Bottleneck check: every uncapped session sits on a saturated link
    where no other session has a strictly larger normalized rate."""
    loads: dict[str, float] = defaultdict(float)
    for d in demands:
        for link in d["links"]:
            loads[link] += rates[d["id"]]
    for d in demands:
        if d["cap"] is not None and rates[d["id"]] >= d["cap"] - tol:
            continue
        norm = rates[d["id"]] / d["weight"]
        ok = False
        for link in d["links"]:
            if loads[link] < capacities[link] - 1e-6:
                continue
            others = [
                rates[o["id"]] / o["weight"]
                for o in demands
                if link in o["links"]
            ]
            if all(v <= norm + 1e-6 for v in others):
                ok = True
                break
        if not ok:
            return False
    return True


# -- flooding ----------------------------------------------------------------------


def flood_fixpoint(
    configs: Mapping[str, Sequence[Adjacency]]
) -> dict[str, TopologyDatabase]:
    """Expected converged database per anchor: breadth-first set union of
    every origination reachable in its connected component."""
    neighbors: dict[str, set[str]] = {a: set() for a in configs}
    for a, adjs in configs.items():
        for adj in adjs:
            if adj.neighbor in configs:
                neighbors[a].add(adj.neighbor)
                neighbors[adj.neighbor].add(a)
    seen: set[str] = set()
    result: dict[str, TopologyDatabase] = {}
    for start in sorted(configs):
        if start in seen:
            continue
        members, frontier = set(), {start}
        while frontier:
            node = frontier.pop()
            if node in members:
                continue
            members.add(node)
            frontier |= neighbors[node] - members
        seen |= members
        lsas = {
            m: LinkStateAdvertisement(m, 1, tuple(configs[m])) for m in sorted(members)
        }
        db = TopologyDatabase(lsas)
        for m in members:
            result[m] = db
    return result


def _peers(configs: Mapping[str, Sequence[Adjacency]]) -> dict[str, dict[str, int]]:
    """Each anchor's peers, one per adjacent pair, and the latency to each."""
    peers: dict[str, dict[str, int]] = {a: {} for a in configs}
    for a, adjs in configs.items():
        for adj in adjs:
            if adj.neighbor in configs:
                peers[a][adj.neighbor] = peers[adj.neighbor][a] = adj.latency_us
    return peers


def flood_arrivals(configs: Mapping[str, Sequence[Adjacency]]) -> dict[str, dict[str, int]]:
    """Per origin, when each other anchor that its origination at time 0
    reaches first accepts it.  A flood crosses a leg at its latency alone and
    an anchor passes its first copy straight on, so that time is the anchor's
    latency distance from the origin: here found by relaxing every adjacency
    until no distance shortens."""
    peers = _peers(configs)
    result = {}
    for origin in sorted(configs):
        dist, changed = {origin: 0}, True
        while changed:
            changed = False
            for u in list(dist):
                for v, latency in peers[u].items():
                    if v not in dist or dist[u] + latency < dist[v]:
                        dist[v], changed = dist[u] + latency, True
        del dist[origin]
        result[origin] = dist
    return result


def flood_converged_us(configs: Mapping[str, Sequence[Adjacency]]) -> int:
    """When every database holds every origination made at time 0: the
    latest first arrival of any origin's flood, its largest latency
    eccentricity.  Copies that lose a race may still be in flight then, for
    at most one adjacency latency more."""
    return max((max(dist.values(), default=0) for dist in flood_arrivals(configs).values()), default=0)


def flood_transmissions(configs: Mapping[str, Sequence[Adjacency]]) -> dict[str, int]:
    """Per origin, the transmissions that flooding its one origination makes:
    the origin sends to each anchor peer, and each other anchor the flood
    reaches sends its first copy on to each peer but the one it came from.
    On a connected overlay of N anchors and E adjacencies that is 2E - (N - 1)."""
    peers = _peers(configs)
    return {origin: len(peers[origin]) + sum(len(peers[a]) - 1 for a in reached)
            for origin, reached in flood_arrivals(configs).items()}


def random_connected_adjacency(
    rng: random.Random, max_nodes: int = 20
) -> dict[str, list[Adjacency]]:
    """Random connected anchor graph expressed as per-anchor adjacency lists."""
    n = rng.randint(2, max_nodes)
    names = [f"a{i:02d}" for i in range(n)]
    edges: set[tuple[str, str]] = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((names[i], names[j]))))
    extra = rng.randint(0, n)
    while extra > 0:
        u, v = rng.sample(names, 2)
        key = tuple(sorted((u, v)))
        if key not in edges:
            edges.add(key)
        extra -= 1
    configs: dict[str, list[Adjacency]] = {name: [] for name in names}
    for u, v in sorted(edges):
        cap = Fraction(rng.randint(10, 400))
        lat = rng.randint(50, 2000)
        configs[u].append(Adjacency(v, cap, lat, f"net-{u}-{v}"))
        configs[v].append(Adjacency(u, cap, lat, f"net-{u}-{v}"))
    return configs


# -- pacing ------------------------------------------------------------------------


def paced_within_rate(
    emissions: Sequence[tuple[int, int]], rate_mbps: float, burst_bytes: int
) -> bool:
    """Token-bucket replay: over every window, emitted bytes must not exceed
    rate x window plus one burst allowance."""
    for i in range(len(emissions)):
        total = 0
        for j in range(i, len(emissions)):
            total += emissions[j][1]
            window = emissions[j][0] - emissions[i][0]
            if total * 8 > rate_mbps * window + burst_bytes * 8 + 1e-6:
                return False
    return True


def acked_seqs(sender) -> set[int]:
    """Every seq ``sender`` holds acknowledged: those below its floor, from
    its ``start_seq`` on, and the ones at or above it that it keeps."""
    return set(range(sender.start_seq, sender._ack_floor)) | sender.acked


# -- payload -------------------------------------------------------------------------


class MersennePayloadStream:
    """The earlier payload generator, kept to reproduce the pins taken with it:
    one ``random.Random`` per reader, seeded by the first 8 bytes of the
    name's SHA-256, one ``randbytes`` call per segment.  A reader from seq k
    generates and drops the first k segments.  Same interface as
    ``gateway.PayloadStream``, for which tests swap it in."""

    def __init__(self, name: str, size: int) -> None:
        self.name, self.size = name, size

    def segments(self, start_seq: int = 0) -> Iterator[bytes]:
        rng = random.Random(int.from_bytes(hashlib.sha256(self.name.encode()).digest()[:8], "big"))
        for seq in range(-(-self.size // SEGMENT_PAYLOAD_BYTES)):
            segment = rng.randbytes(min(SEGMENT_PAYLOAD_BYTES, self.size - seq * SEGMENT_PAYLOAD_BYTES))
            if seq >= start_seq:
                yield segment

    def hexdigest(self) -> str:
        return hashlib.sha256(b"".join(self.segments())).hexdigest()
