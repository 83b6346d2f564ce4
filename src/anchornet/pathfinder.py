"""Multipath route computation over the converged overlay topology.

Paths are latency-shortest with a fully specified tie-break (lexicographic
on hop names) so two runs over the same database produce byte-identical
path lists.  Additional paths are found by removing the anchor-to-anchor
links already used and re-running the search; host access legs are exempt
from the disjointness constraint because a host typically has a single
uplink.  The same search, :func:`lex_shortest`, also routes substrate legs
inside a domain and distribution trees.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Collection, Iterable, Iterator, Optional

from .topology import TopologyDatabase


@dataclass(frozen=True)
class L5Path:
    """A simple overlay path: source, anchors, destination.

    ``metric_us`` is the sum of per-link latencies; ``min_capacity_mbps`` the
    bottleneck available capacity, or None for the degenerate zero-link path.
    """

    path_id: int
    hops: tuple[str, ...]
    metric_us: int
    min_capacity_mbps: Optional[Fraction]

    def __post_init__(self) -> None:
        if len(set(self.hops)) != len(self.hops):
            raise ValueError(f"path hops must be pairwise distinct: {self.hops}")


def lex_shortest(
    src: str,
    targets: Collection[str],
    neighbours: Callable[[str], Iterable[tuple[str, Any]]],
) -> dict[str, tuple[Any, tuple[str, ...]]]:
    """Shortest path from ``src`` to each target by (distance, lexicographic
    hop names), as ``{target: (distance, hops)}``.

    ``targets`` holds distinct names; ``neighbours(node)`` yields
    ``(next node, weight)``.  The heap keys on (distance, path so far),
    which makes the tie-break order-preserving under extension, so the first
    settled entry for a node is its globally smallest (distance, lex) simple
    path.  The search stops once every target is settled; an unreachable
    target is absent from the result.
    """
    best: dict[str, tuple[Any, tuple[str, ...]]] = {src: (0, (src,))}
    heap: list[tuple[Any, tuple[str, ...]]] = [(0, (src,))]
    done: set[str] = set()
    found: dict[str, tuple[Any, tuple[str, ...]]] = {}
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue  # a stale entry: the node settled on a smaller one
        done.add(node)
        if node in targets:
            found[node] = (dist, path)
        if len(found) == len(targets):
            break
        for nxt, weight in neighbours(node):
            if nxt in done:
                continue
            cand = (dist + weight, path + (nxt,))
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                heapq.heappush(heap, cand)
    return found


def k_disjoint_paths(db: TopologyDatabase, src: str, dst: str, k: int) -> list[L5Path]:
    """Up to ``k`` simple paths, pairwise disjoint over anchor-to-anchor links.

    Computed by iterated shortest-path with used-edge removal; returns fewer
    than ``k`` paths (possibly zero) when the supply is exhausted.  An absent
    endpoint is a caller error; a disconnected pair is not.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    graph = db.graph()
    for name in (src, dst):
        if name not in graph:
            raise ValueError(f"node {name!r} not present in topology")
    anchors = db.anchors
    banned: set[frozenset[str]] = set()

    def neighbours(node: str) -> Iterator[tuple[str, int]]:
        for adj in graph[node]:
            nxt = adj.neighbor
            if not (node in anchors and nxt in anchors and frozenset((node, nxt)) in banned):
                yield nxt, adj.latency_us

    paths: list[L5Path] = []
    for path_id in range(k):
        found = lex_shortest(src, (dst,), neighbours).get(dst)
        if found is None:
            break
        metric, hops = found
        # Of parallel adjacencies (a simulated topology has none), the widest.
        caps = [
            max(adj.capacity_mbps for adj in graph[u] if adj.neighbor == v)
            for u, v in zip(hops, hops[1:])
        ]
        paths.append(L5Path(path_id, hops, metric, min(caps) if caps else None))
        fresh = {
            frozenset((u, v))
            for u, v in zip(hops, hops[1:])
            if u in anchors and v in anchors
        } - banned
        if not fresh:
            # Nothing new to remove: the next search would return this very
            # path again (it crosses no unused anchor-to-anchor links).
            break
        banned |= fresh
    return paths

