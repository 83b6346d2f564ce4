"""One-to-many distribution over a shared tree.

Instead of opening one unicast session per subscriber, a publisher's stream
flows down a tree rooted at its anchor; branch anchors duplicate segments,
so each payload crosses each tree link exactly once no matter how many
subscribers sit beyond it.  The tree is the union of cost-weighted shortest
paths from the root to every subscriber's anchor -- deterministic and never
worse than per-subscriber unicast, though not Steiner-optimal.

Reliability is hop-by-hop: every tree edge runs its own selective-repeat
leg, so loss on one branch never stalls the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .pathfinder import lex_shortest
from .topology import TopologyDatabase


class Unreachable(ValueError):
    """One or more subscribers cannot be reached from the publisher."""

    def __init__(self, subscribers: Sequence[str]) -> None:
        self.subscribers = tuple(sorted(subscribers))
        super().__init__(f"unreachable subscribers: {', '.join(self.subscribers)}")


LinkCost = Mapping[frozenset, Fraction]


@dataclass(frozen=True)
class DistributionTree:
    """A loop-free fan-out rooted at the publisher's anchor.

    ``edges`` are directed parent-to-child anchor links; every subscriber's
    attachment anchor is a tree node.
    """

    root: str
    edges: tuple[tuple[str, str], ...]
    subscribers: frozenset[str]
    subscriber_anchors: Mapping[str, str]

    def cost_crossings(self, link_cost: LinkCost) -> Fraction:
        """Total configured cost of one full traversal of the tree."""
        total = Fraction(0)
        for parent, child in self.edges:
            total += link_cost.get(frozenset((parent, child)), Fraction(1))
        return total


def anchor_of(db: TopologyDatabase, name: str) -> str:
    """The attachment anchor of a node: itself if it is an anchor, else the
    single anchor its access leg hangs off."""
    if name in db.anchors:
        return name
    graph = db.graph()
    if name not in graph:
        raise ValueError(f"node {name!r} not present in topology")
    uplinks = sorted({adj.neighbor for adj in graph[name] if adj.neighbor in db.anchors})
    if not uplinks:
        raise ValueError(f"host {name!r} has no anchor uplink")
    return uplinks[0]


def _cost_tree_paths(
    db: TopologyDatabase,
    publisher: str,
    subscribers: Sequence[str],
    link_cost: LinkCost,
) -> tuple[str, dict[str, str], dict[str, tuple[str, ...]]]:
    """The root anchor, each subscriber's anchor, and the cost-shortest path
    from the root to each of those anchors over anchors only.

    One search keyed on (cost, lexicographic path) yields one predecessor
    per node, so the union of the returned paths is a tree.  Subscribers
    whose anchors the search cannot reach are reported together.
    """
    anchors = db.anchors
    graph = db.graph()
    root = anchor_of(db, publisher)
    sub_anchors = {sub: anchor_of(db, sub) for sub in sorted(subscribers)}

    def neighbours(node: str) -> Iterator[tuple[str, Fraction]]:
        for adj in graph[node]:
            if adj.neighbor in anchors:
                yield adj.neighbor, link_cost.get(frozenset((node, adj.neighbor)), Fraction(1))

    found = lex_shortest(root, set(sub_anchors.values()), neighbours)
    missing = [sub for sub, anc in sub_anchors.items() if anc not in found]
    if missing:
        raise Unreachable(missing)
    return root, sub_anchors, {anc: hops for anc, (_, hops) in found.items()}


def build_tree(
    db: TopologyDatabase,
    publisher: str,
    subscribers: Sequence[str],
    link_cost: LinkCost | None = None,
) -> DistributionTree:
    """Union of cost-shortest root-to-subscriber paths.

    Expensive links (say, transatlantic) get high configured costs, so the
    search steers shared structure toward them only once.  Subscribers whose
    anchors the search cannot reach are reported together.
    """
    root, sub_anchors, paths = _cost_tree_paths(db, publisher, subscribers, link_cost or {})
    edges: set[tuple[str, str]] = set()
    for anc in sorted(paths):
        hops = paths[anc]
        edges.update(zip(hops, hops[1:]))
    return DistributionTree(
        root=root,
        edges=tuple(sorted(edges)),
        subscribers=frozenset(sub_anchors),
        subscriber_anchors=dict(sub_anchors),
    )


def unicast_cost_crossings(
    db: TopologyDatabase,
    publisher: str,
    subscribers: Sequence[str],
    link_cost: LinkCost | None = None,
) -> Fraction:
    """Cost of serving every subscriber with its own shortest path; the
    baseline against which tree savings are measured."""
    costs: LinkCost = link_cost or {}
    _, sub_anchors, paths = _cost_tree_paths(db, publisher, subscribers, costs)
    total = Fraction(0)
    for anc in sub_anchors.values():
        hops = paths[anc]
        for u, v in zip(hops, hops[1:]):
            total += costs.get(frozenset((u, v)), Fraction(1))
    return total
