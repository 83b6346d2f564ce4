"""Anchor point: the overlay's forwarding element.

An anchor terminates substrate connectivity at its ports, re-addresses each
transit segment to the locator of the next overlay hop (one hop at a time,
never further), floods link-state advertisements, optionally hosts a
data-object catalog, and accounts traffic per science-domain tag so the
statistics follow the science groups wherever the substrate carries them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .addressing import L3Locator
from .gateway import GatewayCatalog
from .session import ACK, Segment
from .topology import TopologyDatabase


@dataclass
class Anchor:
    """One anchor point's mutable control and data plane state, all of it its
    own: its one link-state database ``db``, which holds its own advertisement
    among the others and takes each newer one in place; its routes and its
    neighbours' locators; its per-tag counters; and a gateway's catalog."""

    name: str
    db: TopologyDatabase = field(default_factory=TopologyDatabase)
    # (session, path) -> (successor, predecessor), None past either end; the
    # simulator's claims write and remove these.
    routes: dict[tuple[int, int], tuple[Optional[str], Optional[str]]] = field(default_factory=dict)
    locators: dict[str, L3Locator] = field(default_factory=dict)  # neighbour -> its leg's destination
    counters: dict[str, list[int]] = field(default_factory=dict)
    dropped_unknown: int = 0
    catalog: Optional[GatewayCatalog] = None

    # -- data plane ----------------------------------------------------------

    def forward(self, segment: Segment) -> Optional[tuple[str, L3Locator]]:
        """Re-address a transit segment to its next hop: the hop's name and
        ``locators[name]``, the L3 destination it is sent on to.  The
        segment itself is not changed.

        Data segments go to the route's successor; acknowledgements retrace
        it to its predecessor.  Unknown (session, path) pairs, and a segment
        past either end of its route, are counted and dropped (``None``),
        never raised: a teardown racing with a late segment is normal, not a
        fault.
        """
        is_ack = segment.kind is ACK
        route = self.routes.get((segment.session_id, segment.path_id))
        hop = route[is_ack] if route else None
        if hop is None:
            self.dropped_unknown += 1
            return None
        if not is_ack:
            self.account_relay(segment)
        return hop, self.locators[hop]

    def account_relay(self, segment: Segment) -> None:
        """Count one data segment this anchor sends on: forwarded, or
        re-emitted by a distribution-tree relay."""
        row = self.counters.get(segment.tag) or self.counters.setdefault(segment.tag, [0, 0])
        row[0] += 1
        row[1] += len(segment.payload)

    def tag_report(self) -> dict[str, tuple[int, int]]:
        """Per-science-tag (segments, bytes) snapshot.  Pure read."""
        return {tag: (row[0], row[1]) for tag, row in sorted(self.counters.items())}
