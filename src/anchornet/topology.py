"""Link-state topology discovery for the overlay control plane.

Every anchor periodically describes its adjacencies in a sequence-numbered
advertisement and floods it to its peers; stale or duplicate advertisements
are suppressed, so one origination crosses each adjacency at most once per
direction.  At quiescence all anchors in a connected component hold
byte-identical databases.  Deliberately single-area and deliberately much
simpler than an inter-domain path-vector protocol.

Advertisements and databases are immutable, so their derived views -- the
canonical encoding, the digest and the weighted graph -- are computed
lazily, on first read, and cached on the object.  Accepting an
advertisement builds a new database with an empty cache: an anchor that
never routes from its database never pays for the graph.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence


class LsaContentMismatch(ValueError):
    """Two advertisements share (origin, seq) but differ in content.

    This only happens when a scenario gives two anchors the same name, which
    configuration validation rejects; seeing it at runtime is a hard fault.
    """


def _pstr(s: str) -> bytes:
    raw = s.encode()
    return len(raw).to_bytes(2, "big") + raw


def _u64(n: int) -> bytes:
    return int(n).to_bytes(8, "big")


def _frac(f: Fraction) -> bytes:
    return _u64(f.numerator) + _u64(f.denominator)


@dataclass(frozen=True, order=True)
class Adjacency:
    """One usable neighbor leg as seen from the advertising anchor.

    ``capacity_mbps`` is the capacity actually available to the overlay,
    i.e. the raw link capacity minus pre-existing background load.
    """

    neighbor: str
    capacity_mbps: Fraction
    latency_us: int
    domain_id: str

    def __post_init__(self) -> None:
        cap = self.capacity_mbps
        if not isinstance(cap, Fraction):
            cap = Fraction(str(cap))
            object.__setattr__(self, "capacity_mbps", cap)
        if cap <= 0:
            raise ValueError(f"adjacency to {self.neighbor!r}: capacity must be > 0")
        if self.latency_us < 0:
            raise ValueError(f"adjacency to {self.neighbor!r}: latency must be >= 0")

    def encode(self) -> bytes:
        return (
            _pstr(self.neighbor)
            + _frac(self.capacity_mbps)
            + _u64(self.latency_us)
            + _pstr(self.domain_id)
        )


@dataclass(frozen=True)
class LinkStateAdvertisement:
    origin: str
    seq: int
    adjacencies: tuple[Adjacency, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjacencies", tuple(sorted(self.adjacencies)))
        if self.seq < 0 or self.seq >= 2**64:
            raise ValueError(f"seq {self.seq} out of range for {self.origin!r}")

    def encode(self) -> bytes:
        """Canonical byte form: fixed field order, big-endian integers,
        length-prefixed strings.  Used for database equality and hashing."""
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        body = _pstr(self.origin) + _u64(self.seq)
        body += len(self.adjacencies).to_bytes(4, "big")
        for adj in self.adjacencies:
            body += adj.encode()
        return body


@dataclass(frozen=True)
class AnchorLinkState:
    """Per-anchor origination state: own name, last emitted seq, current legs."""

    origin: str
    adjacencies: tuple[Adjacency, ...] = ()
    seq: int = 0


def originate_lsa(state: AnchorLinkState) -> tuple[AnchorLinkState, LinkStateAdvertisement]:
    """Emit a fresh advertisement reflecting the anchor's current port state.

    The sequence number advances by one on every origination, including
    re-originations after a link failure.
    """
    lsa = LinkStateAdvertisement(state.origin, state.seq + 1, state.adjacencies)
    return replace(state, seq=state.seq + 1), lsa


@dataclass(frozen=True)
class TopologyDatabase:
    """Newest advertisement per origin, plus the derived weighted digraph.

    ``lsas`` must not be mutated after construction: the derived views are
    cached on first read.
    """

    lsas: Mapping[str, LinkStateAdvertisement] = field(default_factory=dict)

    def receive(self, lsa: LinkStateAdvertisement) -> tuple["TopologyDatabase", bool]:
        """Apply one advertisement.

        Returns the (possibly unchanged) database and whether the caller
        should flood the advertisement onward: true exactly when the origin
        is new or the seq is strictly newer than the stored one.
        """
        stored = self.lsas.get(lsa.origin)
        if stored is not None:
            if lsa.seq < stored.seq:
                return self, False
            if lsa.seq == stored.seq:
                if lsa is not stored and lsa.encode() != stored.encode():
                    raise LsaContentMismatch(
                        f"origin {lsa.origin!r} seq {lsa.seq} advertised twice with different content"
                    )
                return self, False
        lsas = dict(self.lsas)
        lsas[lsa.origin] = lsa
        return TopologyDatabase(lsas), True

    def encode(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        return b"".join([self.lsas[origin].encode() for origin in sorted(self.lsas)])

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # Streams the advertisements rather than caching the whole encoding,
        # so taking every anchor's digest does not hold every database's bytes.
        h = hashlib.sha256()
        for origin in sorted(self.lsas):
            h.update(self.lsas[origin].encode())
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TopologyDatabase):
            return self.encode() == other.encode()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.encode())

    @property
    def anchors(self) -> frozenset[str]:
        return frozenset(self.lsas)

    def graph(self) -> Mapping[str, tuple[Adjacency, ...]]:
        """Derived digraph of anchors and hosts, read-only and shared by
        every caller.

        Anchor-to-anchor edges come from each endpoint's own advertisement.
        Hosts never advertise, so they are recognized as neighbors without
        an advertisement of their own and get the mirror edge back to their
        anchor, making them routable leaves.
        """
        return self._graph

    @cached_property
    def _graph(self) -> Mapping[str, tuple[Adjacency, ...]]:
        nodes: dict[str, list[Adjacency]] = {origin: [] for origin in self.lsas}
        for origin in sorted(self.lsas):
            for adj in self.lsas[origin].adjacencies:
                nodes.setdefault(adj.neighbor, [])
                nodes[origin].append(adj)
                if adj.neighbor not in self.lsas:
                    nodes[adj.neighbor].append(
                        Adjacency(origin, adj.capacity_mbps, adj.latency_us, adj.domain_id)
                    )
        return MappingProxyType(
            {name: tuple(sorted(edges)) for name, edges in sorted(nodes.items())}
        )


EMPTY_DATABASE = TopologyDatabase({})


@dataclass
class ConvergeResult:
    databases: dict[str, TopologyDatabase]
    transmissions: dict[tuple[str, int], int]
    messages_processed: int


def converge(configs: Mapping[str, Sequence[Adjacency]]) -> ConvergeResult:
    """Flood every anchor's advertisement to quiescence over in-memory channels.

    ``configs`` maps each anchor name to its adjacency legs; anchor-to-anchor
    channels are exactly the legs whose neighbor is itself a configured
    anchor.  Messages are processed in deterministic FIFO order; quiescence
    is the empty message queue.  Partitioned components converge
    independently.
    """
    anchors = sorted(configs)
    anchor_set = set(anchors)
    dbs: dict[str, TopologyDatabase] = {a: EMPTY_DATABASE for a in anchors}
    peers = {
        a: sorted({adj.neighbor for adj in configs[a] if adj.neighbor in anchor_set})
        for a in anchors
    }
    transmissions: dict[tuple[str, int], int] = {}
    queue: deque[tuple[str, str, LinkStateAdvertisement]] = deque()

    def send(sender: str, receiver: str, lsa: LinkStateAdvertisement) -> None:
        key = (lsa.origin, lsa.seq)
        transmissions[key] = transmissions.get(key, 0) + 1
        queue.append((sender, receiver, lsa))

    states = {a: AnchorLinkState(a, tuple(configs[a])) for a in anchors}
    for a in anchors:
        states[a], lsa = originate_lsa(states[a])
        dbs[a], _ = dbs[a].receive(lsa)
        for peer in peers[a]:
            send(a, peer, lsa)

    processed = 0
    while queue:
        sender, receiver, lsa = queue.popleft()
        processed += 1
        dbs[receiver], flood = dbs[receiver].receive(lsa)
        if flood:
            for peer in peers[receiver]:
                if peer != sender:
                    send(receiver, peer, lsa)

    return ConvergeResult(dbs, transmissions, processed)
