"""Link-state topology discovery for the overlay control plane.

Every anchor describes its usable legs in a sequence-numbered advertisement,
at start-up and whenever one of its links fails; ``Simulation._flood`` floods
it to the anchor's peers over the legs whose links are all up.  Stale and
duplicate advertisements are suppressed, so one origination crosses each
adjacency at most once per direction.  At quiescence all anchors in a
connected component hold byte-identical databases; an anchor cut off by a
failed link keeps what it last heard.  Deliberately single-area and much
simpler than an inter-domain path-vector protocol.

Each anchor keeps one ``TopologyDatabase``, as a forwarding element keeps
one link-state table: ``receive`` overwrites an origin's entry when a newer
advertisement arrives.  An advertisement's encoding and a database's graph
are computed on first read and cached; accepting an advertisement drops the
graph.  A digest is computed on each read.  ``has_edge`` reads one edge of
the graph without building it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .addressing import as_fraction


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
        cap = as_fraction(self.capacity_mbps)
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
        length-prefixed strings.  Hashed into the database digest."""
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        body = _pstr(self.origin) + _u64(self.seq)
        body += len(self.adjacencies).to_bytes(4, "big")
        for adj in self.adjacencies:
            body += adj.encode()
        return body


def has_edge(lsas: Mapping[str, LinkStateAdvertisement], u: str, v: str) -> bool:
    """Whether ``TopologyDatabase(lsas).graph()`` has ``u -> v``: ``u`` advertises
    ``v``, or ``u`` advertises nothing and ``v`` advertises ``u`` (a host's mirror edge)."""
    lsa = lsas.get(u)
    if lsa is None:
        lsa, v = lsas.get(v), u
    return lsa is not None and any(adj.neighbor == v for adj in lsa.adjacencies)


class TopologyDatabase:
    """One anchor's link-state table: the newest advertisement per origin,
    which ``receive`` overwrites in place, plus the derived weighted digraph."""

    def __init__(self, lsas: Mapping[str, LinkStateAdvertisement] | None = None) -> None:
        self.lsas: dict[str, LinkStateAdvertisement] = dict(lsas or {})
        self._graph: Mapping[str, tuple[Adjacency, ...]] | None = None

    def receive(self, lsa: LinkStateAdvertisement) -> tuple["TopologyDatabase", bool]:
        """Apply one advertisement.

        Returns this database and whether the caller should flood the
        advertisement onward: true exactly when the origin is new or the seq
        is strictly newer than the stored one, and only then is it stored.
        """
        stored = self.lsas.get(lsa.origin)
        if stored is not None and lsa.seq <= stored.seq:
            if lsa.seq == stored.seq and lsa is not stored and lsa.encode() != stored.encode():
                raise LsaContentMismatch(
                    f"origin {lsa.origin!r} seq {lsa.seq} advertised twice with different content"
                )
            return self, False
        self.lsas[lsa.origin] = lsa
        self._graph = None
        return self, True

    def digest(self) -> str:
        """SHA-256 of the advertisements' encodings in origin order, streamed,
        so taking every anchor's digest does not hold every database's bytes."""
        h = hashlib.sha256()
        for origin in sorted(self.lsas):
            h.update(self.lsas[origin].encode())
        return h.hexdigest()

    def graph(self) -> Mapping[str, tuple[Adjacency, ...]]:
        """Derived digraph of anchors and hosts, read-only and shared by
        every caller until the next accepted advertisement.

        Anchor-to-anchor edges come from each endpoint's own advertisement.
        Hosts never advertise, so they are recognized as neighbors without
        an advertisement of their own and get the mirror edge back to their
        anchor, making them routable leaves.
        """
        if self._graph is None:
            nodes: dict[str, list[Adjacency]] = {origin: [] for origin in self.lsas}
            for origin in sorted(self.lsas):
                for adj in self.lsas[origin].adjacencies:
                    nodes.setdefault(adj.neighbor, [])
                    nodes[origin].append(adj)
                    if adj.neighbor not in self.lsas:
                        nodes[adj.neighbor].append(
                            Adjacency(origin, adj.capacity_mbps, adj.latency_us, adj.domain_id)
                        )
            self._graph = MappingProxyType(
                {name: tuple(sorted(edges)) for name, edges in sorted(nodes.items())}
            )
        return self._graph
