"""Data-aware edge gateway: ephemeral awareness of staged data objects.

A gateway is an anchor that additionally keeps a catalog of named data
objects currently staged at its site, each with a TTL.  The catalog is
awareness, not storage: payloads are built per segment from the object
name, as a sender first needs each one, so two gateways staging the same
name agree on every byte.  Expired entries vanish on touch and on a sweep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .session import SEGMENT_PAYLOAD_BYTES, segment_count
from .topology import TopologyDatabase

SWEEP_INTERVAL_US = 1_000_000


class ObjectUnavailable(LookupError):
    """No gateway currently stages the requested object."""


class PayloadStream:
    """The deterministic payload of a named object, as a value: every reader
    takes its own generator from :meth:`segments`.

    Segment ``seq`` is the SHA-256 of the name's SHA-256 and the 8-byte
    ``seq``, repeated to the segment's length: a pure function of (name,
    seq), so content is independent of event ordering and of the simulation
    seed, and a reader starts at any seq at once.
    """

    def __init__(self, name: str, size: int) -> None:
        self.name, self.size = name, size
        self._key = hashlib.sha256(name.encode()).digest()

    def _segment(self, seq: int) -> bytes:
        length = min(SEGMENT_PAYLOAD_BYTES, self.size - seq * SEGMENT_PAYLOAD_BYTES)
        block = hashlib.sha256(self._key + seq.to_bytes(8, "big")).digest()
        return (block * -(-length // len(block)))[:length]

    def segments(self, start_seq: int = 0) -> Iterator[bytes]:
        """The segments from ``start_seq`` to the end, in order."""
        return map(self._segment, range(start_seq, segment_count(self.size)))

    def hexdigest(self) -> str:
        """SHA-256 of the whole payload."""
        digest = hashlib.sha256()
        for segment in self.segments():
            digest.update(segment)
        return digest.hexdigest()


def synth_payload(name: str, size: int) -> bytes:
    """The whole payload of a named object."""
    return b"".join(PayloadStream(name, size).segments())


@dataclass(frozen=True)
class StagedObject:
    name: str
    size: int
    staged_at_us: int
    ttl_us: int

    def expired(self, now: int) -> bool:
        return now > self.staged_at_us + self.ttl_us


class GatewayCatalog:
    """Mutable per-gateway object catalog, driven by the owning anchor."""

    def __init__(self) -> None:
        self.entries: dict[str, StagedObject] = {}

    def stage(self, name: str, size: int, ttl_us: int, now: int) -> StagedObject:
        """Create or refresh a staged-object entry."""
        if size <= 0:
            raise ValueError(f"object {name!r} size must be positive")
        entry = self.entries[name] = StagedObject(name, size, staged_at_us=now, ttl_us=ttl_us)
        return entry

    def lookup(self, name: str, now: int) -> Optional[StagedObject]:
        """Return the entry iff present and unexpired; purge it on touch
        otherwise.  An entry at exactly staged_at + ttl is still alive."""
        entry = self.entries.get(name)
        if entry is None:
            return None
        if entry.expired(now):
            del self.entries[name]
            return None
        return entry

    def sweep(self, now: int) -> list[str]:
        """Drop every expired entry; returns the purged names."""
        purged = [key for key, entry in sorted(self.entries.items()) if entry.expired(now)]
        for key in purged:
            del self.entries[key]
        return purged

    def __len__(self) -> int:
        return len(self.entries)


def select_source(
    candidates: Sequence[str],
    db: TopologyDatabase,
    requester: str,
) -> str:
    """Pick the staging gateway nearest the requester.

    Nearest means minimal shortest-path latency in the requester's topology
    view; ties break on the lexicographically smallest gateway name.  The
    requester itself is excluded (fetching from yourself is a no-op), and so
    is a gateway that the view does not hold yet: it is unreachable.
    """
    from .pathfinder import k_disjoint_paths

    ranked: list[tuple[int, str]] = []
    graph = db.graph()
    for gw in sorted(set(candidates)):
        if gw == requester or gw not in graph:
            continue
        paths = k_disjoint_paths(db, gw, requester, 1)
        if paths:
            ranked.append((paths[0].metric_us, gw))
    if not ranked:
        raise ObjectUnavailable(f"no reachable source among {sorted(set(candidates))}")
    return min(ranked)[1]
