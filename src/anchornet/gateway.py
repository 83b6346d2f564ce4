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
from typing import Optional, Sequence

from .addressing import AddressKind, L5Address
from .session import SEGMENT_PAYLOAD_BYTES, segment_count
from .topology import TopologyDatabase

SWEEP_INTERVAL_US = 1_000_000


class NotDataName(ValueError):
    """Only data-kind names can be staged."""


class ObjectUnavailable(LookupError):
    """No gateway currently stages the requested object."""


class PayloadStream:
    """The deterministic payload of a named object, one segment at a time
    from segment ``start_seq`` on, hashed as it is taken.

    Segment ``seq`` is the SHA-256 of the name's SHA-256 and the 8-byte
    ``seq``, repeated to the segment's length: a pure function of (name,
    seq), so content is independent of event ordering and of the simulation
    seed, and a stream starts at any seq at once.
    """

    def __init__(self, name: str, size: int, start_seq: int = 0) -> None:
        self.name, self.size, self.seq = name, size, start_seq
        self._key = hashlib.sha256(name.encode()).digest()
        self._sha256 = hashlib.sha256()

    def __iter__(self) -> "PayloadStream":
        return self

    def __next__(self) -> bytes:
        lo = self.seq * SEGMENT_PAYLOAD_BYTES
        if lo >= self.size:
            raise StopIteration
        length = min(SEGMENT_PAYLOAD_BYTES, self.size - lo)
        block = hashlib.sha256(self._key + self.seq.to_bytes(8, "big")).digest()
        segment = (block * -(-length // len(block)))[:length]
        self._sha256.update(segment)
        self.seq += 1
        return segment

    def hexdigest(self) -> str:
        """SHA-256 of the stream to its end.  Segments not yet taken are
        generated by a second stream, and stay to be taken from this one."""
        digest = self._sha256.copy()
        if self.seq < segment_count(self.size):
            for segment in PayloadStream(self.name, self.size, self.seq):
                digest.update(segment)
        return digest.hexdigest()


def synth_payload(name: str, size: int) -> bytes:
    """The whole payload of a named object."""
    return b"".join(PayloadStream(name, size))


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

    def stage(self, name: L5Address, size: int, ttl_us: int, now: int) -> StagedObject:
        """Create or refresh a staged-object entry."""
        if name.kind is not AddressKind.DATA:
            raise NotDataName(f"{name.canonical!r} is an endpoint name, not a data name")
        if size <= 0:
            raise ValueError(f"object {name.canonical!r} size must be positive")
        entry = StagedObject(
            name=name.canonical,
            size=size,
            staged_at_us=now,
            ttl_us=ttl_us,
        )
        self.entries[name.canonical] = entry
        return entry

    def lookup(self, name: "L5Address | str", now: int) -> Optional[StagedObject]:
        """Return the entry iff present and unexpired; purge it on touch
        otherwise.  An entry at exactly staged_at + ttl is still alive."""
        key = name.canonical if isinstance(name, L5Address) else name
        entry = self.entries.get(key)
        if entry is None:
            return None
        if entry.expired(now):
            del self.entries[key]
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
    requester itself is excluded (fetching from yourself is a no-op).
    """
    from .pathfinder import k_disjoint_paths

    ranked: list[tuple[int, str]] = []
    for gw in sorted(set(candidates)):
        if gw == requester:
            continue
        paths = k_disjoint_paths(db, gw, requester, 1)
        if paths:
            ranked.append((paths[0].metric_us, gw))
    if not ranked:
        raise ObjectUnavailable(f"no reachable source among {sorted(set(candidates))}")
    return min(ranked)[1]
