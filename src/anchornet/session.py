"""Reliable multipath transport for overlay sessions.

A sender splits a byte stream into fixed-size segments and paces them over
one or more assigned paths at allocator-granted rates: each path's next
emission slot advances by ceil(bits/rate) per segment, so bytes emitted on
a path over any window never exceed rate x window plus one segment.  Loss
recovery is selective repeat with a per-segment deadline of twice the
smoothed round-trip estimate; expired segments take priority over new data
and, like new data, go to whichever path has the earliest free slot.

Rates are granted, not probed: congestion safety comes from never exceeding
the allocation rather than from loss-driven window dynamics.

The receiver buffers out-of-order arrivals, delivers the maximal in-order
prefix, and acknowledges every data segment with a cumulative floor plus
the exact set of buffered sequence numbers.
"""

from __future__ import annotations

import hashlib
import heapq
import inspect
import struct
from bisect import insort
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .addressing import L3Locator
from .allocator import as_fraction
from .topology import _pstr

SEGMENT_PAYLOAD_BYTES = 8192
RTT_INITIAL_FLOOR_US = 10_000

# session, seq, path, kind, retransmit flag, ack_cum, payload length, SACK count
_HEADER = struct.Struct(">QQIBBQII")


class NoPaths(ValueError):
    """A session cannot open without at least one path."""


class MissingRate(ValueError):
    """Every assigned path needs a positive paced rate."""


class SegmentKind(Enum):
    DATA = 0
    ACK = 1


# The members by plain name: reading one off the Enum class costs a __getattr__ call.
DATA, ACK = SegmentKind.DATA, SegmentKind.ACK


@dataclass(frozen=True, init=False)
class Segment:
    """The L5 protocol data unit.

    ``l3_dest`` always names the locator of the immediately next hop on the
    segment's path -- never a hop beyond it -- which is what keeps the
    substrate's own routing untouched.  For acknowledgements, ``seq`` and
    ``is_retransmit`` echo the data segment being acknowledged.
    """

    session_id: int
    seq: int
    path_id: int
    tag: str
    l3_dest: L3Locator
    payload: bytes = b""
    is_retransmit: bool = False
    kind: SegmentKind = SegmentKind.DATA
    ack_cum: int = 0
    ack_sacks: tuple[int, ...] = ()

    def __init__(
        self, session_id: int, seq: int, path_id: int, tag: str, l3_dest: L3Locator,
        payload: bytes = b"", is_retransmit: bool = False, kind: SegmentKind = DATA,
        ack_cum: int = 0, ack_sacks: tuple[int, ...] = (),
    ) -> None:
        # Straight into __dict__: a generated frozen __init__ calls object.__setattr__ per field.
        if kind is DATA and not payload:
            raise ValueError("data segments must carry a non-empty payload")
        if kind is ACK and payload:
            raise ValueError("control segments carry no payload")
        if len(payload) > SEGMENT_PAYLOAD_BYTES:
            raise ValueError(f"payload exceeds {SEGMENT_PAYLOAD_BYTES} bytes")
        fields = self.__dict__
        fields["session_id"], fields["seq"], fields["path_id"] = session_id, seq, path_id
        fields["tag"], fields["l3_dest"], fields["payload"] = tag, l3_dest, payload
        fields["is_retransmit"], fields["kind"] = is_retransmit, kind
        fields["ack_cum"], fields["ack_sacks"] = ack_cum, ack_sacks

    def header(self) -> bytes:
        """Fixed-layout record of the fields other than ``tag``, ``l3_dest`` and
        the payload bytes.  No hop changes it, so it is computed once and
        :meth:`readdressed` copies keep it."""
        head = self.__dict__.get("_header")
        if head is None:
            sacks = self.ack_sacks
            head = _HEADER.pack(
                self.session_id, self.seq, self.path_id, self.kind is ACK, self.is_retransmit,
                self.ack_cum, len(self.payload), len(sacks),
            )
            if sacks:
                head += struct.pack(f">{len(sacks)}Q", *sacks)
            self.__dict__["_header"] = head
        return head

    def encode(self) -> bytes:
        """Canonical byte form for trace hashing and determinism checks:
        the header record, the tag, the ``l3_dest`` and, for data, the
        payload's SHA-256 in place of the payload itself."""
        return (
            self.header()
            + _pstr(self.tag)
            + locator_bytes(self.l3_dest)
            + (hashlib.sha256(self.payload).digest() if self.payload else b"")
        )

    def readdressed(self, l3_dest: L3Locator) -> "Segment":
        """A copy bound for ``l3_dest``.  Every other field is copied as it
        is, without re-validation: the segment was checked when its source
        built it, and re-addressing changes nothing else."""
        copy = object.__new__(Segment)
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["l3_dest"] = l3_dest
        return copy


# Segment.__init__ writes each field by hand, and header() packs ``kind is ACK`` as the kind.
_INIT_FIELDS = list(inspect.signature(Segment.__init__).parameters)[1:]
assert _INIT_FIELDS == [f.name for f in dataclass_fields(Segment)], _INIT_FIELDS
assert ACK.value == 1


def locator_bytes(locator: L3Locator) -> bytes:
    """Length-prefixed domain and attachment, encoded once per locator."""
    encoded = locator.__dict__.get("_bytes")
    if encoded is None:
        encoded = _pstr(locator.domain_id) + _pstr(locator.attachment_id)
        locator.__dict__["_bytes"] = encoded
    return encoded


@dataclass(frozen=True)
class PathRef:
    """What a session endpoint needs to know about one assigned path."""

    path_id: int
    hops: tuple[str, ...]
    metric_us: int
    first_hop: L3Locator


@dataclass
class PathStats:
    emitted_segments: int = 0
    emitted_bytes: int = 0
    retransmitted_segments: int = 0


class SenderSession:
    """Send side of one reliable stream (or one distribution-tree edge).

    An origin pulls each segment from ``source`` when it first sends it; a
    tree relay is supplied through :meth:`feed` as its upstream hop delivers.
    Either way a segment's payload is held only until it is acknowledged.
    ``start_seq`` lets a sender begin mid-stream: earlier segments are
    treated as already acknowledged and are never requested or sent.
    """

    def __init__(
        self,
        session_id: int,
        tag: str,
        paths: Sequence[PathRef],
        rates_mbps: Mapping[int, "Fraction | float | int"],
        total_bytes: int,
        *,
        source: Optional[Iterator[bytes]] = None,
        start_seq: int = 0,
        now: int = 0,
    ) -> None:
        if not paths:
            raise NoPaths("session opened with an empty path list")
        self.session_id = session_id
        self.tag = tag
        self.total_bytes = total_bytes
        self.total_segments = segment_count(total_bytes)
        self.start_seq = start_seq
        self.send_next = start_seq
        # seq -> payload of each segment supplied and not yet acknowledged.
        self.held: dict[int, bytes] = {}
        self._source = source
        self._fed_next = start_seq

        self.paths: dict[int, PathRef] = {}
        self.rates: dict[int, Fraction] = {}
        self.next_free: dict[int, int] = {}
        self.rtt_estimate_us: dict[int, int] = {}
        self._rtt_sampled: set[int] = set()
        self.stats: dict[int, PathStats] = {}
        self.set_paths(paths, rates_mbps, now)

        # Acknowledged: every seq from start_seq below the floor, and those in ``acked``, all
        # at or above it.  ACKs raise the floor out of order across paths: it only moves up.
        self.acked: set[int] = set()
        self._ack_floor = start_seq
        # seq -> deadline, for segments in flight and for expired ones waiting
        # to go again.  Each has a heap of (deadline, seq), pruned lazily: an
        # entry counts only while its dict still maps seq to that deadline.
        self.retx_deadline: dict[int, int] = {}
        self._retx_ready: dict[int, int] = {}
        self._deadline_heap: list[tuple[int, int]] = []
        self._ready_heap: list[tuple[int, int]] = []
        self._ever_retransmitted: set[int] = set()
        self._last_send: dict[int, int] = {}
        self._scheduled_wakes: set[int] = set()

    # -- stream supply ----------------------------------------------------

    def feed(self, segments: Iterable[bytes]) -> None:
        """Supply the next segment payloads of the stream, in order."""
        for payload in segments:
            self.held[self._fed_next] = payload
            self._fed_next += 1

    def _segment_available(self, seq: int) -> bool:
        return self._source is not None or seq < self._fed_next

    # -- path management --------------------------------------------------

    def set_paths(
        self,
        paths: Sequence[PathRef],
        rates_mbps: Mapping[int, "Fraction | float | int"],
        now: int,
    ) -> None:
        if not paths:
            raise NoPaths("cannot replace path set with an empty one")
        for ref in paths:
            if ref.path_id not in rates_mbps:
                raise MissingRate(f"no rate for path {ref.path_id}")
        self.paths = {p.path_id: p for p in paths}
        for pid, ref in self.paths.items():
            self.next_free.setdefault(pid, now)
            self.rtt_estimate_us.setdefault(
                pid, max(2 * ref.metric_us, RTT_INITIAL_FLOOR_US)
            )
            self.stats.setdefault(pid, PathStats())
        self.set_rates(rates_mbps)

    def set_rates(self, rates_mbps: Mapping[int, "Fraction | float | int"]) -> None:
        """Set the rate of each path named; the other paths keep theirs."""
        for pid, rate in rates_mbps.items():
            rate = as_fraction(rate)
            if rate.numerator <= 0:
                raise MissingRate(f"rate for path {pid} must be positive, got {rate}")
            self.rates[pid] = rate

    # -- scheduling -------------------------------------------------------

    def _take_work(self) -> Optional[tuple[int, bool]]:
        ready, heap = self._retx_ready, self._ready_heap
        while ready:
            deadline, seq = heapq.heappop(heap)
            if ready.get(seq) == deadline:
                del ready[seq]
                return seq, True
        if self.send_next < self.total_segments and self._segment_available(self.send_next):
            seq = self.send_next
            self.send_next += 1
            return seq, False
        return None

    def expire(self, now: int) -> None:
        """Move timed-out in-flight segments onto the retransmission queue."""
        pending, heap = self.retx_deadline, self._deadline_heap
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)
            deadline, seq = entry
            if pending.get(seq) == deadline:
                del pending[seq]
                self._retx_ready[seq] = deadline
                heapq.heappush(self._ready_heap, entry)

    def schedule(self, now: int) -> list[tuple[Segment, int]]:
        """Emit every segment due at this instant.

        Retransmissions go first (oldest deadline, then lowest seq); then new
        data, each assigned to the path with the earliest next-free slot,
        ties broken by lowest path id.  Paths whose slot lies in the future
        emit nothing now; :meth:`next_wake` says when to come back.
        """
        self.expire(now)
        out: list[tuple[Segment, int]] = []
        paths, next_free = self.paths, self.next_free
        while True:
            slot, pid = min(zip(map(next_free.__getitem__, paths), paths))
            if slot > now:
                break
            work = self._take_work()
            if work is None:
                break
            seq, is_retx = work
            payload = self.held.get(seq)
            if payload is None:  # an origin's next new segment
                payload = self.held[seq] = next(self._source)
            segment = Segment(
                self.session_id, seq, pid, self.tag, self.paths[pid].first_hop, payload, is_retx
            )
            rate = self.rates[pid]
            gap = -(-len(payload) * 8 * rate.denominator // rate.numerator)  # ceil(bits / rate)
            next_free[pid] = now + gap
            deadline = now + 2 * self.rtt_estimate_us[pid]
            self.retx_deadline[seq] = deadline
            heapq.heappush(self._deadline_heap, (deadline, seq))
            self._last_send[seq] = now
            st = self.stats[pid]
            st.emitted_segments += 1
            st.emitted_bytes += len(payload)
            if is_retx:
                self._ever_retransmitted.add(seq)
                st.retransmitted_segments += 1
            out.append((segment, now))
        return out

    def next_wake(self, now: int) -> Optional[int]:
        """Earliest future instant at which scheduling could make progress."""
        if self.complete:
            return None
        wake = None
        if self._retx_ready or (self.send_next < self.total_segments
                                and self._segment_available(self.send_next)):
            wake = min(map(self.next_free.__getitem__, self.paths))
        pending, heap = self.retx_deadline, self._deadline_heap
        if pending:
            while pending.get(heap[0][1]) != heap[0][0]:
                heapq.heappop(heap)
            if wake is None or heap[0][0] < wake:
                wake = heap[0][0]
        return None if wake is None else max(wake, now)

    # -- acknowledgement handling ------------------------------------------

    def on_ack(self, ack: Segment, now: int) -> None:
        if ack.session_id != self.session_id:
            raise ValueError(f"ack for session {ack.session_id}, expected {self.session_id}")
        floor, acked = self._ack_floor, self.acked
        newly_sampled = (
            ack.seq >= floor
            and ack.seq not in acked
            and not ack.is_retransmit
            and ack.seq not in self._ever_retransmitted
            and ack.seq in self._last_send
        )
        if newly_sampled:
            sample = now - self._last_send[ack.seq]
            pid = ack.path_id
            if pid in self._rtt_sampled:
                self.rtt_estimate_us[pid] = (7 * self.rtt_estimate_us[pid] + sample) // 8
            else:
                self.rtt_estimate_us[pid] = sample
                self._rtt_sampled.add(pid)
            self.rtt_estimate_us[pid] = max(self.rtt_estimate_us[pid], 1)
        # A SACK list repeats the seqs earlier ACKs covered: only new ones count.
        newly = []
        for seq in (*ack.ack_sacks, ack.seq):
            if seq >= floor and seq not in acked:
                acked.add(seq)
                newly.append(seq)
        if ack.ack_cum > floor:
            for seq in range(floor, ack.ack_cum):
                if seq in acked:
                    acked.discard(seq)
                else:
                    newly.append(seq)
            self._ack_floor = ack.ack_cum
        for seq in newly:
            self.held.pop(seq, None)
            self.retx_deadline.pop(seq, None)
            self._retx_ready.pop(seq, None)
            self._last_send.pop(seq, None)
            self._ever_retransmitted.discard(seq)

    @property
    def complete(self) -> bool:
        return (
            self.send_next >= self.total_segments
            and self._ack_floor + len(self.acked) >= self.total_segments
        )

    # -- wake bookkeeping (used by the event loop) --------------------------

    def claim_wake(self, at: int) -> bool:
        """True if no wake is already scheduled for this instant."""
        if at in self._scheduled_wakes:
            return False
        self._scheduled_wakes.add(at)
        return True

    def release_wake(self, at: int) -> bool:
        """Drop the wake scheduled for ``at``; whether there was one."""
        held = at in self._scheduled_wakes
        self._scheduled_wakes.discard(at)
        return held


class ReceiverSession:
    """Receive side: selective-repeat reordering with prefix delivery.

    The delivered stream is always a contiguous extension from
    ``start_seq``; duplicates are re-acknowledged but never re-delivered.
    """

    def __init__(
        self,
        session_id: int,
        tag: str,
        reverse_hops: Mapping[int, L3Locator],
        total_bytes: int,
        *,
        start_seq: int = 0,
    ) -> None:
        self.session_id = session_id
        self.tag = tag
        self.reverse_hops = dict(reverse_hops)
        self.total_bytes = total_bytes
        self.total_segments = segment_count(total_bytes)
        self.start_seq = start_seq
        self.next_expected = start_seq
        self.buffer: dict[int, bytes] = {}
        # The buffered seqs in ascending order: every ACK's SACK list.
        self._sacks: list[int] = []
        self.delivered_bytes = 0
        self._hash = hashlib.sha256()
        self.last_delivery_us: Optional[int] = None

    def set_reverse_hop(self, path_id: int, locator: L3Locator) -> None:
        self.reverse_hops[path_id] = locator

    def on_receive(self, segment: Segment, now: int) -> tuple[list[bytes], list[Segment]]:
        """Process one data segment; returns (the payloads it newly delivers,
        in stream order, acks)."""
        if segment.session_id != self.session_id:
            raise ValueError(
                f"segment for session {segment.session_id}, expected {self.session_id}"
            )
        if segment.kind is not DATA:
            raise ValueError("receiver got a non-data segment")
        if segment.seq >= self.next_expected and segment.seq not in self.buffer:
            self.buffer[segment.seq] = segment.payload
            insort(self._sacks, segment.seq)
        delivered = []
        while self.next_expected in self.buffer:
            chunk = self.buffer.pop(self.next_expected)
            delivered.append(chunk)
            self.delivered_bytes += len(chunk)
            self._hash.update(chunk)
            self.next_expected += 1
        if delivered:
            del self._sacks[: len(delivered)]
            self.last_delivery_us = now
        ack = Segment(
            self.session_id, segment.seq, segment.path_id, self.tag,
            self.reverse_hops[segment.path_id], is_retransmit=segment.is_retransmit,
            kind=ACK, ack_cum=self.next_expected, ack_sacks=tuple(self._sacks),
        )
        return delivered, [ack]

    @property
    def complete(self) -> bool:
        return self.next_expected >= self.total_segments

    def delivered_digest(self) -> str:
        return self._hash.hexdigest()


def segment_count(total_bytes: int) -> int:
    return (total_bytes + SEGMENT_PAYLOAD_BYTES - 1) // SEGMENT_PAYLOAD_BYTES
