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
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .addressing import L3Locator
from .topology import _pstr

SEGMENT_PAYLOAD_BYTES = 8192
RTT_INITIAL_FLOOR_US = 10_000

# session, seq, path, kind, retransmit flag, ack_cum, payload length, SACK count
_HEADER = struct.Struct(">QQIBBQII")


class NoPaths(ValueError):
    """A session cannot open without at least one path."""


class MissingRate(ValueError):
    """A granted rate must be positive."""


class SegmentKind(Enum):
    DATA = 0
    ACK = 1


# The members by plain name: reading one off the Enum class costs a __getattr__ call.
DATA, ACK = SegmentKind.DATA, SegmentKind.ACK


@dataclass(frozen=True, init=False)
class Segment:
    """The L5 protocol data unit: one object crosses every hop of its path
    unchanged.  Its L3 destination belongs to each transmission, and names
    only the immediately next hop, which keeps the substrate's own routing
    untouched.  For acknowledgements, ``seq`` and ``is_retransmit`` echo the
    data segment being acknowledged."""

    session_id: int
    seq: int
    path_id: int
    tag: str
    payload: bytes = b""
    is_retransmit: bool = False
    kind: SegmentKind = SegmentKind.DATA
    ack_cum: int = 0
    ack_sacks: tuple[int, ...] = ()

    def __init__(
        self, session_id: int, seq: int, path_id: int, tag: str, payload: bytes = b"", is_retransmit: bool = False,
        kind: SegmentKind = DATA, ack_cum: int = 0, ack_sacks: tuple[int, ...] = (),
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
        fields["tag"], fields["payload"], fields["is_retransmit"] = tag, payload, is_retransmit
        fields["kind"], fields["ack_cum"], fields["ack_sacks"] = kind, ack_cum, ack_sacks

    def header(self) -> bytes:
        """Fixed-layout record of the fields other than ``tag`` and the
        payload bytes."""
        sacks = self.ack_sacks
        head = _HEADER.pack(
            self.session_id, self.seq, self.path_id, self.kind is ACK, self.is_retransmit,
            self.ack_cum, len(self.payload), len(sacks),
        )
        if sacks:
            head += struct.pack(f">{len(sacks)}Q", *sacks)
        return head

    def encode(self, l3_dest: L3Locator) -> bytes:
        """Canonical byte form of one transmission toward ``l3_dest``, for trace hashing
        and determinism checks: the header record, the tag, ``l3_dest`` and, for
        data, the payload's SHA-256 in place of the payload itself."""
        digest = hashlib.sha256(self.payload).digest() if self.payload else b""
        return self.header() + _pstr(self.tag) + locator_bytes(l3_dest) + digest


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


@dataclass(slots=True)
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
    treated as already acknowledged and are never requested or sent.  A path
    is paced only once :meth:`set_rates` has granted it a rate.
    """

    def __init__(
        self,
        session_id: int,
        tag: str,
        paths: Sequence[PathRef],
        total_bytes: int,
        *,
        source: Optional[Iterator[bytes]] = None,
        start_seq: int = 0,
        now: int = 0,
    ) -> None:
        self.session_id = session_id
        self.tag = tag
        self.total_segments = segment_count(total_bytes)
        self.start_seq = start_seq
        self.send_next = start_seq
        # seq -> payload of each segment supplied and not yet acknowledged.
        self.held: dict[int, bytes] = {}
        self._source = source
        self._fed_next = start_seq

        self.paths: dict[int, PathRef] = {}
        self.rates: dict[int, tuple[int, int]] = {}  # path -> its granted Mbit/s, (numerator, denominator)
        self.next_free: dict[int, int] = {}
        self.rtt_estimate_us: dict[int, int] = {}
        self._rtt_sampled: set[int] = set()
        self.stats: dict[int, PathStats] = {}
        self.set_paths(paths, now)

        # Acknowledged: every seq from start_seq below the floor, and those in ``acked``, all
        # at or above it.  ACKs raise the floor out of order across paths: it only moves up.
        self.acked: set[int] = set()
        self._ack_floor = start_seq
        # seq -> deadline, for segments in flight and for expired ones waiting
        # to go again.  In-flight ones have a heap of (deadline, seq), pruned
        # lazily: an entry counts only while ``retx_deadline`` still maps seq to
        # that deadline.  Every deadline lies after the instant it is set, so
        # segments expire in (deadline, seq) order: the ready dict's own order.
        self.retx_deadline: dict[int, int] = {}
        self._retx_ready: dict[int, int] = {}
        self._deadline_heap: list[tuple[int, int]] = []
        # seq -> its original send's time, until it is acknowledged or sent again:
        # Karn's rule, only a segment sent once samples the RTT.
        self._last_send: dict[int, int] = {}
        # The simulator's: the instants of this sender's queued wakes, each queued once.
        self.wakes: set[int] = set()

    # -- stream supply ----------------------------------------------------

    def feed(self, segments: Iterable[bytes]) -> None:
        """Supply the next segment payloads of the stream, in order."""
        held, seq = self.held, self._fed_next
        for payload in segments:
            held[seq] = payload
            seq += 1
        self._fed_next = seq

    # -- path management --------------------------------------------------

    def set_paths(self, paths: Sequence[PathRef], now: int) -> None:
        if not paths:
            raise NoPaths("a session needs at least one path")
        self.paths = {p.path_id: p for p in paths}
        for pid, ref in self.paths.items():
            self.next_free.setdefault(pid, now)
            self.rtt_estimate_us.setdefault(
                pid, max(2 * ref.metric_us, RTT_INITIAL_FLOOR_US)
            )
            self.stats.setdefault(pid, PathStats())

    def set_rates(self, rates_mbps: Mapping[int, tuple[int, int]]) -> None:
        """Grant each path named its rate, a reduced (numerator, denominator)
        pair; the other paths keep theirs."""
        for pid, rate in rates_mbps.items():
            if rate[0] <= 0:
                raise MissingRate(f"rate for path {pid} must be positive, got {rate[0]}/{rate[1]}")
            self.rates[pid] = rate

    # -- scheduling -------------------------------------------------------

    def expire(self, now: int) -> None:
        """Move timed-out in-flight segments onto the retransmission queue."""
        pending, heap = self.retx_deadline, self._deadline_heap
        while heap and heap[0][0] <= now:
            deadline, seq = heapq.heappop(heap)
            if pending.get(seq) == deadline:
                del pending[seq]
                self._retx_ready[seq] = deadline

    def schedule(self, now: int) -> list[Segment]:
        """Emit every segment due at this instant, in emission order.

        Retransmissions go first (oldest deadline, then lowest seq); then new
        data, each assigned to the path with the earliest next-free slot,
        ties broken by lowest path id.  Paths whose slot lies in the future
        emit nothing now; :meth:`next_wake` says when to come back.
        """
        heap = self._deadline_heap
        if heap and heap[0][0] <= now:
            self.expire(now)
        out: list[Segment] = []
        paths, next_free, ready, held, stats = self.paths, self.next_free, self._retx_ready, self.held, self.stats
        pending, last_send, rates, rtt = self.retx_deadline, self._last_send, self.rates, self.rtt_estimate_us
        # New data runs up to the stream's end or, at a relay, to the last segment fed.
        send_next = self.send_next
        end = self.total_segments if self._source is not None else min(self.total_segments, self._fed_next)
        only = next(iter(paths)) if len(paths) == 1 else None
        while True:
            if only is None:
                slot, pid = min(zip(map(next_free.__getitem__, paths), paths))
            else:
                slot, pid = next_free[only], only
            if slot > now:
                break
            if ready:
                seq = next(iter(ready))
                del ready[seq]
                is_retx = True
            elif send_next < end:
                seq, is_retx = send_next, False
                send_next += 1
            else:
                break
            payload = held.get(seq)
            if payload is None:  # an origin's next new segment
                payload = held[seq] = next(self._source)
            out.append(Segment(self.session_id, seq, pid, self.tag, payload, is_retx))
            num, den = rates[pid]
            next_free[pid] = now - (-len(payload) * 8 * den // num)  # plus ceil(bits / rate)
            deadline = pending[seq] = now + 2 * rtt[pid]
            heapq.heappush(heap, (deadline, seq))
            st = stats[pid]
            st.emitted_segments += 1
            st.emitted_bytes += len(payload)
            if is_retx:
                last_send.pop(seq, None)
                st.retransmitted_segments += 1
            else:
                last_send[seq] = now
        self.send_next = send_next
        return out

    def next_wake(self, now: int) -> Optional[int]:
        """Earliest future instant at which scheduling could make progress."""
        send_next, total = self.send_next, self.total_segments
        if send_next >= total and self._ack_floor + len(self.acked) >= total:  # complete
            return None
        wake = None
        if self._retx_ready or send_next < total and (self._source is not None or send_next < self._fed_next):
            wake = min(map(self.next_free.__getitem__, self.paths))
        pending = self.retx_deadline
        if pending:
            heap = self._deadline_heap
            deadline, seq = heap[0]
            while pending.get(seq) != deadline:
                heapq.heappop(heap)
                deadline, seq = heap[0]
            if wake is None or deadline < wake:
                wake = deadline
        return None if wake is None else wake if wake > now else now

    # -- acknowledgement handling ------------------------------------------

    def on_ack(self, ack: Segment, now: int) -> None:
        if ack.session_id != self.session_id:
            raise ValueError(f"ack for session {ack.session_id}, expected {self.session_id}")
        seq, last_send, rtt = ack.seq, self._last_send, self.rtt_estimate_us
        sent = last_send.get(seq)
        if sent is not None:
            sample, pid = now - sent, ack.path_id
            if pid in self._rtt_sampled:
                sample = (7 * rtt[pid] + sample) // 8
            else:
                self._rtt_sampled.add(pid)
            rtt[pid] = sample if sample > 1 else 1
        floor, cum, acked = self._ack_floor, ack.ack_cum, self.acked
        held, pending, ready = self.held, self.retx_deadline, self._retx_ready
        # Newly acknowledged: a seq at or above the new floor that is not in ``acked`` yet (a SACK
        # list repeats the seqs earlier ACKs covered), and a seq below it that never was.
        top = cum if cum > floor else floor
        for seq in (*ack.ack_sacks, seq):
            if seq >= top and seq not in acked:
                acked.add(seq)
                held.pop(seq, None)
                pending.pop(seq, None)
                ready.pop(seq, None)
                last_send.pop(seq, None)
        if cum > floor:
            for seq in range(floor, cum):
                if seq in acked:
                    acked.remove(seq)
                else:
                    held.pop(seq, None)
                    pending.pop(seq, None)
                    ready.pop(seq, None)
                    last_send.pop(seq, None)
            self._ack_floor = cum

    @property
    def complete(self) -> bool:
        return self.send_next >= self.total_segments and self._ack_floor + len(self.acked) >= self.total_segments

    def ended(self) -> EndedSender:
        return EndedSender(self.stats, self.rates, self.start_seq, self.send_next, self.complete)


@dataclass(frozen=True, slots=True, eq=False)
class EndedSender:
    """What is kept of a sender once its transfer or tree edge has ended: the
    report's figures, and ``send_next`` for a graft at the publisher."""

    stats: dict[int, PathStats]
    rates: dict[int, tuple[int, int]]
    start_seq: int
    send_next: int
    complete: bool


class ReceiverSession:
    """Receive side: selective-repeat reordering with prefix delivery.

    The delivered stream is always a contiguous extension from
    ``start_seq``; duplicates are re-acknowledged but never re-delivered, so
    once complete it answers each with the same final ACK: the segment count
    as floor, and no SACKs.
    ``reverse_hops`` maps each path to the hop its ACKs go back to: that
    hop's name and the locator of the leg to it.
    """

    def __init__(
        self,
        session_id: int,
        tag: str,
        reverse_hops: Mapping[int, tuple[str, L3Locator]],
        total_bytes: int,
        *,
        start_seq: int = 0,
    ) -> None:
        self.session_id = session_id
        self.tag = tag
        self.reverse_hops = dict(reverse_hops)
        self.total_segments = segment_count(total_bytes)
        self.start_seq = start_seq
        self.next_expected = start_seq
        self.buffer: dict[int, bytes] = {}
        # The buffered seqs in ascending order: every ACK's SACK list.
        self._sacks: list[int] = []
        self.delivered_bytes = 0
        self._hash = hashlib.sha256()
        self.last_delivery_us: Optional[int] = None

    def on_receive(self, segment: Segment, now: int) -> tuple[list[bytes], Segment]:
        """Process one data segment; returns (the payloads it newly delivers,
        in stream order, its ack)."""
        if segment.session_id != self.session_id:
            raise ValueError(f"segment for session {segment.session_id}, expected {self.session_id}")
        if segment.kind is not DATA:
            raise ValueError("receiver got a non-data segment")
        seq, expected, buffer, sacks = segment.seq, self.next_expected, self.buffer, self._sacks
        delivered = []
        if seq == expected:  # it goes out now, with the run of buffered seqs after it
            delivered.append(segment.payload)
            expected += 1
            while expected in buffer:
                delivered.append(buffer.pop(expected))
                expected += 1
            del sacks[: len(delivered) - 1]
            for chunk in delivered:
                self._hash.update(chunk)
                self.delivered_bytes += len(chunk)
            self.next_expected, self.last_delivery_us = expected, now
        elif seq > expected and seq not in buffer:
            buffer[seq] = segment.payload
            insort(sacks, seq)
        return delivered, Segment(self.session_id, seq, segment.path_id, self.tag, b"", segment.is_retransmit, ACK,
                                  expected, tuple(sacks))

    @property
    def complete(self) -> bool:
        return self.next_expected >= self.total_segments

    def delivered_digest(self) -> str:
        return self._hash.hexdigest()


def segment_count(total_bytes: int) -> int:
    return (total_bytes + SEGMENT_PAYLOAD_BYTES - 1) // SEGMENT_PAYLOAD_BYTES
