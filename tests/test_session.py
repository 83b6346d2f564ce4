import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anchornet.addressing import L3Locator
from anchornet.session import (
    SEGMENT_PAYLOAD_BYTES,
    MissingRate,
    NoPaths,
    PathRef,
    ReceiverSession,
    Segment,
    SegmentKind,
    SenderSession,
)
from oracles import acked_seqs, paced_within_rate

HOP_A = L3Locator("net", "pa")
HOP_B = L3Locator("net", "pb")
BACK = ("mid", HOP_B)  # a receiver's reverse hop: the hop before it, and the locator of the leg there


def ref(pid, metric=100, hop=HOP_A):
    return PathRef(pid, (f"src-{pid}", f"mid-{pid}", "dst"), metric, hop)


def chunks(stream):
    """A sender's source: ``stream`` cut into segment payloads."""
    return iter([stream[lo:lo + SEGMENT_PAYLOAD_BYTES]
                 for lo in range(0, len(stream), SEGMENT_PAYLOAD_BYTES)])


def granted(sender, rates):
    """``sender`` with each path's rate in ``rates``, whole Mbit/s, granted as
    the allocator grants it: a (numerator, denominator) pair."""
    sender.set_rates({pid: (rate, 1) for pid, rate in rates.items()})
    return sender


def make_sender(n_paths=1, rates=None, total=10 * SEGMENT_PAYLOAD_BYTES, payload=None):
    paths = [ref(i) for i in range(n_paths)]
    rates = rates or {i: 8 for i in range(n_paths)}
    payload = payload if payload is not None else bytes(total)
    return granted(SenderSession(1, "atlas", paths, total, source=chunks(payload), now=0), rates)


def drive(sender, until=10_000_000):
    """Run the sender against a perfect zero-loss instant-ack channel."""
    emissions = []
    now = 0
    while not sender.complete and now <= until:
        for segment in sender.schedule(now):
            emissions.append((now, segment))
            ack = Segment(
                session_id=1, seq=segment.seq, path_id=segment.path_id, tag="atlas",
                kind=SegmentKind.ACK, is_retransmit=segment.is_retransmit,
                ack_cum=segment.seq + 1, ack_sacks=(),
            )
            sender.on_ack(ack, now + 1)
        nxt = sender.next_wake(now)
        if nxt is None:
            break
        now = max(nxt, now + 1)
    return emissions


def test_open_requires_paths():
    with pytest.raises(NoPaths):
        SenderSession(1, "atlas", [], 100)


@pytest.mark.parametrize("rate", [(0, 1), (-8, 1)])
def test_set_rates_rejects_a_grant_that_is_not_positive(rate):
    sender = make_sender(n_paths=2)
    with pytest.raises(MissingRate):
        sender.set_rates({1: rate})
    assert sender.rates == {0: (8, 1), 1: (8, 1)}


def test_two_paths_construct():
    sender = SenderSession(1, "atlas", [ref(0), ref(1)], 100, source=chunks(b"x" * 100))
    assert set(sender.paths) == {0, 1} and sender.rates == {}


def test_pacing_gap_matches_rate():
    # 8192-byte segments at 8 Mbps: 8192*8 bits / 8 bits-per-us = 8192 us apart
    sender = make_sender(n_paths=1, rates={0: 8}, total=4 * SEGMENT_PAYLOAD_BYTES)
    emissions = drive(sender)
    times = [t for t, _ in emissions]
    assert times == [0, 8192, 16384, 24576]


def test_pacing_against_token_bucket_oracle():
    for rate in (3, 8, 50, 97):
        sender = make_sender(n_paths=1, rates={0: rate}, total=20 * SEGMENT_PAYLOAD_BYTES)
        emissions = drive(sender)
        stream = [(t, len(s.payload)) for t, s in emissions]
        assert paced_within_rate(stream, rate, SEGMENT_PAYLOAD_BYTES)


def test_equal_idle_paths_tie_break_lowest_pid():
    sender = make_sender(n_paths=2, rates={0: 8, 1: 8}, total=2 * SEGMENT_PAYLOAD_BYTES)
    out = sender.schedule(0)
    assert [(s.seq, s.path_id) for s in out] == [(0, 0), (1, 1)]


def test_new_data_goes_to_earliest_free_slot():
    sender = make_sender(n_paths=2, rates={0: 80, 1: 8}, total=6 * SEGMENT_PAYLOAD_BYTES)
    emitted = []
    now = 0
    while True:
        for segment in sender.schedule(now):
            emitted.append((now, segment.path_id, segment.seq))
        nxt = sender.next_wake(now)
        if nxt is None or len(emitted) >= 6:
            break
        now = nxt
    # path 0 is ten times faster, so it should carry most segments
    by_path = {0: 0, 1: 0}
    for _, pid, _ in emitted:
        by_path[pid] += 1
    assert by_path[0] > by_path[1] >= 1


def test_expired_retransmit_takes_priority_over_new_data():
    sender = make_sender(n_paths=1, rates={0: 8}, total=4 * SEGMENT_PAYLOAD_BYTES)
    (first,) = sender.schedule(0)
    assert first.seq == 0 and not first.is_retransmit
    deadline = sender.retx_deadline[0]
    out = sender.schedule(deadline + 8192)
    assert out, "expired segment plus pending new data should emit"
    segment = out[0]
    assert segment.seq == 0 and segment.is_retransmit


def test_ack_removes_from_retransmit_queue():
    sender = make_sender(n_paths=1, rates={0: 8}, total=2 * SEGMENT_PAYLOAD_BYTES)
    sender.schedule(0)
    assert 0 in sender.retx_deadline
    ack = Segment(1, 0, 0, "atlas", kind=SegmentKind.ACK, ack_cum=1)
    sender.on_ack(ack, 500)
    assert 0 not in sender.retx_deadline
    assert 0 in acked_seqs(sender)


def test_duplicate_ack_is_idempotent():
    sender = make_sender(n_paths=1, rates={0: 8}, total=2 * SEGMENT_PAYLOAD_BYTES)
    sender.schedule(0)
    ack = Segment(1, 0, 0, "atlas", kind=SegmentKind.ACK, ack_cum=1)
    sender.on_ack(ack, 500)
    state = (acked_seqs(sender), dict(sender.retx_deadline), dict(sender.rtt_estimate_us))
    sender.on_ack(ack, 900)
    assert state == (acked_seqs(sender), dict(sender.retx_deadline), dict(sender.rtt_estimate_us))


def test_rtt_smoothing_seven_eighths():
    sender = make_sender(n_paths=1, rates={0: 8}, total=4 * SEGMENT_PAYLOAD_BYTES)
    (s0,) = sender.schedule(0)
    ack0 = Segment(1, 0, 0, "atlas", kind=SegmentKind.ACK, ack_cum=1)
    sender.on_ack(ack0, 1000)  # first sample initializes
    assert sender.rtt_estimate_us[0] == 1000
    (s1,) = sender.schedule(8192)
    ack1 = Segment(1, 1, 0, "atlas", kind=SegmentKind.ACK, ack_cum=2)
    sender.on_ack(ack1, 8192 + 2000)
    assert sender.rtt_estimate_us[0] == (7 * 1000 + 2000) // 8 == 1125


def test_retransmitted_seq_never_samples_rtt():
    sender = make_sender(n_paths=1, rates={0: 8}, total=SEGMENT_PAYLOAD_BYTES)
    sender.schedule(0)
    deadline = sender.retx_deadline[0]
    sender.schedule(deadline + 10)  # retransmit seq 0
    assert 0 not in sender._last_send
    ack = Segment(1, 0, 0, "atlas", kind=SegmentKind.ACK, is_retransmit=True, ack_cum=1)
    before = dict(sender.rtt_estimate_us)
    sender.on_ack(ack, deadline + 500)
    assert sender.rtt_estimate_us == before


def test_acknowledged_seqs_leave_the_rtt_bookkeeping():
    """Send times are read only for seqs not yet acknowledged: once every
    send is acknowledged, none is held."""
    total = 5 * SEGMENT_PAYLOAD_BYTES
    sender = make_sender(n_paths=2, rates={0: 8, 1: 8}, total=total)
    rx = ReceiverSession(1, "atlas", {0: BACK, 1: BACK}, total)
    retransmitted = []
    now = 0
    while not sender.complete and now < 10_000_000:
        for segment in sender.schedule(now):
            if segment.is_retransmit:
                retransmitted.append(segment.seq)
            elif segment.seq == 1:
                continue  # the first copy of seq 1 is lost
            sender.on_ack(rx.on_receive(segment, now)[1], now + 1)
        now = max(sender.next_wake(now) or now, now + 1)
    assert sender.complete and retransmitted == [1]
    assert sender._last_send == {}


def test_retransmit_deadline_is_twice_rtt_estimate():
    sender = make_sender(n_paths=1, rates={0: 8}, total=2 * SEGMENT_PAYLOAD_BYTES)
    (s0,) = sender.schedule(0)
    assert sender.retx_deadline[0] == 2 * sender.rtt_estimate_us[0]  # sent at 0


def make_receiver(total=3 * SEGMENT_PAYLOAD_BYTES):
    return ReceiverSession(1, "atlas", {0: BACK}, total)


def seg(seq, payload=None, pid=0):
    return Segment(1, seq, pid, "atlas", payload or bytes([seq % 251]) * SEGMENT_PAYLOAD_BYTES)


def test_reorder_buffer_delivers_prefix():
    rx = make_receiver()
    d0, _ = rx.on_receive(seg(0), 10)
    d2, _ = rx.on_receive(seg(2), 20)
    d1, _ = rx.on_receive(seg(1), 30)
    assert [len(p) for p in d0] == [SEGMENT_PAYLOAD_BYTES]
    assert d2 == []
    assert d1 == [seg(1).payload, seg(2).payload]
    assert rx.complete


def test_duplicate_not_redelivered_but_reacked():
    rx = make_receiver()
    d_first, ack_first = rx.on_receive(seg(0), 10)
    d_dup, ack_dup = rx.on_receive(seg(0), 20)
    assert d_first and not d_dup
    assert ack_dup.ack_cum == 1


def test_ack_carries_cumulative_and_selective_state():
    rx = make_receiver()
    _, ack = rx.on_receive(seg(2), 10)
    assert ack.ack_cum == 0
    assert ack.ack_sacks == (2,)
    assert ack.kind is SegmentKind.ACK and ack.payload == b""


def test_delivered_stream_matches_hash():
    total = 5 * SEGMENT_PAYLOAD_BYTES + 17
    payload = bytes(range(256)) * (total // 256 + 1)
    payload = payload[:total]
    sender = make_sender(n_paths=2, rates={0: 40, 1: 40}, total=total, payload=payload)
    rx = ReceiverSession(1, "atlas", {0: BACK, 1: BACK}, total)
    now = 0
    while not sender.complete:
        for segment in sender.schedule(now):
            _, ack = rx.on_receive(segment, now + 5)
            sender.on_ack(ack, now + 9)
        nxt = sender.next_wake(now)
        if nxt is None:
            break
        now = max(nxt, now + 1)
    assert rx.complete
    assert rx.delivered_digest() == hashlib.sha256(payload).hexdigest()


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(7))))
def test_delivery_is_prefix_of_stream_for_any_arrival_order(order):
    total = 7 * SEGMENT_PAYLOAD_BYTES
    stream = bytes(range(7)) * SEGMENT_PAYLOAD_BYTES
    stream = b"".join(bytes([i]) * SEGMENT_PAYLOAD_BYTES for i in range(7))
    rx = ReceiverSession(1, "atlas", {0: BACK}, total)
    got = bytearray()
    for seq in order:
        delivered, _ = rx.on_receive(
            Segment(1, seq, 0, "atlas", bytes([seq]) * SEGMENT_PAYLOAD_BYTES), 10
        )
        got.extend(b"".join(delivered))
        assert stream.startswith(bytes(got))
    assert bytes(got) == stream


def test_sacks_match_sorted_buffer_rule_under_random_arrivals_with_duplicates():
    for seed in range(60):
        rng = random.Random(seed)
        start, n = rng.choice([0, 3]), rng.randint(1, 40)
        rx = ReceiverSession(1, "atlas", {0: BACK}, (start + n) * SEGMENT_PAYLOAD_BYTES,
                             start_seq=start)
        arrivals = [seq for seq in range(start, start + n) for _ in range(rng.randint(1, 3))]
        rng.shuffle(arrivals)
        buffered, floor, got = set(), start, []
        for seq in arrivals:
            delivered, ack = rx.on_receive(seg(seq), 0)
            got.extend(delivered)
            # The rule as first written: buffer what lies at or above the
            # floor, deliver the prefix, SACK the sorted remainder.
            if seq >= floor:
                buffered.add(seq)
            while floor in buffered:
                buffered.remove(floor)
                floor += 1
            assert (ack.ack_cum, ack.ack_sacks) == (floor, tuple(sorted(buffered))), seed
        assert rx.complete
        assert got == [seg(seq).payload for seq in range(start, start + n)]
        # Complete, it answers a late duplicate of any seq with the final ACK
        # and delivers, buffers and counts nothing more.
        kept = rx.delivered_bytes, rx.delivered_digest(), rx.last_delivery_us
        for seq in range(start, start + n):
            delivered, ack = rx.on_receive(seg(seq), 1)
            assert (delivered, ack.seq, ack.ack_cum, ack.ack_sacks) == ([], seq, start + n, ()), seed
            assert (rx.delivered_bytes, rx.delivered_digest(), rx.last_delivery_us) == kept


def test_mid_stream_start_seq():
    total = 6 * SEGMENT_PAYLOAD_BYTES
    stream = b"".join(bytes([i]) * SEGMENT_PAYLOAD_BYTES for i in range(6))
    sender = granted(SenderSession(
        1, "atlas", [ref(0)], total, source=chunks(stream[3 * SEGMENT_PAYLOAD_BYTES:]), start_seq=3, now=0,
    ), {0: 80})
    rx = ReceiverSession(1, "atlas", {0: BACK}, total, start_seq=3)
    now = 0
    while not sender.complete:
        for segment in sender.schedule(now):
            assert segment.seq >= 3
            _, ack = rx.on_receive(segment, now + 1)
            sender.on_ack(ack, now + 2)
        nxt = sender.next_wake(now)
        if nxt is None:
            break
        now = max(nxt, now + 1)
    assert rx.complete
    assert rx.delivered_bytes == 3 * SEGMENT_PAYLOAD_BYTES
    assert rx.delivered_digest() == hashlib.sha256(stream[3 * SEGMENT_PAYLOAD_BYTES:]).hexdigest()


def _on_ack_rebuilding_range(sender, ack, now):
    """The ACK rule as first written, kept as the reference: the whole
    cumulative range from ``start_seq`` is rebuilt on every ACK.  It keeps
    every acknowledged seq in ``acked`` and leaves the floor at ``start_seq``,
    so ``acked_seqs`` reads it and the sender under test alike."""
    if ack.seq not in sender.acked and ack.seq in sender._last_send:
        sample = now - sender._last_send[ack.seq]
        pid = ack.path_id
        if pid in sender._rtt_sampled:
            sender.rtt_estimate_us[pid] = (7 * sender.rtt_estimate_us[pid] + sample) // 8
        else:
            sender.rtt_estimate_us[pid] = sample
            sender._rtt_sampled.add(pid)
        sender.rtt_estimate_us[pid] = max(sender.rtt_estimate_us[pid], 1)
    acked = set(range(sender.start_seq, ack.ack_cum)) | set(ack.ack_sacks) | {ack.seq}
    for seq in acked:
        sender.acked.add(seq)
        sender.retx_deadline.pop(seq, None)
        sender._retx_ready.pop(seq, None)


def test_ack_floor_matches_rebuilt_range_under_reordering_and_loss():
    stale_cums = 0
    for seed in range(40):
        rng = random.Random(seed)
        start = rng.choice([0, 2, 5])
        total = (start + rng.randint(1, 25)) * SEGMENT_PAYLOAD_BYTES - rng.randrange(100)
        stream = rng.randbytes(total)
        n_paths = rng.randint(1, 3)
        rates = {pid: rng.choice([40, 80, 200]) for pid in range(n_paths)}

        def open_sender():
            return granted(SenderSession(
                1, "atlas", [ref(pid) for pid in range(n_paths)], total,
                source=chunks(stream[start * SEGMENT_PAYLOAD_BYTES:]), start_seq=start, now=0,
            ), rates)

        fast, slow = open_sender(), open_sender()
        rx = ReceiverSession(1, "atlas", {pid: BACK for pid in range(n_paths)}, total,
                             start_seq=start)
        data, acks = [], []
        now = 0
        while not fast.complete and now < 10_000_000:
            emitted = fast.schedule(now)
            assert emitted == slow.schedule(now)
            data.extend(seg for seg in emitted if rng.random() > 0.2)
            for _ in range(rng.randint(0, len(data))):
                acks.append(rx.on_receive(data.pop(rng.randrange(len(data))), now)[1])
            for _ in range(rng.randint(0, len(acks))):
                ack = acks.pop(rng.randrange(len(acks)))
                if rng.random() < 0.1:
                    continue
                stale_cums += ack.ack_cum < fast._ack_floor
                fast.on_ack(ack, now)
                _on_ack_rebuilding_range(slow, ack, now)
                assert acked_seqs(fast) == acked_seqs(slow)
                assert fast.retx_deadline == slow.retx_deadline
                assert fast.complete == slow.complete
            now += rng.randint(1, 4000)
        assert fast.complete, seed
    # ACKs taking different paths overtake each other, so some carry a
    # cumulative floor below one the sender has already applied.
    assert stale_cums > 0


def test_segment_payload_bounds():
    with pytest.raises(ValueError):
        Segment(1, 0, 0, "t", b"")
    with pytest.raises(ValueError):
        Segment(1, 0, 0, "t", b"x" * (SEGMENT_PAYLOAD_BYTES + 1))
    with pytest.raises(ValueError):
        Segment(1, 0, 0, "t", b"x", kind=SegmentKind.ACK)


def test_segment_encoding_round_trip_stability():
    s = Segment(7, 3, 1, "cms", b"abc", ack_cum=0)
    assert s.encode(HOP_A) == s.encode(HOP_A)
    s2 = Segment(7, 3, 1, "cms", b"abd", ack_cum=0)
    assert s.encode(HOP_A) != s2.encode(HOP_A)
    assert s.encode(HOP_A) != s.encode(HOP_B)


@pytest.mark.parametrize(
    "segment",
    [
        Segment(7, 3, 1, "cms", b"abc"),
        Segment(7, 3, 1, "cms", b"abc", is_retransmit=True),
        Segment(7, 3, 1, "cms", kind=SegmentKind.ACK, ack_cum=2, ack_sacks=(4, 6)),
    ],
    ids=["data", "retransmit", "ack-with-sacks"],
)
def test_readdressed_equals_replace_and_leaves_original(segment):
    """Re-addressing a transmission changes only its locator: the record of
    a segment whose header is already cached, sent toward another hop, is the
    record of an equal segment built afresh, and the segment is unchanged."""
    before = dataclasses.astuple(segment)
    segment.encode(HOP_A)  # a cached header must not go stale for the next hop
    fresh = dataclasses.replace(segment)
    assert fresh == segment
    assert segment.header() == fresh.header()
    assert segment.encode(HOP_B) == fresh.encode(HOP_B)
    assert segment.encode(HOP_B) != segment.encode(HOP_A)
    assert dataclasses.astuple(segment) == before


def test_encode_digests_the_payload():
    s = Segment(7, 3, 1, "cms", b"abc" * 1000)
    assert s.encode(HOP_A).endswith(hashlib.sha256(s.payload).digest())
    assert len(s.encode(HOP_A)) < len(s.payload)


class _SortAndMinSender(SenderSession):
    """The retransmit rule as first written, kept as the reference: ``expire``
    sorts every deadline, and ``schedule`` and ``next_wake`` scan with
    ``min``.  It keeps no deadline heap."""

    def _has_new(self):
        return self.send_next < self.total_segments and (self._source is not None or self.send_next < self._fed_next)

    def schedule(self, now):
        self.expire(now)
        out = []
        while True:
            slot, pid = min((self.next_free[pid], pid) for pid in self.paths)
            if slot > now:
                break
            if self._retx_ready:
                seq = min(self._retx_ready, key=lambda s: (self._retx_ready[s], s))
                del self._retx_ready[seq]
                is_retx = True
            elif self._has_new():
                seq, is_retx = self.send_next, False
                self.send_next += 1
            else:
                break
            if seq not in self.held:
                self.held[seq] = next(self._source)
            payload = self.held[seq]
            num, den = self.rates[pid]
            self.next_free[pid] = now + math.ceil(Fraction(len(payload) * 8 * den, num))
            self.retx_deadline[seq] = now + 2 * self.rtt_estimate_us[pid]
            path_stats = self.stats[pid]
            path_stats.emitted_segments += 1
            path_stats.emitted_bytes += len(payload)
            if is_retx:
                path_stats.retransmitted_segments += 1
                self._last_send.pop(seq, None)
            else:
                self._last_send[seq] = now
            out.append(Segment(self.session_id, seq, pid, self.tag, payload, is_retx))
        return out

    def expire(self, now):
        for seq, deadline in sorted(self.retx_deadline.items()):
            if deadline <= now:
                del self.retx_deadline[seq]
                self._retx_ready[seq] = deadline

    def next_wake(self, now):
        if self.complete:
            return None
        candidates = []
        if self._retx_ready or self._has_new():
            candidates.append(min(self.next_free[pid] for pid in self.paths))
        if self.retx_deadline:
            candidates.append(min(self.retx_deadline.values()))
        if not candidates:
            return None
        return max(min(candidates), now)


def test_retransmit_heaps_match_sort_and_min_rule_on_lossy_multipath_runs():
    retransmits = batched = 0
    for seed in range(40):
        rng = random.Random(seed)
        total = rng.randint(1, 30) * SEGMENT_PAYLOAD_BYTES - rng.randrange(100)
        stream = rng.randbytes(total)
        n_paths = rng.randint(1, 3)
        paths = [ref(pid, metric=rng.choice([50, 100, 400])) for pid in range(n_paths)]
        rates = {pid: rng.choice([40, 80, 200]) for pid in range(n_paths)}
        fast = granted(SenderSession(1, "atlas", paths, total, source=chunks(stream), now=0), rates)
        slow = granted(_SortAndMinSender(1, "atlas", paths, total, source=chunks(stream), now=0), rates)
        rx = ReceiverSession(1, "atlas", {pid: BACK for pid in range(n_paths)}, total)
        data, acks = [], []
        now = 0
        while not fast.complete and now < 20_000_000:
            emitted = fast.schedule(now)
            assert emitted == slow.schedule(now), seed
            retx = sum(seg.is_retransmit for seg in emitted)
            retransmits += retx
            batched += retx > 1
            data.extend(seg for seg in emitted if rng.random() > 0.3)
            for _ in range(rng.randint(0, len(data))):
                acks.append(rx.on_receive(data.pop(rng.randrange(len(data))), now)[1])
            for _ in range(rng.randint(0, len(acks))):
                ack = acks.pop(rng.randrange(len(acks)))
                if rng.random() < 0.2:
                    continue
                fast.on_ack(ack, now)
                slow.on_ack(ack, now)
            wake = fast.next_wake(now)
            assert wake == slow.next_wake(now), seed
            step = rng.randint(1, 30_000)
            now = max(wake, now + 1) if wake is not None and rng.random() < 0.5 else now + step
        assert fast.complete, seed
        assert fast.retx_deadline == slow.retx_deadline and fast._retx_ready == slow._retx_ready
        # the same gaps, per-path counts and Karn samples
        assert fast.next_free == slow.next_free and fast.stats == slow.stats, seed
        assert fast.rtt_estimate_us == slow.rtt_estimate_us and fast._last_send == slow._last_send, seed
    # Expiries happened, and several expired segments competed for one instant.
    assert retransmits > 100 and batched > 10
