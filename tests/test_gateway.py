import hashlib
import time

import pytest

from anchornet.gateway import (
    GatewayCatalog,
    ObjectUnavailable,
    PayloadStream,
    select_source,
    synth_payload,
)
from anchornet.session import SEGMENT_PAYLOAD_BYTES
from oracles import db_from_edges

OBJ = "cms.dataset.run42"


def test_stage_then_lookup():
    catalog = GatewayCatalog()
    entry = catalog.stage(OBJ, 4096, ttl_us=1000, now=50)
    assert catalog.lookup(OBJ, 51) is entry


def test_stage_rejects_an_object_of_no_bytes():
    catalog = GatewayCatalog()
    for size in (0, -1):
        with pytest.raises(ValueError, match="size must be positive"):
            catalog.stage(OBJ, size, 1000, 0)
    assert len(catalog) == 0


def test_ttl_boundary_is_strict():
    catalog = GatewayCatalog()
    catalog.stage(OBJ, 100, ttl_us=100, now=1000)
    assert catalog.lookup(OBJ, 1100) is not None  # exactly at staged_at + ttl
    assert catalog.lookup(OBJ, 1101) is None      # one tick past
    assert len(catalog) == 0                      # purged on touch


def test_lookup_unknown_is_absent_not_error():
    assert GatewayCatalog().lookup(OBJ, 0) is None


def test_sweep_purges_expired():
    catalog = GatewayCatalog()
    catalog.stage(OBJ, 100, ttl_us=100, now=0)
    catalog.stage("cms.dataset.run43", 100, ttl_us=10_000_000, now=0)
    purged = catalog.sweep(now=1_000_000)
    assert purged == [OBJ]
    assert len(catalog) == 1


def test_restage_refreshes_clock():
    catalog = GatewayCatalog()
    catalog.stage(OBJ, 100, ttl_us=100, now=0)
    catalog.stage(OBJ, 100, ttl_us=100, now=90)
    assert catalog.lookup(OBJ, 150) is not None


def test_payload_is_deterministic_per_name():
    a = synth_payload("cms.dataset.run42", 2048)
    b = synth_payload("cms.dataset.run42", 2048)
    c = synth_payload("cms.dataset.run43", 2048)
    assert a == b
    assert a != c
    assert len(a) == 2048


SIZES = [1, 3, 8191, 8192, 8193, 3 * 8192 + 5]


@pytest.mark.parametrize("size", SIZES)
def test_stream_segments_join_to_the_synthesized_payload(size):
    segments = list(PayloadStream("cms.dataset.run42", size).segments())
    assert all(len(s) == SEGMENT_PAYLOAD_BYTES for s in segments[:-1])
    assert 0 < len(segments[-1]) <= SEGMENT_PAYLOAD_BYTES
    assert b"".join(segments) == synth_payload("cms.dataset.run42", size)


@pytest.mark.parametrize("size", SIZES)
def test_stream_from_start_seq_is_the_matching_tail(size):
    stream = PayloadStream("cms.dataset.run42", size)
    whole = list(stream.segments())
    for start in range(size // SEGMENT_PAYLOAD_BYTES + 2):
        assert list(stream.segments(start)) == whole[start:]


@pytest.mark.parametrize("size", SIZES)
def test_unhashed_segments_are_the_tail_and_leave_the_stream_as_it_was(size):
    """Two readers taking turns get the same bytes: a reader changes nothing
    in the stream, so neither sees the other's progress."""
    whole = synth_payload("cms.dataset.run42", size)
    stream = PayloadStream("cms.dataset.run42", size)
    first, second = stream.segments(), stream.segments()
    taken_first, taken_second = [next(first)], []
    for a, b in zip(first, second):
        taken_second.append(b)
        taken_first.append(a)
    taken_second.extend(second)
    assert b"".join(taken_first) == b"".join(taken_second) == whole
    assert b"".join(stream.segments()) == whole


def test_segments_differ_across_names_and_across_seqs():
    size = 64 * SEGMENT_PAYLOAD_BYTES
    a = list(PayloadStream("cms.dataset.run42", size).segments())
    b = list(PayloadStream("cms.dataset.run43", size).segments())
    assert all(x != y for x, y in zip(a, b))
    assert len(set(a)) == len(a)


def test_stream_starts_at_any_seq_at_once():
    size = 2 * 1024**3
    last = size // SEGMENT_PAYLOAD_BYTES - 1
    start = time.perf_counter()
    segments = list(PayloadStream("cms.dataset.run42", size).segments(last))
    # the earlier generator drew and dropped 2 GiB of segments first: seconds
    assert time.perf_counter() - start < 0.5
    (segment,) = segments
    assert len(segment) == SEGMENT_PAYLOAD_BYTES
    # a segment depends on (name, seq) only, not on the object's size
    assert segment == next(PayloadStream("cms.dataset.run42", size + 1).segments(last))


@pytest.mark.parametrize("size", SIZES)
def test_stream_digest_covers_the_untaken_rest_without_taking_it(size):
    """``hexdigest`` is the SHA-256 of the whole payload before, during and
    after a reading, and leaves the reader where it was."""
    expected = hashlib.sha256(synth_payload("cms.dataset.run42", size)).hexdigest()
    stream = PayloadStream("cms.dataset.run42", size)
    reader, taken = stream.segments(), []
    for _ in range(-(-size // SEGMENT_PAYLOAD_BYTES)):
        assert stream.hexdigest() == expected
        taken.append(next(reader))
    assert stream.hexdigest() == expected
    assert hashlib.sha256(b"".join(taken)).hexdigest() == expected
    assert next(reader, None) is None


TOPO = db_from_edges(
    {
        ("gw-origin", "gw-mid"): (100, 500),
        ("gw-mid", "gw-far"): (100, 500),
    }
)


def test_select_source_prefers_nearest():
    assert select_source(["gw-origin", "gw-mid"], TOPO, "gw-far") == "gw-mid"


def test_select_source_lexicographic_tie():
    db = db_from_edges(
        {
            ("gw-a", "gw-req"): (100, 500),
            ("gw-b", "gw-req"): (100, 500),
        }
    )
    assert select_source(["gw-b", "gw-a"], db, "gw-req") == "gw-a"


def test_select_source_excludes_requester_and_unreachable():
    db = db_from_edges(
        {
            ("gw-a", "gw-req"): (100, 500),
            ("gw-x", "gw-y"): (100, 500),
        }
    )
    assert select_source(["gw-req", "gw-a", "gw-x"], db, "gw-req") == "gw-a"
    with pytest.raises(ObjectUnavailable):
        select_source(["gw-x"], db, "gw-req")
