import dataclasses

from anchornet.addressing import L3Locator
from anchornet.anchor import Anchor
from anchornet.session import Segment, SegmentKind

LOCATORS = {
    "anchor-b": L3Locator("core", "b-port"),
    "host.h2": L3Locator("site", "h2-port"),
}


def make_anchor():
    return Anchor(name="anchor-a", locators=dict(LOCATORS))


# anchor-a's (successor, predecessor) on host.h1 -> anchor-a -> anchor-b -> host.h2
ROUTE = ("anchor-b", "host.h1")


def data_segment(payload=b"x" * 100, pid=0, tag="atlas"):
    return Segment(1, 0, pid, tag, payload)


def test_forward_rewrites_to_next_hop():
    anchor = make_anchor()
    anchor.routes[1, 0] = ROUTE
    segment = data_segment()
    fields = dataclasses.astuple(segment)
    assert anchor.forward(segment) == ("anchor-b", LOCATORS["anchor-b"])
    assert dataclasses.astuple(segment) == fields


def test_forward_ack_retraces_reverse_entry():
    anchor = make_anchor()
    anchor.routes[1, 0] = ("host.h1", "anchor-b")  # on host.h2 -> anchor-b -> anchor-a -> host.h1
    # an ack flowing back toward host.h2's side goes to the predecessor
    ack = Segment(1, 0, 0, "atlas", b"", kind=SegmentKind.ACK, ack_cum=1)
    assert anchor.forward(ack) == ("anchor-b", LOCATORS["anchor-b"])


def test_unknown_session_counts_drop_and_emits_nothing():
    anchor = make_anchor()
    assert anchor.forward(data_segment()) is None
    assert anchor.dropped_unknown == 1


def test_a_segment_past_the_end_of_its_route_counts_drop():
    anchor = make_anchor()
    anchor.routes[1, 0] = ("anchor-b", None)  # anchor-a is the path's first hop
    ack = Segment(1, 0, 0, "atlas", b"", kind=SegmentKind.ACK, ack_cum=1)
    assert anchor.forward(ack) is None
    assert anchor.dropped_unknown == 1


def test_tag_report_zero_without_traffic():
    assert make_anchor().tag_report() == {}


def test_tag_report_counts_segments_and_bytes():
    anchor = make_anchor()
    anchor.routes[1, 0] = ROUTE
    for _ in range(10):
        anchor.forward(data_segment(payload=b"z" * 8192))
    assert anchor.tag_report() == {"atlas": (10, 81920)}


def test_tag_report_is_per_tag():
    anchor = make_anchor()
    anchor.routes[1, 0] = anchor.routes[2, 1] = ROUTE
    anchor.forward(data_segment(payload=b"z" * 10, tag="atlas"))
    seg = Segment(2, 0, 1, "cms", b"q" * 20)
    anchor.forward(seg)
    report = anchor.tag_report()
    assert report["atlas"] == (1, 10)
    assert report["cms"] == (1, 20)


def test_counters_monotone_nondecreasing():
    anchor = make_anchor()
    anchor.routes[1, 0] = ROUTE
    last = 0
    for _ in range(5):
        anchor.forward(data_segment(payload=b"z" * 100))
        now = anchor.tag_report()["atlas"][1]
        assert now >= last
        last = now


def test_remove_path_then_drop():
    anchor = make_anchor()
    anchor.routes[1, 0] = ROUTE
    del anchor.routes[1, 0]
    assert anchor.forward(data_segment()) is None
    assert anchor.dropped_unknown == 1
