import dataclasses

import pytest

from anchornet.addressing import L3Locator
from anchornet.anchor import Anchor, NotOnPath
from anchornet.pathfinder import L5Path
from anchornet.session import Segment, SegmentKind

PORT = L3Locator("core", "a-port")
LOCATORS = {
    "anchor-b": L3Locator("core", "b-port"),
    "host.h2": L3Locator("site", "h2-port"),
}


def make_anchor():
    return Anchor(name="anchor-a", ports=(PORT,))


PATH = L5Path(0, ("host.h1", "anchor-a", "anchor-b", "host.h2"), 3, None)


def data_segment(payload=b"x" * 100, pid=0, tag="atlas"):
    return Segment(1, 0, pid, tag, payload)


def test_forward_rewrites_to_next_hop():
    anchor = make_anchor()
    anchor.install_path(1, PATH)
    segment = data_segment()
    fields = dataclasses.astuple(segment)
    assert anchor.forward(segment, LOCATORS) == ("anchor-b", LOCATORS["anchor-b"])
    assert dataclasses.astuple(segment) == fields


def test_forward_ack_retraces_reverse_entry():
    anchor = make_anchor()
    anchor.install_path(1, L5Path(0, ("host.h2", "anchor-b", "anchor-a", "host.h1"), 3, None))
    # an ack flowing back toward host.h2's side traverses prev-hop entries
    ack = Segment(1, 0, 0, "atlas", b"", kind=SegmentKind.ACK, ack_cum=1)
    assert anchor.forward(ack, LOCATORS) == ("anchor-b", LOCATORS["anchor-b"])


def test_unknown_session_counts_drop_and_emits_nothing():
    anchor = make_anchor()
    assert anchor.forward(data_segment(), LOCATORS) is None
    assert anchor.dropped_unknown == 1


def test_install_requires_membership():
    anchor = make_anchor()
    with pytest.raises(NotOnPath):
        anchor.install_path(1, L5Path(0, ("x", "y"), 1, None))


def test_install_is_idempotent():
    anchor = make_anchor()
    anchor.install_path(1, PATH)
    table = dict(anchor.next_hop)
    anchor.install_path(1, PATH)
    assert anchor.next_hop == table


def test_tag_report_zero_without_traffic():
    assert make_anchor().tag_report() == {}


def test_tag_report_counts_segments_and_bytes():
    anchor = make_anchor()
    anchor.install_path(1, PATH)
    for _ in range(10):
        anchor.forward(data_segment(payload=b"z" * 8192), LOCATORS)
    assert anchor.tag_report() == {"atlas": (10, 81920)}


def test_tag_report_is_per_tag():
    anchor = make_anchor()
    anchor.install_path(1, PATH)
    anchor.install_path(2, L5Path(1, ("host.h1", "anchor-a", "anchor-b"), 2, None))
    anchor.forward(data_segment(payload=b"z" * 10, tag="atlas"), LOCATORS)
    seg = Segment(2, 0, 1, "cms", b"q" * 20)
    anchor.forward(seg, LOCATORS)
    report = anchor.tag_report()
    assert report["atlas"] == (1, 10)
    assert report["cms"] == (1, 20)


def test_counters_monotone_nondecreasing():
    anchor = make_anchor()
    anchor.install_path(1, PATH)
    last = 0
    for _ in range(5):
        anchor.forward(data_segment(payload=b"z" * 100), LOCATORS)
        now = anchor.tag_report()["atlas"][1]
        assert now >= last
        last = now


def test_remove_path_then_drop():
    anchor = make_anchor()
    anchor.install_path(1, PATH)
    anchor.remove_path(1, 0)
    assert anchor.forward(data_segment(), LOCATORS) is None
    assert anchor.dropped_unknown == 1
