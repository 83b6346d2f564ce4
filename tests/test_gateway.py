import pytest

from anchornet.addressing import AddressKind, parse_address
from anchornet.gateway import (
    GatewayCatalog,
    NotDataName,
    ObjectUnavailable,
    select_source,
    synth_payload,
)
from oracles import db_from_edges

OBJ = parse_address("cms.dataset.run42", AddressKind.DATA)


def test_stage_then_lookup():
    catalog = GatewayCatalog()
    entry = catalog.stage(OBJ, 4096, ttl_us=1000, now=50)
    assert catalog.lookup(OBJ, 51) is entry


def test_stage_endpoint_name_rejected():
    catalog = GatewayCatalog()
    with pytest.raises(NotDataName):
        catalog.stage(parse_address("host.h1"), 4096, 1000, 0)


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
    fresh = parse_address("cms.dataset.run43", AddressKind.DATA)
    catalog.stage(fresh, 100, ttl_us=10_000_000, now=0)
    purged = catalog.sweep(now=1_000_000)
    assert purged == [OBJ.canonical]
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
