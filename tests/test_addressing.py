import pytest
from hypothesis import given, strategies as st

from anchornet.addressing import (
    AddressKind,
    EmptyLabel,
    IllegalCharacter,
    L3Locator,
    ResolverTable,
    ScienceDomainTag,
    TooLong,
    UnknownEndpoint,
    UnknownLocator,
    parse_address,
)

LOC_A = L3Locator("west", "p1")
LOC_B = L3Locator("east", "p2")


def make_table():
    return ResolverTable.new([LOC_A, LOC_B])


def test_parse_well_formed():
    addr = parse_address("cern.tier0.host7")
    assert addr.labels == ("cern", "tier0", "host7")
    assert str(addr) == "cern.tier0.host7"
    assert addr.kind is AddressKind.ENDPOINT


def test_parse_empty_label():
    with pytest.raises(EmptyLabel) as err:
        parse_address("a..b")
    assert "position 1" in str(err.value)


def test_parse_illegal_character():
    with pytest.raises(IllegalCharacter) as err:
        parse_address("cern.Tier0")
    assert "Tier0" in str(err.value)


def test_parse_length_boundary():
    ok = ".".join(["ab"] * 85)  # 254 bytes
    assert len(ok.encode()) == 254
    parse_address(ok)
    exact = ok + ".x"  # 256 bytes
    assert len(exact.encode()) == 256
    with pytest.raises(TooLong):
        parse_address(exact)
    boundary = "a" * 255
    parse_address(boundary)
    with pytest.raises(TooLong):
        parse_address("a" * 256)


label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)


@given(st.lists(label, min_size=1, max_size=8))
def test_parse_format_fixpoint(labels):
    text = ".".join(labels)
    if len(text.encode()) > 255:
        return
    addr = parse_address(text)
    again = parse_address(str(addr))
    assert again == addr
    assert str(again) == text


def test_equality_is_on_canonical_text():
    endpoint = parse_address("x.y")
    data = parse_address("x.y", AddressKind.DATA)
    assert endpoint == data
    assert hash(endpoint) == hash(data)
    assert parse_address("x.z") != endpoint


def test_resolve_known_endpoint():
    table = make_table().register("host.a", LOC_A)
    assert table.resolve("host.a") == frozenset({LOC_A})


def test_resolve_unknown_endpoint_raises():
    with pytest.raises(UnknownEndpoint):
        make_table().resolve("ghost.host")


def test_resolve_unknown_data_name_is_empty():
    addr = parse_address("dataset.run9", AddressKind.DATA)
    assert make_table().resolve(addr) == frozenset()


def test_resolve_is_pure():
    table = make_table().register("host.a", LOC_A)
    before = table.version
    table.resolve("host.a")
    assert table.version == before
    assert table.resolve("host.a") == table.resolve("host.a")


def test_register_idempotent_set_but_not_version():
    t0 = make_table()
    t1 = t0.register("host.a", LOC_A)
    t2 = t1.register("host.a", LOC_A)
    assert t1.resolve("host.a") == t2.resolve("host.a") == frozenset({LOC_A})
    assert (t1.version, t2.version) == (1, 2)


def test_register_bogus_locator():
    with pytest.raises(UnknownLocator):
        make_table().register("host.a", L3Locator("nowhere", "p9"))


def test_register_two_locators_for_data_name():
    addr = parse_address("dataset.run9", AddressKind.DATA)
    table = make_table().register(addr, LOC_A).register(addr, LOC_B)
    assert table.resolve(addr) == frozenset({LOC_A, LOC_B})


def test_unregister_advances_version_and_removes():
    addr = parse_address("dataset.run9", AddressKind.DATA)
    table = make_table().register(addr, LOC_A)
    gone = table.unregister(addr, LOC_A)
    assert gone.version == table.version + 1
    assert gone.resolve(addr) == frozenset()


@given(st.lists(st.sampled_from(["host.a", "host.b", "host.c"]), min_size=1, max_size=6))
def test_version_strictly_increases(names):
    table = make_table()
    versions = [table.version]
    for name in names:
        table = table.register(name, LOC_A)
        versions.append(table.version)
    assert versions == sorted(set(versions))


def test_tag_validation():
    tag = ScienceDomainTag("atlas", 2)
    assert tag.weight == 2
    with pytest.raises(ValueError):
        ScienceDomainTag("x" * 33, 1)
    with pytest.raises(ValueError):
        ScienceDomainTag("atlas", 0)
