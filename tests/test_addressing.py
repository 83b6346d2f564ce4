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
    is_name,
    parse_address,
)

LOC_A = L3Locator("west", "p1")
LOC_B = L3Locator("east", "p2")


def make_table():
    return ResolverTable([LOC_A, LOC_B])


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


def test_parse_rejects_a_label_that_ends_in_a_newline():
    with pytest.raises(IllegalCharacter):
        parse_address("cern.h1\n")
    assert not is_name("cern.h1\n")


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
    table = make_table()
    table.register("host.a", LOC_A)
    assert table.resolve("host.a") == frozenset({LOC_A})


def test_resolve_unknown_endpoint_raises():
    with pytest.raises(UnknownEndpoint):
        make_table().resolve("ghost.host")


def test_resolve_unknown_data_name_is_empty():
    addr = parse_address("dataset.run9", AddressKind.DATA)
    assert make_table().resolve(addr) == frozenset()


def test_resolve_is_pure():
    table = make_table()
    table.register("host.a", LOC_A)
    before = {name: set(locs) for name, locs in table.entries.items()}
    table.resolve("host.a")
    table.resolve(parse_address("dataset.run9", AddressKind.DATA))
    assert table.entries == before
    assert table.resolve("host.a") == table.resolve("host.a")


def test_register_idempotent_set():
    table = make_table()
    table.register("host.a", LOC_A)
    table.register("host.a", LOC_A)
    assert table.resolve("host.a") == frozenset({LOC_A})


def test_register_bogus_locator():
    with pytest.raises(UnknownLocator):
        make_table().register("host.a", L3Locator("nowhere", "p9"))


def test_register_two_locators_for_data_name():
    addr = parse_address("dataset.run9", AddressKind.DATA)
    table = make_table()
    table.register(addr, LOC_A)
    table.register(addr, LOC_B)
    assert table.resolve(addr) == frozenset({LOC_A, LOC_B})


def test_unregister_removes():
    addr = parse_address("dataset.run9", AddressKind.DATA)
    table = make_table()
    table.register(addr, LOC_A)
    table.register(addr, LOC_B)
    table.unregister(addr, LOC_A)
    assert table.resolve(addr) == frozenset({LOC_B})
    table.unregister(addr, LOC_B)
    assert table.resolve(addr) == frozenset() and addr.canonical not in table.entries


@given(st.lists(st.sampled_from(["a", "z9", "-", ".", "\n", "A", "_", "é", "\ud800", "b" * 100]), max_size=10).map("".join))
def test_is_name_holds_exactly_when_parse_address_succeeds(text):
    try:
        parsed = bool(parse_address(text))
    except ValueError:  # an AddressError, or a lone surrogate that UTF-8 cannot encode
        parsed = False
    assert is_name(text) is parsed


def test_tag_validation():
    tag = ScienceDomainTag("atlas", 2)
    assert tag.weight == 2
    with pytest.raises(ValueError):
        ScienceDomainTag("x" * 33, 1)
    with pytest.raises(ValueError):
        ScienceDomainTag("atlas", 0)
