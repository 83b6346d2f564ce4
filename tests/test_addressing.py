import pytest
from hypothesis import given, strategies as st

from anchornet.addressing import (
    AddressKind,
    L3Locator,
    ResolverTable,
    UnknownEndpoint,
    UnknownLocator,
    is_name,
)
from oracles import reference_is_name

LOC_A = L3Locator("west", "p1")
LOC_B = L3Locator("east", "p2")


def make_table():
    return ResolverTable([LOC_A, LOC_B])


def test_parse_well_formed():
    assert is_name("cern.tier0.host7")
    assert is_name("a") and is_name("0-9.x")


def test_parse_empty_label():
    for text in ("a..b", "", ".", "a.", ".a"):
        assert not is_name(text), text


def test_parse_illegal_character():
    for text in ("cern.Tier0", "cern.tier_0", "cern.tier0 ", "caf\u00e9.org"):
        assert not is_name(text), text


def test_parse_rejects_a_label_that_ends_in_a_newline():
    assert not is_name("cern.h1\n")


def test_parse_length_boundary():
    ok = ".".join(["ab"] * 85)  # 254 bytes
    assert len(ok.encode()) == 254
    assert is_name(ok)
    exact = ok + ".x"  # 256 bytes
    assert len(exact.encode()) == 256
    assert not is_name(exact)
    assert is_name("a" * 255)
    assert not is_name("a" * 256)


def test_resolve_known_endpoint():
    table = make_table()
    table.register("host.a", LOC_A)
    assert table.resolve("host.a") == frozenset({LOC_A})


def test_resolve_unknown_endpoint_raises():
    with pytest.raises(UnknownEndpoint):
        make_table().resolve("ghost.host")


def test_resolve_unknown_data_name_is_empty():
    assert make_table().resolve("dataset.run9", AddressKind.DATA) == frozenset()


def test_resolve_is_pure():
    table = make_table()
    table.register("host.a", LOC_A)
    before = {name: set(locs) for name, locs in table.entries.items()}
    table.resolve("host.a")
    table.resolve("dataset.run9", AddressKind.DATA)
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
    table = make_table()
    table.register("dataset.run9", LOC_A)
    table.register("dataset.run9", LOC_B)
    assert table.resolve("dataset.run9", AddressKind.DATA) == frozenset({LOC_A, LOC_B})
    assert table.resolve("dataset.run9") == frozenset({LOC_A, LOC_B})


label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=40)


@given(st.one_of(
    st.lists(st.sampled_from(["a", "z9", "-", ".", "\n", "A", "_", "é", "\ud800", "b" * 100]), max_size=10).map("".join),
    st.lists(label, min_size=1, max_size=10).map(".".join),
))
def test_is_name_holds_exactly_when_the_reference_accepts(text):
    assert is_name(text) is reference_is_name(text)
