"""Session-layer naming: dotted lowercase names for endpoints and data
objects, plus the resolver table mapping names onto L3 attachment points.

Names are DNS-flavoured ("cern.tier0.host7"), capped at 255 bytes, and
compared by exact byte equality of the canonical dotted form.  Endpoint
names and data-object names share one namespace; the kind flag changes only
the resolution-miss semantics (an unknown endpoint is an error, an unstaged
data name resolves to the empty set).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

MAX_NAME_BYTES = 255
MAX_TAG_BYTES = 32

_LABEL = r"[a-z0-9-]+"
_LABEL_RE = re.compile(_LABEL)
_NAME_RE = re.compile(rf"{_LABEL}(?:\.{_LABEL})*")


class AddressError(ValueError):
    """Base class for malformed L5 names."""


class EmptyLabel(AddressError):
    pass


class IllegalCharacter(AddressError):
    pass


class TooLong(AddressError):
    pass


class UnknownEndpoint(LookupError):
    """Resolution miss for an endpoint-kind name."""


class UnknownLocator(ValueError):
    """Locator is not part of the scenario's attachment universe."""


class AddressKind(Enum):
    ENDPOINT = "endpoint"
    DATA = "data"


def _checked_labels(labels: Iterable[str], source: str) -> tuple[str, ...]:
    labels = tuple(labels)
    if not labels:
        raise EmptyLabel(f"name {source!r} has no labels")
    for i, label in enumerate(labels):
        if not label:
            raise EmptyLabel(f"empty label at position {i} in {source!r}")
        if not _LABEL_RE.fullmatch(label):
            raise IllegalCharacter(f"label {label!r} at position {i} in {source!r}")
    canonical = ".".join(labels)
    if len(canonical.encode()) > MAX_NAME_BYTES:
        raise TooLong(
            f"name of {len(canonical.encode())} bytes exceeds {MAX_NAME_BYTES} "
            f"(starts {canonical[:32]!r})"
        )
    return labels


@dataclass(frozen=True, eq=False)
class L5Address:
    """A name in the session-layer namespace.

    Equality and ordering are on the canonical dotted text only; ``kind``
    is carried metadata and does not distinguish two addresses.
    """

    labels: tuple[str, ...]
    kind: AddressKind = AddressKind.ENDPOINT

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _checked_labels(self.labels, ".".join(self.labels)))

    @property
    def canonical(self) -> str:
        return ".".join(self.labels)

    def __str__(self) -> str:
        return self.canonical

    def __repr__(self) -> str:
        return f"L5Address({self.canonical!r}, {self.kind.value})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, L5Address):
            return self.canonical == other.canonical
        return NotImplemented

    def __lt__(self, other: "L5Address") -> bool:
        return self.canonical < other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)


def parse_address(text: str, kind: AddressKind = AddressKind.ENDPOINT) -> L5Address:
    """Parse dotted text into a canonical address.

    Raises EmptyLabel / IllegalCharacter / TooLong, naming the offending
    component.  Round-trips: ``str(parse_address(t)) == t`` for
    every valid ``t``.
    """
    if len(text.encode()) > MAX_NAME_BYTES:
        raise TooLong(f"name of {len(text.encode())} bytes exceeds {MAX_NAME_BYTES}")
    return L5Address(tuple(text.split(".")), kind)


def is_name(text: str) -> bool:
    """Whether ``parse_address(text)`` succeeds, without building the address."""
    return _NAME_RE.fullmatch(text) is not None and len(text) <= MAX_NAME_BYTES


@dataclass(frozen=True, order=True)
class L3Locator:
    """An attachment point inside one opaque L3 domain."""

    domain_id: str
    attachment_id: str

    def __str__(self) -> str:
        return f"{self.domain_id}/{self.attachment_id}"


Rate = Union[int, float, Fraction]


def as_fraction(value: Rate) -> Fraction:
    """``value`` as an exact fraction; a float by its shortest decimal text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class ScienceDomainTag:
    """Policy weight for one science collaboration's traffic."""

    tag: str
    weight: Fraction

    def __post_init__(self) -> None:
        if not self.tag or len(self.tag.encode()) > MAX_TAG_BYTES:
            raise ValueError(f"tag must be 1..{MAX_TAG_BYTES} bytes, got {self.tag!r}")
        weight = as_fraction(self.weight)
        object.__setattr__(self, "weight", weight)
        if weight <= 0:
            raise ValueError(f"tag {self.tag!r} weight must be positive, got {weight}")


AddressLike = Union[L5Address, str]


def _as_address(addr: AddressLike) -> L5Address:
    return addr if isinstance(addr, L5Address) else parse_address(addr)


class ResolverTable:
    """Name-to-locator map, updated in place.  It holds its locator universe,
    so that registrations against bogus attachment points fail loudly."""

    def __init__(self, locators: Iterable[L3Locator]) -> None:
        self.known_locators = frozenset(locators)
        self.entries: dict[str, set[L3Locator]] = {}

    def resolve(self, addr: AddressLike) -> frozenset[L3Locator]:
        """All locators for a name; never mutates the table.  An unknown
        endpoint-kind name raises UnknownEndpoint; an unknown data-kind name
        resolves to the empty set (object not yet staged anywhere)."""
        a = _as_address(addr)
        found = self.entries.get(a.canonical)
        if found:
            return frozenset(found)
        if a.kind is AddressKind.ENDPOINT:
            raise UnknownEndpoint(a.canonical)
        return frozenset()

    def register(self, addr: AddressLike, loc: L3Locator) -> None:
        """Add one (name, locator) entry; a duplicate leaves the table as it is."""
        if loc not in self.known_locators:
            raise UnknownLocator(str(loc))
        self.entries.setdefault(_as_address(addr).canonical, set()).add(loc)

    def unregister(self, addr: AddressLike, loc: L3Locator) -> None:
        name = _as_address(addr).canonical
        found = self.entries.get(name, set())
        found.discard(loc)
        if not found:
            self.entries.pop(name, None)
