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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Union

MAX_NAME_BYTES = 255
MAX_TAG_BYTES = 32

_LABEL_RE = re.compile(r"^[a-z0-9-]+$")


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
        if not _LABEL_RE.match(label):
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


@dataclass(frozen=True, order=True)
class L3Locator:
    """An attachment point inside one opaque L3 domain."""

    domain_id: str
    attachment_id: str

    def __str__(self) -> str:
        return f"{self.domain_id}/{self.attachment_id}"


@dataclass(frozen=True)
class ScienceDomainTag:
    """Policy weight for one science collaboration's traffic."""

    tag: str
    weight: Fraction

    def __post_init__(self) -> None:
        if not self.tag or len(self.tag.encode()) > MAX_TAG_BYTES:
            raise ValueError(f"tag must be 1..{MAX_TAG_BYTES} bytes, got {self.tag!r}")
        weight = self.weight if isinstance(self.weight, Fraction) else Fraction(str(self.weight))
        object.__setattr__(self, "weight", weight)
        if weight <= 0:
            raise ValueError(f"tag {self.tag!r} weight must be positive, got {weight}")


AddressLike = Union[L5Address, str]


def _as_address(addr: AddressLike) -> L5Address:
    return addr if isinstance(addr, L5Address) else parse_address(addr)


@dataclass(frozen=True)
class ResolverTable:
    """Immutable name-to-locator map; every mutation returns a new version.

    The table is constructed with the scenario's full locator universe so
    that registrations against bogus attachment points fail loudly.
    """

    known_locators: frozenset[L3Locator]
    entries: Mapping[str, frozenset[L3Locator]] = field(default_factory=dict)
    version: int = 0

    @classmethod
    def new(cls, locators: Iterable[L3Locator]) -> "ResolverTable":
        return cls(known_locators=frozenset(locators), entries={}, version=0)

    def resolve(self, addr: AddressLike) -> frozenset[L3Locator]:
        """Look up all locators for a name.  Pure; never mutates the table.

        Unknown endpoint-kind names raise UnknownEndpoint; unknown data-kind
        names resolve to the empty set (object not yet staged anywhere).
        """
        a = _as_address(addr)
        found = self.entries.get(a.canonical)
        if found:
            return found
        if a.kind is AddressKind.ENDPOINT:
            raise UnknownEndpoint(a.canonical)
        return frozenset()

    def register(self, addr: AddressLike, loc: L3Locator) -> "ResolverTable":
        """Add one (name, locator) entry.  The locator set is idempotent for
        duplicates but the version still advances by exactly one per call."""
        if loc not in self.known_locators:
            raise UnknownLocator(str(loc))
        a = _as_address(addr)
        entries = dict(self.entries)
        entries[a.canonical] = entries.get(a.canonical, frozenset()) | {loc}
        return ResolverTable(self.known_locators, entries, self.version + 1)

    def unregister(self, addr: AddressLike, loc: L3Locator) -> "ResolverTable":
        a = _as_address(addr)
        entries = dict(self.entries)
        remaining = entries.get(a.canonical, frozenset()) - {loc}
        if remaining:
            entries[a.canonical] = remaining
        else:
            entries.pop(a.canonical, None)
        return ResolverTable(self.known_locators, entries, self.version + 1)
