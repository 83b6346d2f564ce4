"""Session-layer naming: the one rule for a name, the L3 locators that names
are bound to, science-domain tags, and a resolver table from names to
locators.

Names are DNS-flavoured ("cern.tier0.host7"): dot-separated labels of
lowercase ASCII letters, digits and hyphens, at most 255 bytes in all.  The
scenario validator checks every name once with ``is_name``; from then on a
name is its plain string, compared by exact equality.  Endpoint names and
data-object names share one namespace; the resolver's kind flag changes only
the miss rule (an unknown endpoint is an error, an unstaged data name
resolves to the empty set).
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
_NAME_RE = re.compile(rf"{_LABEL}(?:\.{_LABEL})*")


class UnknownEndpoint(LookupError):
    """Resolution miss for an endpoint-kind name."""


class UnknownLocator(ValueError):
    """Locator is not part of the scenario's attachment universe."""


class AddressKind(Enum):
    ENDPOINT = "endpoint"
    DATA = "data"


def is_name(text: str) -> bool:
    """Whether ``text`` is a name: non-empty labels of ``[a-z0-9-]``, joined
    by dots, of at most MAX_NAME_BYTES in all."""
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
    """Policy weight for one science collaboration's traffic, as the scenario
    validator accepted it: a tag of 1..MAX_TAG_BYTES bytes, a positive weight."""

    tag: str
    weight: Fraction


class ResolverTable:
    """Name-to-locator map, updated in place.  It holds its locator universe,
    so that registrations against bogus attachment points fail loudly."""

    def __init__(self, locators: Iterable[L3Locator]) -> None:
        self.known_locators = frozenset(locators)
        self.entries: dict[str, set[L3Locator]] = {}

    def resolve(self, name: str, kind: AddressKind = AddressKind.ENDPOINT) -> frozenset[L3Locator]:
        """All locators for a name; never mutates the table.  An unknown
        endpoint-kind name raises UnknownEndpoint; an unknown data-kind name
        resolves to the empty set (object not yet staged anywhere)."""
        found = self.entries.get(name)
        if found:
            return frozenset(found)
        if kind is AddressKind.ENDPOINT:
            raise UnknownEndpoint(name)
        return frozenset()

    def register(self, name: str, loc: L3Locator) -> None:
        """Add one (name, locator) entry; a duplicate leaves the table as it is."""
        if loc not in self.known_locators:
            raise UnknownLocator(str(loc))
        self.entries.setdefault(name, set()).add(loc)
