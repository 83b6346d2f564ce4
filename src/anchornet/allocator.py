"""Weighted max-min fair rate allocation by progressive filling.

All concurrent claimants (one per session per assigned path) rise together
in normalized rate (rate divided by policy weight).  Whenever a link fills,
everything crossing it freezes at its current rate; whenever a claimant
reaches its demand cap it freezes there (a cap is a link only its claimant
crosses).  Rising claimants share one fill level: with weights scaled to
integers ``w`` by the lcm of their denominators, each rate is ``level * w``,
and a link saturates at ``(capacity - frozen rate on it) / rising w on it``.
Each round takes the lowest saturation level, freezes the claimants still
rising on that link, and updates only the links they cross; links tied at
one level go in successive rounds at that level.

Arithmetic is exact rationals, so these are the same rates as adding each
round's increment to every rising rate (``sum(delta_i * w) == level * w``)
and the per-link conservation identity holds to the last bit; rates
convert to floats only at the reporting boundary.  Inside the loop every
room, level and rate is a ``(numerator, denominator)`` pair of ints kept
reduced with ``math.gcd`` (no ``Fraction`` operator overhead); ``Fraction``s
are built only for the returned allocation.  The heap orders saturation
levels by the int ``floor(level * 2**32)``; when two of those tie, the
levels compare exactly, ``n1 * d2 < n2 * d1``, never as pairs
lexicographically, and equal levels go in the order they were pushed.

The resulting allocation has the classic bottleneck property: a claimant
not at its demand cap sits on at least one saturated link where no other
claimant holds a strictly larger normalized rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Union

from .addressing import ScienceDomainTag

Rate = Union[int, float, Fraction]
Key = Union[str, int]


class UnknownLink(KeyError):
    """A demand references a link absent from the capacity map."""


class UnknownTag(KeyError):
    """A session carries a science-domain tag absent from the policy table."""


def as_fraction(value: Rate) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class Demand:
    """One claimant: a (session, path) pair and the links it crosses."""

    session_id: str
    weight: Fraction
    links: frozenset[str]
    demand_cap_mbps: Optional[Fraction] = None
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_fraction(self.weight))
        object.__setattr__(self, "links", frozenset(self.links))
        if self.demand_cap_mbps is not None:
            object.__setattr__(self, "demand_cap_mbps", as_fraction(self.demand_cap_mbps))
        if self.weight <= 0:
            raise ValueError(f"demand {self.session_id!r}: weight must be positive")
        if self.demand_cap_mbps is not None and self.demand_cap_mbps < 0:
            raise ValueError(f"demand {self.session_id!r}: demand cap must be >= 0")


@dataclass(frozen=True)
class DemandMatrix:
    sessions: tuple[Demand, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", tuple(self.sessions))
        seen = set()
        for demand in self.sessions:
            if demand.session_id in seen:
                raise ValueError(f"duplicate session id {demand.session_id!r}")
            seen.add(demand.session_id)


@dataclass(frozen=True)
class FlowAllocation:
    """Per-claimant rates and per-link residuals, exact and as floats.

    Invariant (exact): for every link, the rates of the sessions crossing it
    plus the residual equal the link capacity.
    """

    rates_exact: Mapping[str, Fraction]
    residuals_exact: Mapping[str, Fraction]

    @property
    def rates_mbps(self) -> dict[str, float]:
        return {sid: float(rate) for sid, rate in self.rates_exact.items()}


class _Level(tuple):
    """A reduced (numerator, denominator) level; ``<`` compares values."""

    __slots__ = ()

    def __lt__(self, other: tuple[int, int]) -> bool:  # type: ignore[override]
        return self[0] * other[1] < other[0] * self[1]


def water_fill(capacities: Mapping[str, Rate], demands: DemandMatrix) -> FlowAllocation:
    """Allocate link capacity to all demands, weighted max-min fair."""
    caps = {lid: as_fraction(c) for lid, c in capacities.items()}
    for lid, cap in caps.items():
        if cap.numerator <= 0:
            raise ValueError(f"link {lid!r}: capacity must be positive, got {cap}")
    for demand in demands.sessions:
        missing = demand.links - caps.keys()
        if missing:
            raise UnknownLink(
                f"demand {demand.session_id!r} references unknown links {sorted(missing)}"
            )
        if not demand.links and demand.demand_cap_mbps is None:
            raise ValueError(
                f"demand {demand.session_id!r} crosses no links and has no cap; rate unbounded"
            )

    sessions = demands.sessions
    scale = lcm(*(d.weight.denominator for d in sessions))
    weight = [d.weight.numerator * (scale // d.weight.denominator) for d in sessions]
    # Links by id; a demand cap is a private link keyed by its claimant's index.
    # Rooms, levels and rates are reduced (numerator, denominator) int pairs.
    room: dict[Key, tuple[int, int]] = {lid: c.as_integer_ratio() for lid, c in caps.items()}
    room.update((i, d.demand_cap_mbps.as_integer_ratio()) for i, d in enumerate(sessions)
                if d.demand_cap_mbps is not None)
    keys = [list(d.links) + ([i] if i in room else []) for i, d in enumerate(sessions)]
    members: dict[Key, list[int]] = {}
    for i, crossed in enumerate(keys):
        for key in crossed:
            members.setdefault(key, []).append(i)
    rising = {key: sum(weight[i] for i in ids) for key, ids in members.items()}

    # Saturation levels, each led by floor(level * 2**32): an int, cheap to
    # compare and monotone, so it orders two levels whenever it differs.  An
    # entry is live while its serial is the key's latest.
    heap: list[tuple[int, _Level, int, Key]] = []
    live: dict[Key, int] = {}
    serial = count()

    def push(key: Key) -> None:
        live[key] = next(serial)
        if rising[key]:
            num, den = room[key]
            g = gcd(num, rising[key])  # room is reduced, so this reduces room / rising
            num, den = num // g, den * (rising[key] // g)
            heappush(heap, ((num << 32) // den, _Level((num, den)), live[key], key))

    for key in rising:
        push(key)
    rates: list[Optional[tuple[int, int]]] = [None] * len(sessions)
    while heap:
        _, (num, den), n, key = heappop(heap)
        if live[key] != n:
            continue
        freezing = [i for i in members[key] if rates[i] is None]
        if not freezing:
            raise AssertionError("progressive filling failed to freeze any session")
        gained: dict[Key, int] = {}
        for i in freezing:
            g = gcd(weight[i], den)  # the level is reduced, so this reduces level * weight
            rates[i] = (num * (weight[i] // g), den // g)
            for touched in keys[i]:
                gained[touched] = gained.get(touched, 0) + weight[i]
        for touched, w in gained.items():
            g = gcd(w, den)
            fn, fd = num * (w // g), den // g
            rn, rd = room[touched]
            rn, rd = rn * fd - fn * rd, rd * fd
            g = gcd(rn, rd)
            room[touched] = (rn // g, rd // g)
            rising[touched] -= w
            push(touched)

    # One Fraction per distinct value: many claimants share a rate.
    exact = {pair: Fraction(*pair) for pair in {*rates, *(room[lid] for lid in caps)}}
    return FlowAllocation(
        rates_exact={d.session_id: exact[rates[i]] for i, d in enumerate(sessions)},
        residuals_exact={lid: exact[room[lid]] for lid in caps},
    )


def domain_shares(
    alloc: FlowAllocation,
    demands: DemandMatrix,
    policy: Sequence[ScienceDomainTag],
) -> dict[str, float]:
    """Aggregate allocated rate by science-domain tag.  Reporting only."""
    known = {entry.tag for entry in policy}
    shares: dict[str, Fraction] = {tag: Fraction(0) for tag in sorted(known)}
    for demand in demands.sessions:
        if demand.tag not in known:
            raise UnknownTag(
                f"session {demand.session_id!r} carries tag {demand.tag!r} not in policy"
            )
        shares[demand.tag] += alloc.rates_exact[demand.session_id]
    return {tag: float(total) for tag, total in shares.items()}
