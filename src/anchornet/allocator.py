"""Weighted max-min fair rate allocation by progressive filling, kept
across allocation epochs.

All concurrent claimants (one per session per assigned path) rise together
in normalized rate (rate divided by policy weight).  Whenever a link fills,
everything crossing it freezes at its current rate; whenever a claimant
reaches its demand cap it freezes there (a cap is a link only its claimant
crosses).  Rising claimants share one fill level: with weights scaled to
integers ``w`` by the lcm of their denominators, each rate is ``level * w``,
and a link saturates at ``(capacity - frozen rate on it) / rising w on it``.
Each round freezes the claimants still rising on the link with the lowest
saturation level and updates only the links they cross.  Every room, level
and rate is a reduced ``(numerator, denominator)`` pair of ints, so rates
and the per-link conservation identity are exact; ``Fraction``s and floats
are built only at the reporting boundary.

A ``Filling`` keeps, across epochs, each link's claimants, the scaled
weights and a log of rounds: level, key, frozen claimants, and the rooms
and rising weights before the round.  An epoch restarts at the first round
a change touches: the round that froze a released claimant, or the first
whose level is at or above ``room / (rising + added weight)`` on a link
that gained claimants, or an added claimant's cap level.  Earlier rounds
keep their lowest level and their frozen claimants, so they and their
rates stay, with the weight changes applied to their snapshots.  The next
key is the ``min()`` of each rising key's lead ``floor(level * 2**32)``,
an int that orders two levels whenever it differs; equal leads compare
levels exactly.  Weighted max-min fair rates are unique, so the order of
keys at one level changes no rate: a tie restarts though keeping its round
would give the same rates, and ``water_fill``, a fill from nothing, gives
the rates of a kept filling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Optional, Sequence, Union

from .addressing import ScienceDomainTag

Rate = Union[int, float, Fraction]


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


def _minus(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """``a - b`` of reduced (numerator, denominator) pairs, reduced."""
    num, den = a[0] * b[1] - b[0] * a[1], a[1] * b[1]
    g = gcd(num, den)
    return num // g, den // g


def _rise(room: tuple[int, int], w: int) -> tuple[int, _Level]:
    """The saturation level ``room / w``, reduced (``room`` is), after its lead."""
    g = gcd(room[0], w)
    num, den = room[0] // g, room[1] * (w // g)
    return (num << 32) // den, _Level((num, den))


class Filling:
    """Progressive filling kept across epochs: ``add`` and ``remove``
    claimants, then ``fill``.  ``rate`` holds each claimant's rate and
    ``states[-1][0]`` each link's room, as reduced int pairs.  A claimant id
    also names its demand cap's private key, so it must not be a link id."""

    def __init__(self, capacities: Mapping[str, Rate]) -> None:
        self.capacity = {lid: as_fraction(c).as_integer_ratio() for lid, c in capacities.items()}
        for lid, (num, den) in self.capacity.items():
            if num <= 0:
                raise ValueError(f"link {lid!r}: capacity must be positive, got {Fraction(num, den)}")
        self.cap: dict[Hashable, tuple[int, int]] = {}  # capped claimant -> its cap
        self.scale = 1  # the lcm of every weight denominator seen
        self.demand: dict[Hashable, Demand] = {}
        self.weight: dict[Hashable, int] = {}  # weight * scale
        self.members: dict[str, dict[Hashable, None]] = {lid: {} for lid in self.capacity}
        self.frozen_in: dict[Hashable, int] = {}  # claimant -> the round that froze it
        self.rate: dict[Hashable, tuple[int, int]] = {}
        self.rounds: list[tuple[_Level, Hashable, list[Hashable]]] = []  # level, key, frozen
        # (room, rising weight) per link before each round, and after the last one
        self.states = [(dict(self.capacity), dict.fromkeys(self.capacity, 0))]
        # Since the last fill: rising weight gained (+) or released (-) per
        # link, and the first round a release touches.
        self.delta: dict[str, int] = {}
        self.restart = 0

    def add(self, cid: Hashable, demand: Demand) -> None:
        missing = demand.links - self.capacity.keys()
        if missing:
            raise UnknownLink(f"demand {demand.session_id!r} references unknown links {sorted(missing)}")
        if not demand.links and demand.demand_cap_mbps is None:
            raise ValueError(f"demand {demand.session_id!r} crosses no links and has no cap; rate unbounded")
        num, den = demand.weight.as_integer_ratio()
        if self.scale % den:  # every level changes: refill from the first round
            factor = lcm(self.scale, den) // self.scale
            self.scale *= factor
            self.weight = {c: w * factor for c, w in self.weight.items()}
            self.delta = {lid: w * factor for lid, w in self.delta.items()}
            self.states[0] = (self.states[0][0], {lid: w * factor for lid, w in self.states[0][1].items()})
            self.restart = 0
        if demand.demand_cap_mbps is not None:
            self.cap[cid] = demand.demand_cap_mbps.as_integer_ratio()
        self.demand[cid] = demand
        self.weight[cid] = w = num * (self.scale // den)
        for lid in demand.links:
            self.members[lid][cid] = None
            self.delta[lid] = self.delta.get(lid, 0) + w

    def remove(self, cid: Hashable) -> None:
        self.cap.pop(cid, None)
        w = self.weight.pop(cid)
        for lid in self.demand.pop(cid).links:
            del self.members[lid][cid]
            self.delta[lid] = self.delta.get(lid, 0) - w
        if cid in self.frozen_in:  # it rose until the first round on one of its keys
            self.restart = min(self.restart, self.frozen_in.pop(cid))

    def fill(self) -> dict[Hashable, Optional[tuple[int, int]]]:
        """Refill from the first round the changes since the last fill touch.
        Returns each kept claimant whose rate moved, with its rate before the
        fill (``None`` for one added since)."""
        rounds, states, rate, cap, weight = self.rounds, self.states, self.rate, self.cap, self.weight
        restart, frozen_in = self.restart, self.frozen_in
        grown = [(lid, w) for lid, w in self.delta.items() if w > 0]
        capped = [(weight[c], n, d) for c, (n, d) in cap.items() if c not in frozen_in]  # new caps
        for i in range(restart if grown or capped else 0):
            (num, den), (room, rising) = rounds[i][0], states[i]
            if any(num * room[k][1] * (rising[k] + w) >= room[k][0] * den for k, w in grown) or any(
                    num * w * d >= n * den for w, n, d in capped):
                restart = i
                break
        for room, rising in states[:restart + 1]:
            for lid, w in self.delta.items():
                rising[lid] += w
        before = {c: rate.pop(c) for _, _, frozen in rounds[restart:] for c in frozen}
        moved: dict[Hashable, Optional[tuple[int, int]]] = {}
        room, rising = states[restart]
        del rounds[restart:], states[restart:]
        level = {lid: _rise(room[lid], w) for lid, w in rising.items() if w}
        level.update((c, _rise(cap[c], weight[c])) for c in cap if c not in rate)
        demand, members = self.demand, self.members
        while level:
            key = min(level, key=level.__getitem__)
            num, den = at = level[key][1]
            states.append((room.copy(), rising.copy()))
            frozen = [c for c in members.get(key, (key,)) if c not in rate]  # a cap's key: its claimant
            if not frozen:
                raise AssertionError("progressive filling failed to freeze any claimant")
            gained: dict[str, int] = {}
            for c in frozen:
                w = weight[c]
                g = gcd(w, den)  # the level is reduced, so this reduces level * weight
                rate[c] = r = (num * (w // g), den // g)
                if r != (old := before.get(c)):
                    moved[c] = old
                frozen_in[c] = len(rounds)
                level.pop(c, None)
                for lid in demand[c].links:
                    gained[lid] = gained.get(lid, 0) + w
            rounds.append((at, key, frozen))
            for lid, w in gained.items():
                g = gcd(w, den)
                room[lid] = _minus(room[lid], (num * (w // g), den // g))
                rising[lid] -= w
                if rising[lid]:
                    level[lid] = _rise(room[lid], rising[lid])
                else:
                    del level[lid]
        states.append((room, rising))
        self.delta, self.restart = {}, len(rounds)
        return moved

    def allocation(self) -> FlowAllocation:
        """The rates in claimant order and the residuals, as ``Fraction``s."""
        rates, room = [self.rate[c] for c in self.demand], self.states[-1][0]
        # One Fraction per distinct value: many claimants share a rate.
        exact = {pair: Fraction(*pair) for pair in {*rates, *room.values()}}
        return FlowAllocation(
            rates_exact={d.session_id: exact[r] for d, r in zip(self.demand.values(), rates)},
            residuals_exact={lid: exact[room[lid]] for lid in self.capacity},
        )


def water_fill(capacities: Mapping[str, Rate], demands: DemandMatrix) -> FlowAllocation:
    """Allocate link capacity to all demands, weighted max-min fair."""
    filling = Filling(capacities)
    for i, demand in enumerate(demands.sessions):
        filling.add(i, demand)
    filling.fill()
    return filling.allocation()


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
