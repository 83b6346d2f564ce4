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

A ``Filling`` keeps, across epochs, a log of freeze rounds in level order
and, per key (a link or a demand cap), its claimants and its trail: the
rounds that froze weight on it.  An epoch propagates a change through the
keys in level order (Ros-Giralt et al., SIGMETRICS 2020).  The keys of added
and removed claimants start out dirty.  A kept round is reused unchanged
unless its key is dirty (it is dropped, and its claimants rise again and
mark their keys dirty) or a dirty key now saturates below its level (a fresh
round freezes that key first).  A claimant whose rate changes marks every
key it crosses dirty.  A dirty key's level is a lower bound, worked out
exactly from its trail only when the key may be the lowest: freezing
claimants below a key's level only raises it.  Levels are ordered by their
lead ``floor(level * 2**32)``, an int that orders two levels whenever it
differs; equal leads compare levels exactly.  Weighted max-min fair rates
are unique, so the order of keys at one level changes no rate: a kept round
at a dirty key's level is reused first, and ``water_fill``, a fill from
nothing, gives the rates of a kept filling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import gcd, lcm
from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .addressing import Rate, ScienceDomainTag, as_fraction


class UnknownLink(KeyError):
    """A demand references a link absent from the capacity map."""


class UnknownTag(KeyError):
    """A session carries a science-domain tag absent from the policy table."""


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


class _Round:
    """One freeze round: its level (after its lead), its key, the claimants it
    froze, the scaled weight it froze on each key and the rising weight it
    left on each, and its place in the log."""

    __slots__ = ("at", "key", "frozen", "gained", "rising", "pos")

    def __init__(self, at: tuple[int, _Level], key: Hashable, frozen: list, pos: float) -> None:
        self.at, self.key, self.frozen, self.pos = at, key, frozen, pos
        self.gained: dict[Hashable, int] = {}
        self.rising: dict[Hashable, int] = {}


_place = attrgetter("pos")


class Filling:
    """Progressive filling kept across epochs: ``add`` and ``remove``
    claimants, then ``fill``.  ``rate`` holds each claimant's rate as a
    reduced int pair.  A claimant id also names its demand cap's private
    key, so it must not be a link id."""

    def __init__(self, capacities: Mapping[str, Rate]) -> None:
        self.capacity = {lid: as_fraction(c).as_integer_ratio() for lid, c in capacities.items()}
        for lid, (num, den) in self.capacity.items():
            if num <= 0:
                raise ValueError(f"link {lid!r}: capacity must be positive, got {Fraction(num, den)}")
        # Per key (a link, or a capped claimant's cap): its bound, its
        # claimants, their summed scaled weight, its trail (the rounds that
        # froze any of them) and its level before any round, once worked out.
        self.bound: dict[Hashable, tuple[int, int]] = dict(self.capacity)
        self.members: dict[Hashable, dict[Hashable, None]] = {lid: {} for lid in self.capacity}
        self.load: dict[Hashable, int] = dict.fromkeys(self.capacity, 0)
        self.trail: dict[Hashable, list[_Round]] = {lid: [] for lid in self.capacity}
        self.first: dict[Hashable, tuple[int, _Level]] = {}
        self.scale = 1  # the lcm of every weight denominator seen
        self.demand: dict[Hashable, Demand] = {}
        self.weight: dict[Hashable, int] = {}  # weight * scale
        self.keys: dict[Hashable, tuple[Hashable, ...]] = {}  # claimant -> the keys it crosses
        self.frozen_in: dict[Hashable, _Round] = {}
        self.rate: dict[Hashable, tuple[int, int]] = {}
        self.rounds: list[_Round] = []  # in level order
        self.touched: set[Hashable] = set()  # keys whose claimants changed since the last fill

    def add(self, cid: Hashable, demand: Demand) -> None:
        if cid in self.weight:
            raise ValueError(f"claimant {cid!r} is already held")
        missing = demand.links - self.capacity.keys()
        if missing:
            raise UnknownLink(f"demand {demand.session_id!r} references unknown links {sorted(missing)}")
        if not demand.links and demand.demand_cap_mbps is None:
            raise ValueError(f"demand {demand.session_id!r} crosses no links and has no cap; rate unbounded")
        num, den = demand.weight.as_integer_ratio()
        if self.scale % den:  # every level changes: no kept round stays
            factor = lcm(self.scale, den) // self.scale
            self.scale *= factor
            self.weight = {c: w * factor for c, w in self.weight.items()}
            self.load = {key: w * factor for key, w in self.load.items()}
            self.touched.update(self.members)
        keys = tuple(demand.links)
        if demand.demand_cap_mbps is not None:
            keys += (cid,)
            self.bound[cid] = demand.demand_cap_mbps.as_integer_ratio()
            self.members[cid], self.load[cid], self.trail[cid] = {}, 0, []
        self.demand[cid], self.keys[cid] = demand, keys
        self.weight[cid] = w = num * (self.scale // den)
        for key in keys:
            self.members[key][cid] = None
            self.load[key] += w
        self.touched.update(keys)

    def remove(self, cid: Hashable) -> None:
        demand, keys, w = self.demand.pop(cid), self.keys.pop(cid), self.weight.pop(cid)
        self.rate.pop(cid, None)
        self.frozen_in.pop(cid, None)
        for key in keys:
            del self.members[key][cid]
            self.load[key] -= w
        if demand.demand_cap_mbps is not None:
            del self.bound[cid], self.members[cid], self.load[cid], self.trail[cid]
        self.touched.update(keys)

    def fill(self) -> dict[Hashable, Optional[tuple[int, int]]]:
        """Refill the rounds that the changes since the last fill reach.
        Returns each kept claimant whose rate moved, with its rate before the
        fill (``None`` for one added since)."""
        if not self.touched:
            return {}
        rate, weight, members, keys, frozen_in, trail = (
            self.rate, self.weight, self.members, self.keys, self.frozen_in, self.trail)
        # old[:i] are reused or dropped, old[i:] pending.  A fresh round takes
        # the place i - 0.5, so a claimant is frozen before the cursor when
        # the place of its round is below i.
        old, out, i = self.rounds, [], 0
        rising: dict[Hashable, int] = {}  # per dirty key: its rising weight at the cursor
        # Per dirty key that something still rises on: a lower bound on its
        # saturation level, exact for the keys in ``exact``.  Freezing
        # claimants below a key's level only raises it.
        level: dict[Hashable, tuple[int, _Level]] = {}
        exact: set[Hashable] = set()
        heap: list[tuple[tuple[int, _Level], int, Hashable]] = []  # (level, tick, key), stale ones too
        tick = count()
        before: dict[Hashable, tuple[int, int]] = {}  # each claimant of a dropped round: its rate
        moved: dict[Hashable, Optional[tuple[int, int]]] = {}
        first = self.first
        for key in self.touched:
            first.pop(key, None)

        def settle(key: Hashable, at: tuple[int, _Level]) -> None:
            level[key] = at
            heappush(heap, (at, next(tick), key))

        def mark(new: Iterable[Hashable]) -> None:
            """Track each key from now on: cut its trail at the cursor."""
            for key in new:
                if key in rising:
                    continue
                path = trail.get(key)
                if path is None:  # the cap of a removed claimant
                    rising[key] = 0
                    continue
                n = bisect_left(path, i, key=_place)
                del path[n:]
                rising[key] = up = path[-1].rising[key] if n else self.load[key]
                if up:
                    if key not in first:
                        first[key] = _rise(self.bound[key], self.load[key])
                    settle(key, first[key])

        def passed(r: _Round) -> None:
            """Append ``r`` to the trails of the dirty keys it froze weight on."""
            for key, w in r.gained.items():
                if key in rising:
                    trail[key].append(r)
                    exact.discard(key)
                    r.rising[key] = up = rising[key] - w
                    rising[key] = up
                    if not up:
                        level.pop(key, None)

        mark(self.touched)
        while True:
            while heap and level.get(heap[0][2]) is not heap[0][0]:
                heappop(heap)
            best = heap[0][2] if heap else None
            if i < len(old) and old[i].key in rising:  # drop it
                dropped = [c for c in old[i].frozen if frozen_in.get(c) is old[i]]
                for c in dropped:
                    before[c] = rate.pop(c)
                mark(key for c in dropped for key in keys[c])
                i += 1
            elif i < len(old) and (best is None or not level[best] < old[i].at):  # reuse it
                out.append(old[i])
                passed(old[i])
                i += 1
            elif best is None:
                break
            elif best not in exact:  # work out its room from its trail
                a, b = self.bound[best]
                for r in trail[best]:
                    w, (num, den) = r.gained[best], r.at[1]
                    a, b = a * den - num * w * b, b * den
                    g = gcd(a, b)
                    a, b = a // g, b // g
                exact.add(best)
                settle(best, _rise((a, b), rising[best]))
            else:  # a fresh round: every claimant still rising on best freezes
                at = level.pop(best)
                num, den = at[1]
                frozen = [c for c in members[best] if not (c in rate and frozen_in[c].pos < i)]
                if not frozen:
                    raise AssertionError("progressive filling failed to freeze any claimant")
                r = _Round(at, best, frozen, i - 0.5)
                gained, early = r.gained, []  # early: frozen below their pending round
                for c in frozen:
                    w = weight[c]
                    g = gcd(w, den)  # the level is reduced, so this reduces level * weight
                    new = (num * (w // g), den // g)
                    if c in rate:
                        early.append(c)
                        was = rate[c]
                    else:  # dropped or added: its keys are dirty already
                        was = before.pop(c, None)
                    if new != was:
                        moved[c] = was
                    rate[c], frozen_in[c] = new, r
                    for key in keys[c]:
                        gained[key] = gained.get(key, 0) + w
                out.append(r)
                # Their rates moved, which leaves the kept rounds on their keys stale.
                mark(key for c in early for key in keys[c])
                passed(r)
        for pos, r in enumerate(out):
            r.pos = pos
        self.rounds, self.touched = out, set()
        return moved

    def allocation(self) -> FlowAllocation:
        """The rates in claimant order and the residuals, as ``Fraction``s."""
        rates, room = [self.rate[c] for c in self.demand], dict(self.capacity)
        for c, r in zip(self.demand, rates):
            for lid in self.demand[c].links:
                room[lid] = _minus(room[lid], r)
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
