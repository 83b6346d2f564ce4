"""Deterministic discrete-event simulation of the substrate and overlay.

The substrate is a set of opaque domains: attachment points joined by
capacity/latency/loss links, with a static background-utilization haircut
on each link and a single, fixed internal best path between any two
attachments of a domain.  The overlay never asks the substrate for more
than one hop: every emitted segment is addressed to the locator of the next
overlay hop, and the substrate has no choice but to carry it there.

One event queue drives everything.  Events pop in (time, insertion-rank)
order, the queue owns the single seeded RNG (consumed only for loss draws,
in event order), and scheduling into the past is a hard fault.  The same
(config, seed) therefore always yields the same event trace, byte for byte.

Each event type has one handler and one trace encoder.  ``trace_hash`` (trace
v2, see the README) covers a segment's header, tag, ``l3_dest`` and payload
SHA-256, computed once per (session, seq), never the payload bytes.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import ceil
from typing import Any, Callable, NamedTuple, Optional

from .addressing import AddressKind, L3Locator, ResolverTable, parse_address
# domain_shares and water_fill are unused here, but anchorbench/layers.py wraps them by these names.
from .allocator import Demand, Filling, _minus, domain_shares, water_fill  # noqa: F401
from .anchor import Anchor
# synth_payload is unused here, but anchorbench/layers.py wraps it by this name.
from .gateway import (  # noqa: F401
    SWEEP_INTERVAL_US,
    GatewayCatalog,
    ObjectUnavailable,
    PayloadStream,
    select_source,
    synth_payload,
)
from .pathfinder import L5Path, k_disjoint_paths, lex_shortest
from .metrics import build_report
from .pubsub import DistributionTree, build_tree
from .scenario import MODE_BASELINE, ScenarioConfig
from .session import (
    ACK,
    PathRef,
    ReceiverSession,
    Segment,
    SenderSession,
    locator_bytes,
)
from .topology import Adjacency, AnchorLinkState, LinkStateAdvertisement, _pstr, originate_lsa

TRACE_SALT = b"anchornet-trace-v2"
_STAMP = struct.Struct(">QQ")  # time, insertion rank


class CausalityViolation(RuntimeError):
    """An event was scheduled earlier than the current simulation time."""


class EmptyQueue(RuntimeError):
    """step() was called with nothing left to process."""


class SimFault(RuntimeError):
    """A scenario asked for something the simulated world cannot do."""


# -- events -------------------------------------------------------------------


class LsaFlood(NamedTuple):
    to_anchor: str
    from_anchor: str
    lsa: LinkStateAdvertisement


class LinkHop(NamedTuple):
    segment: Segment
    crossed: str
    remaining: tuple[str, ...]
    dest_node: str


class NodeArrival(NamedTuple):
    segment: Segment
    crossed: str
    node: str


class SessionWake(NamedTuple):
    sid: int
    node: str


class ScenarioAction(NamedTuple):
    index: int


class GatewaySweep(NamedTuple):
    pass


class EventQueue:
    """Time-ordered queue with a total, data-independent tie-break."""

    def __init__(self, seed: int) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._tiebreak = 0
        self.now = 0
        self.rng = random.Random(seed)

    def push(self, time_us: int, event: Any) -> None:
        if time_us < self.now:
            raise CausalityViolation(
                f"event {type(event).__name__} scheduled at {time_us} before now={self.now}"
            )
        heapq.heappush(self._heap, (time_us, self._tiebreak, event))
        self._tiebreak += 1

    def pop(self) -> tuple[int, int, Any]:
        if not self._heap:
            raise EmptyQueue("no events left")
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        return entry

    def peek_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def snapshot(self) -> list[tuple[int, int, Any]]:
        return sorted(self._heap)


# -- substrate wiring -----------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    """One directed overlay hop realized on the substrate: the link chain
    from the emitter's port to the next hop's port, inside one domain."""

    links: tuple[str, ...]
    dest: L3Locator
    latency_us: int
    raw_mbps: Fraction
    avail_mbps: Fraction


@dataclass
class LinkCounters:
    transmitted: int = 0
    delivered: int = 0
    dropped: int = 0
    data_original: int = 0
    data_retransmit: int = 0
    acks: int = 0
    payload_bytes: int = 0


@dataclass(slots=True)
class LinkEntry:
    """All that entering a link reads and writes.  ``serialization_us`` maps a
    payload size to its serialization delay, filled on first use."""

    counters: LinkCounters
    latency_us: int
    loss_prob: float
    avail_mbps: Fraction
    up: bool = True
    serialization_us: dict[int, int] = field(default_factory=dict)


@dataclass
class Transfer:
    """Runtime record for one unicast transfer."""

    id_str: str
    sid: int
    src: str
    dst: str
    tag: str
    total_bytes: int
    k: int
    home_anchor: str
    t_open: int
    discovered: list[L5Path]
    used: list[L5Path]
    sender: SenderSession
    receiver: ReceiverSession
    source: PayloadStream
    potential_mbps: Fraction
    residual_potential_mbps: Fraction
    rate_cap_mbps: Optional[Fraction] = None
    status: str = "active"
    t_complete: Optional[int] = None
    next_pid: int = 0
    on_complete: Any = None

    @property
    def source_digest(self) -> str:
        """SHA-256 of the whole object the transfer sends."""
        return self.source.hexdigest()


@dataclass
class TreeEdge:
    pid: int
    parent: str
    child: str
    sender: SenderSession


@dataclass
class SubscriberLeg:
    name: str
    anchor: str
    join_seq: int
    receiver: ReceiverSession
    complete_at: Optional[int] = None


@dataclass
class PubTransfer:
    """Runtime record for one distribution-tree session."""

    id_str: str
    sid: int
    publisher: str
    object_name: Optional[str]
    tag: str
    total_bytes: int
    tree: DistributionTree
    t_open: int
    source: PayloadStream
    edges: list[TreeEdge] = field(default_factory=list)
    subscribers: dict[str, SubscriberLeg] = field(default_factory=dict)
    downstream: dict[str, list[TreeEdge]] = field(default_factory=dict)
    next_pid: int = 0
    status: str = "active"
    stage_ttl_us: Optional[int] = None


class Simulation:
    """One scenario instance: build, run, report."""

    _events: dict[type, tuple[Callable[..., None], Callable[..., bytes]]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """A subclass's events go to its own overrides of the handlers."""
        super().__init_subclass__(**kwargs)
        cls._events = {kind: (getattr(cls, handle.__name__), encode)
                       for kind, (handle, encode) in _EVENTS.items()}

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        seed: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> None:
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.mode = config.mode if mode is None else mode
        self.queue = EventQueue(self.seed)
        self._trace = hashlib.sha256(TRACE_SALT)
        # Byte forms for the trace, each encoded once per simulation.
        self._name_bytes = cache(_pstr)
        # sid -> seq -> payload SHA-256, kept only while the session or tree is active.
        self._digests: dict[int, dict[int, bytes]] = {}
        self.events_processed = 0
        self.clock_end = 0

        self.l3_dest_violations = 0
        self.dropped_unknown_hosts = 0

        self._next_sid = 1
        self.transfers: dict[int, Transfer] = {}
        # home anchor -> sid -> each active transfer homed there, in sid order
        self._homed: dict[str, dict[int, Transfer]] = {}
        self.pubs: dict[int, PubTransfer] = {}
        self.senders: dict[tuple[int, str], dict[int, SenderSession]] = {}
        self.receivers: dict[tuple[int, str], ReceiverSession] = {}
        self.path_hops: dict[tuple[int, int], tuple[str, ...]] = {}
        # (sid, pid, hop) -> (successor, predecessor), None past either end.
        self._neighbours: dict[tuple[int, int, str], tuple[Optional[str], Optional[str]]] = {}
        self.alloc_epochs: list[dict[str, Any]] = []
        # Demand id -> None for each claimant released since the last epoch.
        self._released: dict[str, None] = {}
        self._sweep_armed = False
        self._trees_by_object: dict[str, int] = {}

        self._build_substrate()
        self._build_overlay()
        self._bootstrap_control_plane()
        for index, _ in enumerate(config.events):
            self.queue.push(config.events[index].time_us, ScenarioAction(index))

    # -- construction -------------------------------------------------------

    def _build_substrate(self) -> None:
        cfg = self.config
        self.links = {l.id: l for l in cfg.links}
        self.link_avail = {l.id: l.available_mbps for l in cfg.links}
        # Claimants are keyed (0 for a unicast path or 1 for a tree edge, sid,
        # path id).  Down links keep their capacity entry: a demand may still
        # reference one for the short window between the failure and its repath.
        self.filling = Filling(self.link_avail)
        self.link_counters = {l.id: LinkCounters() for l in cfg.links}
        self.link_entries = {
            l.id: LinkEntry(self.link_counters[l.id], l.latency_us, l.loss_prob, l.available_mbps)
            for l in cfg.links
        }
        # domain -> attachment -> neighbour -> latency, and (domain, attachment,
        # neighbour) -> the link between them.  Of parallel links, the lowest
        # latency, then the lowest id, is written last and kept.
        self._domain_graph: dict[str, dict[str, dict[str, int]]] = {
            dom.id: {att: {} for att in dom.attachments} for dom in cfg.domains
        }
        self._domain_link: dict[tuple[str, str, str], str] = {}
        for link in sorted(cfg.links, key=lambda l: (l.latency_us, l.id), reverse=True):
            a, b = link.endpoints
            for u, v in ((a, b), (b, a)):
                self._domain_graph[link.domain][u][v] = link.latency_us
                self._domain_link[(link.domain, u, v)] = link.id

    def _domain_route(self, domain: str, src_att: str, dst_att: str) -> tuple[str, ...]:
        """The domain's single best internal path, as a link-id chain.

        Shortest by latency with a lexicographic tie-break on attachment
        names; frozen for the whole run regardless of later link failures.
        """
        graph = self._domain_graph[domain]
        found = lex_shortest(src_att, (dst_att,), lambda att: graph[att].items()).get(dst_att)
        if found is None:
            raise SimFault(f"domain {domain!r} has no internal path {src_att!r} -> {dst_att!r}")
        hops = found[1]
        return tuple(self._domain_link[(domain, u, v)] for u, v in zip(hops, hops[1:]))

    def _make_leg(self, domain: str, src_att: str, dst_att: str) -> Leg:
        chain = self._domain_route(domain, src_att, dst_att)
        latency = sum(self.links[lid].latency_us for lid in chain)
        raw = min(self.links[lid].capacity_mbps for lid in chain)
        avail = min(self.link_avail[lid] for lid in chain)
        return Leg(chain, L3Locator(domain, dst_att), latency, raw, avail)

    def _build_overlay(self) -> None:
        cfg = self.config
        self.policy = cfg.policy_weights()
        # Exact allocated rate per science-domain tag, kept by delta.
        self.tag_totals = {tag: (0, 1) for tag in sorted(self.policy)}
        self.owner: dict[L3Locator, str] = {}
        self.anchors: dict[str, Anchor] = {}
        self.host_anchor: dict[str, str] = {}
        locators: list[L3Locator] = []
        for dom in cfg.domains:
            for att in dom.attachments:
                locators.append(L3Locator(dom.id, att))
        self.resolver = ResolverTable.new(locators)

        for acfg in cfg.anchors:
            ports = tuple(L3Locator(p.domain, p.attachment) for p in acfg.ports)
            anchor = Anchor(
                name=acfg.name,
                ports=ports,
                catalog=GatewayCatalog() if acfg.gateway else None,
            )
            self.anchors[acfg.name] = anchor
            for port in ports:
                self.owner[port] = acfg.name
                self.resolver = self.resolver.register(acfg.name, port)
        for hcfg in cfg.hosts:
            port = L3Locator(hcfg.port.domain, hcfg.port.attachment)
            self.host_anchor[hcfg.name] = hcfg.anchor
            self.owner[port] = hcfg.name
            self.resolver = self.resolver.register(hcfg.name, port)

        # Directed overlay hops: anchor peerings plus host access legs.
        self.legs: dict[tuple[str, str], Leg] = {}
        self.adjacency_links: dict[frozenset[str], tuple[str, ...]] = {}
        anchor_ports = {
            a.name: {p.domain: sorted(pp.attachment for pp in a.ports if pp.domain == p.domain)
                     for p in a.ports}
            for a in cfg.anchors
        }
        seen_pairs: set[frozenset[str]] = set()
        self.peerings: list[tuple[str, str, str]] = []
        for acfg in cfg.anchors:
            for peer in acfg.peers:
                pair = frozenset((acfg.name, peer.anchor))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                self.peerings.append((acfg.name, peer.anchor, peer.domain))
        for a_name, b_name, domain in self.peerings:
            a_att = anchor_ports[a_name][domain][0]
            b_att = anchor_ports[b_name][domain][0]
            self.legs[(a_name, b_name)] = self._make_leg(domain, a_att, b_att)
            self.legs[(b_name, a_name)] = self._make_leg(domain, b_att, a_att)
            self.adjacency_links[frozenset((a_name, b_name))] = self.legs[(a_name, b_name)].links
        for hcfg in cfg.hosts:
            domain = hcfg.port.domain
            anchor_att = anchor_ports[hcfg.anchor][domain][0]
            self.legs[(hcfg.name, hcfg.anchor)] = self._make_leg(domain, hcfg.port.attachment, anchor_att)
            self.legs[(hcfg.anchor, hcfg.name)] = self._make_leg(domain, anchor_att, hcfg.port.attachment)

        # Each anchor's outgoing legs and next-hop locators, by neighbour name.
        self.out_legs: dict[str, dict[str, Leg]] = {name: {} for name in self.anchors}
        for (u, v), leg in self.legs.items():
            if u in self.anchors:
                self.out_legs[u][v] = leg
        self.hop_locators: dict[str, dict[str, L3Locator]] = {
            name: {v: leg.dest for v, leg in legs.items()} for name, legs in self.out_legs.items()
        }

        self.link_cost: dict[frozenset[str], Fraction] = {
            pair: sum((self.links[lid].cost for lid in chain), Fraction(0))
            for pair, chain in self.adjacency_links.items()
        }

    def _anchor_adjacencies(self, name: str) -> tuple[Adjacency, ...]:
        """The anchor's current usable legs, for advertisement."""
        out = []
        for v, leg in sorted(self.out_legs[name].items()):
            if any(not self.link_entries[lid].up for lid in leg.links):
                continue
            domain = leg.dest.domain_id
            out.append(Adjacency(v, leg.avail_mbps, leg.latency_us, domain))
        return tuple(out)

    def _bootstrap_control_plane(self) -> None:
        self.lsa_tx: dict[tuple[str, int], int] = {}
        for name in sorted(self.anchors):
            anchor = self.anchors[name]
            anchor.peer_names = tuple(sorted(v for v in self.out_legs[name] if v in self.anchors))
            anchor.link_state = AnchorLinkState(name, self._anchor_adjacencies(name))
            self._originate(name, 0)

    def _originate(self, name: str, now: int) -> None:
        anchor = self.anchors[name]
        anchor.link_state = AnchorLinkState(name, self._anchor_adjacencies(name), anchor.link_state.seq)
        anchor.link_state, lsa = originate_lsa(anchor.link_state)
        anchor.db, _ = anchor.db.receive(lsa)
        for peer in anchor.peer_names:
            self._send_lsa(name, peer, lsa, now)
        self._check_repath(name, now)

    def _send_lsa(self, sender: str, receiver: str, lsa: LinkStateAdvertisement, now: int) -> None:
        key = (lsa.origin, lsa.seq)
        self.lsa_tx[key] = self.lsa_tx.get(key, 0) + 1
        latency = self.legs[(sender, receiver)].latency_us
        self.queue.push(now + latency, LsaFlood(receiver, sender, lsa))

    def _handle_lsa(self, event: LsaFlood, now: int) -> None:
        anchor = self.anchors[event.to_anchor]
        db, flood = anchor.db.receive(event.lsa)
        anchor.db = db
        if flood:
            for peer in anchor.peer_names:
                if peer != event.from_anchor:
                    self._send_lsa(event.to_anchor, peer, event.lsa, now)
            self._check_repath(event.to_anchor, now)

    # -- event loop -----------------------------------------------------------

    def step(self) -> None:
        """Pop exactly one event, add it to the trace and dispatch it to its
        owning machine."""
        now, rank, event = self.queue.pop()
        self.clock_end = now
        self.events_processed += 1
        try:
            handle, encode = self._events[type(event)]
        except KeyError:
            raise SimFault(f"unknown event {event!r}") from None
        self._trace.update(_STAMP.pack(now, rank) + encode(self, event))
        handle(self, event, now)

    def run(self) -> dict[str, Any]:
        """Execute until the queue drains or the horizon passes; report."""
        horizon = self.config.horizon_us
        while True:
            t = self.queue.peek_time()
            if t is None or t > horizon:
                break
            self.step()
        return build_report(self)

    def _handle_hop(self, event: LinkHop, now: int) -> None:
        self.link_counters[event.crossed].delivered += 1
        self._enter_link(event.segment, event.remaining, event.dest_node, now)

    def _handle_arrival(self, event: NodeArrival, now: int) -> None:
        """Hand a segment to the node's sender (an ACK) or receiver (data).  One
        that neither takes is in transit: the node's anchor forwards it, and the
        copy is sent on as an endpoint's send is."""
        segment, lid, node = event
        self.link_counters[lid].delivered += 1
        sid, pid = segment.session_id, segment.path_id
        if segment.kind is ACK:
            group = self.senders.get((sid, node))
            if group and pid in group:
                sender = group[pid]
                sender.on_ack(segment, now)
                self._after_sender_progress(sid, node, sender, now)
                return
        else:
            receiver = self.receivers.get((sid, node))
            if receiver is not None:
                delivered, acks = receiver.on_receive(segment, now)
                ends = self._neighbours.get((sid, pid, node))
                if ends is not None and ends[1] is not None:
                    for ack in acks:
                        self.transmit(ack, node, ends[1], now)
                if delivered:
                    self._on_delivery(sid, node, delivered, now)
                return
        anchor = self.anchors.get(node)
        if anchor is None:
            self.dropped_unknown_hosts += 1
            return
        forwarded = anchor.forward(segment, self.hop_locators[node])
        if forwarded is not None:
            self.transmit(forwarded[1], node, forwarded[0], now)

    def _segment_record(self, name: str, segment: Segment) -> bytes:
        """The length-prefixed ``name`` followed by ``segment.encode()``.  The
        header with the tag, and the payload digest, are built once per
        segment; its readdressed copies carry them."""
        fields = segment.__dict__
        body = fields.get("_trace")
        if body is None:
            body = fields["_trace"] = (segment.header() + self._name_bytes(segment.tag),
                                       self._payload_digest(segment))
        return self._name_bytes(name) + body[0] + locator_bytes(segment.l3_dest) + body[1]

    def _payload_digest(self, segment: Segment) -> bytes:
        """SHA-256 of a data segment's payload, computed once per (session,
        seq) while the session is active; ``b""`` for an acknowledgement."""
        payload = segment.payload
        if not payload:
            return b""
        digests = self._digests.get(segment.session_id)
        if digests is None:  # a late copy of an ended session: nothing is kept for it
            return hashlib.sha256(payload).digest()
        digest = digests.get(segment.seq)
        if digest is None:
            digest = digests[segment.seq] = hashlib.sha256(payload).digest()
        return digest

    # -- substrate data plane ---------------------------------------------------

    def transmit(self, segment: Segment, emitter: str, next_l5: str, now: int) -> None:
        """Hand a segment to the substrate for exactly one overlay hop.

        Independently re-derives the expected next hop from the installed
        path record and counts any disagreement: this is the compatibility
        rule that a segment's substrate destination is always the very next
        overlay hop, never a shortcut to the far end.
        """
        ends = self._neighbours.get((segment.session_id, segment.path_id, emitter))
        if ends is not None and ends[segment.kind is ACK] != next_l5:
            self.l3_dest_violations += 1
        leg = self.legs.get((emitter, next_l5))
        if leg is None:
            raise SimFault(f"no substrate leg {emitter!r} -> {next_l5!r}")
        if leg.dest is not segment.l3_dest and leg.dest != segment.l3_dest:
            self.l3_dest_violations += 1
        self._enter_link(segment, leg.links, next_l5, now)

    def _enter_link(
        self, segment: Segment, links: tuple[str, ...], dest_node: str, now: int
    ) -> None:
        lid = links[0]
        link = self.link_entries[lid]
        counters, size = link.counters, len(segment.payload)
        counters.transmitted += 1
        if segment.kind is ACK:
            counters.acks += 1
        elif segment.is_retransmit:
            counters.data_retransmit += 1
        else:
            counters.data_original += 1
        counters.payload_bytes += size
        # A down link draws no loss.
        if not link.up or link.loss_prob > 0 and self.queue.rng.random() < link.loss_prob:
            counters.dropped += 1
            return
        serialization = link.serialization_us.get(size)
        if serialization is None:
            serialization = link.serialization_us[size] = ceil(Fraction(size * 8) / link.avail_mbps)
        arrival = now + link.latency_us + serialization
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        if len(links) > 1:
            self.queue.push(arrival, tuple.__new__(LinkHop, (segment, lid, links[1:], dest_node)))
        else:
            self.queue.push(arrival, tuple.__new__(NodeArrival, (segment, lid, dest_node)))

    # -- session machinery ------------------------------------------------------

    def _session_wake(self, event: SessionWake, now: int) -> None:
        sid, node = event.sid, event.node
        group = self.senders.get((sid, node))
        if not group:
            return
        # Each distinct sender that claimed this wake, once, in the order of its
        # lowest path id: a group holds its path ids in the ascending order they were claimed.
        for sender in dict.fromkeys(group.values()):
            if sender.release_wake(now):
                self._pump(sid, node, sender, now)

    def _pump(self, sid: int, node: str, sender: SenderSession, now: int) -> None:
        anchor = self.anchors.get(node)
        for segment, at in sender.schedule(now):
            if anchor is not None:
                anchor.account_relay(segment)
            self.transmit(segment, node, self.path_hops[(sid, segment.path_id)][1], at)
        self._arm(sid, node, sender, now)

    def _arm(self, sid: int, node: str, sender: SenderSession, now: int) -> None:
        wake = sender.next_wake(now)
        if wake is not None and sender.claim_wake(wake):
            self.queue.push(wake, SessionWake(sid, node))

    def _after_sender_progress(
        self, sid: int, node: str, sender: SenderSession, now: int
    ) -> None:
        if sender.complete:
            transfer = self.transfers.get(sid)
            if transfer is not None and transfer.status == "active":
                self._end(transfer, "complete", now)
                return
            pub = self.pubs.get(sid)
            if pub is not None and pub.status == "active":
                (pid,) = sender.paths
                released = self._drop_claim((1, sid, pid))
                if all(edge.sender.complete for edge in pub.edges):
                    self._end(pub, "complete", now)
                elif released:  # the tree goes on: its other claimants take the freed capacity
                    self._reallocate(now)
                return
        self._arm(sid, node, sender, now)

    def _on_delivery(self, sid: int, node: str, delivered: list[bytes], now: int) -> None:
        pub = self.pubs.get(sid)
        if pub is None:
            return
        for edge in pub.downstream.get(node, ()):
            edge.sender.feed(delivered)
            self._arm(sid, node, edge.sender, now)
        leg = pub.subscribers.get(node)
        if leg is not None:
            self._subscriber_progress(pub, leg, now)

    def _subscriber_progress(self, pub: PubTransfer, leg: SubscriberLeg, now: int) -> None:
        """Complete ``leg`` once its receiver holds the rest of the stream, and
        stage a replica at a subscriber that received the stream from its start."""
        if leg.receiver.complete and leg.complete_at is None:
            leg.complete_at = now
            if pub.object_name and leg.join_seq == 0:
                self._stage_replica(leg.name, pub.object_name, pub.total_bytes, pub.stage_ttl_us, now)

    # -- transfers ----------------------------------------------------------------

    def _home_anchor(self, endpoint: str) -> str:
        if endpoint in self.anchors:
            return endpoint
        return self.host_anchor[endpoint]

    def _path_raw_bottleneck(self, hops: tuple[str, ...]) -> Fraction:
        return min(self.legs[(u, v)].raw_mbps for u, v in zip(hops, hops[1:]))

    def _claim(
        self,
        key: tuple[int, int, int],
        hops: tuple[str, ...],
        sender: SenderSession,
        demand_id: str,
        cap: Optional[Fraction] = None,
    ) -> None:
        """Install one allocator claimant, a unicast path or a tree edge: its
        hops and each hop's neighbours on them, its demand over the links
        those hops cross, and its sender's registration at the first hop.
        The only writer of all of them.  A sender born complete (a tree edge
        grafted at the stream's end) claims no rate."""
        _, sid, pid = key
        self.path_hops[(sid, pid)] = hops
        self._neighbours.update(
            ((sid, pid, hop), (after, before)) for before, hop, after in zip((None, *hops), hops, (*hops[1:], None))
        )
        if not sender.complete:
            links = frozenset(lid for u, v in zip(hops, hops[1:]) for lid in self.legs[(u, v)].links)
            demand = Demand(demand_id, self.policy[sender.tag], links, demand_cap_mbps=cap, tag=sender.tag)
            self.filling.add(key, demand)
        self.senders.setdefault((sid, hops[0]), {})[pid] = sender

    def _use_paths(self, transfer: Transfer, paths: list[L5Path], now: int) -> None:
        """Send ``transfer`` over ``paths`` (only the first in baseline mode):
        claim each one, program the anchors on it and its reverse hop, then
        reallocate and arm the sender."""
        used = paths[:1] if self.mode == MODE_BASELINE else list(paths)
        transfer.used = used
        refs = [_path_ref(path, self.legs) for path in used]
        transfer.sender.set_paths(refs, {r.path_id: Fraction(1) for r in refs}, now)
        for path in used:
            self._claim(
                (0, transfer.sid, path.path_id), path.hops, transfer.sender,
                f"{transfer.id_str}:{path.path_id}", transfer.rate_cap_mbps,
            )
            for name in path.hops:
                if name in self.anchors:
                    self.anchors[name].install_path(transfer.sid, path)
            transfer.receiver.set_reverse_hop(
                path.path_id, self.legs[(path.hops[-1], path.hops[-2])].dest
            )
        self._reallocate(now)
        self._arm(transfer.sid, transfer.src, transfer.sender, now)

    def _unregister_paths(self, transfer: Transfer) -> None:
        for path in transfer.used:
            self._drop_claim((0, transfer.sid, path.path_id))
            for name in path.hops:
                if name in self.anchors:
                    self.anchors[name].remove_path(transfer.sid, path.path_id)

    def _drop_claim(self, key: tuple[int, int, int]) -> bool:
        """Release a claim, if it is held: a completed tree edge that hears a
        late duplicate ACK was released already.  Whether it was held."""
        demand = self.filling.demand.get(key)
        if demand is None:
            return False
        self.tag_totals[demand.tag] = _minus(self.tag_totals[demand.tag], self.filling.rate[key])
        self._released[demand.session_id] = None
        self.filling.remove(key)
        return True

    def _open_unicast(
        self, id_str: str, src: str, dst: str, tag: str, total_bytes: int, k: int, stream: str,
        now: int, *, rate_cap_mbps: Optional[Fraction] = None, on_complete: Any = None,
    ) -> Transfer:
        """Open a transfer of ``total_bytes`` of the object named ``stream``."""
        sid = self._next_sid
        self._next_sid += 1
        home = self._home_anchor(src)
        discovered = k_disjoint_paths(self.anchors[home].db, src, dst, k)
        if not discovered:
            raise SimFault(f"no path from {src!r} to {dst!r} for session {id_str!r}")
        # The sender starts on the best path; _use_paths installs the rest.
        source = PayloadStream(stream, total_bytes)
        sender = SenderSession(
            sid, tag, [_path_ref(discovered[0], self.legs)], {0: Fraction(1)}, total_bytes,
            source=source, now=now,
        )
        receiver = ReceiverSession(sid, tag, {}, total_bytes)
        transfer = Transfer(
            id_str=id_str, sid=sid, src=src, dst=dst, tag=tag, total_bytes=total_bytes, k=k,
            home_anchor=home, t_open=now, discovered=discovered, used=[], sender=sender,
            receiver=receiver, source=source,
            potential_mbps=sum((self._path_raw_bottleneck(p.hops) for p in discovered), Fraction(0)),
            residual_potential_mbps=sum(
                (p.min_capacity_mbps or Fraction(0) for p in discovered), Fraction(0)
            ),
            rate_cap_mbps=rate_cap_mbps, next_pid=len(discovered), on_complete=on_complete,
        )
        self.transfers[sid] = transfer
        self._homed.setdefault(home, {})[sid] = transfer
        self._digests[sid] = {}
        self.receivers[(sid, dst)] = receiver
        self._use_paths(transfer, discovered, now)
        return transfer

    def _end(self, session: Transfer | PubTransfer, status: str, now: int) -> None:
        """Move an active transfer or tree to its terminal ``status``
        (``complete`` or ``no_path``); the only writer of a terminal status.
        A transfer's path claims are released here; a tree's edge claims
        were released as each edge's sender completed."""
        session.status = status
        del self._digests[session.sid]
        if isinstance(session, Transfer):
            del self._homed[session.home_anchor][session.sid]
            self._unregister_paths(session)
            if status == "complete":
                session.t_complete = now
                if session.on_complete is not None:
                    session.on_complete(now)
            else:
                # Disarm the sender: a wake already queued finds no group and fires nothing.
                del self.senders[(session.sid, session.src)]
        self._reallocate(now)

    def _repath(self, transfer: Transfer, now: int) -> None:
        db = self.anchors[transfer.home_anchor].db
        fresh = k_disjoint_paths(db, transfer.src, transfer.dst, transfer.k)
        if not fresh:
            self._end(transfer, "no_path", now)
            return
        self._unregister_paths(transfer)
        renumbered = [replace(path, path_id=transfer.next_pid + i) for i, path in enumerate(fresh)]
        self._use_paths(transfer, renumbered, now)
        transfer.next_pid += len(transfer.used)

    def _check_repath(self, anchor_name: str, now: int) -> None:
        homed = list(self._homed.get(anchor_name, {}).values())
        if not homed:
            return
        graph = self.anchors[anchor_name].db.graph()
        for transfer in homed:
            if any(
                all(adj.neighbor != v for adj in graph.get(u, ()))
                for path in transfer.used
                for u, v in zip(path.hops, path.hops[1:])
            ):
                self._repath(transfer, now)

    # -- pubsub -------------------------------------------------------------------

    def _open_pubsub(
        self, id_str: str, publisher: str, subscribers: list[str], tag: str, total_bytes: int,
        stream: str, now: int, *, object_name: Optional[str] = None,
        stage_ttl_us: Optional[int] = None,
    ) -> PubTransfer:
        """Open a tree as a graft onto no edges: the publisher alone, every offset 0."""
        sid = self._next_sid
        self._next_sid += 1
        pub = PubTransfer(
            id_str=id_str, sid=sid, publisher=publisher, object_name=object_name, tag=tag,
            total_bytes=total_bytes, tree=DistributionTree(publisher, (), frozenset(), {}),
            t_open=now, source=PayloadStream(stream, total_bytes), stage_ttl_us=stage_ttl_us,
        )
        self.pubs[sid] = pub
        self._digests[sid] = {}
        if object_name is not None:
            self._trees_by_object[object_name] = sid
        self._graft(pub, subscribers, now)
        return pub

    def _graft(self, pub: PubTransfer, subscribers: list[str], now: int) -> None:
        """Rebuild ``pub``'s tree over its subscribers and ``subscribers``, add an
        edge into each node no edge reaches yet, top down, and attach ``subscribers``.

        The publisher feeds the root; hosts reach their anchor over an access leg
        that is itself a reliable hop.  Each new edge starts where its parent's
        stream stands, so no history is replayed; at open that is seq 0.
        """
        home = self._home_anchor(pub.publisher)
        tree = build_tree(
            self.anchors[home].db, pub.publisher, sorted(pub.tree.subscribers.union(subscribers)),
            self.link_cost,
        )
        pub.tree = tree
        reached = {edge.child for edge in pub.edges} | {pub.publisher}
        added = [
            self._add_pub_edge(pub, parent, child, now)
            for parent, child in [(pub.publisher, tree.root), *_tree_edges_top_down(tree)]
            if child not in reached
        ]
        for sub in sorted(set(subscribers)):
            anchor = tree.subscriber_anchors[sub]
            if sub != anchor:
                added.append(self._add_pub_edge(pub, anchor, sub, now))
            elif (pub.sid, anchor) not in self.receivers:
                # Subscriber is the anchor itself (a gateway); its relay receiver,
                # if it has one, doubles as the delivery point.
                self.receivers[(pub.sid, anchor)] = ReceiverSession(
                    pub.sid, pub.tag, {}, pub.total_bytes
                )
            receiver = self.receivers[(pub.sid, sub)]
            leg = SubscriberLeg(sub, anchor, receiver.start_seq, receiver)
            pub.subscribers[sub] = leg
            self._subscriber_progress(pub, leg, now)
        self._reallocate(now)  # pushes no event: the arms push in the order the edges were added
        for edge in added:
            self._arm(pub.sid, edge.parent, edge.sender, now)

    def _add_pub_edge(self, pub: PubTransfer, parent: str, child: str, now: int) -> TreeEdge:
        """Add the edge ``parent`` -> ``child``, starting where ``parent``'s stream
        stands.  Its sender relays what ``parent`` receives, unless ``parent`` is
        the publisher: then it sends the tree's source, or its unhashed segments
        if an earlier edge already does, from the lowest seq those edges send next."""
        pid = pub.next_pid
        pub.next_pid += 1
        leg = self.legs[(parent, child)]
        ref = PathRef(pid, (parent, child), leg.latency_us, leg.dest)
        source = None
        if parent != pub.publisher:
            start_seq = self.receivers[(pub.sid, parent)].next_expected
        elif parent in pub.downstream:
            start_seq = min(edge.sender.send_next for edge in pub.downstream[parent])
            source = pub.source.segments(start_seq)
        else:
            start_seq, source = 0, pub.source
        sender = SenderSession(
            pub.sid, pub.tag, [ref], {pid: Fraction(1)}, pub.total_bytes,
            source=source, start_seq=start_seq, now=now,
        )
        edge = TreeEdge(pid, parent, child, sender)
        pub.edges.append(edge)
        pub.downstream.setdefault(parent, []).append(edge)
        self._claim((1, pub.sid, pid), (parent, child), sender, f"{pub.id_str}:{parent}>{child}")
        receiver = ReceiverSession(
            pub.sid, pub.tag, {pid: self.legs[(child, parent)].dest},
            pub.total_bytes, start_seq=start_seq,
        )
        self.receivers[(pub.sid, child)] = receiver
        return edge

    # -- gateway actions --------------------------------------------------------

    def _stage_replica(
        self, gw_name: str, object_name: str, size: int, ttl_us: Optional[int], now: int
    ) -> None:
        anchor = self.anchors.get(gw_name)
        if anchor is None or anchor.catalog is None:
            return
        addr = parse_address(object_name, AddressKind.DATA)
        anchor.catalog.stage(addr, size, ttl_us or SWEEP_INTERVAL_US, now)
        self.resolver = self.resolver.register(addr, anchor.primary_port())
        self._arm_sweep(now)

    def _arm_sweep(self, now: int) -> None:
        if self._sweep_armed:
            return
        next_tick = (now // SWEEP_INTERVAL_US + 1) * SWEEP_INTERVAL_US
        if next_tick <= self.config.horizon_us:
            self.queue.push(next_tick, GatewaySweep())
            self._sweep_armed = True

    def _gateway_sweep(self, event: GatewaySweep, now: int) -> None:
        self._sweep_armed = False
        any_left = False
        for name in sorted(self.anchors):
            catalog = self.anchors[name].catalog
            if catalog is None:
                continue
            for purged in catalog.sweep(now):
                addr = parse_address(purged, AddressKind.DATA)
                self.resolver = self.resolver.unregister(addr, self.anchors[name].primary_port())
            if len(catalog):
                any_left = True
        if any_left:
            self._arm_sweep(now)

    def _subscribe_object(self, gw_name: str, object_name: str, tag: str, k: int, now: int) -> None:
        anchor = self.anchors[gw_name]
        if anchor.catalog is None:
            raise SimFault(f"{gw_name!r} is not a gateway")
        addr = parse_address(object_name, AddressKind.DATA)
        if anchor.catalog.lookup(addr, now) is not None:
            return  # already staged locally
        tree_sid = self._trees_by_object.get(object_name)
        if tree_sid is not None and self.pubs[tree_sid].status == "active":
            self._graft(self.pubs[tree_sid], [gw_name], now)
            return
        locators = self.resolver.resolve(addr)
        if not locators:
            raise ObjectUnavailable(object_name)
        candidates = []
        for loc in sorted(locators):
            owner = self.owner[loc]
            catalog = self.anchors[owner].catalog if owner in self.anchors else None
            if catalog is not None and catalog.lookup(addr, now) is not None:
                candidates.append(owner)
        if not candidates:
            raise ObjectUnavailable(object_name)
        source = select_source(candidates, anchor.db, gw_name)
        entry = self.anchors[source].catalog.lookup(addr, now)

        def staged(t: int, size=entry.size, ttl=entry.ttl_us) -> None:
            self._stage_replica(gw_name, object_name, size, ttl, t)

        self._open_unicast(
            f"fetch.{object_name}.{gw_name}", source, gw_name, tag, entry.size, k, object_name,
            now, on_complete=staged,
        )

    # -- scenario script -----------------------------------------------------------

    def _scenario_action(self, action: ScenarioAction, now: int) -> None:
        event = self.config.events[action.index]
        fields = event.fields
        if event.kind == "open_session":
            tag = fields["tag"]
            k = fields.get("k_paths", 2)
            object_name = fields.get("object")
            if object_name is not None:
                src_gw = self.anchors.get(fields["src"])
                if src_gw is None or src_gw.catalog is None:
                    raise SimFault(f"publisher {fields['src']!r} is not a gateway")
                entry = src_gw.catalog.lookup(parse_address(object_name, AddressKind.DATA), now)
                if entry is None:
                    raise ObjectUnavailable(object_name)
                total, stream, ttl = entry.size, object_name, entry.ttl_us
            else:
                total, stream, ttl = fields["bytes"], f"session:{fields['id']}", None
            if fields.get("session_mode", "unicast") == "pubsub":
                subscribers = list(fields["subscribers"])
                if self.mode == MODE_BASELINE:
                    # No shared tree in the baseline world: one independent
                    # unicast session per subscriber.
                    for sub in sorted(subscribers):
                        self._open_unicast(
                            f"{fields['id']}#{sub}", fields["src"], sub, tag,
                            total, k, stream, now,
                        )
                else:
                    self._open_pubsub(
                        fields["id"], fields["src"], subscribers, tag, total, stream,
                        now, object_name=object_name, stage_ttl_us=ttl,
                    )
            else:
                cap = fields.get("rate_cap_mbps")
                self._open_unicast(
                    fields["id"], fields["src"], fields["dst"], tag, total, k, stream,
                    now, rate_cap_mbps=Fraction(str(cap)) if cap is not None else None,
                )
        elif event.kind == "stage":
            self._stage_replica(
                fields["gateway"], fields["object"], fields["size_bytes"], fields["ttl_us"], now
            )
        elif event.kind == "subscribe":
            self._subscribe_object(
                fields["gateway"], fields["object"], fields["tag"], fields.get("k_paths", 2), now
            )
        elif event.kind == "link_down":
            self._link_down(fields["link"], now)

    def _link_down(self, lid: str, now: int) -> None:
        self.link_entries[lid].up = False
        affected = [
            name for name, legs in sorted(self.out_legs.items())
            if any(lid in leg.links for leg in legs.values())
        ]
        for name in affected:
            self._originate(name, now)

    # -- allocation ------------------------------------------------------------------

    def _reallocate(self, now: int) -> None:
        """Central control epoch: refill the freeze rounds that the claim
        changes reach; push, add to the per-tag totals and record only the
        rates that moved, and record each released claimant as ``None``."""
        filling = self.filling
        rates: dict[str, Optional[float]] = self._released
        self._released = {}
        changed: dict[SenderSession, dict[int, Fraction]] = {}
        moves: dict[tuple[str, int], int] = {}  # (tag, denominator) -> numerator of the summed moves
        for key, old in filling.fill().items():
            _, sid, pid = key
            (num, den), demand = filling.rate[key], filling.demand[key]
            moves[demand.tag, den] = moves.get((demand.tag, den), 0) + num
            if old:
                moves[demand.tag, old[1]] = moves.get((demand.tag, old[1]), 0) - old[0]
            sender = self.senders[(sid, self.path_hops[(sid, pid)][0])][pid]  # registered at its first hop
            changed.setdefault(sender, {})[pid] = Fraction(num, den)
            # n / d is the correctly rounded float, as float(Fraction(n, d)) is
            rates[demand.session_id] = num / den
        for (tag, den), num in moves.items():
            self.tag_totals[tag] = _minus(self.tag_totals[tag], (-num, den))
        for sender, fresh in changed.items():
            sender.set_rates(fresh)
        shares = {tag: n / d for tag, (n, d) in self.tag_totals.items()} if filling.demand else {}
        self.alloc_epochs.append(
            {
                "time_us": now,
                "concurrent": len(filling.demand),
                "rates_mbps": dict(sorted(rates.items())),
                "domain_shares_mbps": shares,
            }
        )

# Per event type: its handler and its trace encoder (the bytes it adds after its time
# and rank).  Plain functions, so a simulation is freed as soon as it is dropped.
_EVENTS: dict[type, tuple[Callable[..., None], Callable[[Simulation, Any], bytes]]] = {
    LsaFlood: (Simulation._handle_lsa, lambda sim, e: b"lsa" + sim._name_bytes(e.to_anchor)
               + sim._name_bytes(e.from_anchor) + e.lsa.encode()),
    LinkHop: (Simulation._handle_hop, lambda sim, e: b"hop" + sim._segment_record(e.crossed, e.segment)),
    NodeArrival: (Simulation._handle_arrival, lambda sim, e: b"arr" + sim._segment_record(e.node, e.segment)),
    SessionWake: (Simulation._session_wake,
                  lambda sim, e: b"wak" + e.sid.to_bytes(8, "big") + sim._name_bytes(e.node)),
    ScenarioAction: (Simulation._scenario_action, lambda sim, e: b"act" + e.index.to_bytes(8, "big")),
    GatewaySweep: (Simulation._gateway_sweep, lambda sim, e: b"swp"),
}
Simulation._events = _EVENTS


def _path_ref(path: L5Path, legs: dict[tuple[str, str], Leg]) -> PathRef:
    return PathRef(
        path_id=path.path_id,
        hops=path.hops,
        metric_us=path.metric_us,
        first_hop=legs[(path.hops[0], path.hops[1])].dest,
    )


def _tree_edges_top_down(tree: DistributionTree) -> list[tuple[str, str]]:
    """Tree edges ordered so every parent appears before its children."""
    children: dict[str, list[str]] = {}
    for parent, child in sorted(tree.edges):
        children.setdefault(parent, []).append(child)
    out: list[tuple[str, str]] = []
    frontier = [tree.root]
    while frontier:
        node = frontier.pop(0)
        for child in children.get(node, ()):
            out.append((node, child))
            frontier.append(child)
    return out


def run_scenario(
    config: ScenarioConfig, *, seed: Optional[int] = None, mode: Optional[str] = None
) -> dict[str, Any]:
    """Validate-and-run convenience wrapper returning the metrics report."""
    sim = Simulation(config, seed=seed, mode=mode)
    return sim.run()
