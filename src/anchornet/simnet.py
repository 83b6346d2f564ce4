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

One segment object crosses every hop; each hop's event carries the L3
destination its emitter chose.  Each event type has one handler and one trace
encoder.  ``trace_hash`` (trace v2, see the README) covers a segment's header,
tag, that destination and payload SHA-256, computed once per (session, seq),
never the payload bytes.
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

from .addressing import L3Locator
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
    EndedSender,
    PathRef,
    ReceiverSession,
    Segment,
    SenderSession,
    locator_bytes,
)
from .topology import Adjacency, LinkStateAdvertisement, _pstr, has_edge

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
    l3_dest: L3Locator
    crossed: str
    remaining: tuple[str, ...]
    dest_node: str


class NodeArrival(NamedTuple):
    segment: Segment
    l3_dest: L3Locator
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


@dataclass(slots=True)
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
    sender: SenderSession | EndedSender
    receiver: ReceiverSession
    source: PayloadStream
    rate_cap_mbps: Optional[Fraction] = None
    status: str = "active"
    t_complete: Optional[int] = None
    t_end: Optional[int] = None
    next_pid: int = 0
    stage_ttl_us: Optional[int] = None  # a fetch's: stage the object at ``dst`` on completion

    @property
    def source_digest(self) -> str:
        """SHA-256 of the whole object the transfer sends."""
        return self.source.hexdigest()


@dataclass
class TreeEdge:
    pid: int
    src: str
    dst: str
    sender: SenderSession | EndedSender
    receiver: ReceiverSession


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
    receivers: dict[str, ReceiverSession] = field(default_factory=dict)  # node -> its receiver, while active
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
        self._hop_prefix = cache(lambda lid: b"hop" + _pstr(lid))
        self._arr_prefix = cache(lambda node: b"arr" + _pstr(node))
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
        # (sid, pid, hop) -> (successor, predecessor), None past either end, for each held claim.
        self._neighbours: dict[tuple[int, int, str], tuple[Optional[str], Optional[str]]] = {}
        self.alloc_epochs: list[dict[str, Any]] = []
        # Demand id -> None for each claimant released since the last epoch.
        self._released: dict[str, None] = {}
        self._sweep_armed = False
        self._trees_by_object: dict[str, int] = {}

        self._build_substrate()
        self._build_overlay()
        self._bootstrap_control_plane()
        for index, event in enumerate(config.events):
            self.queue.push(event.time_us, ScenarioAction(index))

    # -- construction -------------------------------------------------------

    def _build_substrate(self) -> None:
        cfg = self.config
        self.links = {l.id: l for l in cfg.links}
        self.link_avail = {l.id: l.available_mbps for l in cfg.links}  # exact arithmetic: read it once
        # Claimants are keyed (0 for a unicast path or 1 for a tree edge, sid,
        # path id).  Down links keep their capacity entry: a demand may still
        # reference one for the short window between the failure and its repath.
        self.filling = Filling(self.link_avail)
        self.link_counters = {l.id: LinkCounters() for l in cfg.links}
        self.link_entries = {
            l.id: LinkEntry(self.link_counters[l.id], l.latency_us, l.loss_prob, self.link_avail[l.id])
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
        self.anchors = {a.name: Anchor(a.name, catalog=GatewayCatalog() if a.gateway else None) for a in cfg.anchors}
        self.host_anchor = {h.name: h.anchor for h in cfg.hosts}

        # Directed overlay hops: anchor peerings plus host access legs.
        self.legs: dict[tuple[str, str], Leg] = {}
        self.link_cost: dict[frozenset[str], Fraction] = {}  # anchor pair -> its leg's summed link cost
        # Each anchor's least attachment per domain, where its legs there start:
        # of the sorted pairs, the last written per domain is its least.
        first_att = {
            a.name: dict(sorted(((p.domain, p.attachment) for p in a.ports), reverse=True))
            for a in cfg.anchors
        }
        by_pair: dict[frozenset[str], tuple[str, str, str]] = {}  # anchor pair -> its first peering
        for acfg in cfg.anchors:
            for peer in acfg.peers:
                by_pair.setdefault(frozenset((acfg.name, peer.anchor)), (acfg.name, peer.anchor, peer.domain))
        self.peerings = list(by_pair.values())
        for a_name, b_name, domain in self.peerings:
            a_att = first_att[a_name][domain]
            b_att = first_att[b_name][domain]
            self.legs[(a_name, b_name)] = self._make_leg(domain, a_att, b_att)
            self.legs[(b_name, a_name)] = self._make_leg(domain, b_att, a_att)
            self.link_cost[frozenset((a_name, b_name))] = sum(
                (self.links[lid].cost for lid in self.legs[(a_name, b_name)].links), Fraction(0))
        for hcfg in cfg.hosts:
            domain = hcfg.port.domain
            anchor_att = first_att[hcfg.anchor][domain]
            self.legs[(hcfg.name, hcfg.anchor)] = self._make_leg(domain, hcfg.port.attachment, anchor_att)
            self.legs[(hcfg.anchor, hcfg.name)] = self._make_leg(domain, anchor_att, hcfg.port.attachment)

        # Each anchor's outgoing legs, and its locators, by neighbour name.
        self.out_legs: dict[str, dict[str, Leg]] = {name: {} for name in self.anchors}
        for (u, v), leg in self.legs.items():
            if u in self.anchors:
                self.out_legs[u][v] = leg
                self.anchors[u].locators[v] = leg.dest

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
        # Per anchor, each anchor peer and the latency to it; per (receiver, sender), the trace prefix.
        self._lsa_peers = {u: [(v, leg.latency_us) for v, leg in sorted(legs.items()) if v in self.anchors]
                           for u, legs in self.out_legs.items()}
        self._lsa_prefix = {(v, u): b"lsa" + self._name_bytes(v) + self._name_bytes(u)
                            for u, peers in self._lsa_peers.items() for v, _ in peers}
        for name in sorted(self.anchors):
            self._originate(name, 0)

    def _originate(self, name: str, now: int) -> None:
        db = self.anchors[name].db
        # Names are unique, so only this anchor writes its own entry: the seq advances by one.
        own = db.lsas.get(name)
        lsa = LinkStateAdvertisement(name, (own.seq if own else 0) + 1, self._anchor_adjacencies(name))
        db.receive(lsa)
        self._flood(name, None, lsa, now)
        self._check_repath(name, now)

    def _flood(self, sender: str, skip: Optional[str], lsa: LinkStateAdvertisement, now: int) -> None:
        """Send ``lsa`` from ``sender`` to each of its anchor peers but ``skip``.  A peer
        is in ``_lsa_peers`` while its leg's links are all up (see ``_link_down``)."""
        push, sent = self.queue.push, 0
        for peer, latency in self._lsa_peers[sender]:
            if peer != skip:
                push(now + latency, tuple.__new__(LsaFlood, (peer, sender, lsa)))
                sent += 1
        if sent:  # an anchor without peers counts no transmission
            self.lsa_tx[lsa.origin, lsa.seq] = self.lsa_tx.get((lsa.origin, lsa.seq), 0) + sent

    def _handle_lsa(self, event: LsaFlood, now: int) -> None:
        _, flood = self.anchors[event.to_anchor].db.receive(event.lsa)
        if flood:
            self._flood(event.to_anchor, event.from_anchor, event.lsa, now)
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
        self._enter_link(event.segment, event.l3_dest, event.remaining, event.dest_node, now)

    def _handle_arrival(self, event: NodeArrival, now: int) -> None:
        """Hand a segment to the transfer or tree edge that owns it: an ACK at
        its source to its sender, data at its destination to its receiver, even
        after the session ended, whose ACK goes to the path's reverse hop.
        Anything else is in transit: the node's anchor names its next hop and
        that hop's locator."""
        segment, _, lid, node = event
        self.link_counters[lid].delivered += 1
        sid, pid = segment.session_id, segment.path_id
        owner: Transfer | TreeEdge | None = self.transfers.get(sid)
        if owner is None and sid in self.pubs and pid < len(self.pubs[sid].edges):
            owner = self.pubs[sid].edges[pid]
        if owner is not None:
            if segment.kind is ACK:
                sender = owner.sender
                # At the source a live sender (its session is active) takes the ACK and a
                # completed one drops it; one ended incomplete (``no_path``) takes none.
                if node == owner.src and (sid in self._digests or sender.complete):
                    if not sender.complete:
                        sender.on_ack(segment, now)
                        self._after_sender_progress(sid, owner, now)
                    return
            elif node == owner.dst:
                receiver = owner.receiver
                delivered, ack = receiver.on_receive(segment, now)
                before, back = receiver.reverse_hops[pid]
                self.transmit(ack, back, node, before, now)
                if delivered and sid in self.pubs:
                    self._on_delivery(self.pubs[sid], node, delivered, now)
                return
        anchor = self.anchors.get(node)
        if anchor is None:
            self.dropped_unknown_hosts += 1
            return
        forwarded = anchor.forward(segment)
        if forwarded is not None:
            self.transmit(segment, forwarded[1], node, forwarded[0], now)

    def _segment_record(self, prefix: bytes, event: LinkHop | NodeArrival) -> bytes:
        """``prefix`` followed by the event's ``segment.encode(l3_dest)``.  The
        header with the tag, and the payload digest, are built once per
        segment, which crosses every hop as one object."""
        segment = event.segment
        fields = segment.__dict__
        body = fields.get("_trace")
        if body is None:
            body = fields["_trace"] = (segment.header() + self._name_bytes(segment.tag),
                                       self._payload_digest(segment))
        return prefix + body[0] + locator_bytes(event.l3_dest) + body[1]

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

    def transmit(self, segment: Segment, l3_dest: L3Locator, emitter: str, next_l5: str, now: int) -> None:
        """Hand a segment to the substrate for exactly one overlay hop, bound for ``l3_dest``.

        Independently re-derives the expected next hop from the installed
        path record, and checks ``l3_dest`` against that leg's destination,
        counting any disagreement: this is the compatibility rule that a
        segment's substrate destination is always the very next overlay hop.
        """
        ends = self._neighbours.get((segment.session_id, segment.path_id, emitter))
        if ends is not None and ends[segment.kind is ACK] != next_l5:
            self.l3_dest_violations += 1
        leg = self.legs.get((emitter, next_l5))
        if leg is None:
            raise SimFault(f"no substrate leg {emitter!r} -> {next_l5!r}")
        if leg.dest is not l3_dest and leg.dest != l3_dest:
            self.l3_dest_violations += 1
        self._enter_link(segment, l3_dest, leg.links, next_l5, now)

    def _enter_link(
        self, segment: Segment, l3_dest: L3Locator, links: tuple[str, ...], dest_node: str, now: int
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
            self.queue.push(arrival, tuple.__new__(LinkHop, (segment, l3_dest, lid, links[1:], dest_node)))
        else:
            self.queue.push(arrival, tuple.__new__(NodeArrival, (segment, l3_dest, lid, dest_node)))

    # -- session machinery ------------------------------------------------------

    def _session_wake(self, event: SessionWake, now: int) -> None:
        """Pump each live sender at the node that claimed this wake: an active
        transfer's, or the uncompleted edges out of the node in ``downstream`` order."""
        sid, node = event
        transfer = self.transfers.get(sid)
        if transfer is not None:
            senders = (transfer.sender,) if transfer.status == "active" else ()
        else:
            senders = [edge.sender for edge in self.pubs[sid].downstream.get(node, ()) if not edge.sender.complete]
        for sender in senders:
            wakes = sender.wakes
            if now in wakes:
                wakes.remove(now)
                self._pump(sid, node, sender, now)

    def _pump(self, sid: int, node: str, sender: SenderSession, now: int) -> None:
        segments = sender.schedule(now)
        if segments:
            anchor, paths, transmit = self.anchors.get(node), sender.paths, self.transmit
            for segment in segments:
                if anchor is not None:
                    anchor.account_relay(segment)
                ref = paths[segment.path_id]
                transmit(segment, ref.first_hop, node, ref.hops[1], now)
        self._arm(sid, node, sender, now)

    def _arm(self, sid: int, node: str, sender: SenderSession, now: int) -> None:
        """Queue ``sender``'s next wake at ``node``, unless one is queued for that instant."""
        wake = sender.next_wake(now)
        if wake is not None:
            wakes = sender.wakes
            if wake not in wakes:
                wakes.add(wake)
                self.queue.push(wake, tuple.__new__(SessionWake, (sid, node)))

    def _after_sender_progress(self, sid: int, owner: Transfer | TreeEdge, now: int) -> None:
        """After an ACK: arm the sender of ``owner`` again, or end what it completed."""
        sender = owner.sender
        if not sender.complete:
            self._arm(sid, owner.src, sender, now)
        elif sid in self.transfers:
            self._end(owner, "complete", now)
        else:
            self._end_claim((1, sid, owner.pid), (owner.src, owner.dst))
            owner.sender = sender.ended()
            pub = self.pubs[sid]
            if all(edge.sender.complete for edge in pub.edges):
                self._end(pub, "complete", now)
            else:  # the tree goes on: its other claimants take the freed capacity
                self._reallocate(now)

    def _on_delivery(self, pub: PubTransfer, node: str, delivered: list[bytes], now: int) -> None:
        for edge in pub.downstream.get(node, ()):
            edge.sender.feed(delivered)
            self._arm(pub.sid, node, edge.sender, now)
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

    def _claim(
        self,
        key: tuple[int, int, int],
        hops: tuple[str, ...],
        sender: SenderSession,
        demand_id: str,
        cap: Optional[Fraction] = None,
    ) -> None:
        """Install one allocator claimant, a unicast path or a tree edge: each
        hop's neighbours on its hops, in ``_neighbours`` and, at a hop with
        both (always an anchor), as its route, and its demand over the links
        those hops cross.  A claim's ends hold no route: the transfer or edge
        that owns its segments takes them there.  ``sender``, the transfer's
        or edge's, paces it.  A sender born complete (a tree edge grafted at
        the stream's end) claims nothing.  The only installer."""
        if sender.complete:
            return
        _, sid, pid = key
        for before, hop, after in zip((None, *hops), hops, (*hops[1:], None)):
            ends = self._neighbours[(sid, pid, hop)] = (after, before)
            if None not in ends:
                self.anchors[hop].routes[(sid, pid)] = ends
        links = frozenset(lid for u, v in zip(hops, hops[1:]) for lid in self.legs[(u, v)].links)
        demand = Demand(demand_id, self.policy[sender.tag], links, demand_cap_mbps=cap, tag=sender.tag)
        self.filling.add(key, demand)

    def _end_claim(self, key: tuple[int, int, int], hops: tuple[str, ...]) -> None:
        """End the claim ``key`` over ``hops``, a transfer's path at its repath
        or end, or a tree edge whose sender completed: drop its demand, its
        neighbours and the anchors' routes.  The only releaser."""
        _, sid, pid = key
        demand = self.filling.demand[key]
        self.tag_totals[demand.tag] = _minus(self.tag_totals[demand.tag], self.filling.rate[key])
        self._released[demand.session_id] = None
        self.filling.remove(key)
        for hop in hops:
            del self._neighbours[(sid, pid, hop)]
        for hop in hops[1:-1]:  # the hops that hold a route
            del self.anchors[hop].routes[(sid, pid)]

    def _use_paths(self, transfer: Transfer, paths: list[L5Path], now: int) -> None:
        """Send ``transfer`` over ``paths`` (only the first in baseline mode)
        instead of those it used: end their claims, claim each new one and give
        the receiver its reverse hop, then reallocate and arm the sender."""
        for path in transfer.used:
            self._end_claim((0, transfer.sid, path.path_id), path.hops)
        used = paths[:1] if self.mode == MODE_BASELINE else list(paths)
        transfer.used = used
        refs = [_path_ref(path, self.legs) for path in used]
        transfer.sender.set_paths(refs, now)
        for path in used:
            self._claim(
                (0, transfer.sid, path.path_id), path.hops, transfer.sender,
                f"{transfer.id_str}:{path.path_id}", transfer.rate_cap_mbps,
            )
            before = path.hops[-2]
            transfer.receiver.reverse_hops[path.path_id] = before, self.legs[(path.hops[-1], before)].dest
        self._reallocate(now)
        self._arm(transfer.sid, transfer.src, transfer.sender, now)

    def _open_unicast(
        self, id_str: str, src: str, dst: str, tag: str, total_bytes: int, k: int, stream: str,
        now: int, *, rate_cap_mbps: Optional[Fraction] = None, stage_ttl_us: Optional[int] = None,
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
            sid, tag, [_path_ref(discovered[0], self.legs)], total_bytes, source=source.segments(), now=now)
        receiver = ReceiverSession(sid, tag, {}, total_bytes)
        transfer = Transfer(
            id_str=id_str, sid=sid, src=src, dst=dst, tag=tag, total_bytes=total_bytes, k=k,
            home_anchor=home, t_open=now, discovered=discovered, used=[], sender=sender,
            receiver=receiver, source=source, rate_cap_mbps=rate_cap_mbps, next_pid=len(discovered),
            stage_ttl_us=stage_ttl_us,
        )
        self.transfers[sid] = transfer
        self._homed.setdefault(home, {})[sid] = transfer
        self._digests[sid] = {}
        self._use_paths(transfer, discovered, now)
        return transfer

    def _end(self, session: Transfer | PubTransfer, status: str, now: int) -> None:
        """Move an active transfer or tree to its terminal ``status``
        (``complete`` or ``no_path``); the only writer of a terminal status.
        Its claims end and its senders are frozen: a transfer's here, a tree's
        edge by edge as each completed.  Receivers stay as they are: a
        complete one answers late duplicates with its final ACK, and after
        ``no_path`` one still takes what was already past the break."""
        session.status = status
        del self._digests[session.sid]
        if isinstance(session, Transfer):
            del self._homed[session.home_anchor][session.sid]
            for path in session.used:
                self._end_claim((0, session.sid, path.path_id), path.hops)
            session.sender, session.t_end = session.sender.ended(), now
            if status == "complete":
                session.t_complete = now
                if session.stage_ttl_us is not None:
                    self._stage_replica(
                        session.dst, session.source.name, session.total_bytes, session.stage_ttl_us, now)
        else:
            session.receivers.clear()
        self._reallocate(now)

    def _repath(self, transfer: Transfer, now: int) -> None:
        db = self.anchors[transfer.home_anchor].db
        # A failed access link takes its host out of the database: no path either.
        ends = transfer.src, transfer.dst
        fresh = set(ends) <= db.graph().keys() and k_disjoint_paths(db, *ends, transfer.k)
        if not fresh:
            self._end(transfer, "no_path", now)
            return
        renumbered = [replace(path, path_id=transfer.next_pid + i) for i, path in enumerate(fresh)]
        self._use_paths(transfer, renumbered, now)
        transfer.next_pid += len(transfer.used)

    def _check_repath(self, anchor_name: str, now: int) -> None:
        homed = self._homed.get(anchor_name)
        if not homed:
            return
        lsas = self.anchors[anchor_name].db.lsas
        for transfer in list(homed.values()):
            if any(not has_edge(lsas, u, v) for path in transfer.used for u, v in zip(path.hops, path.hops[1:])):
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
        added = [  # a node that an edge already reaches has a receiver
            self._add_pub_edge(pub, parent, child, now)
            for parent, child in [(pub.publisher, tree.root), *_tree_edges_top_down(tree)]
            if child != pub.publisher and child not in pub.receivers
        ]
        for sub in sorted(set(subscribers)):
            anchor = tree.subscriber_anchors[sub]
            if sub != anchor:
                added.append(self._add_pub_edge(pub, anchor, sub, now))
            receiver = pub.receivers[sub]  # a gateway subscriber's is its relay receiver
            leg = SubscriberLeg(sub, anchor, receiver.start_seq, receiver)
            pub.subscribers[sub] = leg
            self._subscriber_progress(pub, leg, now)
        self._reallocate(now)  # pushes no event: the arms push in the order the edges were added
        for edge in added:
            self._arm(pub.sid, edge.src, edge.sender, now)

    def _add_pub_edge(self, pub: PubTransfer, parent: str, child: str, now: int) -> TreeEdge:
        """Add the edge ``parent`` -> ``child``, starting where ``parent``'s stream
        stands.  Its sender relays what ``parent`` receives, unless ``parent`` is
        the publisher: then it reads the tree's source from the lowest seq the
        publisher's edges send next, or from 0 when it has none."""
        pid = len(pub.edges)
        leg = self.legs[(parent, child)]
        ref = PathRef(pid, (parent, child), leg.latency_us, leg.dest)
        source = None
        if parent != pub.publisher:
            start_seq = pub.receivers[parent].next_expected
        else:
            start_seq = min((edge.sender.send_next for edge in pub.downstream.get(parent, ())), default=0)
            source = pub.source.segments(start_seq)
        sender = SenderSession(
            pub.sid, pub.tag, [ref], pub.total_bytes, source=source, start_seq=start_seq, now=now,
        )
        receiver = ReceiverSession(
            pub.sid, pub.tag, {pid: (parent, self.legs[(child, parent)].dest)},
            pub.total_bytes, start_seq=start_seq,
        )
        edge = TreeEdge(pid, parent, child, sender, receiver)
        pub.edges.append(edge)
        pub.downstream.setdefault(parent, []).append(edge)
        self._claim((1, pub.sid, pid), (parent, child), sender, f"{pub.id_str}:{parent}>{child}")
        pub.receivers[child] = receiver
        return edge

    # -- gateway actions --------------------------------------------------------

    def _stage_replica(
        self, gw_name: str, object_name: str, size: int, ttl_us: int, now: int
    ) -> None:
        anchor = self.anchors.get(gw_name)
        if anchor is None or anchor.catalog is None:
            return
        anchor.catalog.stage(object_name, size, ttl_us, now)
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
        catalogs = [anchor.catalog for anchor in self.anchors.values() if anchor.catalog is not None]
        for catalog in catalogs:
            catalog.sweep(now)
        if any(catalogs):  # a catalog still holds an entry
            self._arm_sweep(now)

    def _subscribe_object(self, gw_name: str, object_name: str, tag: str, k: int, now: int) -> None:
        anchor = self.anchors[gw_name]
        if anchor.catalog.lookup(object_name, now) is not None:
            return  # already staged locally
        tree_sid = self._trees_by_object.get(object_name)
        if tree_sid is not None and self.pubs[tree_sid].status == "active":
            if self.pubs[tree_sid].publisher != gw_name:  # the publisher holds the whole stream
                self._graft(self.pubs[tree_sid], [gw_name], now)
            return
        # The gateways' catalogs are the one record of where an object is staged.
        candidates = {name: entry for name, a in self.anchors.items()
                      if a.catalog is not None and (entry := a.catalog.lookup(object_name, now)) is not None}
        if not candidates:
            raise ObjectUnavailable(object_name)
        source = select_source(list(candidates), anchor.db, gw_name)
        entry = candidates[source]
        self._open_unicast(
            f"fetch.{object_name}.{gw_name}", source, gw_name, tag, entry.size, k, object_name,
            now, stage_ttl_us=entry.ttl_us,
        )

    # -- scenario script -----------------------------------------------------------

    def _scenario_action(self, action: ScenarioAction, now: int) -> None:
        event = self.config.events[action.index]
        fields = event.fields
        if event.kind == "open_session":
            tag, k, object_name = fields["tag"], fields["k_paths"], fields["object"]
            if object_name is not None:
                entry = self.anchors[fields["src"]].catalog.lookup(object_name, now)
                if entry is None:
                    raise ObjectUnavailable(object_name)
                total, stream, ttl = entry.size, object_name, entry.ttl_us
            else:
                total, stream, ttl = fields["bytes"], f"session:{fields['id']}", None
            if fields["session_mode"] == "pubsub":
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
                self._open_unicast(
                    fields["id"], fields["src"], fields["dst"], tag, total, k, stream,
                    now, rate_cap_mbps=fields["rate_cap_mbps"],
                )
        elif event.kind == "stage":
            self._stage_replica(
                fields["gateway"], fields["object"], fields["size_bytes"], fields["ttl_us"], now
            )
        elif event.kind == "subscribe":
            self._subscribe_object(
                fields["gateway"], fields["object"], fields["tag"], fields["k_paths"], now
            )
        elif event.kind == "link_down":
            self._link_down(fields["link"], now)

    def _link_down(self, lid: str, now: int) -> None:
        entry = self.link_entries[lid]
        if not entry.up:  # already down: every anchor's advertisement already says so
            return
        entry.up = False
        affected = [
            name for name, legs in sorted(self.out_legs.items())
            if any(lid in leg.links for leg in legs.values())
        ]
        for name in affected:
            # No link comes back up, so an advertisement never again crosses a leg through this one.
            legs = self.out_legs[name]
            self._lsa_peers[name] = [(v, lat) for v, lat in self._lsa_peers[name] if lid not in legs[v].links]
            self._originate(name, now)

    # -- allocation ------------------------------------------------------------------

    def _reallocate(self, now: int) -> None:
        """Central control epoch: refill the freeze rounds that the claim
        changes reach; push, add to the per-tag totals and record only the
        rates that moved, and record each released claimant as ``None``."""
        filling = self.filling
        rates: dict[str, Optional[float]] = self._released
        self._released = {}
        changed: dict[SenderSession, dict[int, tuple[int, int]]] = {}
        moves: dict[tuple[str, int], int] = {}  # (tag, denominator) -> numerator of the summed moves
        for key, old in filling.fill().items():
            kind, sid, pid = key
            rate, demand = filling.rate[key], filling.demand[key]
            num, den = rate
            moves[demand.tag, den] = moves.get((demand.tag, den), 0) + num
            if old:
                moves[demand.tag, old[1]] = moves.get((demand.tag, old[1]), 0) - old[0]
            sender = (self.pubs[sid].edges[pid] if kind else self.transfers[sid]).sender
            changed.setdefault(sender, {})[pid] = rate
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
    LsaFlood: (Simulation._handle_lsa, lambda sim, e: sim._lsa_prefix[e.to_anchor, e.from_anchor] + e.lsa.encode()),
    LinkHop: (Simulation._handle_hop, lambda sim, e: sim._segment_record(sim._hop_prefix(e.crossed), e)),
    NodeArrival: (Simulation._handle_arrival, lambda sim, e: sim._segment_record(sim._arr_prefix(e.node), e)),
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
    out = [(tree.root, child) for child in children.get(tree.root, ())]
    for _, node in out:  # breadth first: the loop reaches each edge appended
        out.extend((node, child) for child in children.get(node, ()))
    return out
