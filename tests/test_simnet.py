import dataclasses
import gc
import hashlib
import json
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from anchornet import gateway, simnet
from anchornet.addressing import L3Locator
from anchornet.allocator import Demand, DemandMatrix, domain_shares, water_fill
from anchornet.gateway import synth_payload
from anchornet.metrics import allocation_summary, canonical_json, compare, database_digests, replay
from anchornet.scenario import load_scenario, parse_scenario
from anchornet.session import (
    SEGMENT_PAYLOAD_BYTES, EndedReceiver, EndedSender, PathRef, Segment, SegmentKind, SenderSession, segment_count,
)
from anchornet.simnet import (
    TRACE_SALT,
    CausalityViolation,
    EmptyQueue,
    EventQueue,
    LinkHop,
    NodeArrival,
    ScenarioAction,
    SimFault,
    Simulation,
)
from anchornet.topology import TopologyDatabase, _pstr
from oracles import MersennePayloadStream, acked_seqs, progressive_fill_exact
from scenario_builders import build, gateway_chain, three_path_lossy


# -- event queue ----------------------------------------------------------------


def test_equal_time_events_pop_in_insertion_order():
    q = EventQueue(seed=0)
    q.push(10, ScenarioAction(0))
    q.push(10, ScenarioAction(1))
    q.push(5, ScenarioAction(2))
    order = [q.pop()[2].index for _ in range(3)]
    assert order == [2, 0, 1]


def test_scheduling_into_the_past_is_a_fault():
    q = EventQueue(seed=0)
    q.push(10, ScenarioAction(0))
    q.pop()
    with pytest.raises(CausalityViolation):
        q.push(5, ScenarioAction(1))


def test_pop_on_empty_queue_raises():
    with pytest.raises(EmptyQueue):
        EventQueue(seed=0).pop()


# -- loss model -------------------------------------------------------------------


def _lossy_config():
    return build(
        {
            "name": "loss-probe",
            "seed": 7,
            "mode": "l5-multipath",
            "horizon_us": 1000,
            "domains": [{"id": "d1", "attachments": ["x", "y"]}],
            "links": [
                {"id": "l1", "domain": "d1", "endpoints": ["x", "y"],
                 "capacity_mbps": 100, "latency_us": 5, "loss_prob": 0.1,
                 "background_utilization": 0}
            ],
            "anchors": [
                {"name": "a1", "ports": [{"domain": "d1", "attachment": "x"}], "peers": []}
            ],
            "hosts": [],
            "policy": [{"tag": "t", "weight": 1}],
            "events": [],
        }
    )


def test_seeded_loss_fraction_regression():
    sim = Simulation(_lossy_config())
    segment = Segment(1, 0, 0, "t", b"p" * SEGMENT_PAYLOAD_BYTES)
    for _ in range(10000):
        sim._enter_link(segment, L3Locator("d1", "y"), ("l1",), "a1", now=0)
    counters = sim.link_counters["l1"]
    assert counters.transmitted == 10000
    fraction = counters.dropped / 10000
    assert abs(fraction - 0.1) <= 0.01
    # frozen regression value for seed 7
    assert counters.dropped == 983


def test_zero_loss_consumes_no_randomness():
    raw = json.loads(json.dumps(_lossy_config().raw))
    raw["links"][0]["loss_prob"] = 0
    sim = Simulation(build(raw))
    before = sim.queue.rng.random()
    sim2 = Simulation(build(raw))
    segment = Segment(1, 0, 0, "t", b"p" * 100)
    for _ in range(50):
        sim2._enter_link(segment, L3Locator("d1", "y"), ("l1",), "a1", now=0)
    assert sim2.queue.rng.random() == before


# -- whole-run behavior ------------------------------------------------------------


def test_empty_scenario_yields_empty_report():
    report = Simulation(
        build(
            {
                "name": "empty",
                "seed": 0,
                "mode": "l5-multipath",
                "horizon_us": 100,
                "domains": [],
                "links": [],
                "anchors": [],
                "hosts": [],
                "policy": [],
                "events": [],
            }
        )
    ).run()
    assert report["events_processed"] == 0
    assert report["trace_hash"] == hashlib.sha256(TRACE_SALT).hexdigest()
    assert report["faults"] == {
        "causality_violations": 0,
        "dropped_unknown": 0,
        "l3_dest_violations": 0,
    }


def test_run_twice_same_seed_identical_reports(fixture_paths):
    """Two simulations of one parsed config, and one of a fresh parse: no
    value that a build caches on the config objects leaks into the next."""
    config = load_scenario(str(fixture_paths["dual-path"]))
    fresh = load_scenario(str(fixture_paths["dual-path"]))
    a, b, c = (canonical_json(Simulation(cfg).run()) for cfg in (config, config, fresh))
    assert a == b == c


def test_conservation_per_link(fixture_paths):
    config = load_scenario(str(fixture_paths["dual-path"]))
    report = Simulation(config).run()
    for lid, row in report["links"].items():
        assert row["transmitted"] == row["delivered"] + row["dropped"] + row["in_flight_at_end"], lid


def test_lossy_transfer_conserves_per_link():
    report = Simulation(build(three_path_lossy())).run()
    assert report["sessions"]["bulk"]["status"] == "complete"
    for lid, row in report["links"].items():
        assert row["transmitted"] == row["delivered"] + row["dropped"] + row["in_flight_at_end"], lid
    drops = sum(row["dropped"] for row in report["links"].values())
    assert drops > 0


def test_lossy_transfer_delivers_byte_exact_stream():
    report = Simulation(build(three_path_lossy())).run()
    session = report["sessions"]["bulk"]
    assert session["bytes_delivered"] == session["bytes_total"]
    assert session["delivered_sha256"] == session["source_sha256"]
    assert report["faults"]["l3_dest_violations"] == 0


def test_a_segment_sent_past_either_end_of_its_path_is_a_violation(fixture_paths):
    """Data goes to a hop's successor and an ACK to its predecessor: the first
    hop has no predecessor and the last no successor."""
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    hops, back = ("anchor-east", "relay-north"), ("relay-north", "anchor-east")
    sender = SenderSession(99, "atlas", [PathRef(0, hops, 1000, sim.legs[hops].dest)], 8192)
    sim._claim((0, 99, 0), hops, sender, "probe:0")
    ack = Segment(99, 0, 0, "atlas", kind=SegmentKind.ACK)
    sim.transmit(ack, sim.legs[hops].dest, *hops, 0)
    assert sim.l3_dest_violations == 1
    sim.transmit(Segment(99, 0, 0, "atlas", b"x"), sim.legs[back].dest, *back, 0)
    assert sim.l3_dest_violations == 2


def _dual_path_sending(fixture_paths):
    """dual-path stepped until its transfer is open: the simulation, the
    transfer's sid and the id of its path through relay-north."""
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    while not sim.transfers:
        sim.step()
    (transfer,) = sim.transfers.values()
    (pid,) = [p.path_id for p in transfer.used if "relay-north" in p.hops]
    return sim, transfer.sid, pid


def _pushed(sim, act):
    """The events that ``act()`` pushes onto the simulation's queue."""
    before = {id(entry) for entry in sim.queue.snapshot()}
    act()
    return [entry[2] for entry in sim.queue.snapshot() if id(entry) not in before]


def _on_pop(sim, see):
    """Call ``see(event)`` with each event that ``sim.step()`` pops, before it is handled."""
    pop = sim.queue.pop

    def popped():
        entry = pop()
        see(entry[2])
        return entry

    sim.queue.pop = popped


def _arrive(sim, sid, pid, kind, node, crossed="nw-trunk"):
    """A segment of (sid, pid) arriving at ``node``, handled as ``step``
    handles a NodeArrival.  Returns the events it pushed."""
    payload = b"x" if kind is SegmentKind.DATA else b""
    event = NodeArrival(Segment(sid, 0, pid, "atlas", payload, kind=kind), L3Locator("net", "pa"), crossed, node)
    handle, _ = sim._events[NodeArrival]
    return _pushed(sim, lambda: handle(sim, event, sim.queue.now))


@pytest.mark.parametrize("side, kind", [(0, SegmentKind.DATA), (1, SegmentKind.ACK)])
def test_a_transit_anchor_that_forwards_off_its_path_is_a_violation(fixture_paths, side, kind):
    """relay-north sends data on to anchor-east and ACKs back to anchor-west.
    A route whose successor or predecessor names its other neighbour sends
    the segment there, and the hop counts it against the path record."""
    sim, sid, pid = _dual_path_sending(fixture_paths)
    routes = sim.anchors["relay-north"].routes
    route = list(routes[(sid, pid)])
    wrong = route[side] = {"anchor-east": "anchor-west", "anchor-west": "anchor-east"}[route[side]]
    routes[(sid, pid)] = tuple(route)
    other = SegmentKind.ACK if kind is SegmentKind.DATA else SegmentKind.DATA
    assert len(_arrive(sim, sid, pid, other, "relay-north")) == 1
    assert sim.l3_dest_violations == 0  # the direction the route's other side serves
    (pushed,) = _arrive(sim, sid, pid, kind, "relay-north")
    assert sim.l3_dest_violations == 1
    assert (pushed.dest_node if isinstance(pushed, LinkHop) else pushed.node) == wrong


def test_a_transit_copy_addressed_off_its_leg_is_a_violation(fixture_paths):
    """The next hop is right but the locator the anchor readdresses to is
    not that leg's destination."""
    sim, sid, pid = _dual_path_sending(fixture_paths)
    sim.anchors["relay-north"].locators["anchor-east"] = sim.legs[("relay-north", "anchor-west")].dest
    assert len(_arrive(sim, sid, pid, SegmentKind.ACK, "relay-north")) == 1
    assert sim.l3_dest_violations == 0
    assert len(_arrive(sim, sid, pid, SegmentKind.DATA, "relay-north")) == 1
    assert sim.l3_dest_violations == 1


def test_a_sender_that_addresses_off_its_first_leg_is_a_violation(fixture_paths):
    """Both paths leave caltech.h1 over its access leg; the one through
    relay-north names the host's own port as its first hop."""
    sim, sid, pid = _dual_path_sending(fixture_paths)
    sender = sim.transfers[sid].sender
    wrong = sim.legs[("anchor-west", "caltech.h1")].dest
    sender.paths[pid] = dataclasses.replace(sender.paths[pid], first_hop=wrong)
    pushed = _pushed(sim, lambda: sim._pump(sid, "caltech.h1", sender, sim.queue.now))
    sent = sorted((event.segment.path_id, event.l3_dest) for event in pushed if isinstance(event, NodeArrival))
    assert len(sent) == 2 and (pid, wrong) in sent  # one segment on each path
    assert sim.l3_dest_violations == 1


def test_a_receiver_that_acknowledges_off_its_reverse_leg_is_a_violation(fixture_paths):
    """cern.h1 acknowledges toward anchor-east, to the locator its receiver
    holds for the path: right once, then wrong."""
    sim, sid, pid = _dual_path_sending(fixture_paths)
    (ack,) = _arrive(sim, sid, pid, SegmentKind.DATA, "cern.h1", "e-access")
    assert ack.l3_dest == sim.legs[("cern.h1", "anchor-east")].dest
    assert sim.l3_dest_violations == 0
    wrong = sim.legs[("anchor-east", "cern.h1")].dest
    sim.transfers[sid].receiver.reverse_hops[pid] = "anchor-east", wrong
    (ack,) = _arrive(sim, sid, pid, SegmentKind.DATA, "cern.h1", "e-access")
    assert ack.l3_dest == wrong
    assert sim.l3_dest_violations == 1


def test_one_segment_object_crosses_every_hop(fixture_paths):
    """Every arrival of one (session, seq, retransmission, kind) carries the
    object its source built, with its fields as they were, and names the
    locator of the leg it came over."""
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    arrivals: dict[tuple, list] = {}
    path_hops = {}  # each path's hops, recorded while it is in use: a repath replaces it

    def see(event):
        path_hops.update(((t.sid, path.path_id), path.hops) for t in sim.transfers.values() for path in t.used)
        if isinstance(event, NodeArrival):
            seg = event.segment
            key = (seg.session_id, seg.seq, seg.is_retransmit, seg.kind)
            arrivals.setdefault(key, []).append((seg, dataclasses.astuple(seg), event.l3_dest, event.node))

    _on_pop(sim, see)
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= sim.config.horizon_us:
        sim.step()
    assert len(arrivals) == 2 * 256  # each segment of the lossless 2 MiB transfer, and its ACK
    for (sid, _, _, kind), hops in arrivals.items():
        segment, fields, _, _ = hops[0]
        path = path_hops[(sid, segment.path_id)]
        if kind is SegmentKind.ACK:
            path = path[::-1]
        assert [node for *_, node in hops] == list(path[1:])
        for (seg, seen, l3_dest, node), prev in zip(hops, path):
            assert seg is segment and seen == fields == dataclasses.astuple(segment)
            assert l3_dest == sim.legs[(prev, node)].dest


def test_a_transit_segment_of_a_removed_path_is_dropped_without_an_event(fixture_paths):
    sim, sid, pid = _dual_path_sending(fixture_paths)
    relay = sim.anchors["relay-north"]
    del relay.routes[sid, pid]
    for kind in (SegmentKind.DATA, SegmentKind.ACK):
        assert _arrive(sim, sid, pid, kind, "relay-north") == []
    assert relay.dropped_unknown == 2
    assert sim.l3_dest_violations == 0


def test_ending_a_claim_whose_route_is_gone_raises(fixture_paths):
    """A claim's end deletes the routes its start installed, so a route that
    no anchor holds any more is a fault, not a silent no-op."""
    sim, sid, pid = _dual_path_sending(fixture_paths)
    (path,) = [p for p in sim.transfers[sid].used if p.path_id == pid]
    del sim.anchors["relay-north"].routes[sid, pid]
    with pytest.raises(KeyError):
        sim._end_claim((0, sid, pid), path.hops)


def test_a_segment_at_a_host_that_neither_sends_nor_receives_it_is_counted(fixture_paths):
    """caltech.h1 sends the transfer and cern.h1 receives it: data at the
    first and an ACK at the second have no taker."""
    sim, sid, pid = _dual_path_sending(fixture_paths)
    assert _arrive(sim, sid, pid, SegmentKind.DATA, "caltech.h1", "w-access") == []
    assert _arrive(sim, sid, pid, SegmentKind.ACK, "cern.h1", "e-access") == []
    assert sim.dropped_unknown_hosts == 2
    assert sum(a.dropped_unknown for a in sim.anchors.values()) == 0


def _counters(sim):
    """Every counter that handling a segment may move, and the epochs."""
    return {
        "dropped_unknown_hosts": sim.dropped_unknown_hosts,
        "l3_dest_violations": sim.l3_dest_violations,
        "epochs": len(sim.alloc_epochs),
        "anchors": {name: anchor.dropped_unknown for name, anchor in sim.anchors.items()},
        "links": {lid: dataclasses.asdict(c) for lid, c in sim.link_counters.items()},
    }


def _late(sim, segment, node, crossed):
    """``segment`` arriving at ``node`` over ``crossed`` after its session or
    tree edge ended, handled as ``step`` handles it: the (segment, L3
    destination, next node) of each event it pushed, and the counters that
    changed, leaving out the arrival's own count on ``crossed``."""
    before = _counters(sim)
    sim.link_counters[crossed].delivered -= 1
    pushed = _pushed(sim, lambda: sim._events[NodeArrival][0](
        sim, NodeArrival(segment, L3Locator("net", "pa"), crossed, node), sim.queue.now))
    after = _counters(sim)
    changed = {name for name in before if before[name] != after[name]}
    return [(e.segment, e.l3_dest, e.dest_node if isinstance(e, LinkHop) else e.node) for e in pushed], changed


@pytest.mark.parametrize("status", ["complete", "no_path"])
def test_a_late_ack_at_an_ended_source_changes_nothing_once_it_completed(fixture_paths, status):
    """A late ACK at the source of a completed transfer changes no counter and
    pushes no event.  After ``no_path`` the sender had not completed: its ACK
    is counted as dropped at the host, as it was before the tables let go."""
    if status == "complete":
        sim, src, crossed = Simulation(load_scenario(fixture_paths["dual-path"])), "caltech.h1", "w-access"
    else:
        sim, src, crossed = Simulation(_BUILT["no-path"]()), "h1", "a-access"
    sim.run()
    (transfer,) = sim.transfers.values()
    assert transfer.status == status and isinstance(transfer.sender, EndedSender)
    stats = {pid: dataclasses.asdict(st) for pid, st in transfer.sender.stats.items()}
    for path in transfer.used:
        ack = Segment(transfer.sid, 0, path.path_id, transfer.tag, kind=SegmentKind.ACK, ack_cum=1)
        dropped = sim.dropped_unknown_hosts
        assert _late(sim, ack, src, crossed) == ([], set() if status == "complete" else {"dropped_unknown_hosts"})
        assert sim.dropped_unknown_hosts == dropped + (status == "no_path")
    assert {pid: dataclasses.asdict(st) for pid, st in transfer.sender.stats.items()} == stats


def test_a_duplicate_at_an_ended_destination_gets_the_final_ack(fixture_paths):
    """The ACK of a complete receiver: the total segment count as its
    cumulative floor, no SACKs, over the reverse leg to the hop before."""
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    sim.run()
    (transfer,) = sim.transfers.values()
    assert isinstance(transfer.receiver, EndedReceiver) and not _forwarding_entries(sim) and not sim._neighbours
    delivered, digest = transfer.receiver.delivered_bytes, transfer.receiver.delivered_digest()
    for path in transfer.used:
        before = path.hops[-2]
        data = Segment(transfer.sid, 7, path.path_id, transfer.tag, b"x" * 100, is_retransmit=True)
        [(ack, l3_dest, node)], changed = _late(sim, data, "cern.h1", "e-access")
        assert changed == {"links"}  # the ACK's transmission
        assert (node, l3_dest) == (before, sim.legs[("cern.h1", before)].dest)
        assert dataclasses.astuple(ack) == (
            transfer.sid, 7, path.path_id, transfer.tag, b"", True, SegmentKind.ACK, segment_count(transfer.total_bytes), ())
    assert (transfer.receiver.delivered_bytes, transfer.receiver.delivered_digest()) == (delivered, digest)


def test_a_completed_tree_edge_takes_late_segments_as_before():
    """origin > relay completes while relay > leaf still sends.  Its late ACK
    changes nothing, pushes no event and runs no epoch; a duplicate at relay,
    before and after the tree ends, gets the final ACK."""
    sim = Simulation(_tree_sharing_a_spur())
    while not sim.pubs or not sim.pubs[1].edges[0].sender.complete:
        sim.step()
    pub = sim.pubs[1]
    first, second = pub.edges
    assert isinstance(first.sender, EndedSender) and not second.sender.complete
    assert not [key for key in sim._neighbours if key[:2] == (pub.sid, first.pid)] and "relay" in pub.receivers
    total = segment_count(pub.total_bytes)

    def duplicate_at_relay():
        data = Segment(pub.sid, 3, first.pid, pub.tag, b"x" * 100)
        [(ack, l3_dest, node)], changed = _late(sim, data, "relay", "spur-r")
        assert changed == {"links"}
        assert (node, l3_dest) == ("origin", sim.legs[("relay", "origin")].dest)
        assert (ack.kind, ack.path_id, ack.seq) == (SegmentKind.ACK, first.pid, 3)
        assert (ack.ack_cum, ack.ack_sacks) == (total, ())

    ack = Segment(pub.sid, 0, first.pid, pub.tag, kind=SegmentKind.ACK, ack_cum=1)
    assert _late(sim, ack, "origin", "core") == ([], set())
    assert (1, pub.sid, first.pid) not in sim.filling.demand
    duplicate_at_relay()
    sim.run()
    assert pub.status == "complete" and not pub.receivers
    assert all(isinstance(end.receiver, EndedReceiver) for end in (*pub.edges, *pub.subscribers.values()))
    duplicate_at_relay()


class _CheckedRepath(Simulation):
    """Records, for each repath check, the transfers it visits, after
    checking them against every active transfer homed at that anchor."""

    def __init__(self, config):
        self.visits = []
        super().__init__(config)

    def _check_repath(self, anchor_name, now):
        homed = [t for _, t in sorted(self.transfers.items())
                 if t.status == "active" and t.home_anchor == anchor_name]
        visited = list(self._homed.get(anchor_name, {}).values())
        assert visited == homed
        self.visits.append((len(visited), len(self.transfers)))
        super()._check_repath(anchor_name, now)


def test_a_repath_check_visits_only_the_active_transfers_homed_there():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "anchorbench"))
    from workloads import failover_flood

    raw = failover_flood(1, anchors=16, chords=8, failures=3, size_bytes=256 * 1024)
    sim = _CheckedRepath(parse_scenario(json.dumps(raw)))
    sim.run()
    assert all(t.status == "complete" for t in sim.transfers.values())
    # Three failures re-flood to all 16 anchors: with all 4 transfers active,
    # with 2 of them ended, and with all 4 ended.  The 352 checks visit 12
    # transfers; sorting every transfer ever opened would walk 384.
    checks, visited, opened = len(sim.visits), *map(sum, zip(*sim.visits))
    assert (checks, visited, opened) == (352, 12, 384)
    assert not any(sim._homed.values())


class _CountedRepaths(Simulation):
    """Counts repaths, and the data segments of replaced paths that reach the
    destination of their still active transfer."""

    repaths = 0
    replaced_arrivals = 0

    def _repath(self, transfer, now):
        self.repaths += 1
        super()._repath(transfer, now)

    def _handle_arrival(self, event, now):
        segment, transfer = event.segment, self.transfers.get(event.segment.session_id)
        if (transfer is not None and transfer.status == "active" and event.node == transfer.dst
                and segment.kind is SegmentKind.DATA and all(p.path_id != segment.path_id for p in transfer.used)):
            self.replaced_arrivals += 1
        super()._handle_arrival(event, now)


# The benchmark's failover-flood workload on 40 anchors and 20 chords at seeds 1 and 2,
# pinned once advertisements crossed only legs whose links are all up.
_FAILOVER_FLOOD_TRACES = {
    1: "80813dd7413ceb07a86b25cec28ab55aa174132ff295dbcbb20f33e5648181e6",
    2: "a5461e3333dc15137c4515c6ded8451609919462b1db95ec12230913a7e340a3",
}
# Of those runs, the data segments of a replaced path that reach their destination while
# the transfer is active: the pins cover a path released at its repath, not at its end.
_FAILOVER_FLOOD_REPLACED_ARRIVALS = {1: 13, 2: 8}


@pytest.mark.parametrize("seed", sorted(_FAILOVER_FLOOD_TRACES))
def test_failover_flood_keeps_its_pinned_trace(seed):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "anchorbench"))
    from workloads import failover_flood

    sim = _CountedRepaths(parse_scenario(json.dumps(failover_flood(seed, anchors=40, chords=20))))
    report = sim.run()
    assert sim.repaths >= 1
    assert all(t.status == "complete" for t in sim.transfers.values())
    assert sim.replaced_arrivals == _FAILOVER_FLOOD_REPLACED_ARRIVALS[seed]
    assert report["trace_hash"] == _FAILOVER_FLOOD_TRACES[seed]


def test_tag_accounting_conserves_forwarded_bytes(fixture_paths):
    config = load_scenario(str(fixture_paths["dual-path"]))
    report = Simulation(config).run()
    delivered = report["sessions"]["bulk"]["bytes_delivered"]
    forwarded = sum(
        row["per_tag"].get("atlas", (0, 0))[1] for row in report["anchors"].values()
    )
    # each path crosses three anchors, loss-free, so every delivered byte
    # was forwarded exactly three times
    assert forwarded == 3 * delivered


def test_seed_change_alters_only_stochastic_quantities():
    base = Simulation(build(three_path_lossy(seed=3))).run()
    other = Simulation(build(three_path_lossy(seed=4))).run()
    assert base["allocation"]["final_rates_mbps"] == other["allocation"]["final_rates_mbps"]
    assert base["sessions"]["bulk"]["paths"] == other["sessions"]["bulk"]["paths"]
    drops = lambda r: sum(row["dropped"] for row in r["links"].values())
    assert drops(base) != drops(other)


def _dual_path_losing_nw_trunk(fixture_paths):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    raw["events"].append({"time_us": 100000, "kind": "link_down", "link": "nw-trunk"})
    raw["horizon_us"] = 4000000
    return parse_scenario(json.dumps(raw))


@pytest.mark.parametrize("mode", ["baseline-single-path", "l5-multipath"])
@pytest.mark.parametrize("link", ["w-access", "e-access"])
def test_a_failed_access_link_ends_the_transfer_with_no_path(fixture_paths, link, mode):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    raw["events"].append({"time_us": 30_000, "kind": "link_down", "link": link})
    report = Simulation(parse_scenario(json.dumps(raw)), mode=mode).run()
    session = report["sessions"]["bulk"]
    assert session["status"] == "no_path"
    assert 0 < session["bytes_delivered"] < session["bytes_total"]


def test_link_down_triggers_repath_and_completion(fixture_paths):
    report = Simulation(_dual_path_losing_nw_trunk(fixture_paths), mode="baseline-single-path").run()
    session = report["sessions"]["bulk"]
    assert session["status"] == "complete"
    assert session["delivered_sha256"] == session["source_sha256"]
    # the surviving southern route carried the tail of the transfer
    assert report["links"]["sw-trunk"]["data_original"] > 0
    assert report["faults"]["l3_dest_violations"] == 0
    # the dead link dropped whatever was on the wire when it failed
    assert report["links"]["nw-trunk"]["up"] is False


def test_a_repeated_link_down_advertises_nothing_new(fixture_paths):
    """nw-trunk fails at 20 ms and is reported failed again at 30 ms: the
    second report changes no advertisement, so nothing is flooded again."""
    raw = json.loads(fixture_paths["dual-path"].read_text())
    runs = []
    for times in ([20_000], [20_000, 30_000]):
        events = [{"time_us": t, "kind": "link_down", "link": "nw-trunk"} for t in times]
        sim = Simulation(parse_scenario(json.dumps({**raw, "events": raw["events"] + events})))
        runs.append((sim, sim.run()))
    (once, once_report), (twice, twice_report) = runs
    assert {key: n for key, n in twice.lsa_tx.items() if key[1] > 1} == {
        ("anchor-west", 2): 3, ("relay-north", 2): 3,
    }
    assert twice.lsa_tx == once.lsa_tx
    assert twice_report["sessions"] == once_report["sessions"]


def test_flooding_without_sessions_never_builds_a_graph(fixture_paths, monkeypatch):
    calls = []
    graph = TopologyDatabase.graph

    def counting_graph(db):
        calls.append(db)
        return graph(db)

    monkeypatch.setattr(TopologyDatabase, "graph", counting_graph)
    report = Simulation(load_scenario(fixture_paths["flooding-20"])).run()
    assert report["events_processed"] > 0
    assert calls == []


def test_horizon_stops_execution():
    raw = three_path_lossy(horizon_us=25_000)
    report = Simulation(build(raw)).run()
    assert report["clock_end_us"] <= 25_000
    assert report["sessions"]["bulk"]["status"] == "active"


def test_session_without_path_stops_pacing():
    # every west trunk fails: no route is left from h1 to h2
    raw = three_path_lossy()
    raw["events"] += [
        {"time_us": 30_000, "kind": "link_down", "link": f"trunk-{i}w"} for i in (1, 2, 3)
    ]
    report = Simulation(build(raw)).run()
    assert report["sessions"]["bulk"]["status"] == "no_path"
    # the queue drains once the segments in flight land, long before the
    # 10 s horizon, and the sender stops pushing into removed paths
    assert report["clock_end_us"] < 100_000
    assert report["faults"]["dropped_unknown"] <= 50


def test_a_no_path_session_measures_its_paths_up_to_its_end():
    """A link that fails long after the session ended moves the last event,
    not the session's measured rates."""
    raw = three_path_lossy()
    raw["events"] += [{"time_us": 30_000, "kind": "link_down", "link": f"trunk-{i}w"} for i in (1, 2, 3)]
    alone = Simulation(build(raw)).run()
    raw["events"].append({"time_us": 200_000, "kind": "link_down", "link": "trunk-1e"})
    later = Simulation(build(raw)).run()
    assert alone["clock_end_us"] < 100_000 < 200_000 < later["clock_end_us"]
    session = alone["sessions"]["bulk"]
    assert session["status"] == "no_path"
    assert later["sessions"]["bulk"] == session
    assert session["per_path"]["0"]["measured_mbps"] > 0


@pytest.mark.parametrize("cut", ["horizon", "no_path"])
def test_source_digest_of_an_unfinished_transfer_covers_the_whole_object(cut):
    raw = three_path_lossy(horizon_us=25_000 if cut == "horizon" else 10_000_000)
    if cut == "no_path":
        raw["events"] += [
            {"time_us": 30_000, "kind": "link_down", "link": f"trunk-{i}w"} for i in (1, 2, 3)
        ]
    sim = Simulation(build(raw))
    session = sim.run()["sessions"]["bulk"]
    assert session["status"] == {"horizon": "active", "no_path": "no_path"}[cut]
    (transfer,) = sim.transfers.values()
    # The origin stopped before it took its last segment from the stream.
    assert transfer.sender.send_next < segment_count(session["bytes_total"])
    whole = synth_payload("session:bulk", session["bytes_total"])
    assert session["source_sha256"] == hashlib.sha256(whole).hexdigest()
    assert session["delivered_sha256"] != session["source_sha256"]


def _lossy_dual_path(fixture_paths):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    for link in raw["links"]:
        if link["id"].endswith("-trunk"):
            link["loss_prob"] = 0.05
    return parse_scenario(json.dumps(raw))


@pytest.mark.parametrize("scenario", ["lossy-dual-path", "transatlantic-pubsub", "mid-stream-join"])
def test_senders_hold_only_unacknowledged_segments(fixture_paths, scenario):
    config = {
        "lossy-dual-path": lambda: _lossy_dual_path(fixture_paths),
        "transatlantic-pubsub": lambda: load_scenario(fixture_paths["transatlantic-pubsub"]),
        "mid-stream-join": lambda: _mid_stream_join(),
    }[scenario]()
    sim = Simulation(config)
    most_held = 0
    while sim.queue.peek_time() is not None:
        sim.step()
        origins = {t.sender for t in sim.transfers.values()} | {
            e.sender for pub in sim.pubs.values() for e in pub.edges if e.src == pub.publisher
        }
        live = [t.sender for t in sim.transfers.values() if t.status == "active"]
        live += [e.sender for pub in sim.pubs.values() for e in pub.edges if not e.sender.complete]
        for sender in live:
            held, acked, nxt = set(sender.held), acked_seqs(sender), sender.send_next
            assert not held & acked
            # Of the segments sent, exactly the unacknowledged ones are held ...
            sent = {seq for seq in held if seq < nxt}
            assert sent == set(range(sender.start_seq, nxt)) - acked
            assert len(sent) <= nxt - sender.start_seq - len(acked)
            # ... and of those not yet sent, only a relay's contiguous
            # backlog of what its upstream hop delivered.
            backlog = sorted(held - sent)
            assert backlog == list(range(nxt, nxt + len(backlog)))
            assert not (backlog and sender in origins)
            most_held = max(most_held, len(held))
    assert all(t.status == "complete" for t in sim.transfers.values())
    assert all(pub.status == "complete" for pub in sim.pubs.values())
    assert most_held > 0


def test_multi_link_internal_domain_path():
    # the wan domain routes between its edge attachments over an
    # intermediate hop, so one overlay leg crosses two substrate links
    raw = {
        "name": "wan-chain",
        "seed": 5,
        "mode": "l5-multipath",
        "horizon_us": 2_000_000,
        "domains": [
            {"id": "site-a", "attachments": ["h1-port", "ap-a"]},
            {"id": "wan", "attachments": ["wa", "wm", "wb"]},
            {"id": "site-b", "attachments": ["h2-port", "ap-b"]},
        ],
        "links": [
            {"id": "acc-a", "domain": "site-a", "endpoints": ["h1-port", "ap-a"],
             "capacity_mbps": 1000, "latency_us": 10},
            {"id": "wan-1", "domain": "wan", "endpoints": ["wa", "wm"],
             "capacity_mbps": 100, "latency_us": 400},
            {"id": "wan-2", "domain": "wan", "endpoints": ["wm", "wb"],
             "capacity_mbps": 80, "latency_us": 600},
            {"id": "acc-b", "domain": "site-b", "endpoints": ["h2-port", "ap-b"],
             "capacity_mbps": 1000, "latency_us": 10},
        ],
        "anchors": [
            {"name": "edge-a", "ports": [{"domain": "site-a", "attachment": "ap-a"},
                                          {"domain": "wan", "attachment": "wa"}],
             "peers": [{"anchor": "edge-b", "domain": "wan"}]},
            {"name": "edge-b", "ports": [{"domain": "wan", "attachment": "wb"},
                                          {"domain": "site-b", "attachment": "ap-b"}],
             "peers": []},
        ],
        "hosts": [
            {"name": "h.a", "anchor": "edge-a", "port": {"domain": "site-a", "attachment": "h1-port"}},
            {"name": "h.b", "anchor": "edge-b", "port": {"domain": "site-b", "attachment": "h2-port"}},
        ],
        "policy": [{"tag": "t", "weight": 1}],
        "events": [
            {"time_us": 10_000, "kind": "open_session", "id": "xfer",
             "src": "h.a", "dst": "h.b", "tag": "t", "bytes": 131072, "k_paths": 1}
        ],
    }
    report = Simulation(build(raw)).run()
    session = report["sessions"]["xfer"]
    assert session["status"] == "complete"
    assert session["delivered_sha256"] == session["source_sha256"]
    segments = 131072 // SEGMENT_PAYLOAD_BYTES
    assert report["links"]["wan-1"]["data_original"] == segments
    assert report["links"]["wan-2"]["data_original"] == segments
    # the session is paced by the chain bottleneck (80 Mbps)
    rate = list(report["allocation"]["final_rates_mbps"].values())
    assert rate == [80.0]


def _leg_between_two_anchors(attachments, links):
    """The substrate leg from anchor a (at wa) to anchor b (at wb) in one domain."""
    raw = {
        "name": "one-domain", "seed": 1, "mode": "l5-multipath", "horizon_us": 1000,
        "domains": [{"id": "wan", "attachments": attachments}],
        "links": [
            {"id": lid, "domain": "wan", "endpoints": [u, v], "capacity_mbps": 100,
             "latency_us": latency}
            for lid, u, v, latency in links
        ],
        "anchors": [
            {"name": "a", "ports": [{"domain": "wan", "attachment": "wa"}],
             "peers": [{"anchor": "b", "domain": "wan"}]},
            {"name": "b", "ports": [{"domain": "wan", "attachment": "wb"}], "peers": []},
        ],
        "hosts": [], "policy": [{"tag": "t", "weight": 1}], "events": [],
    }
    return Simulation(build(raw)).legs[("a", "b")].links


@pytest.mark.parametrize(
    "attachments, links, leg",
    [
        # parallel links of equal latency: the lower link id
        (["wa", "wb"], [("z-1", "wa", "wb", 5), ("y-2", "wa", "wb", 5)], ("y-2",)),
        # parallel links: the lower latency before the lower id
        (["wa", "wb"], [("a-1", "wa", "wb", 7), ("b-2", "wa", "wb", 5)], ("b-2",)),
        # equal-latency routes: the lexicographically smaller attachment names,
        # whatever the link ids
        (
            ["wa", "wb", "wm", "wn"],
            [("l1", "wa", "wn", 3), ("l2", "wn", "wb", 3), ("l3", "wa", "wm", 3),
             ("l4", "wm", "wb", 3)],
            ("l3", "l4"),
        ),
        # the same, where the larger-named route is the one found first
        (
            ["wa", "wb", "wc", "wd"],
            [("l1", "wa", "wd", 2), ("l2", "wd", "wb", 4), ("l3", "wa", "wc", 3),
             ("l4", "wc", "wb", 3)],
            ("l3", "l4"),
        ),
    ],
)
def test_substrate_leg_tie_breaks(attachments, links, leg):
    assert _leg_between_two_anchors(attachments, links) == leg


def test_report_is_written_for_an_unreachable_subscriber(fixture_paths):
    cases = [  # the link that fails at 25 ms, the horizon, and the subscribers left incomplete
        ("spur-a", None, ["us.sub1"]),  # us-a's only peering: us.sub1 is cut off from the publisher
        # An access link takes its host out of the publisher's home database.
        ("eu-access", None, []),  # the publisher's, after it has sent everything
        ("a-access", 50_000, ["us.sub1"]),  # us.sub1's, whose edge then retransmits to the horizon
    ]
    for link, horizon_us, incomplete in cases:
        raw = json.loads(fixture_paths["transatlantic-pubsub"].read_text())
        raw["events"].append({"time_us": 25_000, "kind": "link_down", "link": link})
        raw["horizon_us"] = horizon_us or raw["horizon_us"]
        report = Simulation(parse_scenario(json.dumps(raw))).run()
        tree = report["pubsub"]["pub1"]
        assert tree["unicast_cost"] is None, link
        assert tree["tree_cost"] > 0
        assert [sub for sub, row in tree["subscribers"].items() if row["complete_at_us"] is None] == incomplete
        assert canonical_json(report)


def test_report_database_digests_are_each_anchors_own_digest():
    """Stopped while the bootstrap flood is two hops out (500 us a hop):
    gw-origin and gw-mid hold all four advertisements, while gw-far and
    gw-side each still miss the other's.  Each memoized digest is the
    anchor's own, and so is the report's."""
    sim = Simulation(build(gateway_chain([], horizon_us=1200)))
    report = sim.run()
    digests = database_digests(sim)
    assert digests == {name: anchor.db.digest() for name, anchor in sim.anchors.items()}
    assert len(set(digests.values())) == 3 and digests["gw-origin"] == digests["gw-mid"]
    assert {name: row["db_digest"] for name, row in report["anchors"].items()} == digests
    assert report["topology"]["db_identical"] is False


def test_an_advertisement_never_crosses_a_failed_link():
    """trunk-os, gw-side's only leg, fails at 1,000 us, when gw-far's first
    advertisement is one hop short of gw-side.  gw-origin and gw-side each
    advertise again; gw-origin's new advertisement reaches gw-mid and gw-far,
    and neither new one crosses the cut."""
    sim = Simulation(build(gateway_chain([{"time_us": 1000, "kind": "link_down", "link": "trunk-os"}])))
    report = sim.run()
    seqs = {name: {o: lsa.seq for o, lsa in anchor.db.lsas.items()} for name, anchor in sim.anchors.items()}
    rest = {"gw-far": 1, "gw-mid": 1, "gw-origin": 2, "gw-side": 1}
    assert seqs == {"gw-far": rest, "gw-mid": rest, "gw-origin": rest,
                    "gw-side": {"gw-mid": 1, "gw-origin": 1, "gw-side": 2}}
    assert {key: n for key, n in sim.lsa_tx.items() if key[1] == 2} == {("gw-origin", 2): 2}
    assert report["topology"]["db_identical"] is False


# -- allocation summary --------------------------------------------------------------


def _epoch(time_us, concurrent, moved, shares=None):
    return {
        "time_us": time_us,
        "concurrent": concurrent,
        "rates_mbps": moved,
        "domain_shares_mbps": shares or {},
    }


def test_peak_epoch_takes_earliest_on_ties():
    epochs = [
        _epoch(0, 1, {"a:0": 100.0}, {"t": 100.0}),
        _epoch(5, 2, {"a:0": 50.0, "b:0": 50.0}, {"t": 100.0}),
        _epoch(9, 2, {"a:0": 20.0, "b:0": None, "c:0": 80.0}, {"t": 20.0, "u": 80.0}),
        _epoch(12, 0, {"a:0": None, "c:0": None}),
    ]
    summary = allocation_summary(epochs)
    assert summary["peak_rates_mbps"] == {"a:0": 50.0, "b:0": 50.0}
    assert summary["domain_shares_mbps"] is epochs[1]["domain_shares_mbps"]
    assert replay(epochs[:3]) == {"a:0": 20.0, "c:0": 80.0}


def test_peak_epoch_of_no_epochs_is_empty():
    empty = {"final_rates_mbps": {}, "peak_rates_mbps": {}, "domain_shares_mbps": {}}
    assert allocation_summary([]) == empty
    assert allocation_summary([_epoch(0, 0, {})]) == empty


def test_final_rates_skip_trailing_empty_epoch():
    epochs = [
        _epoch(0, 1, {"a:0": 100.0}),
        _epoch(5, 2, {"a:0": 40.0, "b:0": 60.0}),
        _epoch(9, 1, {"a:0": None, "b:0": 100.0}),
        _epoch(12, 0, {"b:0": None}),
    ]
    assert allocation_summary(epochs)["final_rates_mbps"] == {"b:0": 100.0}
    assert replay(epochs) == {}


@pytest.mark.parametrize(
    "name", ["dual-path", "transatlantic-pubsub", "two-domains-weighted", "flooding-20"]
)
def test_report_peak_rates_and_shares_share_one_epoch(fixture_paths, name):
    report = Simulation(load_scenario(fixture_paths[name])).run()
    alloc = report["allocation"]
    epochs = alloc["epochs"]
    # flooding-20 opens no session, so it has no epoch at all
    assert bool(epochs) == (name != "flooding-20")
    full = [replay(epochs[:i + 1]) for i in range(len(epochs))]
    assert [len(rates) for rates in full] == [e["concurrent"] for e in epochs]
    # max() keeps the first of equal keys: the earliest peak epoch
    peak = max(range(len(epochs)), key=lambda i: epochs[i]["concurrent"], default=None)
    assert alloc["peak_rates_mbps"] == (full[peak] if epochs else {})
    assert alloc["domain_shares_mbps"] == (epochs[peak]["domain_shares_mbps"] if epochs else {})
    claimed = [rates for rates in full if rates]
    assert alloc["final_rates_mbps"] == (claimed[-1] if claimed else {})


# Each fixture's event trace at its own seed.  A change that is only meant to
# make the simulator faster keeps these; one that changes behaviour on
# purpose updates them and says why in CHANGES.md.
FIXTURE_TRACE_HASHES = {
    "dual-path": "0f93ecb2219ae4bc37b2a9f24b530635a4cb0b179a0cc0db00000da5d3992ac7",
    "flooding-20": "6645c2b3b55aeefa156adb117775778d1691cf8713d9d8c64e4ce92f9e76f0b9",
    "transatlantic-pubsub": "873da2b092d08d18a841a672b216c2d7cc0dd765f010e05a584ffc82faf39c0f",
    "two-domains-weighted": "9544a899045bb14fc0083ad425defa68ebd715624631a82084638e668979d8f5",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_TRACE_HASHES))
def test_fixture_trace_hash_is_pinned(fixture_paths, name):
    report = Simulation(load_scenario(fixture_paths[name])).run()
    assert report["trace_hash"] == FIXTURE_TRACE_HASHES[name]
    assert report["faults"]["dropped_unknown"] == DROPPED_UNKNOWN[name]


# SHA-256 of each fixture's canonical anchornet-metrics/2 report: the whole
# report, byte for byte.
FIXTURE_REPORT_HASHES = {
    "dual-path": "1692e508a3b8e809ae3963f49cbdefaa32baf0b7ec9eb2c96d30c5bd12e6451e",
    "flooding-20": "eb1ffaa7b2c1a8d0673aef1dc3a9456ab61efcea896b183ddbb7a27d3b54a98e",
    "transatlantic-pubsub": "3277c4127aa49ae76de71615852dcb7a39a9b6027347103b8930566df970791e",
    "two-domains-weighted": "8190a573763899de9549758b6479226b6d7e217c2b570cef30c901402dddf025",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_REPORT_HASHES))
def test_fixture_report_is_pinned(fixture_paths, name):
    report = canonical_json(Simulation(load_scenario(fixture_paths[name])).run())
    assert hashlib.sha256(report.encode()).hexdigest() == FIXTURE_REPORT_HASHES[name]


# SHA-256 of each report in the anchornet-metrics/1 form, whose epochs each
# listed every claimant's rate.  MERSENNE_V1_REPORT_HASHES below are the reports
# that anchornet-metrics/1 itself wrote, and the replay reproduces them byte for
# byte under the payload generator of that time.
V1_REPORT_HASHES = {
    "dual-path": "ff998f7905364af19b1e08de8fe85eca67cfe4de47b959459bdf8040a1adcf80",
    "flooding-20": "6497e243d4dd8facf1f32a900ec88b2f09d5284593d462adbd8e32c6049ad37a",
    "two-domains-weighted": "a0203e8463953d924429572bc5725100a6549160dd74511f8e8c6b4e1596947b",
}


def _as_v1(report):
    """``report`` in the anchornet-metrics/1 form: each epoch's moved rates
    replayed into the full rate map after it."""
    epochs = report["allocation"]["epochs"]
    full = [{**epoch, "rates_mbps": replay(epochs[:i + 1])} for i, epoch in enumerate(epochs)]
    return {**report, "schema": "anchornet-metrics/1", "allocation": {**report["allocation"], "epochs": full}}


@pytest.mark.parametrize("name", sorted(V1_REPORT_HASHES))
def test_replayed_report_is_the_v1_report(fixture_paths, name):
    report = Simulation(load_scenario(fixture_paths[name])).run()
    v1 = _as_v1(report)
    assert hashlib.sha256(canonical_json(v1).encode()).hexdigest() == V1_REPORT_HASHES[name]
    assert compare(v1, report) == compare(report, v1) == compare(report, report)


# Runs beside the fixtures that take the repath, no-path, baseline and late-join
# branches, pinned the same way: (how to run it, its trace hash).
RUN_TRACE_HASHES = {
    "repath": (
        lambda paths: Simulation(_BUILT["repath"]()).run(),
        "defda3634c980581c539b38876523abe412a213ee4eda81b5211369bdb059301",
    ),
    "no-path": (
        lambda paths: Simulation(_BUILT["no-path"]()).run(),
        "f933a1c5e27d0b2f1c7d052d7881069eff929ef66c2148be1f7311664bb6ed39",
    ),
    "dual-path-failover-baseline": (
        lambda paths: Simulation(_dual_path_losing_nw_trunk(paths), mode="baseline-single-path").run(),
        "de4b6dd69823eb5674445836934984e727c606fc2c07c93f29bbace3d419f599",
    ),
    "transatlantic-pubsub-baseline": (
        lambda paths: Simulation(
            load_scenario(paths["transatlantic-pubsub"]), mode="baseline-single-path"
        ).run(),
        "08415c0d1fed109533bce4c28b7dde9a79fca024ab822e49a83e1c3398924827",
    ),
    "pubsub-mid-stream-join": (
        lambda paths: Simulation(_mid_stream_join()).run(),
        "c66c6a0309e3dcf3288630c2ce20e2003fb63293294d69e32ab3a4607ff96604",
    ),
}


# The segments each pinned run counts as dropped for want of a taker, where
# late segments of ended sessions show.
DROPPED_UNKNOWN = {
    "dual-path": 0, "flooding-20": 0, "transatlantic-pubsub": 0, "two-domains-weighted": 0,
    "repath": 10, "no-path": 10, "dual-path-failover-baseline": 3,
    "transatlantic-pubsub-baseline": 0, "pubsub-mid-stream-join": 0,
}


@pytest.mark.parametrize("name", sorted(RUN_TRACE_HASHES))
def test_run_trace_hash_is_pinned(fixture_paths, name):
    run, pinned = RUN_TRACE_HASHES[name]
    report = run(fixture_paths)
    assert report["trace_hash"] == pinned
    assert report["faults"]["dropped_unknown"] == DROPPED_UNKNOWN[name]


# The pins above as they were under the earlier Mersenne-Twister payload
# generator.  The generator decides payload bytes and nothing else, so with it
# swapped back in every trace and report is the earlier one byte for byte: the
# payload change moved no event, time, rank, rate or counter.
MERSENNE_TRACE_HASHES = {
    "dual-path": "d3ef5f09925dcd6c69c224e38daa7947758c4f1d1847e56680248bd72cd3357f",
    "flooding-20": "6645c2b3b55aeefa156adb117775778d1691cf8713d9d8c64e4ce92f9e76f0b9",
    "transatlantic-pubsub": "7c70cf6b532cd296c68c498641603a7205cd4bc4eafebf248e5db6d663cd98e0",
    "two-domains-weighted": "c9e8118a887d84706af99b2664e598e3224948f50d9c8a149a9038023c3299f7",
}
MERSENNE_REPORT_HASHES = {
    "dual-path": "d12b03737474196a22b15c75a1049876685c40bbbcb2e961b2526ae030d2ba53",
    "flooding-20": "eb1ffaa7b2c1a8d0673aef1dc3a9456ab61efcea896b183ddbb7a27d3b54a98e",
    "transatlantic-pubsub": "89b7725c17c9b84349e66ce50340d01bfe50369fbbfb9c9c4153b146eeadbad5",
    "two-domains-weighted": "4bd4260ed6575da9031e660e0be07bafcb66434740a0d737193de9e06eca8913",
}
MERSENNE_V1_REPORT_HASHES = {
    "dual-path": "eae49529bf7a3867730768a60e4be7dabc4a70ce1b8059305d0e1b9e9e8091ed",
    "flooding-20": "6497e243d4dd8facf1f32a900ec88b2f09d5284593d462adbd8e32c6049ad37a",
    "two-domains-weighted": "f3ce01b234e9100914faeb2d7c04fe33cebed8696386012a74e2fa3f04d16f35",
}
MERSENNE_RUN_TRACE_HASHES = {
    "repath": "958c8e53a48336cdacd644f7d4c923dda0b251df7363fd867f178006ca6dd2e1",
    "no-path": "b3c17c94a58396f6de5ae257d09596d6c4226f18c424a8131b56ff27bc2c9958",
    "dual-path-failover-baseline": "dca82a13de816707ab89d7d4d877e0cd6b8338289d0c4197effc7ad9ee03aa98",
    "transatlantic-pubsub-baseline": "46fb5b1e4e81289e0005137497b659503e741eb8926852e925d6a20eb8363d83",
    "pubsub-mid-stream-join": "96d4467abe1d69578edcf6b7d5eb3031ddce2116e999d79b2df7b288870faa05",
}


@pytest.fixture
def mersenne_payload(monkeypatch):
    """Every payload the simulator and ``synth_payload`` build comes from the
    earlier Mersenne-Twister generator."""
    for module in (simnet, gateway):
        monkeypatch.setattr(module, "PayloadStream", MersennePayloadStream)


@pytest.mark.parametrize("name", sorted(MERSENNE_TRACE_HASHES))
def test_fixture_pins_under_the_mersenne_payload_are_the_earlier_ones(
    fixture_paths, mersenne_payload, name
):
    report = Simulation(load_scenario(fixture_paths[name])).run()
    assert report["trace_hash"] == MERSENNE_TRACE_HASHES[name]
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == MERSENNE_REPORT_HASHES[name]
    if name in MERSENNE_V1_REPORT_HASHES:
        v1 = canonical_json(_as_v1(report))
        assert hashlib.sha256(v1.encode()).hexdigest() == MERSENNE_V1_REPORT_HASHES[name]


@pytest.mark.parametrize("name", sorted(MERSENNE_RUN_TRACE_HASHES))
def test_run_pins_under_the_mersenne_payload_are_the_earlier_ones(
    fixture_paths, mersenne_payload, name
):
    run, _ = RUN_TRACE_HASHES[name]
    assert run(fixture_paths)["trace_hash"] == MERSENNE_RUN_TRACE_HASHES[name]


# -- trace v2 ---------------------------------------------------------------------


def _with_field(segment, name, value):
    """A copy of ``segment`` with one field changed and nothing re-validated
    or carried over from the original's caches."""
    copy = object.__new__(Segment)
    for f in dataclasses.fields(Segment):
        object.__setattr__(copy, f.name, value if f.name == name else getattr(segment, f.name))
    return copy


def _record(sim, event):
    """The trace bytes ``step`` adds for ``event`` after its time and rank."""
    _, encode = sim._events[type(event)]
    return encode(sim, event)


def test_hop_record_covers_every_header_field_the_destination_name_and_payload(fixture_paths):
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    assert not sim._digests  # no session is open yet, so nothing is cached
    dest, other = L3Locator("net", "pa"), L3Locator("net", "pb")
    data = Segment(7, 3, 1, "atlas", b"abc" * 100, ack_cum=2)
    ack = Segment(7, 3, 1, "atlas", kind=SegmentKind.ACK, ack_cum=2, ack_sacks=(5, 9))
    changes = {
        "session_id": 8, "seq": 4, "path_id": 2, "tag": "cms", "is_retransmit": True,
        "ack_cum": 3, "ack_sacks": (5, 10),
    }

    def hop(segment, crossed="link-1", l3_dest=dest):
        return _record(sim, LinkHop(segment, l3_dest, crossed, ("link-2",), "relay-north"))

    for segment in (data, ack):
        record = hop(segment)
        assert record == b"hop" + _pstr("link-1") + segment.encode(dest)
        arrival = _record(sim, NodeArrival(segment, dest, "link-1", "relay-north"))
        assert arrival == b"arr" + _pstr("relay-north") + segment.encode(dest)
        assert hop(segment, crossed="link-2") != record
        assert hop(segment, l3_dest=other) != record
        for name, value in changes.items():
            assert hop(_with_field(segment, name, value)) != record, name
        flipped = SegmentKind.ACK if segment.kind is SegmentKind.DATA else SegmentKind.DATA
        assert hop(_with_field(segment, "kind", flipped)) != record
    one_byte = _with_field(data, "payload", data.payload[:-1] + b"x")
    assert hop(one_byte) != hop(data)


@pytest.mark.parametrize("name", ["dual-path", "transatlantic-pubsub", "two-domains-weighted"])
def test_cached_payload_digest_is_sha256_of_payload_while_session_is_active(fixture_paths, name):
    sim = Simulation(load_scenario(fixture_paths[name]))
    checked, reused = 0, 0

    def see(event):
        nonlocal checked, reused
        segment = getattr(event, "segment", None)
        if segment is not None and segment.payload:
            cached = sim._digests.get(segment.session_id, {}).get(segment.seq)
            reused += cached is not None
            assert sim._payload_digest(segment) == hashlib.sha256(segment.payload).digest()
            kind, name = (b"hop", event.crossed) if isinstance(event, LinkHop) else (b"arr", event.node)
            assert _record(sim, event) == kind + _pstr(name) + segment.encode(event.l3_dest)
            checked += 1

    _on_pop(sim, see)
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= sim.config.horizon_us:
        sim.step()
        active = {sid for sid, t in sim.transfers.items() if t.status == "active"}
        active |= {sid for sid, p in sim.pubs.items() if p.status == "active"}
        assert set(sim._digests) == active
    assert checked > 0 and reused > 0
    assert not sim._digests  # every session ended, and no digest outlived it


def _sender(sim, key):
    """The sender that paces the claimant ``key``: its transfer's or its tree edge's."""
    kind, sid, pid = key
    return (sim.pubs[sid].edges[pid] if kind else sim.transfers[sid]).sender


def _forwarding_entries(sim):
    """Each anchor's routes, where it has any."""
    return {name: a.routes for name, a in sim.anchors.items() if a.routes}


def _assert_nothing_held(sim):
    """Every session has ended and left no entry behind: no claim, neighbour,
    forwarding entry, digest or tree receiver, and no live sender or receiver."""
    assert not (sim.filling.demand or sim._neighbours or _forwarding_entries(sim) or sim._digests)
    assert not any(pub.receivers for pub in sim.pubs.values())
    assert all(isinstance(t.sender, EndedSender) and isinstance(t.receiver, EndedReceiver)
               for t in sim.transfers.values())
    assert all(isinstance(e.sender, EndedSender) for pub in sim.pubs.values() for e in pub.edges
               if e.sender.start_seq < segment_count(pub.total_bytes))  # one grafted at the stream's end never sent


class _EpochCheckedSimulation(Simulation):
    """After every allocation epoch, checks that the session tables hold only
    what is active, replays the rates the epochs moved and checks them, the
    pushed rates and the kept domain totals against a from-scratch
    allocation.  With ``full`` set it also rebuilds every claimant from its
    transfer or tree edge, and checks the from-scratch allocation against the
    round-by-round exact filling; a long run re-fills the filling's own demands."""

    def __init__(self, config, full=True):
        super().__init__(config)
        self.full = full
        self.checked = []  # the claimant keys after each epoch
        self.replayed = {}  # each held claimant's rate, replayed from the epochs

    def _reallocate(self, now):
        super()._reallocate(now)
        self._check_tables()
        for claimant, rate in self.alloc_epochs[-1]["rates_mbps"].items():
            if rate is None:  # released: listed once, and only while held
                del self.replayed[claimant]
            else:  # listed only when its rate moved
                assert self.replayed.get(claimant) != rate
                self.replayed[claimant] = rate
        held = self.filling.demand
        if not self.full:
            keys = sorted(held)
            self._check_fresh([held[key] for key in keys], [(key, _sender(self, key), key[2]) for key in keys])
            return
        demands, targets = [], []
        for sid in sorted(self.transfers):
            transfer = self.transfers[sid]
            if transfer.status != "active":
                continue
            for path in transfer.used:
                links = frozenset(
                    lid for u, v in zip(path.hops, path.hops[1:]) for lid in self.legs[(u, v)].links
                )
                demands.append(Demand(
                    f"{transfer.id_str}:{path.path_id}", self.policy[transfer.tag], links,
                    demand_cap_mbps=transfer.rate_cap_mbps, tag=transfer.tag,
                ))
                targets.append(((0, sid, path.path_id), transfer.sender, path.path_id))
        for sid in sorted(self.pubs):
            pub = self.pubs[sid]
            if pub.status != "active":
                continue
            for edge in pub.edges:
                if edge.sender.complete:
                    continue
                links = frozenset(self.legs[(edge.src, edge.dst)].links)
                demands.append(Demand(
                    f"{pub.id_str}:{edge.src}>{edge.dst}", self.policy[pub.tag], links,
                    tag=pub.tag,
                ))
                targets.append(((1, sid, edge.pid), edge.sender, edge.pid))

        # The filling holds exactly the active claimants, demands as fresh.
        assert sorted(held) == [key for key, _, _ in targets]
        for demand, (key, sender, _) in zip(demands, targets):
            assert held[key] == demand
            assert _sender(self, key) is sender
        alloc = self._check_fresh(demands, targets)
        rates, residuals = progressive_fill_exact(self.link_avail, [
            {"id": d.session_id, "weight": d.weight, "links": set(d.links), "cap": d.demand_cap_mbps}
            for d in demands
        ])
        assert list(alloc.rates_exact.items()) == list(rates.items())
        assert list(alloc.residuals_exact.items()) == list(residuals.items())

    def _end(self, session, status, now):
        """What has ended is frozen: a transfer's sender and, once complete,
        its receiver (after ``no_path`` it still takes what was past the
        break); a tree's receivers, and its edges' senders as each completed."""
        super()._end(session, status, now)
        if session.sid in self.transfers:
            assert isinstance(session.sender, EndedSender)
            assert isinstance(session.receiver, EndedReceiver) == (status == "complete")
        else:
            assert all(isinstance(end.receiver, EndedReceiver) for end in (*session.edges, *session.subscribers.values()))
            total = segment_count(session.total_bytes)  # an edge grafted at the stream's end never sent
            assert all(isinstance(edge.sender, EndedSender) for edge in session.edges if edge.sender.start_seq < total)

    def _check_tables(self):
        """Entries only for the claims that active sessions hold, each paced by
        its transfer's or edge's live sender and with its hops in
        ``_neighbours`` and, at each interior hop, in that anchor's routes:
        neither end of a claim holds a route.  Digests only for active
        sessions, and receiver maps only for active trees."""
        claims = {}  # claim key -> (hops, the sender of its transfer or edge)
        for sid, transfer in self.transfers.items():
            if transfer.status == "active":
                claims.update(((0, sid, path.path_id), (path.hops, transfer.sender)) for path in transfer.used)
        for sid, pub in self.pubs.items():
            claims.update(((1, sid, e.pid), ((e.src, e.dst), e.sender)) for e in pub.edges if not e.sender.complete)
            nodes = {edge.dst for edge in pub.edges}.union(pub.subscribers) if pub.status == "active" else set()
            assert set(pub.receivers) == nodes
        assert set(self.filling.demand) == set(claims)
        assert {key[:2] for key in self._neighbours} == {key[1:] for key in self.filling.demand}
        for (_, _, pid), (_, sender) in claims.items():
            assert isinstance(sender, SenderSession) and not sender.complete and pid in sender.paths
        assert set(self._neighbours) == {(sid, pid, hop) for (_, sid, pid), (hops, _) in claims.items() for hop in hops}
        routes = {}  # anchor -> its interior hops' entries in _neighbours
        for (_, sid, pid), (hops, _) in claims.items():
            for hop in hops[1:-1]:
                routes.setdefault(hop, {})[sid, pid] = self._neighbours[sid, pid, hop]
        assert _forwarding_entries(self) == routes
        active = {sid for sid, t in self.transfers.items() if t.status == "active"}
        assert set(self._digests) == active | {sid for sid, p in self.pubs.items() if p.status == "active"}

    def _check_fresh(self, demands, targets):
        matrix = DemandMatrix(tuple(demands))
        alloc = water_fill(self.link_avail, matrix)
        for demand, (_, sender, pid) in zip(demands, targets):
            assert Fraction(*sender.rates[pid]) == alloc.rates_exact[demand.session_id]
        assert self.replayed == {k: float(v) for k, v in alloc.rates_exact.items()}
        epoch = self.alloc_epochs[-1]
        assert epoch["concurrent"] == len(demands)
        fresh = domain_shares(alloc, matrix, self.config.policy) if demands else {}
        assert epoch["domain_shares_mbps"] == fresh
        assert list(epoch["domain_shares_mbps"]) == list(fresh)
        self.checked.append(set(self.filling.demand))
        return alloc


def _three_path_lossy_losing(*links):
    raw = three_path_lossy()
    raw["events"] += [{"time_us": 30_000, "kind": "link_down", "link": lid} for lid in links]
    return build(raw)


# Built scenarios beside the fixtures: a mid-run repath, and a session left with no path.
_BUILT = {
    "repath": lambda: _three_path_lossy_losing("trunk-1w"),
    "no-path": lambda: _three_path_lossy_losing("trunk-1w", "trunk-2w", "trunk-3w"),
}


@pytest.mark.parametrize(
    "name",
    ["dual-path", "transatlantic-pubsub", "two-domains-weighted", "flooding-20", "repath", "no-path"],
)
def test_kept_claims_rates_and_domain_totals_match_a_fresh_epoch(fixture_paths, name):
    config = _BUILT[name]() if name in _BUILT else load_scenario(fixture_paths[name])
    sim = _EpochCheckedSimulation(config)
    report = sim.run()
    assert len(sim.checked) == len(sim.alloc_epochs)
    assert bool(sim.checked) == (name != "flooding-20")
    seen = set().union(*sim.checked)
    if name == "repath":
        # the three first paths (ids 0-2) gave way to two renumbered ones
        assert {(0, 1, 0), (0, 1, 3), (0, 1, 4)} <= seen
        assert report["sessions"]["bulk"]["status"] == "complete"
    if name == "no-path":
        assert report["sessions"]["bulk"]["status"] == "no_path"
    if name == "transatlantic-pubsub":
        assert any(key[0] == 1 for key in seen)  # tree edges were claimed
    # every session ended here, and no claim outlived its session
    assert all(t.status != "active" for t in sim.transfers.values())
    assert all(p.status != "active" for p in sim.pubs.values())
    assert not sim.filling.demand and not sim.replayed


@pytest.mark.parametrize("seed", [1, 2])
def test_session_churn_epochs_match_a_fresh_fill(seed):
    """The benchmark's session-churn workload (about 400 epochs over up to
    150 concurrent claimants): every epoch's rates, pushed rates and domain
    totals equal a from-scratch ``water_fill``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "anchorbench"))
    from workloads import session_churn

    sim = _EpochCheckedSimulation(parse_scenario(json.dumps(session_churn(seed))), full=False)
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= sim.config.horizon_us:
        sim.step()
    assert len(sim.checked) == len(sim.alloc_epochs) > 300
    assert max(epoch["concurrent"] for epoch in sim.alloc_epochs) > 100
    assert all(t.status == "complete" for t in sim.transfers.values())
    assert not sim.filling.demand and not sim.replayed
    _assert_nothing_held(sim)


def test_fanout_join_epochs_match_a_fresh_fill_and_hold_only_active_entries():
    """The benchmark's fanout-join workload: a tree with mid-stream grafts and
    replica fetches, each epoch checked in full."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "anchorbench"))
    from workloads import fanout_join

    sim = _EpochCheckedSimulation(parse_scenario(json.dumps(fanout_join(1))))
    sim.run()
    assert len(sim.checked) == len(sim.alloc_epochs) > 20
    assert sim.transfers and all(t.status == "complete" for t in sim.transfers.values())
    assert sim.pubs and all(p.status == "complete" for p in sim.pubs.values())
    _assert_nothing_held(sim)


class _CountedPumps(Simulation):
    pumps = 0

    def _pump(self, sid, node, sender, now):
        self.pumps += 1
        super()._pump(sid, node, sender, now)


class _PumpEverySender(_CountedPumps):
    """Pumps every live sender of a wake's session at its node, as the
    simulator once did, not only the senders that claimed that wake."""

    def _session_wake(self, event, now):
        transfer = self.transfers.get(event.sid)
        if transfer is not None:
            senders = [transfer.sender] if transfer.status == "active" else []
        else:
            senders = [e.sender for e in self.pubs[event.sid].downstream.get(event.node, ()) if not e.sender.complete]
        for sender in senders:
            sender.release_wake(now)
            self._pump(event.sid, event.node, sender, now)


# The benchmark's fanout-join workload at seeds 1 and 2: 9 relay edges per run start mid-stream.
_FANOUT_JOIN_TRACES = {
    "fanout-join-1": "f08d89b6e05315607d2aaaf09056a4bc309f90ace736daa7166263a932e9b399",
    "fanout-join-2": "b63fc320de7a221e2d43de848251a6dbb55fbfc874d4b574a8ce31835f18f1d5",
}


@pytest.mark.parametrize(
    "name", ["transatlantic-pubsub", "pubsub-mid-stream-join", "fanout-join-1", "fanout-join-2"]
)
def test_pumping_only_the_senders_that_claimed_a_wake_keeps_the_trace(fixture_paths, name):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "anchorbench"))
    from workloads import fanout_join

    if name == "transatlantic-pubsub":
        config = load_scenario(fixture_paths[name])
    elif name == "pubsub-mid-stream-join":
        config = _mid_stream_join()
    else:
        config = parse_scenario(json.dumps(fanout_join(int(name[-1]))))
    claimed, every = _CountedPumps(config), _PumpEverySender(config)
    trace_hash = claimed.run()["trace_hash"]
    assert trace_hash == every.run()["trace_hash"]
    # Both runs take the same graft code, so only the pin holds the mid-stream edges to these traces.
    assert trace_hash == _FANOUT_JOIN_TRACES.get(name, trace_hash)
    assert claimed.pumps < every.pumps
    assert claimed.events_processed == every.events_processed


@pytest.mark.parametrize("name", ["transatlantic-pubsub", "pubsub-mid-stream-join"])
def test_no_claim_holds_a_completed_sender(fixture_paths, name):
    if name == "pubsub-mid-stream-join":
        sim = Simulation(_mid_stream_join())
    else:
        sim = Simulation(load_scenario(fixture_paths[name]))
    exercised = False
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= sim.config.horizon_us:
        sim.step()
        assert not [key for key in sim.filling.demand if _sender(sim, key).complete]
        # a wake pumps a node's edges in downstream order, the ascending order of their path ids
        assert all([e.pid for e in edges] == sorted(e.pid for e in edges)
                   for pub in sim.pubs.values() for edges in pub.downstream.values())
        exercised |= any(
            edge.sender.complete
            for pub in sim.pubs.values() if pub.status == "active" for edge in pub.edges
        )
    assert exercised  # an edge completed while its tree was still active
    assert all(p.status == "complete" for p in sim.pubs.values())


def _tree_sharing_a_spur():
    """A tree origin > relay > leaf in one domain whose two edges both cross
    spur-r (100 Mbps), the relay's own link: each edge gets half of it while
    both send."""
    links = [("core", "wo", "wm", 1000), ("spur-r", "wm", "wr", 100), ("spur-l", "wm", "wl", 1000)]
    anchors = [("origin", "wo", "relay"), ("relay", "wr", "leaf"), ("leaf", "wl", None)]
    return build({
        "name": "shared-spur", "seed": 4, "mode": "l5-multipath", "horizon_us": 1_000_000,
        "domains": [{"id": "wan", "attachments": ["wo", "wm", "wr", "wl"]}],
        "links": [{"id": lid, "domain": "wan", "endpoints": [a, b], "capacity_mbps": capacity,
                   "latency_us": 500} for lid, a, b, capacity in links],
        "anchors": [{"name": name, "ports": [{"domain": "wan", "attachment": att}],
                     "peers": [{"anchor": peer, "domain": "wan"}] if peer else []}
                    for name, att, peer in anchors],
        "hosts": [],
        "policy": [{"tag": "cms", "weight": 1}],
        "events": [{"time_us": 10_000, "kind": "open_session", "id": "feed", "session_mode": "pubsub",
                    "src": "origin", "subscribers": ["leaf"], "tag": "cms", "bytes": 262144}],
    })


def test_a_completed_tree_edge_frees_its_capacity_at_once():
    """When origin > relay has every segment acknowledged, relay > leaf still
    sends its tail: the epoch run at the release doubles its rate."""
    sim = Simulation(_tree_sharing_a_spur())
    while not sim.pubs or not sim.pubs[1].edges[0].sender.complete:
        sim.step()
    first, second = sim.pubs[1].edges
    assert (first.src, first.dst, second.src, second.dst) == ("origin", "relay", "relay", "leaf")
    assert sim.pubs[1].status == "active" and not second.sender.complete
    assert second.sender.rates == {second.pid: (100, 1)}
    epoch = sim.alloc_epochs[-1]
    assert epoch["time_us"] == sim.queue.now and epoch["concurrent"] == 1
    assert epoch["rates_mbps"] == {"feed:origin>relay": None, "feed:relay>leaf": 100.0}
    assert [e["rates_mbps"] for e in sim.alloc_epochs[:-1]] == [
        {"feed:origin>relay": 50.0, "feed:relay>leaf": 50.0}
    ]
    report = sim.run()
    assert report["pubsub"]["feed"]["status"] == "complete"
    assert report["allocation"]["peak_rates_mbps"] == {"feed:origin>relay": 50.0, "feed:relay>leaf": 50.0}
    assert report["allocation"]["final_rates_mbps"] == {"feed:relay>leaf": 100.0}


def _grafted_at_the_stream_end():
    """A tree of a 40-segment object from gw-origin to gw-mid and to gw-side,
    over a 5 Mbit/s trunk-os.  gw-far subscribes at 100 ms, when gw-mid holds
    the whole stream: its edge gw-mid > gw-far starts at the stream's end and
    never claims."""
    obj = "cms.obj"
    raw = gateway_chain([
        {"time_us": 1000, "kind": "stage", "gateway": "gw-origin", "object": obj,
         "size_bytes": 40 * SEGMENT_PAYLOAD_BYTES, "ttl_us": 800_000},
        {"time_us": 10_000, "kind": "open_session", "id": "feed", "session_mode": "pubsub", "src": "gw-origin",
         "subscribers": ["gw-mid", "gw-side"], "tag": "cms", "object": obj, "k_paths": 1},
        {"time_us": 100_000, "kind": "subscribe", "gateway": "gw-far", "object": obj, "tag": "cms"},
    ])
    for link in raw["links"]:
        if link["id"] == "trunk-os":
            link["capacity_mbps"] = 5
    return build(raw)


@pytest.mark.parametrize("name", [*sorted(FIXTURE_TRACE_HASHES), "grafted-at-the-stream-end"])
def test_a_reported_rate_is_the_last_one_the_epochs_granted(fixture_paths, name):
    """Each path's and tree edge's ``rate_mbps`` is the last rate the epochs
    gave its claimant, or 0 if they never gave it one."""
    if name in fixture_paths:
        report = Simulation(load_scenario(fixture_paths[name])).run()
    else:
        report = Simulation(_grafted_at_the_stream_end()).run()
    granted = {}
    for epoch in report["allocation"]["epochs"]:
        granted.update((claimant, rate) for claimant, rate in epoch["rates_mbps"].items() if rate is not None)
    reported = {f"{sid}:{pid}": row["rate_mbps"]
                for sid, session in report["sessions"].items() for pid, row in session["per_path"].items()}
    reported.update((f"{sid}:{edge['from']}>{edge['to']}", edge["rate_mbps"])
                    for sid, tree in report["pubsub"].items() for edge in tree["edges"])
    assert reported == {claimant: granted.get(claimant, 0.0) for claimant in reported}
    if name not in fixture_paths:
        (late,) = [edge for edge in report["pubsub"]["feed"]["edges"] if edge["to"] == "gw-far"]
        assert (late["from"], late["start_seq"], late["original_segments"]) == ("gw-mid", 40, 0)
        assert "feed:gw-mid>gw-far" not in granted and late["rate_mbps"] == 0.0


def test_unknown_event_type_is_a_fault(fixture_paths):
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    sim.queue.push(0, object())
    with pytest.raises(SimFault):
        while True:
            sim.step()


# -- gateway integration ------------------------------------------------------------


def test_stage_then_subscribe_replicates_object():
    obj = "cms.dataset.alpha"
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 81920, "ttl_us": 800_000},
            {"time_us": 5000, "kind": "subscribe", "gateway": "gw-far",
             "object": obj, "tag": "cms"},
        ]
    )
    report = Simulation(build(raw)).run()
    fetch = report["sessions"][f"fetch.{obj}.gw-far"]
    assert fetch["status"] == "complete"
    expected = hashlib.sha256(synth_payload(obj, 81920)).hexdigest()
    assert fetch["delivered_sha256"] == expected
    assert obj in report["anchors"]["gw-far"]["catalog"]
    assert obj in report["anchors"]["gw-origin"]["catalog"]


def test_cache_effect_second_fetch_uses_nearer_replica():
    obj = "cms.dataset.beta"
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 81920, "ttl_us": 800_000},
            {"time_us": 5000, "kind": "subscribe", "gateway": "gw-mid",
             "object": obj, "tag": "cms"},
            {"time_us": 400_000, "kind": "subscribe", "gateway": "gw-far",
             "object": obj, "tag": "cms"},
        ]
    )
    report = Simulation(build(raw)).run()
    segments = (81920 + SEGMENT_PAYLOAD_BYTES - 1) // SEGMENT_PAYLOAD_BYTES
    # origin-to-mid trunk carried only the first fetch
    assert report["links"]["trunk-om"]["data_original"] == segments
    assert report["links"]["trunk-mf"]["data_original"] == segments
    assert report["sessions"][f"fetch.{obj}.gw-far"]["src"] == "gw-mid"


def test_a_fetch_skips_a_replica_that_the_requester_has_not_heard_of_yet():
    # At 600 us gw-side's advertisement is still three 500 us hops from gw-far.
    obj = "cms.obj"
    raw = gateway_chain(
        [
            {"time_us": 0, "kind": "stage", "gateway": "gw-side",
             "object": obj, "size_bytes": 81920, "ttl_us": 800_000},
            {"time_us": 0, "kind": "stage", "gateway": "gw-mid",
             "object": obj, "size_bytes": 81920, "ttl_us": 800_000},
            {"time_us": 600, "kind": "subscribe", "gateway": "gw-far",
             "object": obj, "tag": "cms"},
        ]
    )
    report = Simulation(build(raw)).run()
    fetch = report["sessions"][f"fetch.{obj}.gw-far"]
    assert (fetch["src"], fetch["status"]) == ("gw-mid", "complete")
    assert obj in report["anchors"]["gw-far"]["catalog"]


def test_expired_object_is_unavailable():
    obj = "cms.dataset.gamma"
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 8192, "ttl_us": 50},
            {"time_us": 10_000, "kind": "subscribe", "gateway": "gw-far",
             "object": obj, "tag": "cms"},
        ]
    )
    with pytest.raises(Exception) as err:
        Simulation(build(raw)).run()
    assert "gamma" in str(err.value)


def test_sweep_purges_catalog_and_resolver():
    obj = "cms.dataset.delta"
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 8192, "ttl_us": 50},
        ],
        horizon_us=2_500_000,
    )
    report = Simulation(build(raw)).run()
    assert report["anchors"]["gw-origin"]["catalog"] == []


def test_object_staged_at_two_gateways_resolves_to_both():
    obj = "cms.dataset.zeta"
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 8192, "ttl_us": 800_000},
            {"time_us": 2000, "kind": "stage", "gateway": "gw-far",
             "object": obj, "size_bytes": 8192, "ttl_us": 800_000},
            # subscribing where the object is already staged is a no-op
            {"time_us": 3000, "kind": "subscribe", "gateway": "gw-origin",
             "object": obj, "tag": "cms"},
        ]
    )
    report = Simulation(build(raw)).run()
    assert obj in report["anchors"]["gw-origin"]["catalog"]
    assert obj in report["anchors"]["gw-far"]["catalog"]
    assert report["sessions"] == {}


def test_an_expired_replica_nearer_the_requester_is_not_a_candidate_before_the_sweep():
    # gw-mid's replica expires at 1,050 us; the first sweep would run at 1 s.
    obj = "cms.obj"
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-mid",
             "object": obj, "size_bytes": 81920, "ttl_us": 50},
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 81920, "ttl_us": 800_000},
            {"time_us": 10_000, "kind": "subscribe", "gateway": "gw-far",
             "object": obj, "tag": "cms"},
        ]
    )
    report = Simulation(build(raw)).run()
    fetch = report["sessions"][f"fetch.{obj}.gw-far"]
    assert (fetch["src"], fetch["status"]) == ("gw-origin", "complete")
    assert report["anchors"]["gw-mid"]["catalog"] == []


def test_pubsub_loss_on_one_edge_stays_on_that_edge(fixture_paths):
    raw = json.loads(fixture_paths["transatlantic-pubsub"].read_text())
    for link in raw["links"]:
        if link["id"] == "spur-a":
            link["loss_prob"] = 0.15
    raw["horizon_us"] = 5_000_000
    report = Simulation(parse_scenario(json.dumps(raw))).run()
    tree = report["pubsub"]["pub1"]
    assert tree["status"] == "complete"
    retx = {(e["from"], e["to"]): e["retransmitted_segments"] for e in tree["edges"]}
    assert retx[("us-hub", "us-a")] > 0
    for edge, count in retx.items():
        if edge != ("us-hub", "us-a") and edge != ("us-a", "us.sub1"):
            assert count == 0, edge
    for name, sub in tree["subscribers"].items():
        assert sub["delivered_sha256"] == tree["source_sha256"], name


def test_a_subscriber_listed_twice_gets_one_leg_and_one_edge(fixture_paths):
    raw = json.loads(fixture_paths["transatlantic-pubsub"].read_text())
    (event,) = raw["events"]
    event["subscribers"] = ["us.sub2", "us.sub1", "us.sub3", "us.sub1", "us.sub2"]
    sim = Simulation(parse_scenario(json.dumps(raw)))
    report = sim.run()
    (pub,) = sim.pubs.values()
    assert sorted(pub.subscribers) == ["us.sub1", "us.sub2", "us.sub3"]
    children = [edge.dst for edge in pub.edges]
    assert sorted(children) == sorted(set(children))
    assert all(sub in children for sub in pub.subscribers)
    assert report["pubsub"]["pub1"]["status"] == "complete"
    assert report["trace_hash"] == Simulation(load_scenario(fixture_paths["transatlantic-pubsub"])).run()["trace_hash"]


JOIN_OBJECT, JOIN_BYTES = "cms.dataset.epsilon", 40 * SEGMENT_PAYLOAD_BYTES


def _mid_stream_join():
    obj, total = JOIN_OBJECT, JOIN_BYTES
    return build(gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": total, "ttl_us": 800_000},
            {"time_us": 10_000, "kind": "open_session", "id": "feed",
             "session_mode": "pubsub", "src": "gw-origin",
             "subscribers": ["gw-far"], "tag": "cms", "object": obj, "k_paths": 1},
            {"time_us": 20_000, "kind": "subscribe", "gateway": "gw-side",
             "object": obj, "tag": "cms"},
        ]
    ))


def test_pubsub_object_mid_stream_join():
    obj, total = JOIN_OBJECT, JOIN_BYTES
    report = Simulation(_mid_stream_join()).run()
    tree = report["pubsub"]["feed"]
    assert tree["status"] == "complete"
    assert len(tree["subscribers"]) == 2
    late = tree["subscribers"]["gw-side"]
    assert 0 < late["join_seq"] < 40
    stream = synth_payload(obj, total)
    tail = stream[late["join_seq"] * SEGMENT_PAYLOAD_BYTES :]
    assert late["delivered_sha256"] == hashlib.sha256(tail).hexdigest()
    assert late["bytes_delivered"] == len(tail)
    # partial delivery is never staged
    assert obj not in report["anchors"]["gw-side"]["catalog"]
    # the early subscriber received everything and staged a replica
    early = tree["subscribers"]["gw-far"]
    assert early["join_seq"] == 0
    assert early["delivered_sha256"] == hashlib.sha256(stream).hexdigest()
    assert obj in report["anchors"]["gw-far"]["catalog"]


def test_every_root_edge_reads_the_published_stream_from_its_own_start_seq(monkeypatch):
    """gw-origin feeds gw-mid and, after the join, gw-side: each edge takes its
    own reader of the tree's stream, from the seq it starts at, and the report
    reads the whole stream once more for its digest."""
    reads = []
    segments = gateway.PayloadStream.segments

    def record(stream, start_seq=0):
        reads.append((stream, start_seq))
        return segments(stream, start_seq)

    monkeypatch.setattr(gateway.PayloadStream, "segments", record)
    sim = Simulation(_mid_stream_join())
    report = sim.run()
    (pub,) = sim.pubs.values()
    roots = [edge for edge in pub.edges if edge.src == pub.publisher]
    assert [edge.dst for edge in roots] == ["gw-mid", "gw-side"]
    assert roots[0].sender.start_seq == 0 < roots[1].sender.start_seq
    assert reads == [(pub.source, edge.sender.start_seq) for edge in roots] + [(pub.source, 0)]
    whole = synth_payload(JOIN_OBJECT, JOIN_BYTES)
    for edge in roots:
        tail = whole[edge.sender.start_seq * SEGMENT_PAYLOAD_BYTES:]
        assert edge.receiver.delivered_digest() == hashlib.sha256(tail).hexdigest()
    assert report["pubsub"]["feed"]["source_sha256"] == hashlib.sha256(whole).hexdigest()


@pytest.mark.parametrize("join_us", [60_000, 100_000, 200_000])
def test_subscriber_at_a_relay_that_holds_the_whole_stream_completes(join_us):
    # gw-mid relays the whole stream to gw-far over a slow trunk, so it holds
    # every byte before it subscribes itself
    obj, total = JOIN_OBJECT, JOIN_BYTES
    raw = gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": total, "ttl_us": 800_000},
            {"time_us": 10_000, "kind": "open_session", "id": "feed",
             "session_mode": "pubsub", "src": "gw-origin",
             "subscribers": ["gw-far"], "tag": "cms", "object": obj, "k_paths": 1},
            {"time_us": join_us, "kind": "subscribe", "gateway": "gw-mid",
             "object": obj, "tag": "cms"},
        ]
    )
    for link in raw["links"]:
        if link["id"] == "trunk-mf":
            link["capacity_mbps"] = 5
    report = Simulation(build(raw)).run()
    mid = report["pubsub"]["feed"]["subscribers"]["gw-mid"]
    assert mid["join_seq"] == 0
    assert mid["bytes_delivered"] == total
    assert mid["delivered_sha256"] == hashlib.sha256(synth_payload(obj, total)).hexdigest()
    assert mid["complete_at_us"] == join_us
    assert obj in report["anchors"]["gw-mid"]["catalog"]


def test_a_publisher_that_subscribes_to_its_own_tree_adds_no_subscriber():
    """gw-origin's entry has expired when it subscribes, but it publishes the
    active tree of the object and holds the whole stream: the subscription
    changes nothing, and no leg is left that nothing feeds."""
    obj = "cms.obj"
    events = [
        {"time_us": 0, "kind": "stage", "gateway": "gw-origin",
         "object": obj, "size_bytes": 4 * 1024 * 1024, "ttl_us": 5000},
        {"time_us": 2000, "kind": "open_session", "id": "feed", "session_mode": "pubsub",
         "src": "gw-origin", "subscribers": ["gw-far"], "tag": "cms", "object": obj},
    ]
    alone = Simulation(build(gateway_chain(events))).run()
    events.append({"time_us": 10_000, "kind": "subscribe", "gateway": "gw-origin", "object": obj, "tag": "cms"})
    report = Simulation(build(gateway_chain(events))).run()
    tree = report["pubsub"]["feed"]
    assert tree["status"] == "complete"
    assert list(tree["subscribers"]) == ["gw-far"]
    assert tree["subscribers"]["gw-far"]["complete_at_us"] is not None
    assert tree == alone["pubsub"]["feed"]


def test_dropped_simulation_is_freed_without_the_cycle_collector(fixture_paths):
    # A reference cycle through the simulation would keep every dropped one,
    # with its queue and sessions, alive until the collector runs: here one
    # stepped part way, and one run to its end after a replica fetch.
    obj = "cms.dataset.alpha"
    fetching = build(gateway_chain(
        [
            {"time_us": 1000, "kind": "stage", "gateway": "gw-origin",
             "object": obj, "size_bytes": 81920, "ttl_us": 800_000},
            {"time_us": 5000, "kind": "subscribe", "gateway": "gw-far",
             "object": obj, "tag": "cms"},
        ]
    ))
    gc.disable()
    try:
        sim = Simulation(load_scenario(fixture_paths["dual-path"]))
        for _ in range(50):
            sim.step()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        sim = Simulation(fetching)
        assert sim.run()["sessions"][f"fetch.{obj}.gw-far"]["status"] == "complete"
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()
