import dataclasses
import hashlib
import json
import weakref

import pytest

from anchornet.addressing import L3Locator
from anchornet.allocator import Demand, DemandMatrix, domain_shares, water_fill
from anchornet.gateway import synth_payload
from anchornet.metrics import _final_rates, _peak_epoch, canonical_json
from anchornet.scenario import load_scenario, parse_scenario
from anchornet.session import SEGMENT_PAYLOAD_BYTES, Segment, SegmentKind
from anchornet.simnet import (
    TRACE_SALT,
    CausalityViolation,
    EmptyQueue,
    EventQueue,
    ScenarioAction,
    SimFault,
    Simulation,
    run_scenario,
)
from anchornet.topology import TopologyDatabase, _pstr
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
    segment = Segment(1, 0, 0, "t", L3Locator("d1", "y"), b"p" * SEGMENT_PAYLOAD_BYTES)
    for _ in range(10000):
        sim._enter_link(segment, ("l1",), "a1", now=0)
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
    segment = Segment(1, 0, 0, "t", L3Locator("d1", "y"), b"p" * 100)
    for _ in range(50):
        sim2._enter_link(segment, ("l1",), "a1", now=0)
    assert sim2.queue.rng.random() == before


# -- whole-run behavior ------------------------------------------------------------


def test_empty_scenario_yields_empty_report():
    report = run_scenario(
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
    )
    assert report["events_processed"] == 0
    assert report["trace_hash"] == hashlib.sha256(TRACE_SALT).hexdigest()
    assert report["faults"] == {
        "causality_violations": 0,
        "dropped_unknown": 0,
        "l3_dest_violations": 0,
    }


def test_run_twice_same_seed_identical_reports(fixture_paths):
    config = load_scenario(str(fixture_paths["dual-path"]))
    a = canonical_json(run_scenario(config))
    b = canonical_json(run_scenario(config))
    assert a == b


def test_conservation_per_link(fixture_paths):
    config = load_scenario(str(fixture_paths["dual-path"]))
    report = run_scenario(config)
    for lid, row in report["links"].items():
        assert row["transmitted"] == row["delivered"] + row["dropped"] + row["in_flight_at_end"], lid


def test_lossy_transfer_conserves_per_link():
    report = run_scenario(build(three_path_lossy()))
    assert report["sessions"]["bulk"]["status"] == "complete"
    for lid, row in report["links"].items():
        assert row["transmitted"] == row["delivered"] + row["dropped"] + row["in_flight_at_end"], lid
    drops = sum(row["dropped"] for row in report["links"].values())
    assert drops > 0


def test_lossy_transfer_delivers_byte_exact_stream():
    report = run_scenario(build(three_path_lossy()))
    session = report["sessions"]["bulk"]
    assert session["bytes_delivered"] == session["bytes_total"]
    assert session["delivered_sha256"] == session["source_sha256"]
    assert report["faults"]["l3_dest_violations"] == 0


def test_tag_accounting_conserves_forwarded_bytes(fixture_paths):
    config = load_scenario(str(fixture_paths["dual-path"]))
    report = run_scenario(config)
    delivered = report["sessions"]["bulk"]["bytes_delivered"]
    forwarded = sum(
        row["per_tag"].get("atlas", (0, 0))[1] for row in report["anchors"].values()
    )
    # each path crosses three anchors, loss-free, so every delivered byte
    # was forwarded exactly three times
    assert forwarded == 3 * delivered


def test_seed_change_alters_only_stochastic_quantities():
    base = run_scenario(build(three_path_lossy(seed=3)))
    other = run_scenario(build(three_path_lossy(seed=4)))
    assert base["allocation"]["final_rates_mbps"] == other["allocation"]["final_rates_mbps"]
    assert base["sessions"]["bulk"]["paths"] == other["sessions"]["bulk"]["paths"]
    drops = lambda r: sum(row["dropped"] for row in r["links"].values())
    assert drops(base) != drops(other)


def _dual_path_losing_nw_trunk(fixture_paths):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    raw["events"].append({"time_us": 100000, "kind": "link_down", "link": "nw-trunk"})
    raw["horizon_us"] = 4000000
    return parse_scenario(json.dumps(raw))


def test_link_down_triggers_repath_and_completion(fixture_paths):
    report = run_scenario(_dual_path_losing_nw_trunk(fixture_paths), mode="baseline-single-path")
    session = report["sessions"]["bulk"]
    assert session["status"] == "complete"
    assert session["delivered_sha256"] == session["source_sha256"]
    # the surviving southern route carried the tail of the transfer
    assert report["links"]["sw-trunk"]["data_original"] > 0
    assert report["faults"]["l3_dest_violations"] == 0
    # the dead link dropped whatever was on the wire when it failed
    assert report["links"]["nw-trunk"]["up"] is False


def test_flooding_without_sessions_never_builds_a_graph(fixture_paths, monkeypatch):
    calls = []
    graph = TopologyDatabase.graph

    def counting_graph(db):
        calls.append(db)
        return graph(db)

    monkeypatch.setattr(TopologyDatabase, "graph", counting_graph)
    report = run_scenario(load_scenario(fixture_paths["flooding-20"]))
    assert report["events_processed"] > 0
    assert calls == []


def test_horizon_stops_execution():
    raw = three_path_lossy(horizon_us=25_000)
    report = run_scenario(build(raw))
    assert report["clock_end_us"] <= 25_000
    assert report["sessions"]["bulk"]["status"] == "active"


def test_session_without_path_stops_pacing():
    # every west trunk fails: no route is left from h1 to h2
    raw = three_path_lossy()
    raw["events"] += [
        {"time_us": 30_000, "kind": "link_down", "link": f"trunk-{i}w"} for i in (1, 2, 3)
    ]
    report = run_scenario(build(raw))
    assert report["sessions"]["bulk"]["status"] == "no_path"
    # the queue drains once the segments in flight land, long before the
    # 10 s horizon, and the sender stops pushing into removed paths
    assert report["clock_end_us"] < 100_000
    assert report["faults"]["dropped_unknown"] <= 50


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
    report = run_scenario(build(raw))
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
    # spur-a carries us-a's only peering: us.sub1 is cut off from the publisher
    raw = json.loads(fixture_paths["transatlantic-pubsub"].read_text())
    raw["events"].append({"time_us": 25_000, "kind": "link_down", "link": "spur-a"})
    report = run_scenario(parse_scenario(json.dumps(raw)))
    tree = report["pubsub"]["pub1"]
    assert tree["unicast_cost"] is None
    assert tree["tree_cost"] > 0
    assert tree["subscribers"]["us.sub1"]["complete_at_us"] is None
    assert canonical_json(report)


# -- allocation summary --------------------------------------------------------------


def _epoch(time_us, rates, shares=None):
    return {
        "time_us": time_us,
        "concurrent": len(rates),
        "rates_mbps": rates,
        "domain_shares_mbps": shares or {},
    }


def test_peak_epoch_takes_earliest_on_ties():
    epochs = [
        _epoch(0, {"a:0": 100.0}, {"t": 100.0}),
        _epoch(5, {"a:0": 50.0, "b:0": 50.0}, {"t": 100.0}),
        _epoch(9, {"a:0": 20.0, "c:0": 80.0}, {"t": 20.0, "u": 80.0}),
        _epoch(12, {}),
    ]
    assert _peak_epoch(epochs) is epochs[1]


def test_peak_epoch_of_no_epochs_is_empty():
    assert _peak_epoch([]) == {}
    assert _final_rates([]) == {}


def test_final_rates_skip_trailing_empty_epoch():
    epochs = [
        _epoch(0, {"a:0": 100.0}),
        _epoch(5, {"a:0": 40.0, "b:0": 60.0}),
        _epoch(9, {"b:0": 100.0}),
        _epoch(12, {}),
    ]
    assert _final_rates(epochs) == {"b:0": 100.0}
    assert _final_rates([_epoch(0, {})]) == {}


@pytest.mark.parametrize(
    "name", ["dual-path", "transatlantic-pubsub", "two-domains-weighted", "flooding-20"]
)
def test_report_peak_rates_and_shares_share_one_epoch(fixture_paths, name):
    report = run_scenario(load_scenario(fixture_paths[name]))
    alloc = report["allocation"]
    epochs = alloc["epochs"]
    # flooding-20 opens no session, so it has no epoch at all
    assert bool(epochs) == (name != "flooding-20")
    # max() keeps the first of equal keys: the earliest peak epoch
    peak = max(epochs, key=lambda e: e["concurrent"], default={})
    assert alloc["peak_rates_mbps"] == peak.get("rates_mbps", {})
    assert alloc["domain_shares_mbps"] == peak.get("domain_shares_mbps", {})
    claimed = [e["rates_mbps"] for e in epochs if e["rates_mbps"]]
    assert alloc["final_rates_mbps"] == (claimed[-1] if claimed else {})


# Each fixture's event trace at its own seed.  A change that is only meant to
# make the simulator faster keeps these; one that changes behaviour on
# purpose updates them and says why in CHANGES.md.
FIXTURE_TRACE_HASHES = {
    "dual-path": "d3ef5f09925dcd6c69c224e38daa7947758c4f1d1847e56680248bd72cd3357f",
    "flooding-20": "6645c2b3b55aeefa156adb117775778d1691cf8713d9d8c64e4ce92f9e76f0b9",
    "transatlantic-pubsub": "7c70cf6b532cd296c68c498641603a7205cd4bc4eafebf248e5db6d663cd98e0",
    "two-domains-weighted": "c9e8118a887d84706af99b2664e598e3224948f50d9c8a149a9038023c3299f7",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_TRACE_HASHES))
def test_fixture_trace_hash_is_pinned(fixture_paths, name):
    report = run_scenario(load_scenario(fixture_paths[name]))
    assert report["trace_hash"] == FIXTURE_TRACE_HASHES[name]


# SHA-256 of each fixture's canonical report: the whole report, byte for byte.
FIXTURE_REPORT_HASHES = {
    "dual-path": "eae49529bf7a3867730768a60e4be7dabc4a70ce1b8059305d0e1b9e9e8091ed",
    "flooding-20": "6497e243d4dd8facf1f32a900ec88b2f09d5284593d462adbd8e32c6049ad37a",
    "transatlantic-pubsub": "5322c2b71e7274bebb16a2e47da1f7c059d3b78af845da2c53eb3790371c3177",
    "two-domains-weighted": "f3ce01b234e9100914faeb2d7c04fe33cebed8696386012a74e2fa3f04d16f35",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_REPORT_HASHES))
def test_fixture_report_is_pinned(fixture_paths, name):
    report = canonical_json(run_scenario(load_scenario(fixture_paths[name])))
    assert hashlib.sha256(report.encode()).hexdigest() == FIXTURE_REPORT_HASHES[name]


# Runs beside the fixtures that take the repath, no-path, baseline and late-join
# branches, pinned the same way: (how to run it, its trace hash).
RUN_TRACE_HASHES = {
    "repath": (
        lambda paths: run_scenario(_BUILT["repath"]()),
        "1bafb53bf9ff757d09dcf10caad8f1c0c3c5775e19d0fab4e8de4bcad1d734d8",
    ),
    "no-path": (
        lambda paths: run_scenario(_BUILT["no-path"]()),
        "1b28adde91758a7fe1cfa20282fc553cc2a2af6c03065b293ab08e79fafe1580",
    ),
    "dual-path-failover-baseline": (
        lambda paths: run_scenario(_dual_path_losing_nw_trunk(paths), mode="baseline-single-path"),
        "3b0c68a5234657986d19a40a8c4f04990f7892145cb8cb5689fa40dde31554ad",
    ),
    "transatlantic-pubsub-baseline": (
        lambda paths: run_scenario(
            load_scenario(paths["transatlantic-pubsub"]), mode="baseline-single-path"
        ),
        "46fb5b1e4e81289e0005137497b659503e741eb8926852e925d6a20eb8363d83",
    ),
    "pubsub-mid-stream-join": (
        lambda paths: run_scenario(_mid_stream_join()),
        "96d4467abe1d69578edcf6b7d5eb3031ddce2116e999d79b2df7b288870faa05",
    ),
}


@pytest.mark.parametrize("name", sorted(RUN_TRACE_HASHES))
def test_run_trace_hash_is_pinned(fixture_paths, name):
    run, pinned = RUN_TRACE_HASHES[name]
    assert run(fixture_paths)["trace_hash"] == pinned


# -- trace v2 ---------------------------------------------------------------------


def _with_field(segment, name, value):
    """A copy of ``segment`` with one field changed and nothing re-validated
    or carried over from the original's caches."""
    copy = object.__new__(Segment)
    for f in dataclasses.fields(Segment):
        object.__setattr__(copy, f.name, value if f.name == name else getattr(segment, f.name))
    return copy


def test_hop_record_covers_every_header_field_the_destination_name_and_payload(fixture_paths):
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    assert not sim._digests  # no session is open yet, so nothing is cached
    data = Segment(7, 3, 1, "atlas", L3Locator("net", "pa"), b"abc" * 100, ack_cum=2)
    ack = Segment(7, 3, 1, "atlas", L3Locator("net", "pa"), kind=SegmentKind.ACK,
                  ack_cum=2, ack_sacks=(5, 9))
    changes = {
        "session_id": 8, "seq": 4, "path_id": 2, "tag": "cms",
        "l3_dest": L3Locator("net", "pb"), "is_retransmit": True, "ack_cum": 3,
        "ack_sacks": (5, 10),
    }
    for segment in (data, ack):
        record = sim._segment_record("link-1", segment)
        assert record == _pstr("link-1") + segment.encode()
        assert sim._segment_record("link-2", segment) != record
        for name, value in changes.items():
            assert sim._segment_record("link-1", _with_field(segment, name, value)) != record, name
        flipped = SegmentKind.ACK if segment.kind is SegmentKind.DATA else SegmentKind.DATA
        assert sim._segment_record("link-1", _with_field(segment, "kind", flipped)) != record
    one_byte = _with_field(data, "payload", data.payload[:-1] + b"x")
    assert sim._segment_record("link-1", one_byte) != sim._segment_record("link-1", data)


@pytest.mark.parametrize("name", ["dual-path", "transatlantic-pubsub", "two-domains-weighted"])
def test_cached_payload_digest_is_sha256_of_payload_while_session_is_active(fixture_paths, name):
    sim = Simulation(load_scenario(fixture_paths[name]))
    checked, reused = 0, 0
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= sim.config.horizon_us:
        event = sim.queue._heap[0][2]  # the event step() pops next
        segment = getattr(event, "segment", None)
        if segment is not None and segment.payload:
            cached = sim._digests.get(segment.session_id, {}).get(segment.seq)
            reused += cached is not None
            assert sim._payload_digest(segment) == hashlib.sha256(segment.payload).digest()
            record = sim._segment_record(event.crossed, segment)
            assert record == _pstr(event.crossed) + segment.encode()
            checked += 1
        sim.step()
        active = {sid for sid, t in sim.transfers.items() if t.status == "active"}
        active |= {sid for sid, p in sim.pubs.items() if p.status == "active"}
        assert set(sim._digests) == active
    assert checked > 0 and reused > 0
    assert not sim._digests  # every session ended, and no digest outlived it


class _EpochCheckedSimulation(Simulation):
    """After every allocation epoch, checks the kept claims, the pushed rates
    and the kept domain totals against a from-scratch allocation."""

    def __init__(self, config):
        super().__init__(config)
        self.checked = []  # the claim keys after each epoch

    def _reallocate(self, now):
        super()._reallocate(now)
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
                links = frozenset(self.legs[(edge.parent, edge.child)].links)
                demands.append(Demand(
                    f"{pub.id_str}:{edge.parent}>{edge.child}", self.policy[pub.tag], links,
                    tag=pub.tag,
                ))
                targets.append(((1, sid, edge.pid), edge.sender, edge.pid))

        # The claim table holds exactly the active claimants, demands as fresh.
        assert sorted(self.claims) == [key for key, _, _ in targets]
        for demand, (key, sender, pid) in zip(demands, targets):
            claim = self.claims[key]
            assert claim.demand == demand
            assert claim.sender is sender and claim.pid == pid
        matrix = DemandMatrix(tuple(demands))
        alloc = water_fill(self.link_avail, matrix)
        for demand, (_, sender, pid) in zip(demands, targets):
            assert sender.rates[pid] == alloc.rates_exact[demand.session_id]
        epoch = self.alloc_epochs[-1]
        assert epoch["rates_mbps"] == {k: float(v) for k, v in sorted(alloc.rates_exact.items())}
        fresh = domain_shares(alloc, matrix, self.config.policy) if demands else {}
        assert epoch["domain_shares_mbps"] == fresh
        assert list(epoch["domain_shares_mbps"]) == list(fresh)
        self.checked.append(set(self.claims))


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
    assert not sim.claims


@pytest.mark.parametrize("name", ["transatlantic-pubsub", "pubsub-mid-stream-join"])
def test_no_claim_holds_a_completed_sender(fixture_paths, name):
    if name == "pubsub-mid-stream-join":
        sim = Simulation(_mid_stream_join())
    else:
        sim = Simulation(load_scenario(fixture_paths[name]))
    exercised = False
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= sim.config.horizon_us:
        sim.step()
        assert not [key for key, claim in sim.claims.items() if claim.sender.complete]
        exercised |= any(
            edge.sender.complete
            for pub in sim.pubs.values() if pub.status == "active" for edge in pub.edges
        )
    assert exercised  # an edge completed while its tree was still active
    assert all(p.status == "complete" for p in sim.pubs.values())


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
    report = run_scenario(build(raw))
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
    report = run_scenario(build(raw))
    segments = (81920 + SEGMENT_PAYLOAD_BYTES - 1) // SEGMENT_PAYLOAD_BYTES
    # origin-to-mid trunk carried only the first fetch
    assert report["links"]["trunk-om"]["data_original"] == segments
    assert report["links"]["trunk-mf"]["data_original"] == segments
    assert report["sessions"][f"fetch.{obj}.gw-far"]["src"] == "gw-mid"


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
        run_scenario(build(raw))
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
    report = run_scenario(build(raw))
    assert report["anchors"]["gw-origin"]["catalog"] == []


def test_object_staged_at_two_gateways_resolves_to_both():
    from anchornet.addressing import AddressKind, parse_address

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
    sim = Simulation(build(raw))
    report = sim.run()
    locators = sim.resolver.resolve(parse_address(obj, AddressKind.DATA))
    assert len(locators) == 2
    assert report["sessions"] == {}


def test_pubsub_loss_on_one_edge_stays_on_that_edge(fixture_paths):
    raw = json.loads(fixture_paths["transatlantic-pubsub"].read_text())
    for link in raw["links"]:
        if link["id"] == "spur-a":
            link["loss_prob"] = 0.15
    raw["horizon_us"] = 5_000_000
    report = run_scenario(parse_scenario(json.dumps(raw)))
    tree = report["pubsub"]["pub1"]
    assert tree["status"] == "complete"
    retx = {(e["from"], e["to"]): e["retransmitted_segments"] for e in tree["edges"]}
    assert retx[("us-hub", "us-a")] > 0
    for edge, count in retx.items():
        if edge != ("us-hub", "us-a") and edge != ("us-a", "us.sub1"):
            assert count == 0, edge
    for name, sub in tree["subscribers"].items():
        assert sub["delivered_sha256"] == tree["source_sha256"], name


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
    report = run_scenario(_mid_stream_join())
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
    report = run_scenario(build(raw))
    mid = report["pubsub"]["feed"]["subscribers"]["gw-mid"]
    assert mid["join_seq"] == 0
    assert mid["bytes_delivered"] == total
    assert mid["delivered_sha256"] == hashlib.sha256(synth_payload(obj, total)).hexdigest()
    assert mid["complete_at_us"] == join_us
    assert obj in report["anchors"]["gw-mid"]["catalog"]


def test_dropped_simulation_is_freed_without_the_cycle_collector(fixture_paths):
    # A reference cycle through the simulation would keep every dropped one,
    # with its queue and sessions, alive until the collector runs.
    sim = Simulation(load_scenario(fixture_paths["dual-path"]))
    for _ in range(50):
        sim.step()
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
