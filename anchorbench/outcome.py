"""What a finished run produced, read from the simulator's public state.

``collect`` turns a ``Simulation`` that ran to its horizon into plain data;
``check`` lists every violated output rule; ``fingerprint`` hashes the
simulated state a speed-only change must keep.  None of this touches the
simulator's report path.

An operation is one unicast transfer or one pub/sub subscriber's delivery.
It fails unless it is complete and byte-exact at the horizon.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from anchornet.gateway import synth_payload
from anchornet.session import SEGMENT_PAYLOAD_BYTES


@dataclass
class Op:
    name: str
    start_us: int
    end_us: Optional[int]
    complete: bool
    total_bytes: int
    delivered_bytes: int
    delivered_digest: str
    # unicast: the digest the simulator took of the payload it sent
    source_digest: Optional[str] = None
    # subscriber: the stream it should get is synth_payload(stream, total)
    # from segment join_seq on
    stream: Optional[str] = None
    join_seq: int = 0


@dataclass
class Outcome:
    ops: list[Op]
    expected_ops: int
    events: int
    clock_end: int
    l3_dest_violations: int
    dropped_unknown: int
    # link id -> (transmitted, delivered, dropped, in flight at the end)
    conservation: dict[str, tuple[int, int, int, int]]
    # one list of anchor database digests per connected component
    component_digests: list[list[str]]
    fetches_without_replica: list[str]
    link_counters: dict[str, dict[str, int]] = field(repr=False)
    alloc_epochs: list[dict[str, Any]] = field(repr=False)


def expected_op_count(raw: dict[str, Any]) -> int:
    """Operations a scenario's script asks for: unicast opens, subscribers
    of each tree, and subscribe actions (a graft or a fetch)."""
    total = 0
    for event in raw.get("events", []):
        if event["kind"] == "open_session":
            if event.get("session_mode", "unicast") == "pubsub":
                total += len(event["subscribers"])
            else:
                total += 1
        elif event["kind"] == "subscribe":
            total += 1
    return total


def _components(anchors: list[str], peerings: list[tuple[str, str, str]]) -> list[list[str]]:
    parent = {a: a for a in anchors}

    def root(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b, _ in peerings:
        parent[root(a)] = root(b)
    groups: dict[str, list[str]] = {}
    for a in anchors:
        groups.setdefault(root(a), []).append(a)
    return sorted(groups.values())


def collect(sim: Any) -> Outcome:
    """Read a finished simulation's public state."""
    subscribed_at = {
        e.fields["gateway"]: e.time_us for e in sim.config.events if e.kind == "subscribe"
    }
    ops: list[Op] = []
    fetches_without_replica: list[str] = []
    for sid in sorted(sim.transfers):
        t = sim.transfers[sid]
        done = t.status == "complete"
        ops.append(Op(t.id_str, t.t_open, t.t_complete if done else None, done, t.total_bytes,
                      t.receiver.delivered_bytes, t.receiver.delivered_digest(),
                      source_digest=t.source_digest))
        prefix, suffix = "fetch.", f".{t.dst}"
        if done and t.id_str.startswith(prefix) and t.id_str.endswith(suffix):
            obj = t.id_str[len(prefix):-len(suffix)]
            catalog = sim.anchors[t.dst].catalog
            if catalog is None or obj not in catalog.entries:
                fetches_without_replica.append(t.id_str)
    for sid in sorted(sim.pubs):
        pub = sim.pubs[sid]
        stream = pub.object_name or f"session:{pub.id_str}"
        for name in sorted(pub.subscribers):
            leg = pub.subscribers[name]
            done = leg.receiver.complete and leg.complete_at is not None
            ops.append(Op(f"{pub.id_str}>{name}", subscribed_at.get(name, pub.t_open),
                          leg.complete_at if done else None, done, pub.total_bytes,
                          leg.receiver.delivered_bytes, leg.receiver.delivered_digest(),
                          stream=stream, join_seq=leg.join_seq))

    in_flight = {lid: 0 for lid in sim.links}
    for _, _, event in sim.queue.snapshot():
        crossed = getattr(event, "crossed", None)
        if crossed is not None:
            in_flight[crossed] += 1
    conservation = {
        lid: (c.transmitted, c.delivered, c.dropped, in_flight[lid])
        for lid, c in sorted(sim.link_counters.items())
    }
    components = [
        [sim.anchors[a].db.digest() for a in members]
        for members in _components(sorted(sim.anchors), sim.peerings)
    ]
    return Outcome(
        ops=ops,
        expected_ops=expected_op_count(sim.config.raw),
        events=sim.events_processed,
        clock_end=sim.clock_end,
        l3_dest_violations=sim.l3_dest_violations,
        dropped_unknown=sim.dropped_unknown_hosts
        + sum(a.dropped_unknown for a in sim.anchors.values()),
        conservation=conservation,
        component_digests=components,
        fetches_without_replica=fetches_without_replica,
        link_counters={lid: asdict(c) for lid, c in sorted(sim.link_counters.items())},
        alloc_epochs=sim.alloc_epochs,
    )


def expected_digest(op: Op, streams: dict[tuple[str, int], bytes]) -> tuple[int, str]:
    """Byte count and sha256 an operation must deliver."""
    if op.stream is None:
        return op.total_bytes, op.source_digest or ""
    key = (op.stream, op.total_bytes)
    if key not in streams:
        streams[key] = synth_payload(*key)
    tail = streams[key][op.join_seq * SEGMENT_PAYLOAD_BYTES:]
    return len(tail), hashlib.sha256(tail).hexdigest()


def failed_ops(outcome: Outcome) -> list[str]:
    """Operations not complete and byte-exact, one line each."""
    failures = []
    streams: dict[tuple[str, int], bytes] = {}
    for op in outcome.ops:
        size, digest = expected_digest(op, streams)
        if not op.complete:
            failures.append(f"{op.name}: not complete at the horizon")
        elif op.delivered_bytes != size:
            failures.append(f"{op.name}: delivered {op.delivered_bytes} bytes, expected {size}")
        elif op.delivered_digest != digest:
            failures.append(f"{op.name}: delivered digest differs from the source")
    missing = outcome.expected_ops - len(outcome.ops)
    failures += ["a scripted operation never started"] * max(missing, 0)
    return failures


def check(outcome: Outcome) -> list[str]:
    """Every violated output rule, one line each; empty when all hold."""
    return failed_ops(outcome) + check_state(outcome)


def check_state(outcome: Outcome) -> list[str]:
    """The rules on final state other than the operations' own."""
    problems = [f"{name}: completed without staging a replica"
                for name in outcome.fetches_without_replica]
    if outcome.l3_dest_violations:
        problems.append(f"{outcome.l3_dest_violations} L3 destination violations")
    for lid, (tx, delivered, dropped, flying) in outcome.conservation.items():
        if tx != delivered + dropped + flying:
            problems.append(f"link {lid}: transmitted {tx} != delivered {delivered}"
                            f" + dropped {dropped} + in flight {flying}")
    for i, digests in enumerate(outcome.component_digests):
        if len(set(digests)) > 1:
            problems.append(f"component {i}: {len(set(digests))} distinct topology databases")
    return problems


def fingerprint(outcome: Outcome) -> str:
    """Hash of the simulated result: event count, end clock, link counters,
    allocation epochs, and each operation's digest and completion time."""
    state = {
        "events": outcome.events,
        "clock_end": outcome.clock_end,
        "links": outcome.link_counters,
        "epochs": outcome.alloc_epochs,
        "ops": [(op.name, op.delivered_digest, op.end_us) for op in outcome.ops],
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sim_metrics(outcome: Outcome) -> dict[str, float]:
    """Simulated end-to-end figures; deterministic for a given scenario."""
    done = [op for op in outcome.ops if op.end_us is not None]
    if not done:
        return {}
    fct_ms = [(op.end_us - op.start_us) / 1000 for op in done]
    span_us = max(op.end_us for op in done) - min(op.start_us for op in outcome.ops)
    out = {
        "sim_goodput_mbps": sum(op.delivered_bytes for op in outcome.ops) * 8 / span_us,
        "sim_fct_p50_ms": statistics.median(fct_ms),
        "sim_fct_samples": len(fct_ms),
    }
    if len(fct_ms) >= 200:
        out["sim_fct_p95_ms"] = statistics.quantiles(fct_ms, n=20, method="inclusive")[18]
    return out
