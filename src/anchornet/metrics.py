"""Metrics report: building, serialization and run-to-run comparison.

``build_report`` reads a simulation into a report, the one place the
report's schema is written.  Reports are plain dictionaries written as
canonical JSON (sorted keys, fixed separators), so two runs of the same
scenario with the same seed produce byte-identical files.  ``compare`` only
accepts reports whose scenario hashes match: ratios across different
topologies are meaningless.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Optional

from .pubsub import Unreachable, unicast_cost_crossings
from .scenario import MODE_BASELINE
from .session import segment_count

if TYPE_CHECKING:
    from .simnet import Simulation


class TopologyMismatch(ValueError):
    """The two reports come from different scenarios."""


def build_report(sim: Simulation) -> dict[str, Any]:
    """The metrics report of ``sim`` as it stands, normally after its run:
    plain data, so that :func:`canonical_json` of the same scenario and seed
    is byte-identical from run to run."""
    cfg = sim.config
    in_flight: dict[str, int] = {lid: 0 for lid in sim.links}
    for _, _, event in sim.queue.snapshot():
        crossed = getattr(event, "crossed", None)  # a segment on the wire
        if crossed is not None:
            in_flight[crossed] += 1

    links: dict[str, Any] = {}
    for lid in sorted(sim.links):
        c = sim.link_counters[lid]
        link = sim.links[lid]
        duration = max(sim.clock_end, 1)
        links[lid] = {
            **asdict(c),
            "in_flight_at_end": in_flight[lid],
            "capacity_mbps": float(link.capacity_mbps),
            "available_mbps": float(sim.link_avail[lid]),
            "up": sim.link_entries[lid].up,
            "utilization": c.payload_bytes * 8 / (float(link.capacity_mbps) * duration),
        }

    sessions: dict[str, Any] = {}
    total_throughput = Fraction(0)
    total_potential = Fraction(0)
    total_residual = Fraction(0)
    for sid in sorted(sim.transfers):
        t = sim.transfers[sid]
        delivered = t.receiver.delivered_bytes
        end = t.receiver.last_delivery_us
        throughput = (
            Fraction(delivered * 8, max(end - t.t_open, 1)) if end is not None else Fraction(0)
        )
        potential = residual = Fraction(0)
        for path in t.discovered:  # the paths found at open: their raw and their residual bottlenecks
            potential += min(sim.legs[hop].raw_mbps for hop in zip(path.hops, path.hops[1:]))
            residual += path.min_capacity_mbps or 0
        total_throughput += throughput
        total_potential += potential
        total_residual += residual
        per_path: dict[str, Any] = {}
        for pid in sorted(t.sender.stats):
            st = t.sender.stats[pid]
            # The last granted rate, 0 if none: n / d is the correctly rounded float, as float(Fraction(n, d)) is.
            num, den = t.sender.rates.get(pid, (0, 1))
            span = max((sim.clock_end if t.t_end is None else t.t_end) - t.t_open, 1)
            per_path[str(pid)] = {
                "emitted_segments": st.emitted_segments,
                "emitted_bytes": st.emitted_bytes,
                "retransmitted_segments": st.retransmitted_segments,
                "rate_mbps": num / den,
                "measured_mbps": st.emitted_bytes * 8 / span,
            }
        sessions[t.id_str] = {
            "sid": t.sid,
            "kind": "unicast",
            "src": t.src,
            "dst": t.dst,
            "tag": t.tag,
            "status": t.status,
            "bytes_total": t.total_bytes,
            "bytes_delivered": delivered,
            "t_open_us": t.t_open,
            "t_complete_us": t.t_complete,
            "source_sha256": t.source_digest,
            "delivered_sha256": t.receiver.delivered_digest(),
            "throughput_mbps": float(throughput),
            "potential_mbps": float(potential),
            "residual_potential_mbps": float(residual),
            "paths": [list(p.hops) for p in t.used],
            "discovered_paths": [list(p.hops) for p in t.discovered],
            "per_path": per_path,
        }

    trees: dict[str, Any] = {}
    for sid in sorted(sim.pubs):
        pub = sim.pubs[sid]
        edges = []
        for edge in pub.edges:
            st = edge.sender.stats[edge.pid]
            num, den = edge.sender.rates.get(edge.pid, (0, 1))
            edges.append(
                {
                    "from": edge.src,
                    "to": edge.dst,
                    "tree_edge": edge.src in sim.anchors and edge.dst in sim.anchors,
                    "start_seq": edge.sender.start_seq,
                    "original_segments": st.emitted_segments - st.retransmitted_segments,
                    "retransmitted_segments": st.retransmitted_segments,
                    "rate_mbps": num / den,
                }
            )
        subs = {}
        for name in sorted(pub.subscribers):
            leg = pub.subscribers[name]
            subs[name] = {
                "anchor": leg.anchor,
                "join_seq": leg.join_seq,
                "complete_at_us": leg.complete_at,
                "delivered_sha256": leg.receiver.delivered_digest(),
                "bytes_delivered": leg.receiver.delivered_bytes,
            }
        home = sim._home_anchor(pub.publisher)
        try:
            unicast_cost: Optional[float] = float(unicast_cost_crossings(
                sim.anchors[home].db, pub.publisher, sorted(pub.tree.subscribers), sim.link_cost,
            ))
        except Unreachable:  # a subscriber or the publisher was cut off after the tree was built
            unicast_cost = None
        trees[pub.id_str] = {
            "sid": pub.sid,
            "kind": "pubsub",
            "publisher": pub.publisher,
            "object": pub.object_name,
            "tag": pub.tag,
            "status": pub.status,
            "root": pub.tree.root,
            "tree_edges": [list(e) for e in pub.tree.edges],
            "bytes_total": pub.total_bytes,
            "segments_total": segment_count(pub.total_bytes),
            "source_sha256": pub.source.hexdigest(),
            "tree_cost": float(pub.tree.cost_crossings(sim.link_cost)),
            "unicast_cost": unicast_cost,
            "edges": edges,
            "subscribers": subs,
        }

    # Digest equality is transitive: equal across every peering is equal
    # within every connected component.
    db_digests = database_digests(sim)
    db_identical = all(db_digests[a] == db_digests[b] for a, b, _ in sim.peerings)
    anchors: dict[str, Any] = {}
    for name in sorted(sim.anchors):
        anchor = sim.anchors[name]
        anchors[name] = {
            "per_tag": {tag: list(row) for tag, row in anchor.tag_report().items()},
            "dropped_unknown": anchor.dropped_unknown,
            "db_digest": db_digests[name],
            "catalog": sorted(anchor.catalog.entries) if anchor.catalog is not None else None,
        }

    per_origin = {f"{origin}#{seq}": count for (origin, seq), count in sorted(sim.lsa_tx.items())}

    dropped_unknown = sim.dropped_unknown_hosts + sum(
        sim.anchors[a].dropped_unknown for a in sim.anchors
    )

    fraction_potential = (
        float(total_throughput / total_potential) if total_potential else None
    )
    fraction_residual = (
        float(total_throughput / total_residual) if total_residual else None
    )
    headline = fraction_potential if sim.mode == MODE_BASELINE else fraction_residual

    report = {
        "schema": "anchornet-metrics/2",
        "scenario": cfg.name,
        "scenario_hash": cfg.scenario_hash(),
        "seed": sim.seed,
        "mode": sim.mode,
        "horizon_us": cfg.horizon_us,
        "clock_end_us": sim.clock_end,
        "events_processed": sim.events_processed,
        "trace_hash": sim._trace.hexdigest(),
        "faults": {
            "l3_dest_violations": sim.l3_dest_violations,
            "causality_violations": 0,
            "dropped_unknown": dropped_unknown,
        },
        "topology": {
            "db_identical": db_identical,
            "anchor_count": len(sim.anchors),
            "adjacency_count": len(sim.peerings),
            "lsa_transmissions": per_origin,
            "max_transmissions_per_origination": max(sim.lsa_tx.values(), default=0),
        },
        "allocation": {"epochs": sim.alloc_epochs, **allocation_summary(sim.alloc_epochs)},
        "sessions": sessions,
        "pubsub": trees,
        "links": links,
        "anchors": anchors,
        "summary": {
            "throughput_mbps": float(total_throughput),
            "potential_mbps": float(total_potential),
            "residual_potential_mbps": float(total_residual),
            "fraction_of_potential": fraction_potential,
            "fraction_of_residual": fraction_residual,
            "headline_fraction": headline,
        },
    }
    return report


def database_digests(sim: Simulation) -> dict[str, str]:
    """Each anchor's ``db.digest()``, hashed once per distinct set of advertisements, named
    by its (origin, seq) pairs: a converged component holds one set."""
    memo: dict[frozenset[tuple[str, int]], str] = {}
    digests = {}
    for name, anchor in sim.anchors.items():
        lsas = anchor.db.lsas
        key = frozenset(zip(lsas, map(attrgetter("seq"), lsas.values())))
        if key not in memo:
            memo[key] = anchor.db.digest()
        digests[name] = memo[key]
    return digests


def replay(epochs: list[dict[str, Any]]) -> dict[str, float]:
    """Every claimant's rate after ``epochs``, sorted by claimant: each epoch
    lists only the rates it moved, and a released claimant as ``None``."""
    rates: dict[str, Optional[float]] = {}
    for epoch in epochs:
        rates.update(epoch["rates_mbps"])
    return {claimant: rate for claimant, rate in sorted(rates.items()) if rate is not None}


def allocation_summary(epochs: list[dict[str, Any]]) -> dict[str, Any]:
    """The peak epoch's rates and domain shares, and the final rates.  The
    peak epoch has the most concurrent claimants, the earliest on ties: the
    steady state worth reporting.  The final rates are those after the last
    epoch with a claimant, so the empty epoch of the last release is skipped."""
    peak = max(range(len(epochs)), key=lambda i: epochs[i]["concurrent"], default=-1)
    last = max((i for i, epoch in enumerate(epochs) if epoch["concurrent"]), default=-1)
    return {
        "final_rates_mbps": replay(epochs[:last + 1]),
        "peak_rates_mbps": replay(epochs[:peak + 1]),
        "domain_shares_mbps": epochs[peak]["domain_shares_mbps"] if epochs else {},
    }


def canonical_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))


# The JSON types that each kind of field read below may hold.
_KINDS = {"an object": (dict,), "an integer": (int,), "a number": (int, float),
          "a number or null": (int, float, type(None))}
# The fields that ``compare`` and ``summary_line`` read, as key paths, in the order compare
# reads them, each with the kind it must be (``None``: any).
_READ_FIELDS = ((("scenario_hash",), None), (("scenario",), None),
                (("summary", "headline_fraction"), "a number or null"),
                (("summary", "throughput_mbps"), "a number"), (("links",), "an object"),
                (("allocation", "domain_shares_mbps"), "an object"), (("mode",), None), (("seed",), None))


def load_report(path: str) -> dict[str, Any]:
    """The report in ``path``; ValueError when the file holds no anchornet-metrics/2
    report, or one that lacks a field ``compare`` or ``summary_line`` reads or
    holds it with a type they cannot use."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if type(report) is not dict or report.get("schema") != "anchornet-metrics/2":
        raise ValueError("not an anchornet-metrics/2 report")
    links = report.get("links")
    per_link = []
    for lid in links if type(links) is dict else ():
        per_link += [(("links", lid), "an object"), (("links", lid, "data_original"), "an integer")]
    for keys, kind in (*_READ_FIELDS, *per_link):
        node = report
        for key in keys:
            if type(node) is not dict or key not in node:
                raise ValueError(f"report lacks {'.'.join(keys)}")
            node = node[key]
        if kind is not None and type(node) not in _KINDS[kind]:
            raise ValueError(f"report's {'.'.join(keys)} is not {kind}")
    return report


def summary_line(report: dict[str, Any]) -> str:
    s = report["summary"]
    fraction = s["headline_fraction"]
    fraction_text = f"{fraction:.4f}" if fraction is not None else "n/a"
    return (
        f"{report['scenario']} [{report['mode']}] seed={report['seed']}: "
        f"throughput {s['throughput_mbps']:.2f} Mbps, potential fraction {fraction_text}"
    )


def _crossings(report: dict[str, Any]) -> dict[str, int]:
    return {
        lid: entry["data_original"] for lid, entry in sorted(report["links"].items())
    }


def compare(report_a: dict[str, Any], report_b: dict[str, Any]) -> dict[str, Any]:
    """Ratios of run B relative to run A over one shared topology.

    ``throughput_ratio`` compares headline potential fractions;
    ``crossing_ratio`` compares original data crossings per link;
    per-tag shares are reported side by side.
    """
    if report_a["scenario_hash"] != report_b["scenario_hash"]:
        raise TopologyMismatch(
            f"{report_a['scenario']!r} vs {report_b['scenario']!r}: different scenario topologies"
        )
    fraction_a = report_a["summary"]["headline_fraction"]
    fraction_b = report_b["summary"]["headline_fraction"]
    throughput_ratio = (
        fraction_b / fraction_a if fraction_a and fraction_b is not None else None
    )
    raw_ratio = None
    if report_a["summary"]["throughput_mbps"]:
        raw_ratio = (
            report_b["summary"]["throughput_mbps"] / report_a["summary"]["throughput_mbps"]
        )
    crossings_a = _crossings(report_a)
    crossings_b = _crossings(report_b)
    crossing_ratio: dict[str, Any] = {}
    for lid in crossings_a:
        a, b = crossings_a[lid], crossings_b.get(lid, 0)
        crossing_ratio[lid] = (b / a) if a else None
    shares = {
        "a": report_a["allocation"]["domain_shares_mbps"],
        "b": report_b["allocation"]["domain_shares_mbps"],
    }
    return {
        "scenario": report_a["scenario"],
        "scenario_hash": report_a["scenario_hash"],
        "a": {"mode": report_a["mode"], "seed": report_a["seed"], "headline_fraction": fraction_a},
        "b": {"mode": report_b["mode"], "seed": report_b["seed"], "headline_fraction": fraction_b},
        "throughput_ratio": throughput_ratio,
        "raw_throughput_ratio": raw_ratio,
        "crossing_ratio": crossing_ratio,
        "domain_shares_mbps": shares,
    }


def render_compare_table(cmp: dict[str, Any]) -> str:
    """Human-readable comparison table."""

    def fmt(value: Any) -> str:
        if value is None:
            return "n/a"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    rows = [
        ("scenario", cmp["scenario"], ""),
        ("run a", f"{cmp['a']['mode']} seed={cmp['a']['seed']}", fmt(cmp["a"]["headline_fraction"])),
        ("run b", f"{cmp['b']['mode']} seed={cmp['b']['seed']}", fmt(cmp["b"]["headline_fraction"])),
        ("throughput ratio (b/a)", fmt(cmp["throughput_ratio"]), ""),
        ("raw throughput ratio (b/a)", fmt(cmp["raw_throughput_ratio"]), ""),
    ]
    for lid, ratio in sorted(cmp["crossing_ratio"].items()):
        if ratio is not None and ratio != 1.0:
            rows.append((f"crossings ratio {lid} (b/a)", fmt(ratio), ""))
    for tag in sorted(cmp["domain_shares_mbps"]["a"]):
        a = cmp["domain_shares_mbps"]["a"][tag]
        b = cmp["domain_shares_mbps"]["b"].get(tag)
        rows.append((f"share[{tag}] Mbps", fmt(a), fmt(b)))
    width = max(len(r[0]) for r in rows)
    lines = [f"{label:<{width}}  {col1:>18}  {col2:>12}".rstrip() for label, col1, col2 in rows]
    return "\n".join(lines)
