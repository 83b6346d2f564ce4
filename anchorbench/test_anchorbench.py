"""Tests of the benchmark's own code: generators, output checks, tracing.

    python3 -m pytest -q anchorbench

The simulations here are small versions of the workloads, so the file runs
in a few seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import drive

drive.use_checkout_source()

import outcome as oc  # noqa: E402
import workloads  # noqa: E402
from anchornet.scenario import validate_text  # noqa: E402
from layers import Tracer  # noqa: E402

KIB = 1024
SMALL = {
    "bulk-lossy": lambda seed: workloads.bulk_lossy(seed, size_bytes=256 * KIB),
    "session-churn": lambda seed: workloads.session_churn(seed, sessions=24, span_us=40_000),
    "failover-flood": lambda seed: workloads.failover_flood(
        seed, anchors=24, chords=12, failures=3, size_bytes=1024 * KIB),
    "fanout-join": lambda seed: workloads.fanout_join(seed, size_bytes=1024 * KIB),
}
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run(text: str):
    sim, _, _ = drive.set_up(text, 1)
    wall, _ = drive.advance(sim)
    return sim, wall


def run_small(name: str, seed: int = 7):
    sim, _ = run(json.dumps(SMALL[name](seed)))
    return sim, oc.collect(sim)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_scenario_is_valid_and_seeded(name):
    make = workloads.WORKLOADS[name]
    text = json.dumps(make(3))
    assert validate_text(text) == []
    assert text == json.dumps(make(3))
    assert text != json.dumps(make(4))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_scenario_runs_clean_and_repeats(name):
    assert validate_text(json.dumps(SMALL[name](7))) == []
    _, first = run_small(name)
    assert oc.check(first) == []
    assert len(first.ops) == first.expected_ops > 0
    _, second = run_small(name)
    assert oc.fingerprint(second) == oc.fingerprint(first)


def _connected(anchors: list[str], trunks: dict[str, tuple[str, str]]) -> bool:
    reached, todo = {anchors[0]}, [anchors[0]]
    while todo:
        node = todo.pop()
        for a, c in trunks.values():
            for u, v in ((a, c), (c, a)):
                if u == node and v not in reached:
                    reached.add(v)
                    todo.append(v)
    return len(reached) == len(anchors)


@pytest.mark.parametrize("seed", range(1, 9))
def test_failover_failures_keep_the_mesh_connected(seed):
    raw = workloads.failover_flood(seed)
    anchors = [a["name"] for a in raw["anchors"]]
    trunks = {f"{peer['domain']}-link": (a["name"], peer["anchor"])
              for a in raw["anchors"] for peer in a["peers"]}
    assert len(anchors) == 100 and len(trunks) == 150
    downs = [e["link"] for e in raw["events"] if e["kind"] == "link_down"]
    assert len(downs) == len(set(downs)) == 6
    for lid in downs:
        del trunks[lid]
        assert _connected(anchors, trunks), f"failing {lid} splits the mesh"


def test_failover_refuses_a_mesh_with_too_few_cuttable_trunks():
    with pytest.raises(ValueError, match="connected"):
        workloads.failover_flood(1, anchors=12, chords=0, failures=2)


def test_fanout_joiners_are_grafted_mid_stream():
    _, result = run_small("fanout-join")
    joins = [op for op in result.ops if op.join_seq > 0]
    assert joins, "no subscriber joined mid-stream"
    assert all(op.delivered_bytes < op.total_bytes for op in joins)


def test_check_rejects_a_corrupted_digest():
    _, result = run_small("bulk-lossy")
    result.ops[0].delivered_digest = "0" * 64
    assert any("digest" in line for line in oc.check(result))


def test_check_rejects_a_late_join_tail_compared_to_the_full_stream():
    _, result = run_small("fanout-join")
    late = next(op for op in result.ops if op.join_seq > 0)
    late.join_seq = 0
    assert any(late.name in line for line in oc.check(result))


def test_check_rejects_a_broken_conservation_count():
    _, result = run_small("session-churn")
    lid, (tx, delivered, dropped, flying) = next(iter(result.conservation.items()))
    result.conservation[lid] = (tx + 1, delivered, dropped, flying)
    assert any(lid in line for line in oc.check(result))


def test_check_rejects_diverged_databases_and_missing_ops():
    _, result = run_small("failover-flood")
    result.component_digests[0][0] = "stale"
    result.expected_ops += 1
    problems = oc.check(result)
    assert any("topology databases" in line for line in problems)
    assert any("never started" in line for line in problems)


def test_a_session_opened_before_flooding_quiesces_fails_every_operation():
    raw = SMALL["bulk-lossy"](7)
    raw["events"][0]["time_us"] = 0
    record = drive.repetition(raw, False)
    assert record["attempted"] == record["failed"] == 1
    assert "not present in topology" in record["problems"][0]


def test_calibrated_repetition_keeps_the_fingerprint_and_scales_every_time():
    raw = SMALL["session-churn"](7)
    record = drive.repetition(raw, False)
    _, plain = run_small("session-churn")
    assert record["problems"] == []
    assert record["fingerprint"] == oc.fingerprint(plain)
    assert len(record["setup_s"]) == len(record["setup_raw_s"]) == drive.SETUPS_PER_REP
    # one calibration before the set-ups, one after each, then at least one
    # before and one after the run
    assert len(record["calibration_s"]) >= drive.SETUPS_PER_REP + 1 + 2
    assert record["wall_s"] > 0 and record["wall_raw_s"] > 0


def test_traced_run_matches_untraced_and_reports_every_layer_metric():
    text = json.dumps(SMALL["fanout-join"](7))
    sim, wall = run(text)
    plain = oc.collect(sim)
    tracer = Tracer()
    tracer.install()
    try:
        traced_sim, _ = run(text)
        traced = oc.collect(traced_sim)
    finally:
        tracer.uninstall()
    assert oc.fingerprint(traced) == oc.fingerprint(plain)
    layers = drive.layer_metrics(tracer, traced_sim, traced, wall, 1.0, 0.5)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)
    seconds, calls, _, covered = tracer.self_times()
    assert all(v >= 0 for v in seconds.values())
    assert sum(seconds.values()) == pytest.approx(covered)
    assert calls["pubsub.build_tree"] > 0 and calls["gateway.select_source"] > 0
    import anchornet.simnet as simnet

    assert not hasattr(simnet.water_fill, "__wrapped__")
