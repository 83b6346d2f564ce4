"""One repetition of one workload, in a process that runs nothing else.

    python3 anchorbench/drive.py --workload NAME --seed N [--trace]

Generates the scenario from the seed, times ``parse_scenario`` plus
``Simulation(...)`` SETUPS_PER_REP times, then drives the last simulation
to its horizon with the same loop as ``Simulation.run()`` (whose report
path is not used), checks the outputs and prints one JSON object.  With
``--trace`` it first makes the same untraced run, then a traced one, and
adds per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_REP = 5


def use_checkout_source() -> None:
    """Import anchornet from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "anchornet" / "__init__.py").is_file():
        raise SystemExit(f"anchornet sources not found under {src}")
    sys.path.insert(0, str(src))


# The calibration work's host time on the machine that defined the bounds,
# when nothing else ran there.
REFERENCE_CALIBRATION_S = 0.008
CALIBRATION_LOOPS = 5_000
# During a run, calibrate after every CALIBRATE_EVERY_S of work, looking at
# the clock every CHECK_EVENTS events.
CALIBRATE_EVERY_S = 0.2
CHECK_EVENTS = 200


def calibrate() -> float:
    """Host time of a fixed piece of pure-Python work made of the
    standard-library operations the simulator leans on (dicts, a heap,
    exact fractions, sha256): how fast the machine runs this process right
    now.  It uses nothing of anchornet, so it does not move when the
    simulator gets faster."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    total, blob = Fraction(0), bytes(1024)
    for i in range(CALIBRATION_LOOPS):
        key = i * 7919 % 4099
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 4 == 0:
            total += Fraction(i % 13, 7 + i % 5)
        if i % 8 == 0:
            hashlib.sha256(blob + key.to_bytes(4, "big")).digest()
    return time.perf_counter() - start


def set_up(text: str, setups: int) -> tuple[Any, list[float], list[float]]:
    """Build the simulation ``setups`` times; returns the last one, the
    host time of each build, and the calibrations taken before the first
    build and after each one."""
    from anchornet import scenario, simnet

    samples, calibrations, sim = [], [calibrate()], None
    for _ in range(setups):
        sim = None
        start = time.perf_counter()
        sim = simnet.Simulation(scenario.parse_scenario(text))
        samples.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    gc.collect()  # drop the discarded set-ups before the measured run
    return sim, samples, calibrations


def advance(sim: Any) -> tuple[float, list[float]]:
    """The event loop of ``Simulation.run()``, without its report.  Returns
    its host time and the calibrations taken before the loop, after every
    CALIBRATE_EVERY_S of work and after the loop; the returned time leaves
    the calibrations out."""
    horizon = sim.config.horizon_us
    queue, step = sim.queue, sim.step
    calibrations = [calibrate()]
    spent, events = 0.0, 0
    start = time.perf_counter()
    while True:
        t = queue.peek_time()
        if t is None or t > horizon:
            break
        step()
        events += 1
        if events % CHECK_EVENTS == 0:
            now = time.perf_counter()
            if now - start >= CALIBRATE_EVERY_S:
                spent += now - start
                calibrations.append(calibrate())
                start = time.perf_counter()
    spent += time.perf_counter() - start
    calibrations.append(calibrate())
    return spent, calibrations


def layer_metrics(tracer: Any, sim: Any, outcome: Any, untraced_wall: float,
                  traced_total: float, overhead: float) -> dict[str, float]:
    """The per-layer figures of one traced run."""
    seconds, calls, by_kind, covered = tracer.self_times()
    counts = tracer.counts
    emitted = retransmitted = 0
    senders = [t.sender for t in sim.transfers.values()]
    senders += [edge.sender for pub in sim.pubs.values() for edge in pub.edges]
    for sender in senders:
        for st in sender.stats.values():
            emitted += st.emitted_segments
            retransmitted += st.retransmitted_segments
    demands = [epoch["concurrent"] for epoch in sim.alloc_epochs]
    stage_actions = sum(1 for e in sim.config.events if e.kind == "stage")
    out: dict[str, float] = {
        "scenario.parse_s": seconds["scenario.parse"],
        "addressing.register_calls": calls["addressing.register"],
        "addressing.register_s": seconds["addressing.register"],
        "addressing.resolve_calls": calls["addressing.resolve"],
        "simnet.init_s": seconds["simnet.init"],
        "simnet.events": sim.events_processed,
    }
    for kind in by_kind:
        out[f"simnet.events.{kind}"] = counts[f"simnet.events.{kind}"]
    out.update({
        "simnet.step_self_s": seconds["simnet.step"],
        "simnet.host_us_per_event": untraced_wall / sim.events_processed * 1e6,
        "simnet.queue_push_calls": calls["simnet.queue_push"],
        "simnet.queue_s": seconds["simnet.queue_push"] + seconds["simnet.queue_pop"],
        "simnet.queue_depth_max": tracer.queue_depth_max,
        "simnet.transmit_calls": calls["simnet.transmit"],
        "simnet.transmit_s": seconds["simnet.transmit"],
        "session.schedule_calls": calls["session.schedule"],
        "session.schedule_s": seconds["session.schedule"],
        "session.on_ack_calls": calls["session.on_ack"],
        "session.on_ack_s": seconds["session.on_ack"],
        "session.on_receive_calls": calls["session.on_receive"],
        "session.on_receive_s": seconds["session.on_receive"],
        "session.next_wake_s": seconds["session.next_wake"],
        "session.encode_calls": calls["session.encode"],
        "session.encode_s": seconds["session.encode"],
        "session.set_rates_calls": calls["session.set_rates"],
        "session.segments_emitted": emitted,
        "session.segments_retransmitted": retransmitted,
        "session.useful_ratio": (emitted - retransmitted) / emitted,
        "anchor.forward_calls": calls["anchor.forward"],
        "anchor.forward_s": seconds["anchor.forward"],
        "anchor.dropped_unknown": outcome.dropped_unknown,
        "allocator.water_fill_calls": calls["allocator.water_fill"],
        "allocator.water_fill_s": seconds["allocator.water_fill"],
        "allocator.domain_shares_s": seconds["allocator.domain_shares"],
        "allocator.demands_mean": sum(demands) / len(demands),
        "allocator.demands_max": max(demands),
        "pathfinder.k_disjoint_calls": calls["pathfinder.k_disjoint"],
        "pathfinder.k_disjoint_s": seconds["pathfinder.k_disjoint"],
        "topology.receive_calls": calls["topology.receive"],
        "topology.receive_s": seconds["topology.receive"],
        "topology.receive_useful_ratio":
            counts["topology.receive_flooded"] / calls["topology.receive"],
        "topology.graph_calls": calls["topology.graph"],
        "topology.graph_s": seconds["topology.graph"],
        "topology.digest_s": seconds["topology.digest"],
        "topology.lsa_tx": sum(sim.lsa_tx.values()),
        "pubsub.build_tree_calls": calls["pubsub.build_tree"],
        "pubsub.build_tree_s": seconds["pubsub.build_tree"],
        "pubsub.tree_edges": sum(len(pub.edges) for pub in sim.pubs.values()),
        "gateway.synth_calls": calls["gateway.synth"],
        "gateway.synth_bytes": counts["gateway.synth_bytes"],
        "gateway.synth_s": seconds["gateway.synth"],
        "gateway.lookup_calls": calls["gateway.lookup"],
        "gateway.sweep_calls": calls["gateway.sweep"],
        "gateway.select_source_s": seconds["gateway.select_source"],
        "gateway.replicas_staged": calls["gateway.stage"] - stage_actions,
        "trace.untraced_s": traced_total - covered,
        "trace.overhead_s": overhead,
    })
    for kind, spent in by_kind.items():
        out[f"simnet.step_self_s.{kind}"] = spent
    for name, spent in seconds.items():
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + spent
    for layer in {name.split(".")[0] for name in seconds}:
        out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / traced_total
    return out


def measure(raw: dict[str, Any], trace: bool) -> dict[str, Any]:
    """One repetition of the scenario ``raw``, as a JSON-ready record."""
    import outcome as oc

    text = json.dumps(raw)
    # Each time is scaled by the calibrations taken around it: reference
    # seconds, in which a stretch where the machine runs slow cancels out.
    sim, setup_samples, setup_cal = set_up(text, SETUPS_PER_REP)
    wall, run_cal = advance(sim)
    start = time.perf_counter()
    result = oc.collect(sim)
    untraced_total = setup_samples[-1] + wall + time.perf_counter() - start
    failures = oc.failed_ops(result)
    record: dict[str, Any] = {
        "setup_s": [took * 2 * REFERENCE_CALIBRATION_S / (before + after)
                    for took, before, after in zip(setup_samples, setup_cal, setup_cal[1:])],
        "setup_raw_s": setup_samples,
        "wall_s": wall * REFERENCE_CALIBRATION_S / statistics.mean(run_cal),
        "wall_raw_s": wall,
        "calibration_s": setup_cal + run_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": max(len(result.ops), result.expected_ops),
        "failed": len(failures),
        "problems": failures + oc.check_state(result),
        "fingerprint": oc.fingerprint(result),
        "events": result.events,
        "dropped_unknown": result.dropped_unknown,
        "sim": oc.sim_metrics(result),
    }
    if trace:
        from layers import Tracer

        del sim, result
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            traced_sim, traced_setup, traced_cal = set_up(text, 1)
            traced_wall, traced_run_cal = advance(traced_sim)
            start = time.perf_counter()
            traced_result = oc.collect(traced_sim)
            traced_total = traced_setup[0] + traced_wall + time.perf_counter() - start
        finally:
            tracer.uninstall()
        # Both totals in reference seconds, so that the machine slowing
        # down during one of the runs does not read as tracing overhead.
        overhead = REFERENCE_CALIBRATION_S * (
            traced_total / statistics.mean(traced_cal + traced_run_cal)
            - untraced_total / statistics.mean(setup_cal + run_cal))
        if oc.fingerprint(traced_result) != record["fingerprint"]:
            record["problems"].append("the traced run's fingerprint differs from the untraced run's")
        record["layers"] = layer_metrics(tracer, traced_sim, traced_result, wall,
                                         traced_total, overhead)
    return record


def repetition(raw: dict[str, Any], trace: bool) -> dict[str, Any]:
    """``measure``, except that a run that raises is reported, not raised:
    it failed every operation its script asked for."""
    from outcome import expected_op_count

    try:
        return measure(raw, trace)
    except Exception:
        attempted = expected_op_count(raw)
        return {"attempted": attempted, "failed": attempted,
                "problems": ["the run raised:\n" + traceback.format_exc()]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_source()
    from workloads import WORKLOADS

    print(json.dumps(repetition(WORKLOADS[args.workload](args.seed), args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
