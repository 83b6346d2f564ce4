#!/usr/bin/env python3
"""Time one run of a resized scenario and report its cost.

    python3 scripts/scale_probe.py --mib 128
    python3 scripts/scale_probe.py --sessions 600 [--span-us 400000] [--seed 1]

``--mib N`` runs scenarios/dual-path.json with its one transfer resized to
N MiB and its horizon stretched in proportion, so that the transfer can
finish.  It prints one JSON line: the events processed, events per host
second, the host seconds of building and running the simulation (its
report included), the process's peak RSS in MB, and whether the transfer completed byte-exact.

``--sessions N`` runs the benchmark's session-churn workload at seed
``--seed`` (default 1; ``anchorbench/workloads.py``) with N sessions
arriving over ``--span-us`` microseconds (default 400,000).  Its line adds
the allocation epochs, the most concurrent claimants, the host seconds
spent in allocation epochs, the size of the canonical report in MB, and
whether every session completed byte-exact.

Run it in a fresh process per size: peak RSS only ever grows within one.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from anchornet.metrics import canonical_json
from anchornet.scenario import parse_scenario
from anchornet.simnet import Simulation

MIB = 1024 * 1024
SCENARIO = os.path.join(ROOT, "scenarios", "dual-path.json")


def resized(mib: float) -> dict:
    """dual-path.json with its transfer at ``mib`` MiB and its horizon
    stretched by the same factor (never shrunk)."""
    with open(SCENARIO, encoding="utf-8") as fh:
        raw = json.load(fh)
    (event,) = [e for e in raw["events"] if e["kind"] == "open_session"]
    size = max(int(mib * MIB), 1)
    raw["horizon_us"] = raw["horizon_us"] * max(1, -(-size // event["bytes"]))
    event["bytes"] = size
    return raw


def churn(sessions: int, span_us: int, seed: int) -> dict:
    """The session-churn workload at ``seed``, resized."""
    sys.path.insert(0, os.path.join(ROOT, "anchorbench"))
    from workloads import session_churn

    return session_churn(seed, sessions=sessions, span_us=span_us)


class _TimedSimulation(Simulation):
    """A simulation that sums the host time of its allocation epochs."""

    alloc_s = 0.0

    def _reallocate(self, now: int) -> None:
        start = time.perf_counter()
        super()._reallocate(now)
        self.alloc_s += time.perf_counter() - start


def _run(raw: dict) -> tuple[_TimedSimulation, dict, float]:
    start = time.perf_counter()
    sim = _TimedSimulation(parse_scenario(json.dumps(raw)))
    report = sim.run()
    return sim, report, time.perf_counter() - start


def _figures(sim: _TimedSimulation, host_s: float) -> dict:
    return {
        "events": sim.events_processed,
        "events_per_s": round(sim.events_processed / host_s),
        "host_s": round(host_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def probe(mib: float) -> dict:
    sim, report, host_s = _run(resized(mib))
    (session,) = report["sessions"].values()
    return {
        "mib": mib,
        **_figures(sim, host_s),
        "complete": session["status"] == "complete"
        and session["delivered_sha256"] == session["source_sha256"],
    }


def probe_sessions(sessions: int, span_us: int, seed: int = 1) -> dict:
    sim, report, host_s = _run(churn(sessions, span_us, seed))
    epochs = report["allocation"]["epochs"]
    return {
        "sessions": sessions,
        "span_us": span_us,
        **_figures(sim, host_s),
        "epochs": len(epochs),
        "concurrent_max": max((e["concurrent"] for e in epochs), default=0),
        "alloc_s": round(sim.alloc_s, 3),
        "report_mb": round(len(canonical_json(report).encode()) / 1e6, 2),
        "complete": all(
            s["status"] == "complete" and s["delivered_sha256"] == s["source_sha256"]
            for s in report["sessions"].values()
        ),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--mib", type=float, help="dual-path transfer size in MiB")
    size.add_argument("--sessions", type=int, help="session-churn session count")
    parser.add_argument("--span-us", type=int, default=400_000,
                        help="session-churn arrival span in microseconds (default 400000)")
    parser.add_argument("--seed", type=int, help="session-churn workload seed (default 1)")
    args = parser.parse_args(argv)
    if args.mib is not None:
        if args.mib <= 0:
            parser.error("--mib must be positive")
        if args.seed is not None:
            parser.error("--seed applies to --sessions only")
        print(json.dumps(probe(args.mib)))
        return 0
    if args.sessions < 2 or args.span_us < 1:
        parser.error("--sessions must be at least 2 and --span-us positive")
    print(json.dumps(probe_sessions(args.sessions, args.span_us, 1 if args.seed is None else args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
