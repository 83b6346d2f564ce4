#!/usr/bin/env python3
"""Time one dual-path transfer resized to N MiB and report its cost.

    python3 scripts/scale_probe.py --mib 128

Runs scenarios/dual-path.json with its one transfer resized to N MiB and
its horizon stretched in proportion, so that the transfer can finish.  It
prints one JSON line: the events processed, events per host second, the
host seconds of building and running the simulation, the process's peak
RSS in MB, and whether the transfer completed byte-exact.  Run it in a
fresh process per size: peak RSS only ever grows within one.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from anchornet.scenario import parse_scenario
from anchornet.simnet import Simulation

MIB = 1024 * 1024
SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "dual-path.json")


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


def probe(mib: float) -> dict:
    raw = resized(mib)
    start = time.perf_counter()
    sim = Simulation(parse_scenario(json.dumps(raw)))
    report = sim.run()
    host_s = time.perf_counter() - start
    (session,) = report["sessions"].values()
    return {
        "mib": mib,
        "events": sim.events_processed,
        "events_per_s": round(sim.events_processed / host_s),
        "host_s": round(host_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "complete": session["status"] == "complete"
        and session["delivered_sha256"] == session["source_sha256"],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mib", type=float, required=True, help="transfer size in MiB")
    args = parser.parse_args(argv)
    if args.mib <= 0:
        parser.error("--mib must be positive")
    print(json.dumps(probe(args.mib)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
