#!/usr/bin/env python3
"""A/B the simulation run loop of this checkout against another source tree.

    python3 scripts/run_probe.py --against SRC_DIR [--only NAME] [--seed N] [--reps R]

``SRC_DIR`` is a ``src`` directory that holds an ``anchornet`` package, as
for ``scripts/parse_probe.py``, whose loader and inputs this script shares:
the four fixtures in ``scenarios/`` and the four benchmark workloads of
``anchorbench/workloads.py``, generated at ``--seed`` (default 1).

Both packages are loaded into this one process.  Each rep builds one
simulation with each package and steps them to the horizon in alternating
turns of TURN_EVENTS events, the first turn of each pair going to either
side in turn.  A rep's ratio is this checkout's process time over
``SRC_DIR``'s, summed over its turns; it fails unless both runs end with the
same trace hash.  Building the simulations is not timed.

It prints one JSON line per input: the median ratio over the reps, its
lower and upper quartiles, and the wins, the reps whose ratio is below 1
(this checkout faster).
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Any

from parse_probe import FIXTURES, ROOT, WORKLOADS, inputs, load_module

TURN_EVENTS = 100


def _turn(sim: Any, horizon: int) -> tuple[float, bool]:
    """Step ``sim`` up to TURN_EVENTS events; its process time, and whether the run is over."""
    queue, step = sim.queue, sim.step
    start = time.process_time()
    for _ in range(TURN_EVENTS):
        t = queue.peek_time()
        if t is None or t > horizon:
            return time.process_time() - start, True
        step()
    return time.process_time() - start, False


def rep(ours: tuple[Any, Any], theirs: tuple[Any, Any], text: str) -> tuple[float, int]:
    """One paired run of ``text``: our time over theirs, and the events of one run."""
    sims = [simnet.Simulation(scenario.parse_scenario(text)) for scenario, simnet in (ours, theirs)]
    horizon = sims[0].config.horizon_us
    spent, done = [0.0, 0.0], [False, False]
    gc.collect()
    turn = 0
    while not all(done):
        for side in (turn % 2, 1 - turn % 2):
            if not done[side]:
                took, done[side] = _turn(sims[side], horizon)
                spent[side] += took
        turn += 1
    hashes = [sim._trace.hexdigest() for sim in sims]
    if hashes[0] != hashes[1]:
        raise SystemExit(f"trace hashes differ: {hashes[0]} here, {hashes[1]} against")
    return spent[0] / spent[1], sims[0].events_processed


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="a src directory that holds an anchornet package")
    parser.add_argument("--only", choices=FIXTURES + WORKLOADS, help="run this input only")
    parser.add_argument("--seed", type=int, default=1, help="the workloads' generator seed (default 1)")
    parser.add_argument("--reps", type=int, default=10, help="paired runs per input (default 10)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.against, "anchornet", "simnet.py")):
        parser.error(f"no anchornet/simnet.py under {args.against}")
    if args.reps < 1:
        parser.error("--reps must be positive")
    ours, theirs = ((load_module(src, alias, "scenario"), load_module(src, alias, "simnet")) for src, alias in (
        (os.path.join(ROOT, "src"), "anchornet_here"), (os.path.abspath(args.against), "anchornet_against")))
    for name, text in inputs(args.only, args.seed).items():
        found = [rep(ours, theirs, text) for _ in range(args.reps)]
        ratios = [ratio for ratio, _ in found]
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
        print(json.dumps({"input": name, "seed": args.seed, "events": found[0][1], "reps": args.reps,
                          "median": round(statistics.median(ratios), 4), "q1": round(q1, 4), "q3": round(q3, 4),
                          "wins": sum(ratio < 1 for ratio in ratios)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
