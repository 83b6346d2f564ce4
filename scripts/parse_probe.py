#!/usr/bin/env python3
"""A/B the scenario validator of this checkout against another source tree.

    python3 scripts/parse_probe.py --against SRC_DIR [--rounds 40] [--only NAME]

``SRC_DIR`` is a ``src`` directory that holds an ``anchornet`` package, for
example an older commit's: ``git archive 6894000 src | tar -x -C /tmp/v24``
gives ``/tmp/v24/src``.  Both validators are loaded into this one process,
and each round times ``parse_scenario`` on an input with one, then the
other, in turns whose order alternates from round to round.  The inputs are
the four fixtures in ``scenarios/`` and the four benchmark workloads of
``anchorbench/workloads.py`` at seed 1; ``--only`` keeps one of them.

It prints one JSON line per input: the median and the lowest, over the
rounds, of this checkout's process time divided by ``SRC_DIR``'s.  Below 1
is faster than ``SRC_DIR``.
"""

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import time
import types
from typing import Any, Callable

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXTURES = ("dual-path", "flooding-20", "transatlantic-pubsub", "two-domains-weighted")
WORKLOADS = ("bulk-lossy", "session-churn", "failover-flood", "fanout-join")
TURN_S = 0.01  # each turn repeats a parse for about this much process time


def load_module(src: str, alias: str, name: str) -> types.ModuleType:
    """Module ``name`` of the ``anchornet`` package under ``src``, imported
    as package ``alias`` without running that package's ``__init__``."""
    if alias not in sys.modules:
        package = types.ModuleType(alias)
        package.__path__ = [os.path.join(src, "anchornet")]
        sys.modules[alias] = package
    return importlib.import_module(f"{alias}.{name}")


def inputs(only: "str | None", seed: int = 1) -> dict[str, str]:
    """Scenario text by input name, the workloads generated at ``seed``."""
    texts = {}
    for name in FIXTURES:
        if only in (None, name):
            with open(os.path.join(ROOT, "scenarios", f"{name}.json"), encoding="utf-8") as fh:
                texts[name] = fh.read()
    if only is None or only in WORKLOADS:
        sys.path.insert(0, os.path.join(ROOT, "anchorbench"))
        from workloads import WORKLOADS as GENERATORS

        texts.update((name, json.dumps(GENERATORS[name](seed))) for name in WORKLOADS if only in (None, name))
    return texts


def _turn(parse: Callable[[str], Any], text: str, repeats: int) -> float:
    gc.collect()  # so that neither turn pays for the garbage of the other
    start = time.process_time()
    for _ in range(repeats):
        parse(text)
    return time.process_time() - start


def ratios(ours: Callable[[str], Any], theirs: Callable[[str], Any], text: str, rounds: int) -> list[float]:
    """Per round, our process time over theirs for the same number of parses."""
    single = min(_turn(ours, text, 1) for _ in range(3))
    repeats = max(1, round(TURN_S / max(single, 1e-6)))
    out = []
    for r in range(rounds):
        if r % 2:
            b, a = _turn(theirs, text, repeats), _turn(ours, text, repeats)
        else:
            a, b = _turn(ours, text, repeats), _turn(theirs, text, repeats)
        out.append(a / b)
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="a src directory that holds an anchornet package")
    parser.add_argument("--rounds", type=int, default=40, help="timed turns per validator and input (default 40)")
    parser.add_argument("--only", choices=FIXTURES + WORKLOADS, help="time this input only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.against, "anchornet", "scenario.py")):
        parser.error(f"no anchornet/scenario.py under {args.against}")
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    ours = load_module(os.path.join(ROOT, "src"), "anchornet_here", "scenario").parse_scenario
    theirs = load_module(os.path.abspath(args.against), "anchornet_against", "scenario").parse_scenario
    for name, text in inputs(args.only).items():
        found = ratios(ours, theirs, text, args.rounds)
        print(json.dumps({"input": name, "median": round(statistics.median(found), 3),
                          "lowest": round(min(found), 3), "rounds": args.rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
