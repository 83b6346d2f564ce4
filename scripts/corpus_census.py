#!/usr/bin/env python3
"""Run every corpus input that the validator accepts, and count how each ends.

    python3 scripts/corpus_census.py

``tests/scenario_corpus.py`` mutates the shipped fixtures and one scenario
that uses every event kind, one field at a time.  Each input that
``validate_text`` accepts is run once, all in this one process, and ends in
one of three ways: a report in which every session and pub/sub tree is
complete, a report in which one is not, or no report, which is counted by
the type of the exception raised.

It prints a Markdown table with a row per outcome: its count and its first
key in sorted order.  The last line is the SHA-256 over the sorted
``key<TAB>outcome<TAB>detail`` lines, where the detail is the SHA-256 of the
canonical report or the exception as ``Type: text``, so that two checkouts
compare on one line.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from anchornet.metrics import canonical_json
from anchornet.scenario import parse_scenario, validate_text
from anchornet.simnet import Simulation
from scenario_corpus import corpus

COMPLETE = "report, every session complete"
NOT_COMPLETE = "report, a session or tree not complete"


def classify(text: str) -> tuple[str, str]:
    """How one run of an accepted scenario text ends: its outcome, and the
    SHA-256 of its canonical report or its exception as ``Type: text``."""
    try:
        report = Simulation(parse_scenario(text)).run()
    except Exception as exc:
        return f"no report: {type(exc).__name__}", f"{type(exc).__name__}: {exc}"
    ends = [*report["sessions"].values(), *report["pubsub"].values()]
    outcome = COMPLETE if all(end["status"] == "complete" for end in ends) else NOT_COMPLETE
    return outcome, hashlib.sha256(canonical_json(report).encode()).hexdigest()


def main() -> None:
    keys: dict[str, list[str]] = {}
    lines = []
    for key, _path, _label, _value, scenario in corpus():
        text = json.dumps(scenario)
        if validate_text(text):
            continue
        outcome, detail = classify(text)
        keys.setdefault(outcome, []).append(key)
        lines.append(f"{key}\t{outcome}\t{detail}\n")
    print("| outcome | inputs | example |")
    print("|---|---|---|")
    for outcome, found in sorted(keys.items(), key=lambda row: (row[0].startswith("no"), -len(row[1]), row[0])):
        print(f"| {outcome} | {len(found)} | `{min(found)}` |")
    print(f"| accepted | {len(lines)} | |")
    print(hashlib.sha256("".join(sorted(lines)).encode()).hexdigest())


if __name__ == "__main__":
    main()
