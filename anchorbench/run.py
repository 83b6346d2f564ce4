"""The anchornet benchmark.

    python3 anchorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it repeats the workload, each repetition in a fresh
process (``drive.py``), until S seconds are spent.  Interference from
outside the process can slow a whole repetition by half, for seconds or
minutes at a time.  So each repetition times a fixed piece of
standard-library work (``drive.calibrate``) before and after each set-up
and every 0.2 s during its run, and scales each set-up and each run by the
calibrations taken around it: seconds on a machine where that work takes
``drive.REFERENCE_CALIBRATION_S``.  ``setup_s`` is the median of these
set-up times over all repetitions, ``wall_s`` the median of the run times
and ``peak_rss_mb`` the median of the repetitions' peak RSS.  The raw host
times are printed beside them.  Every repetition checks the outputs, and
all repetitions must give the same fingerprint.  With ``--trace 1`` it
makes one untraced and one traced run in one process and reports self time
and counts per layer.

The metric names and units are those of ``BENCHMARK.json`` at the root of
the checkout.  The last line of standard output is one JSON object; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from drive import SETUPS_PER_REP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 3
# Every run must end well inside 180 s, even on a slow machine.
DEADLINE_S = 160

# Printed but not in BENCHMARK.json: sim_fct_p95_ms exists only on
# workloads with at least 200 operations.
SIM_ONLY_UNITS = {"sim_fct_p95_ms": "ms", "sim_fct_samples": "ops"}
UNITS = {"s": "s", "calls": "count", "ratio": "ratio", "share": "ratio"}


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "drive.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: repetition exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def repeat(workload: str, seed: int, seconds: int, deadline: float) -> list[dict[str, Any]]:
    """Fresh-process repetitions until ``seconds`` are spent (at least
    MIN_REPS), never starting one that would end after the budget."""
    start = time.monotonic()
    reps: list[dict[str, Any]] = []
    while True:
        began = time.monotonic()
        reps.append(spawn(workload, seed, False, deadline))
        if "wall_s" not in reps[-1]:
            return reps[-1:]
        took = time.monotonic() - began
        spent = time.monotonic() - start
        if len(reps) >= MIN_REPS and spent + took > seconds:
            return reps
        if time.monotonic() + 2 * took > deadline:
            return reps


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict[str, Any]], spec: list[dict[str, str]]) -> tuple[dict, list[str]]:
    first = reps[0]
    problems = list(first["problems"])
    if "wall_s" not in first:
        return {}, problems
    if any(r["fingerprint"] != first["fingerprint"] or r["sim"] != first["sim"] for r in reps):
        problems.append("repetitions of one seed gave different simulated results")
    values = {
        "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        **first["sim"],
    }
    print(f"repetitions: {len(reps)}, set-ups: {SETUPS_PER_REP} each")
    raw = {
        "setup_s": [s for r in reps for s in r["setup_raw_s"]],
        "wall_s": [r["wall_raw_s"] for r in reps],
        "calibration": [c for r in reps for c in r["calibration_s"]],
    }
    for name, samples in raw.items():
        print(f"raw {name} over {len(samples)} samples: lowest {min(samples):.6f} s,"
              f" median {statistics.median(samples):.6f} s, highest {max(samples):.6f} s")
    print(f"fingerprint: {first['fingerprint']}")
    print(f"events: {first['events']}  dropped_unknown: {first['dropped_unknown']}")
    print(f"ops_attempted: {first['attempted']} ops")
    print(f"ops_failed: {first['failed']} ops")
    units = {**SIM_ONLY_UNITS, **{m["name"]: m["unit"] for m in spec}}
    for name, value in values.items():
        print(f"{name}: {value} {units[name]}")
    return {m["name"]: metric(values[m["name"]], m["unit"])
            for m in spec if m["name"] in values}, problems


def per_layer(rep: dict[str, Any], spec: list[dict[str, str]]) -> dict[str, Any]:
    if "layers" not in rep:
        return {}
    layers = rep["layers"]
    print(f"fingerprint: {rep['fingerprint']}")
    print(f"ops_attempted: {rep['attempted']} ops\nops_failed: {rep['failed']} ops")
    for name in sorted(layers):
        suffix = name.rsplit("_", 1)[-1]
        print(f"{name}: {layers[name]} {UNITS.get(suffix, '')}".rstrip())
    return {m["name"]: metric(layers[m["name"]], m["unit"]) for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description="anchornet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    if args.trace:
        rep = spawn(args.workload, args.seed, True, deadline)
        metrics, problems = per_layer(rep, spec["per_layer"]), rep["problems"]
    else:
        reps = repeat(args.workload, args.seed, args.seconds, deadline)
        rep = reps[0]
        metrics, problems = end_to_end(reps, spec["end_to_end"])
    for line in problems:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({"correct": not problems, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
