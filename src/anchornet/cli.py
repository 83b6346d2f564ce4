"""Command-line front end: validate configs, run scenarios, compare reports.

    anchornet validate <scenario.json>
    anchornet run <scenario.json> [--seed N] [--mode baseline|l5] [--out FILE]
    anchornet compare <report_a.json> <report_b.json> [--out FILE]

Reports land in --out, or in $ANCHORNET_OUT_DIR (default: the working
directory) under <scenario>-<mode>-<seed>.json.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Any, Callable

from .metrics import (
    TopologyMismatch,
    compare,
    load_report,
    render_compare_table,
    summary_line,
    write_report,
)
from .scenario import (
    MODE_BASELINE,
    MODE_L5,
    ConfigInvalid,
    load_scenario,
)
from .simnet import Simulation

_MODE_ALIASES = {
    "baseline": MODE_BASELINE,
    MODE_BASELINE: MODE_BASELINE,
    "l5": MODE_L5,
    MODE_L5: MODE_L5,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchornet",
        description="Session-layer overlay simulator: validate, run, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")

    p_run = sub.add_parser("run", help="run a scenario and write a metrics report")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument(
        "--mode", choices=sorted(set(_MODE_ALIASES)), default=None,
        help="override the scenario mode",
    )
    p_run.add_argument("--out", default=None, help="report path (default: derived)")

    p_compare = sub.add_parser("compare", help="compare two metrics reports")
    p_compare.add_argument("report_a")
    p_compare.add_argument("report_b")
    p_compare.add_argument("--out", default=None, help="write the comparison as JSON")
    return parser


def _load(path: str, use: Callable[[str], Any] = load_scenario) -> Any:
    """``use(path)``, or None once why the file cannot be used is printed."""
    try:
        return use(path)
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
    except ConfigInvalid as exc:
        for diagnostic in exc.diagnostics:
            print(f"{path}: {diagnostic}", file=sys.stderr)
    except ValueError as exc:  # a ParseError, or JSON that is not a metrics report
        print(f"{path}: {exc}", file=sys.stderr)
    return None


def _touch(path: str) -> bool:
    """Whether ``path`` was missing, once a file there can be written; it is created, empty, if so."""
    missing = not os.path.exists(path)
    open(path, "a").close()
    return missing


def _cmd_validate(args: argparse.Namespace) -> int:
    if _load(args.scenario) is None:
        return 1
    print(f"{args.scenario}: ok")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args.scenario)
    if config is None:
        return 1
    mode = _MODE_ALIASES[args.mode] if args.mode else None
    created = None
    try:
        sim = Simulation(config, seed=args.seed, mode=mode)
        out = args.out
        if out is None:  # one file in the output directory, whatever the scenario's name holds
            stem = re.sub(r"[^\w.-]", "_", config.name)
            out = os.path.join(os.environ.get("ANCHORNET_OUT_DIR", "."), f"{stem}-{sim.mode}-{sim.seed}.json")
        created = _load(out, _touch)
        if created is None:  # found before the run, not after it
            return 1
        report = sim.run()
    except Exception as exc:  # runtime faults are reported, not swallowed
        print(f"{args.scenario}: simulation fault: {exc}", file=sys.stderr)
        if created:  # no empty report is left behind
            os.remove(out)
        return 2
    write_report(report, out)
    print(summary_line(report))
    print(f"report: {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = [_load(path, load_report) for path in (args.report_a, args.report_b)]
    if None in reports:
        return 1
    try:
        result = compare(*reports)
    except TopologyMismatch as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    if args.out and _load(args.out, _touch) is None:
        return 1
    print(render_compare_table(result))
    if args.out:
        write_report(result, args.out)
        print(f"comparison: {args.out}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
