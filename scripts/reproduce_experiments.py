#!/usr/bin/env python3
"""Run every shipped scenario and print the headline results.

    python3 scripts/reproduce_experiments.py [--out-dir DIR]

Covers the four desk-scale experiments:
  1. dual-path: single-best-path vs multipath water-filling recovery,
  2. transatlantic-pubsub: tree vs unicast crossings of the costly link,
  3. two-domains-weighted: policy-weighted capacity shares,
  4. flooding-20: link-state convergence on a 20-anchor overlay.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from anchornet.metrics import compare, write_report
from anchornet.scenario import MODE_BASELINE, load_scenario
from anchornet.simnet import Simulation

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default=None, help="also write full reports here")
    args = parser.parse_args()

    def save(report):
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            name = f"{report['scenario']}-{report['mode']}-{report['seed']}.json"
            write_report(report, os.path.join(args.out_dir, name))

    dual = load_scenario(os.path.join(SCENARIOS, "dual-path.json"))
    baseline = Simulation(dual, mode=MODE_BASELINE).run()
    multipath = Simulation(dual).run()
    save(baseline)
    save(multipath)
    ratio = compare(baseline, multipath)["throughput_ratio"]
    print("== dual-path: recovering the unused three quarters ==")
    print(f"  single best path : {baseline['summary']['throughput_mbps']:8.2f} Mbps "
          f"= {baseline['summary']['fraction_of_potential']:.3f} of raw potential")
    print(f"  l5 multipath     : {multipath['summary']['throughput_mbps']:8.2f} Mbps "
          f"= {multipath['summary']['fraction_of_residual']:.3f} of residual potential")
    print(f"  recovery ratio   : {ratio:8.2f}x")

    pubsub = load_scenario(os.path.join(SCENARIOS, "transatlantic-pubsub.json"))
    tree_run = Simulation(pubsub).run()
    unicast_run = Simulation(pubsub, mode=MODE_BASELINE).run()
    save(tree_run)
    save(unicast_run)
    segments = tree_run["pubsub"]["pub1"]["segments_total"]
    print("== transatlantic-pubsub: costly-link crossings per stream ==")
    print(f"  distribution tree: {tree_run['links']['atlantic-cable']['data_original']:4d} "
          f"crossings for {segments} segments")
    print(f"  3x unicast       : {unicast_run['links']['atlantic-cable']['data_original']:4d} crossings")

    weighted = Simulation(load_scenario(os.path.join(SCENARIOS, "two-domains-weighted.json"))).run()
    save(weighted)
    shares = weighted["allocation"]["domain_shares_mbps"]
    print("== two-domains-weighted: policy-driven capacity split ==")
    for tag, share in sorted(shares.items()):
        print(f"  {tag:8s}: {share:6.2f} Mbps")

    flooding = Simulation(load_scenario(os.path.join(SCENARIOS, "flooding-20.json"))).run()
    save(flooding)
    topo = flooding["topology"]
    print("== flooding-20: control-plane convergence ==")
    print(f"  anchors: {topo['anchor_count']}, adjacencies: {topo['adjacency_count']}, "
          f"identical databases: {topo['db_identical']}")
    print(f"  max transmissions per origination: {topo['max_transmissions_per_origination']} "
          f"(bound {2 * topo['adjacency_count']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
