#!/usr/bin/env python3
"""Generate a flooding scenario: N anchors on a random connected graph.

Each anchor adjacency gets its own two-attachment transit domain, so the
scenario exercises pure control-plane behavior (origination, flooding,
convergence) with no hosts and no data sessions.  With no arguments it
writes the flooding-20 fixture; regenerate it with:

    python3 scripts/gen_flooding_scenario.py > scenarios/flooding-20.json

Larger meshes for timing the control plane, for example:

    python3 scripts/gen_flooding_scenario.py --anchors 200 --extra-edges 120
"""

import argparse
import json
import random

N_ANCHORS = 20
EXTRA_EDGES = 12
SEED = 2024


def scenario(n_anchors: int = N_ANCHORS, extra_edges: int = EXTRA_EDGES) -> dict:
    """The scenario as a JSON-ready dict; the graph depends only on the sizes."""
    if n_anchors < 2:
        raise ValueError(f"need at least 2 anchors, got {n_anchors}")
    max_extra = n_anchors * (n_anchors - 1) // 2 - (n_anchors - 1)
    if not 0 <= extra_edges <= max_extra:
        raise ValueError(f"extra edges must be in [0, {max_extra}] for {n_anchors} anchors")
    rng = random.Random(SEED)
    names = [f"anchor-{i:02d}" for i in range(n_anchors)]

    edges: set[tuple[str, str]] = set()
    # random spanning tree first, then extra chords
    shuffled = names[:]
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        other = shuffled[rng.randrange(i)]
        edges.add(tuple(sorted((shuffled[i], other))))
    while len(edges) < n_anchors - 1 + extra_edges:
        a, b = rng.sample(names, 2)
        edges.add(tuple(sorted((a, b))))

    domains, links, ports, peers = [], [], {n: [] for n in names}, {n: [] for n in names}
    for idx, (a, b) in enumerate(sorted(edges)):
        dom = f"net-{idx:02d}"
        att_a, att_b = f"{dom}-x", f"{dom}-y"
        domains.append({"id": dom, "attachments": [att_a, att_b]})
        links.append(
            {
                "id": f"trunk-{idx:02d}",
                "domain": dom,
                "endpoints": [att_a, att_b],
                "capacity_mbps": rng.choice([40, 100, 400]),
                "latency_us": rng.randrange(100, 1000),
                "loss_prob": 0,
                "background_utilization": 0,
            }
        )
        ports[a].append({"domain": dom, "attachment": att_a})
        ports[b].append({"domain": dom, "attachment": att_b})
        peers[a].append({"anchor": b, "domain": dom})

    return {
        "name": f"flooding-{n_anchors}",
        "seed": n_anchors,
        "mode": "l5-multipath",
        "horizon_us": 1000000,
        "domains": domains,
        "links": links,
        "anchors": [
            {"name": n, "ports": ports[n], "peers": peers[n]} for n in names
        ],
        "hosts": [],
        "policy": [{"tag": "ops", "weight": 1}],
        "events": [],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--anchors", type=int, default=N_ANCHORS, help="number of anchors")
    parser.add_argument(
        "--extra-edges", type=int, default=EXTRA_EDGES,
        help="peerings added beyond the random spanning tree",
    )
    args = parser.parse_args()
    try:
        doc = scenario(args.anchors, args.extra_edges)
    except ValueError as exc:
        parser.error(str(exc))
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
