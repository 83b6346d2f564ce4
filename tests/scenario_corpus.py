"""A generated corpus of malformed scenarios, for pinning the validator's
diagnostics: every shipped fixture, plus one scenario that uses every event
kind, with each field in turn deleted, set to a wrong type and set out of
range."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = ("dual-path", "flooding-20", "transatlantic-pubsub", "two-domains-weighted")

WRONG_TYPES: tuple[Any, ...] = ("x", [], {}, None, True)
DELETE = object()


def every_event_kind() -> dict[str, Any]:
    """``dual-path`` with a gateway, a staged replica, a subscription, a
    pub/sub session fed from the replica, a rate cap and a link failure."""
    raw = json.loads((SCENARIOS / "dual-path.json").read_text())
    raw["name"] = "every-event-kind"
    raw["anchors"][0]["gateway"] = False
    raw["anchors"][3]["gateway"] = True
    raw["events"][0]["rate_cap_mbps"] = 50
    raw["events"] += [
        {"time_us": 1000, "kind": "stage", "gateway": "anchor-east",
         "object": "cms.run1", "size_bytes": 65536, "ttl_us": 5000000},
        {"time_us": 2000, "kind": "subscribe", "gateway": "anchor-east",
         "object": "cms.run1", "tag": "atlas", "k_paths": 2},
        {"time_us": 30000, "kind": "open_session", "id": "pub", "session_mode": "pubsub",
         "src": "anchor-east", "subscribers": ["caltech.h1"], "tag": "atlas",
         "object": "cms.run1"},
        {"time_us": 40000, "kind": "link_down", "link": "nw-trunk"},
    ]
    return raw


def bases() -> dict[str, str]:
    texts = {name: (SCENARIOS / f"{name}.json").read_text() for name in FIXTURES}
    texts["every-event-kind"] = json.dumps(every_event_kind())
    return texts


def sites(node: Any, path: tuple[Any, ...] = ()) -> Iterator[tuple[Any, ...]]:
    """Every position below ``node``: dict keys and list indices, pre-order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from sites(child, path + (key,))


def _out_of_range(value: Any) -> tuple[Any, ...]:
    if isinstance(value, bool):
        return ()
    if isinstance(value, (int, float)):
        return (-1, 0, 1, 0.5)
    if isinstance(value, str):
        return ("",)
    return ()


def path_text(path: tuple[Any, ...]) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}"
    return out or "$"


def corpus() -> Iterator[tuple[str, tuple[Any, ...], str, Any, Any]]:
    """Yields (key, path, label, value, scenario) per malformed input: ``value``
    is what was set at ``path`` (``DELETE`` when the field was deleted), and
    ``scenario`` the malformed JSON value, good only until the next is drawn."""
    for name, base in bases().items():
        root = json.loads(base)
        for variant in WRONG_TYPES:
            yield f"{name}:$={json.dumps(variant)}", (), json.dumps(variant), variant, variant
        for path in list(sites(root)):
            parent = root
            for key in path[:-1]:
                parent = parent[key]
            original = parent[path[-1]]
            variants: list[Any] = [DELETE] if isinstance(parent, dict) else []
            variants += [*WRONG_TYPES, *_out_of_range(original)]
            seen = {json.dumps(original)}
            for value in variants:
                label = "del" if value is DELETE else json.dumps(value)
                if label in seen:
                    continue
                seen.add(label)
                if value is DELETE:
                    items = list(parent.items())
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                yield f"{name}:{path_text(path)}={label}", path, label, value, root
                if value is DELETE:  # put it back in its place: key order is part of the input
                    parent.clear()
                    parent.update(items)
                else:
                    parent[path[-1]] = original
