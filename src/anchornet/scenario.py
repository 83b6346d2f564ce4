"""Scenario configuration: the documented JSON schema, loading, validation.

A scenario declares the substrate (opaque domains, their attachment points,
capacity/latency/loss links inside each domain), the overlay (anchors with
ports and peerings, hosts with a home anchor), the science-domain policy
table, and a timed event script.  Field names here are a frozen external
interface: the shipped fixtures and the metrics reports use them verbatim.

Validation never raises: every problem becomes a ``Diagnostic``.  Each kind
of entry has a table of rows, each about one field, and one walker, ``_walk``,
takes a list of entries through a table and reports each failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Optional

from .addressing import MAX_TAG_BYTES, ScienceDomainTag, as_fraction, is_name

MODE_BASELINE = "baseline-single-path"
MODE_L5 = "l5-multipath"
MODES = (MODE_BASELINE, MODE_L5)

EVENT_KINDS = ("open_session", "stage", "subscribe", "link_down")


class ParseError(ValueError):
    """Config file is not syntactically valid; carries line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ConfigInvalid(ValueError):
    """Config parsed but failed validation; carries all diagnostics."""

    def __init__(self, diagnostics: list["Diagnostic"]) -> None:
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class DomainCfg:
    id: str
    attachments: tuple[str, ...]


@dataclass(frozen=True)
class LinkCfg:
    id: str
    domain: str
    endpoints: tuple[str, str]
    capacity_mbps: Fraction
    latency_us: int
    loss_prob: float = 0.0
    background_utilization: Fraction = Fraction(0)
    cost: Fraction = Fraction(1)

    @property
    def available_mbps(self) -> Fraction:
        return self.capacity_mbps * (1 - self.background_utilization)


@dataclass(frozen=True)
class PortCfg:
    domain: str
    attachment: str


@dataclass(frozen=True)
class PeerCfg:
    anchor: str
    domain: str


@dataclass(frozen=True)
class AnchorCfg:
    name: str
    ports: tuple[PortCfg, ...]
    peers: tuple[PeerCfg, ...] = ()
    gateway: bool = False


@dataclass(frozen=True)
class HostCfg:
    name: str
    anchor: str
    port: PortCfg


@dataclass(frozen=True)
class EventCfg:
    time_us: int
    kind: str
    fields: dict[str, Any]


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    mode: str
    horizon_us: int
    domains: tuple[DomainCfg, ...]
    links: tuple[LinkCfg, ...]
    anchors: tuple[AnchorCfg, ...]
    hosts: tuple[HostCfg, ...]
    policy: tuple[ScienceDomainTag, ...]
    events: tuple[EventCfg, ...]
    raw: dict[str, Any] = field(repr=False, default_factory=dict)

    def scenario_hash(self) -> str:
        """Digest of everything except seed and mode, so reports from two
        runs of the same scenario are comparable."""
        payload = {key: self.raw.get(key) for key in ("name", *SECTIONS)}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def policy_weights(self) -> dict[str, Fraction]:
        return {entry.tag: entry.weight for entry in self.policy}


def load_scenario(path: str) -> ScenarioConfig:
    """Parse a scenario file; raises ParseError with position on bad syntax
    and ConfigInvalid with field-level diagnostics on bad structure."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def parse_scenario(text: str) -> ScenarioConfig:
    raw = _decode(text)
    if type(raw) is ParseError:
        raise raw
    config, diagnostics = _build(raw)
    if diagnostics:
        raise ConfigInvalid(diagnostics)
    return config


def validate_text(text: str) -> list[Diagnostic]:
    """Diagnostics for a config, empty when it is acceptable."""
    raw = _decode(text)
    return [Diagnostic("$", f"parse error at {raw}")] if type(raw) is ParseError else _build(raw)[1]


def _decode(text: str) -> Any:
    """The JSON value of ``text``, or the ParseError that says why it has none."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        return ParseError(exc.msg, exc.lineno, exc.colno)
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or nesting too deep
        return ParseError(str(exc), 1, 1)


# -- field tables -----------------------------------------------------------------------
# A row is (field, default, test, message, each): ``test(value, ids, fields)`` passes the field's
# value, or ``default`` if it is missing; a later row about a field tests the value its first row
# kept.  ``fields`` holds what passed the rows before, ``ids`` what the entries kept so far declare,
# by namespace.  A failing test returns False for ``message``, or, past its first check, the message
# of the check that failed, formatted with the value, its exact fraction if a number, and ``fields``.
# ``each`` walks a value that passed: a table each entry of a list or a nested entry, a (test,
# message) pair each id of a list.  An integer is a JSON integer, a number a JSON integer or float,
# never a boolean; an id is any JSON value but a list or an object, and every declared id a string.
# A section's last row declares the entry that passed.  The tests that rows share take a line each.
_CONTAINERS = frozenset((list, dict))
_table = lambda *rows: tuple((*row, None, None)[:5] for row in rows)  # no message or each: None
_number = lambda v: type(v) is int or type(v) is float and math.isfinite(v)
_in = lambda namespace: lambda v, ids, f: type(v) is str and v in ids[namespace]
_new = lambda test, namespace, message: lambda v, ids, f: test(v, ids, f) and (v not in ids[namespace] or message)
_declare = lambda namespace: lambda v, ids, f: not ids[namespace].add(v)
_KIND = {kind: lambda v, ids, f, kind=kind: type(v) is kind for kind in (int, bool, list, dict)}
_ID = lambda v, ids, f: type(v) not in _CONTAINERS
_TEXT = lambda v, ids, f: type(v) is str and v != ""
_NAME = lambda v, ids, f: type(v) is str and is_name(v)
_IDS = lambda v, ids, f: type(v) is list and _CONTAINERS.isdisjoint(map(type, v))
_NATURAL = lambda v, ids, f: type(v) is int and v >= 0
_COUNT = lambda v, ids, f: type(v) is int and v >= 1
_FRACTION = lambda v, ids, f: _number(v) and (0 <= v < 1 or "must lie in [0, 1), got {1}")
_RATE = lambda v, ids, f: _number(v) and (v > 0 or "must be positive, got {1}")
_NODE = _in("nodes")
_GATEWAY = lambda v, ids, f: type(v) is str and v in ids["anchors"] and ids["anchors"][v]["gateway"]
_DEST = lambda v, ids, f: _NODE(v, ids, f) and (v != f["src"] or "session {2[id]!r} sends from {2[src]!r} to itself")


def _anchor(name: str, ids: Any, fields: Any) -> bool:
    """The anchors' last row: passes, and declares the anchor, a node, and the domains of its ports."""
    ids["anchors"][name] = fields
    ids["ports"][name] = {port["domain"] for port in fields["ports"]}
    return not ids["nodes"].add(name)


def _port(value: Any, ids: Any, fields: Any) -> Any:
    """An id, of an attachment declared in the port's domain, that no port claimed yet; it claims it."""
    if type(value) in _CONTAINERS:
        return False
    if (pair := (fields["domain"], value)) not in ids["attached"]:
        return "unknown attachment {2[domain]!r}/{0!r}"
    return (pair not in ids["claimed"] and not ids["claimed"].add(pair)
            or "attachment {2[domain]!r}/{0!r} already claimed")


def _peering(domain: Any, ids: Any, fields: Any) -> Any:
    """A declared domain, for the first peering of its anchor pair or one that the other anchor declares
    back, which claims the pair; and one where both anchors have a port."""
    if domain not in ids["domains"]:
        return False
    name, other = fields["name"], fields["anchor"]
    if (pair := frozenset((name, other))) in ids["pairs"] and not any(
            type(peer) is dict and peer.get("anchor", peer) == name and peer.get("domain", peer) == domain
            for peer in ids["anchors"][other]["peers"]):
        return "at most one peering per anchor pair ({2[name]!r}, {2[anchor]!r})"
    ids["pairs"].add(pair)
    return domain in ids["ports"][name] and domain in ids["ports"][other] or "both anchors need a port in domain {0!r}"


SECTIONS = ("domains", "links", "anchors", "hosts", "policy", "events")
_POSITIVE = "must be a positive integer, got {0!r}"
_LIST = "must be a list, got {0!r}"
_NAN = "not a number: {0!r}"
_NOT_GATEWAY = "{0!r} is not a gateway anchor"
_NAMED = ("name", "", _new(_NAME, "nodes", "duplicate node name {0!r}"), "not a valid L5 name: {0!r}")
SCENARIO = _table(("seed", 0, _KIND[int], "must be an integer, got {0!r}"),
                  ("mode", MODE_L5, lambda v, ids, f: v in MODES, f"must be one of {MODES}, got {{0!r}}"),
                  ("horizon_us", 10_000_000, _COUNT, _POSITIVE), *((s, [], _KIND[list], _LIST) for s in SECTIONS))
PORT = _table(("domain", None, _ID, "must be a string, got {0!r}"),
              ("attachment", None, _port, "must be a string, got {0!r}"))
PEER = _table(  # walked once every anchor is declared, with the name of the peer's anchor
    ("anchor", [], _ID, 'must be {{"anchor": name, "domain": id}}'),
    ("domain", [], _ID, 'must be {{"anchor": name, "domain": id}}'),
    ("anchor", None, lambda v, ids, f: v in ids["anchors"] and (v != f["name"] or "anchor cannot peer with itself"),
     "unknown anchor {0!r}"),
    ("domain", None, _peering, "unknown domain {0!r}"),
)
TABLES = {
    "domains": _table(
        ("id", None, _new(_TEXT, "domains", "duplicate domain id {0!r}"), "missing or not a string"),
        ("attachments", [], _IDS, "must be a list of ids, got {0!r}",
         (lambda v, ids, f: (pair := (f["id"], v)) not in ids["attached"] and not ids["attached"].add(pair),
          "attachment ids must be unique within the domain")),
        ("id", None, _declare("domains")),
    ),
    "links": _table(
        ("id", None, _new(_TEXT, "links", "duplicate link id {0!r}"), "missing or not a string"),
        ("domain", None, _in("domains"), "unknown domain {0!r}"),
        ("endpoints", [], lambda v, ids, f: _IDS(v, ids, f) and len(v) == 2 and v[0] != v[1],
         "must name two distinct attachments",
         (lambda v, ids, f: (f["domain"], v) in ids["attached"],
          "attachment {0!r} not declared in domain {2[domain]!r}")),
        ("capacity_mbps", None, _RATE, _NAN),
        ("latency_us", 0, _NATURAL, "must be a nonnegative integer, got {0!r}"),
        ("loss_prob", 0.0, _FRACTION, _NAN),
        ("background_utilization", 0, _FRACTION, _NAN),
        ("cost", 1, lambda v, ids, f: _number(v) and (v >= 0 or "must be nonnegative, got {1}"), _NAN),
        ("id", None, _declare("links")),
    ),
    "anchors": _table(
        _NAMED,
        ("ports", [], _KIND[list], _LIST, PORT),
        ("ports", None, lambda v, ids, f: v != [], "anchor needs at least one port"),
        ("peers", [], _KIND[list], _LIST),
        ("gateway", False, _KIND[bool], "must be a boolean, got {0!r}"),
        ("name", None, _anchor),
    ),
    "hosts": _table(
        _NAMED,
        ("anchor", None, _in("anchors"), "unknown anchor {0!r}"),
        ("port", {}, _KIND[dict], "must be an object, got {0!r}", PORT),
        ("port", None, lambda v, ids, f: v["domain"] in ids["ports"][f["anchor"]],
         "home anchor {2[anchor]!r} has no port in domain {0[domain]!r}"),
        ("name", None, _declare("nodes")),
    ),
    "policy": _table(  # a tag of 1 to 32 UTF-8 bytes: UTF-8 holds no lone surrogate
        ("tag", None, _TEXT, "missing or not a string"),
        ("tag", None, _new(lambda v, ids, f: len(v.encode("utf-8", "ignore")) <= MAX_TAG_BYTES
                           and v.encode("utf-8", "ignore").decode() == v, "policy", "duplicate tag {0!r}"),
         f"tag must be 1..{MAX_TAG_BYTES} bytes, got {{0!r}}"),
        ("weight", 1, lambda v, ids, f: _number(v) and (v > 0 or "tag {2[tag]!r} weight must be positive, got {1}"),
         _NAN),
        ("tag", None, _declare("policy")),
    ),
}
# By event kind and whether its session is pubsub; an unknown kind's reports it.
_TIME = ("time_us", None, _NATURAL, "must be a nonnegative integer, got {0!r}")
_TAG = ("tag", None, _in("policy"), "tag {0!r} not in policy")
_K_PATHS = ("k_paths", 2, _COUNT, _POSITIVE)
_DATA_NAME = "not a valid data name: {0!r}"
EVENTS: dict[Any, tuple] = {("open_session", pubsub): _table(
    _TIME,
    ("id", None, _new(_TEXT, "sessions", "duplicate session id {0!r}"), "open_session needs a string id"),
    ("session_mode", "unicast", lambda v, ids, f: v in ("unicast", "pubsub"), "must be unicast or pubsub, got {0!r}"),
    ("object", None, lambda v, ids, f: v is None or _NAME(v, ids, f), _DATA_NAME),  # staged: its replica gives the size
    ("bytes", None, lambda v, ids, f: f["object"] is not None or _COUNT(v, ids, f), _POSITIVE),
    ("src", None, lambda v, ids, f: _NODE(v, ids, f) and (f["object"] is None or _GATEWAY(v, ids, f) or _NOT_GATEWAY),
     "unknown endpoint {0!r}"),
    ("subscribers", [], lambda v, ids, f: _IDS(v, ids, f) and v != [], "pubsub session needs subscribers",
     (_DEST, "unknown endpoint {0!r}")) if pubsub else ("dst", None, _DEST, "unknown endpoint {0!r}"),
    _TAG,
    _K_PATHS,
    ("rate_cap_mbps", None, lambda v, ids, f: v is None or _RATE(v, ids, f), _NAN),
    ("id", None, _declare("sessions")),
) for pubsub in (False, True)}
_STAGED = (_TIME, ("gateway", None, _GATEWAY, _NOT_GATEWAY),
           ("object", "", _new(_NAME, "nodes", "name {0!r} collides with a node name"), _DATA_NAME))
EVENTS.update({(kind, pubsub): table for pubsub in (False, True) for kind, table in {
    "stage": _table(*_STAGED, ("size_bytes", None, _COUNT, _POSITIVE), ("ttl_us", None, _COUNT, _POSITIVE)),
    "subscribe": _table(*_STAGED, _TAG, _K_PATHS),
    "link_down": _table(_TIME, ("link", None, _in("links"), "unknown link {0!r}")),
    None: _table(_TIME, ("kind", None, lambda v, ids, f: v in EVENT_KINDS,
                         f"must be one of {EVENT_KINDS}, got {{0!r}}")),
}.items()})
_event_table = lambda entry: EVENTS.get((entry.get("kind") if type(entry.get("kind")) is str else None,
                                         entry.get("session_mode") == "pubsub"), EVENTS[None, False])
CONFIGS = {  # the config object of each entry a section kept, made for a scenario that passed
    "domains": lambda d, exact: DomainCfg(d["id"], tuple(d["attachments"])),
    "links": lambda l, exact: LinkCfg(
        l["id"], l["domain"], tuple(l["endpoints"]), exact(l["capacity_mbps"]), l["latency_us"],
        float(l["loss_prob"]), exact(l["background_utilization"]), exact(l["cost"])),
    "anchors": lambda a, exact: AnchorCfg(a["name"], tuple([PortCfg(**port) for port in a["ports"]]),
                                          tuple([PeerCfg(p["anchor"], p["domain"]) for p in a["peers"]]), a["gateway"]),
    "hosts": lambda h, exact: HostCfg(h["name"], h["anchor"], PortCfg(**h["port"])),
    "policy": lambda p, exact: ScienceDomainTag(p["tag"], exact(p["weight"])),
}


def _walk(table: Any, entries: Any, where: tuple, ids: dict[str, Any], outer: Optional[dict] = None) -> list:
    """The (place, fields) of each (place, entry) that passes every row of ``table``, or of ``table(entry)``;
    the first row that fails an entry is reported, but every one of the root's.  ``fields`` start from ``outer``."""
    kept, rows = [], table if type(table) is tuple else None
    for at, entry in entries:
        if type(entry) is not dict:
            ids["diagnostics"].append(((*where, at), "must be an object, got {0!r}", entry, None))
            continue
        fields = {} if outer is None else dict(outer)
        for key, default, test, message, each in rows or table(entry):
            value = fields[key] if key in fields else entry.get(key, default)
            if (verdict := test(value, ids, fields)) is not True:
                ids["diagnostics"].append(((*where, at, key), verdict or message, value, fields))
                if where:
                    break
                continue
            if each is not None:
                if type(each[0]) is not tuple:  # a (test, message) pair: each id of a list
                    for j, element in enumerate(value):
                        if (verdict := each[0](element, ids, fields)) is not True:
                            ids["diagnostics"].append(((*where, at, key, j), verdict or each[1], element, fields))
                elif type(value) is list:  # a list of entries: those that fail are left out
                    value = [nested for _, nested in _walk(each, enumerate(value), (*where, at, key), ids)]
                elif not (value := _walk(each, ((None, value),), (*where, at, key), ids)):  # a nested entry
                    break  # this one fails with it
                else:
                    value = value[0][1]
            fields[key] = value
        else:
            kept.append((at, fields))
    return kept


def _build(raw: Any) -> tuple[Optional[ScenarioConfig], list[Diagnostic]]:
    if type(raw) is not dict:
        return None, [Diagnostic("$", "top level must be an object")]
    ids: dict[str, Any] = dict(anchors={}, ports={}, diagnostics=[], **{namespace: set() for namespace in (
        "domains", "links", "nodes", "policy", "sessions", "attached", "claimed", "pairs")})
    ((_, top),), kept = _walk(SCENARIO, ((None, raw),), (), ids), {}
    for section in SECTIONS:
        kept[section] = _walk(TABLES.get(section, _event_table), enumerate(top.get(section, ())), (section,), ids)
        for i, anchor in kept[section] if section == "anchors" else ():  # a peer may name a later anchor
            if anchor["peers"]:
                _walk(PEER, enumerate(anchor["peers"]), (section, i, "peers"), ids, {"name": anchor["name"]})
    if ids["diagnostics"]:  # ("anchors", 2, "ports", 0) reads anchors[2].ports[0]; a place of None, nothing
        return None, [Diagnostic("".join(f"[{k}]" if type(k) is int else f".{k}" for k in where if k is not None)[1:],
                                 message.format(value, _number(value) and as_fraction(value), fields))
                      for where, message, value, fields in ids["diagnostics"]]
    exact = lru_cache(maxsize=None, typed=True)(as_fraction)  # the links of a scenario repeat a few numbers
    script = []
    for i, fields in kept["events"]:  # an event's fields are those its rows kept, defaults included
        if fields.get("rate_cap_mbps") is not None:
            fields["rate_cap_mbps"] = exact(fields["rate_cap_mbps"])
        script.append(EventCfg(fields.pop("time_us"), raw["events"][i]["kind"], fields))
    return ScenarioConfig(
        name=str(raw.get("name", "unnamed")), seed=top["seed"], mode=top["mode"], horizon_us=top["horizon_us"],
        events=tuple(sorted(script, key=lambda e: e.time_us)), raw=raw,
        **{section: tuple([make(f, exact) for _, f in kept[section]]) for section, make in CONFIGS.items()},
    ), []
