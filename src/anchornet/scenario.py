"""Scenario configuration: the documented JSON schema, loading, validation.

A scenario declares the substrate (opaque domains, their attachment points,
capacity/latency/loss links inside each domain), the overlay (anchors with
ports and peerings, hosts with a home anchor), the science-domain policy
table, and a timed event script.  Field names here are a frozen external
interface: the shipped fixtures and the metrics reports use them verbatim.

Validation never raises: every problem becomes a ``Diagnostic``.  Each kind
of entry has a field table, one row per rule about a field, and one walker,
``_walk``, reports every failure: an entry at its first field that fails, and
each element that fails of a list of nested entries or ids.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
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
        payload = {
            key: self.raw.get(key)
            for key in ("name", "domains", "links", "anchors", "hosts", "policy", "events")
        }
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
# A row is (field, default, test, message, each), one per rule, checked in order: ``test(value,
# ids, fields)`` passes the field's value, or ``default`` if it is missing; a later row about a
# field tests the value its first row kept.  ``ids`` holds what the entries kept so far declare,
# ``fields`` what passed the rows before.  A failing test returns False for ``message``, or, past
# a kind, the message of what it checks next (``_then``, ``_new``), formatted with the value, its
# exact fraction if a number, and ``fields``.  ``each`` walks a value that passed: a table walks a
# nested entry or each entry of a list, a (test, message) pair each id of a list.  An integer is a
# JSON integer, a number a JSON integer or float, never a boolean; an id is any JSON value but a
# list or an object.

_CONTAINERS = frozenset((list, dict))


def _table(*rows: tuple) -> tuple:
    return tuple((*row, None)[:5] for row in rows)  # ``each`` is None where a row gives none


def _number(value: Any, ids: Any = None, fields: Any = None) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


def _kind(kind: type, holds: Any = None) -> Any:
    """A value of exactly type ``kind`` that ``holds`` holds for."""
    return lambda value, ids, fields: type(value) is kind and (holds is None or holds(value))


def _id(value: Any, ids: Any, fields: Any) -> bool:
    return type(value) not in _CONTAINERS


_TEXT = _kind(str, lambda value: value != "")
_NAME = _kind(str, is_name)
_IDS = _kind(list, lambda value: _CONTAINERS.isdisjoint(map(type, value)))
_NATURAL = _kind(int, lambda value: value >= 0)
_COUNT = _kind(int, lambda value: value >= 1)


def _in(namespace: str) -> Any:
    """An id that an entry kept so far declared in ``namespace``; every declared id is a string."""
    return lambda value, ids, fields: type(value) is str and value in ids[namespace]


def _then(test: Any, within: Any, message: str) -> Any:
    """``test``, which returns a bool, then ``within``, which fails with ``message``."""
    return lambda value, ids, fields: test(value, ids, fields) and (within(value, ids, fields) or message)


def _new(test: Any, namespace: str, message: str) -> Any:
    """``test``, then an id that no entry kept so far declared in ``namespace``."""
    return lambda value, ids, fields: test(value, ids, fields) and (value not in ids[namespace] or message)


def _attached(value: Any, ids: Any, fields: Any) -> bool:
    return (fields["domain"], value) in ids["attached"]


def _claim(namespace: str, field: str) -> Any:
    """Whether no element kept so far claimed (``fields[field]``, value) in ``namespace``; it then claims it."""
    return lambda value, ids, fields: ((fields[field], value) not in ids[namespace]
                                       and not ids[namespace].add((fields[field], value)))


def _one_peering(domain: Any, ids: Any, fields: Any) -> bool:
    """The first peering of its anchor pair, or one the other anchor declares back; it claims the pair."""
    pair, back = frozenset((fields["name"], fields["anchor"])), {"anchor": fields["name"], "domain": domain}
    if pair in ids["pairs"] and not any(type(peer) is dict and back.items() <= peer.items()
                                        for peer in ids["anchors"][fields["anchor"]]["peers"]):
        return False
    return not ids["pairs"].add(pair)


SECTIONS = ("domains", "links", "anchors", "hosts", "policy", "events")
_POSITIVE = "must be a positive integer, got {0!r}"
_NONNEGATIVE = "must be a nonnegative integer, got {0!r}"
_LIST = "must be a list, got {0!r}"
_NAN = "not a number: {0!r}"
_STRING = "must be a string, got {0!r}"
_PEER = 'must be {{"anchor": name, "domain": id}}'
_ENDPOINT = "unknown endpoint {0!r}"
_GATEWAY = "{0!r} is not a gateway anchor"
_POSITIVE_NUMBER = _then(_number, lambda v, ids, f: v > 0, "must be positive, got {1}")
_FRACTION = _then(_number, lambda v, ids, f: 0 <= v < 1, "must lie in [0, 1), got {1}")
_NODE = ("name", "", _new(_NAME, "nodes", "duplicate node name {0!r}"), "not a valid L5 name: {0!r}")
_TAG = ("tag", None, _in("policy"), "tag {0!r} not in policy")
_K_PATHS = ("k_paths", 2, _COUNT, _POSITIVE)
_OBJECT = ("object", "", _NAME, "not a valid data name: {0!r}")
SCENARIO = _table(
    ("seed", 0, _kind(int), "must be an integer, got {0!r}"),
    ("mode", MODE_L5, lambda v, ids, f: v in MODES, f"must be one of {MODES}, got {{0!r}}"),
    ("horizon_us", 10_000_000, _COUNT, _POSITIVE),
    *((section, [], _kind(list), _LIST) for section in SECTIONS),
)
PORT = _table(
    ("domain", None, _id, _STRING),
    ("attachment", None, _id, _STRING),
    ("attachment", None, _attached, "unknown attachment {2[domain]!r}/{0!r}"),
    ("attachment", None, _claim("claimed", "domain"), "attachment {2[domain]!r}/{0!r} already claimed"),
)
PEER = _table(  # walked once every anchor is declared, with the fields of the peer's anchor
    ("anchor", [], _id, _PEER),
    ("domain", [], _id, _PEER),
    ("anchor", None, _in("anchors"), "unknown anchor {0!r}"),
    ("anchor", None, lambda v, ids, f: v != f["name"], "anchor cannot peer with itself"),
    ("domain", None, _in("domains"), "unknown domain {0!r}"),
    ("domain", None, _one_peering, "at most one peering per anchor pair ({2[name]!r}, {2[anchor]!r})"),
    ("domain", None, lambda v, ids, f: v in ids["ports"][f["name"]] and v in ids["ports"][f["anchor"]],
     "both anchors need a port in domain {0!r}"),
)
TABLES = {
    "domains": _table(
        ("id", None, _new(_TEXT, "domains", "duplicate domain id {0!r}"), "missing or not a string"),
        ("attachments", [], _IDS, "must be a list of ids, got {0!r}",
         (_claim("attached", "id"), "attachment ids must be unique within the domain")),
    ),
    "links": _table(
        ("id", None, _new(_TEXT, "links", "duplicate link id {0!r}"), "missing or not a string"),
        ("domain", None, _in("domains"), "unknown domain {0!r}"),
        ("endpoints", [], lambda v, ids, f: _IDS(v, ids, f) and len(v) == 2 and v[0] != v[1],
         "must name two distinct attachments", (_attached, "attachment {0!r} not declared in domain {2[domain]!r}")),
        ("capacity_mbps", None, _POSITIVE_NUMBER, _NAN),
        ("latency_us", 0, _NATURAL, _NONNEGATIVE),
        ("loss_prob", 0.0, _FRACTION, _NAN),
        ("background_utilization", 0, _FRACTION, _NAN),
        ("cost", 1, _then(_number, lambda v, ids, f: v >= 0, "must be nonnegative, got {1}"), _NAN),
    ),
    "anchors": _table(
        _NODE,
        ("ports", [], _kind(list), _LIST, PORT),
        ("ports", None, lambda v, ids, f: v != [], "anchor needs at least one port"),
        ("peers", [], _kind(list), _LIST),
        ("gateway", False, _kind(bool), "must be a boolean, got {0!r}"),
    ),
    "hosts": _table(
        _NODE,
        ("anchor", None, _in("anchors"), "unknown anchor {0!r}"),
        ("port", {}, _kind(dict), "must be an object, got {0!r}", PORT),
        ("port", None, lambda v, ids, f: v["domain"] in ids["ports"][f["anchor"]],
         "home anchor {2[anchor]!r} has no port in domain {0[domain]!r}"),
    ),
    "policy": _table(  # a tag of 1 to 32 UTF-8 bytes: UTF-8 holds no lone surrogate
        ("tag", None, _TEXT, "missing or not a string"),
        ("tag", None, _new(lambda v, ids, f: len(v.encode("utf-8", "ignore")) <= MAX_TAG_BYTES
                           and v.encode("utf-8", "ignore").decode() == v, "policy", "duplicate tag {0!r}"),
         f"tag must be 1..{MAX_TAG_BYTES} bytes, got {{0!r}}"),
        ("weight", 1, _then(_number, lambda v, ids, f: v > 0, "tag {2[tag]!r} weight must be positive, got {1}"),
         _NAN),
    ),
}
# One table per event kind, an open_session's also by its mode and by whether it names a staged
# object, whose replica at its ``src`` gateway gives its size.  None's reports an unknown kind.
_TIME = ("time_us", None, _NATURAL, _NONNEGATIVE)
_STAGED = (("gateway", None, _in("gateways"), _GATEWAY),
           ("object", "", _new(_NAME, "nodes", "name {0!r} collides with a node name"), _OBJECT[3]))
_SESSION = (
    _TIME,
    ("id", None, _new(_TEXT, "sessions", "duplicate session id {0!r}"), "open_session needs a string id"),
    ("session_mode", "unicast", lambda v, ids, f: v in ("unicast", "pubsub"), "must be unicast or pubsub, got {0!r}"),
)
_SOURCE = {
    False: (("bytes", None, _COUNT, _POSITIVE), ("src", None, _in("nodes"), _ENDPOINT)),
    True: (_OBJECT, ("src", None, _then(_in("nodes"), _in("gateways"), _GATEWAY), _ENDPOINT)),
}
_RECEIVER = (_then(_in("nodes"), lambda v, ids, f: v != f["src"], "session {2[id]!r} sends from {2[src]!r} to itself"),
             _ENDPOINT)
_DELIVERY = {  # by whether the session is pubsub
    False: ("dst", None, *_RECEIVER),
    True: ("subscribers", [], lambda v, ids, f: _IDS(v, ids, f) and v != [], "pubsub session needs subscribers",
           _RECEIVER),
}
_FLOW = (_TAG, _K_PATHS, ("rate_cap_mbps", None, lambda v, ids, f: v is None or _POSITIVE_NUMBER(v, ids, f), _NAN))
EVENTS: dict[Any, tuple] = {
    ("open_session", pubsub, staged): _table(*_SESSION, *_SOURCE[staged], delivery, *_FLOW)
    for pubsub, delivery in _DELIVERY.items() for staged in (False, True)
}
EVENTS.update({
    "stage": _table(_TIME, *_STAGED, ("size_bytes", None, _COUNT, _POSITIVE), ("ttl_us", None, _COUNT, _POSITIVE)),
    "subscribe": _table(_TIME, *_STAGED, _TAG, _K_PATHS),
    "link_down": _table(_TIME, ("link", None, _in("links"), "unknown link {0!r}")),
    None: _table(_TIME, ("kind", None, lambda v, ids, f: v in EVENT_KINDS,
                         f"must be one of {EVENT_KINDS}, got {{0!r}}")),
})
CONFIGS = {  # the config object of each kept entry, made for a valid scenario only
    "domains": lambda d: DomainCfg(d["id"], tuple(d["attachments"])),
    "links": lambda l: LinkCfg(
        l["id"], l["domain"], tuple(l["endpoints"]), as_fraction(l["capacity_mbps"]), l["latency_us"],
        float(l["loss_prob"]), as_fraction(l["background_utilization"]), as_fraction(l["cost"])),
    "anchors": lambda a: AnchorCfg(a["name"], tuple(PortCfg(**port) for port in a["ports"]),
                                   tuple(PeerCfg(p["anchor"], p["domain"]) for p in a["peers"]), a["gateway"]),
    "hosts": lambda h: HostCfg(h["name"], h["anchor"], PortCfg(**h["port"])),
    "policy": lambda p: ScienceDomainTag(p["tag"], p["weight"]),
}


def _event_table(entry: Any) -> tuple:
    kind = entry.get("kind") if type(entry) is dict else None
    if kind == "open_session":
        return EVENTS[kind, entry.get("session_mode") == "pubsub", entry.get("object") is not None]
    return EVENTS[kind if type(kind) is str and kind in EVENTS else None]


def _walk(table: tuple, entry: Any, where: tuple, index: "_Index", outer: Optional[dict] = None) -> Optional[dict]:
    """``entry``'s fields, defaults filled in, if they pass every row of ``table``; else
    None, once the first that fails is reported.  ``fields`` start with ``outer``'s."""
    if type(entry) is not dict:
        return index.bad(where, "must be an object, got {0!r}", entry)
    fields = {} if outer is None else dict(outer)
    ids = index.ids
    for key, default, test, message, each in table:
        value = fields[key] if key in fields else entry.get(key, default)
        verdict = test(value, ids, fields)
        if verdict is not True:
            return index.bad((*where, key), verdict or message, value, fields)
        if each is not None:
            if type(each[0]) is not tuple:  # a (test, message) pair: each id of a list
                for j, element in enumerate(value):
                    if (verdict := each[0](element, ids, fields)) is not True:
                        index.bad((*where, key, j), verdict or each[1], element, fields)
            elif type(value) is not dict:  # a list of entries: those that fail are left out
                value = [kept for j, item in enumerate(value) if (kept := _walk(each, item, (*where, key, j), index))]
            elif (value := _walk(each, value, (*where, key), index)) is None:  # a nested entry: this one fails with it
                return None
        fields[key] = value
    return fields


class _Index:
    """What the kept entries declare, by namespace; the event script; the kept anchors."""

    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []
        self.script: list[EventCfg] = []
        self.anchors: list[tuple[tuple, dict[str, Any]]] = []  # each kept anchor's place and fields
        # by section, id -> its entry's fields; (domain, attachment) pairs declared and claimed by a
        # port; each anchor's port domains; and the anchor pairs a peering joins
        self.ids: dict[str, Any] = dict({section: {} for section in TABLES}, nodes=set(), gateways=set(),
                                        sessions=set(), attached=set(), claimed=set(), ports={}, pairs=set())

    def bad(self, where: tuple, message: str, value: Any = None, fields: Any = None) -> None:
        """Report at ``where``: ``("anchors", 2, "ports", 0)`` is ``anchors[2].ports[0]``."""
        path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in where)[1:]
        self.diags.append(Diagnostic(path, message.format(value, _number(value) and as_fraction(value), fields)))

    def keep(self, section: str, where: tuple, f: dict[str, Any], entry: dict[str, Any]) -> None:
        """Declare what an entry that passed its table declares; its id is its first field."""
        if section == "events":
            if entry["kind"] == "open_session":
                self.ids["sessions"].add(f["id"])
            fields = {key: value for key, value in entry.items() if key not in ("time_us", "kind")}
            return self.script.append(EventCfg(f["time_us"], entry["kind"], fields))
        self.ids[section][f[TABLES[section][0][0]]] = f
        if section in ("anchors", "hosts"):
            self.ids["nodes"].add(f["name"])
        if section == "anchors":
            self.anchors.append((where, f))
            self.ids["ports"][f["name"]] = {port["domain"] for port in f["ports"]}
            if f["gateway"]:
                self.ids["gateways"].add(f["name"])


def _build(raw: Any) -> tuple[Optional[ScenarioConfig], list[Diagnostic]]:
    if type(raw) is not dict:
        return None, [Diagnostic("$", "top level must be an object")]
    index, top = _Index(), {}
    for row in SCENARIO:  # one at a time, so that each field of the wrong kind is reported
        top.update(_walk((row,), raw, (), index) or {})
    for section in SECTIONS:
        table = TABLES.get(section)
        for i, entry in enumerate(top.get(section, ())):
            fields = _walk(table or _event_table(entry), entry, (section, i), index)
            if fields is not None:
                index.keep(section, (section, i), fields, entry)
        if section == "anchors":  # a peer may name an anchor declared after its own
            for where, anchor in index.anchors:
                for j, peer in enumerate(anchor["peers"]):
                    _walk(PEER, peer, (*where, "peers", j), index, anchor)
    if index.diags:
        return None, index.diags
    config = ScenarioConfig(
        name=str(raw.get("name", "unnamed")), seed=top["seed"], mode=top["mode"], horizon_us=top["horizon_us"],
        events=tuple(sorted(index.script, key=lambda e: e.time_us)), raw=raw,
        **{section: tuple(map(make, index.ids[section].values())) for section, make in CONFIGS.items()},
    )
    return config, []
