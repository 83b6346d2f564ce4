"""Scenario configuration: the documented JSON schema, loading, validation.

A scenario declares the substrate (opaque domains, their attachment points,
capacity/latency/loss links inside each domain), the overlay (anchors with
ports and peerings, hosts with a home anchor), the science-domain policy
table, and a timed event script.  Field names here are a frozen external
interface: the shipped fixtures and the metrics reports use them verbatim.

Validation never raises: every problem becomes a ``Diagnostic``.  Each
section has a field table (``TABLES``, and ``EVENTS`` per event kind) with
one row per field: its name, its default, a test of its kind and range on
the raw JSON value, and the message when the test fails.  One walker,
``_walk``, reports the first field that fails and leaves the entry out.
Sections are checked in file order, so a row can also test an id against
those that earlier entries declared (``_in``, ``_new``).  ``_Index`` keeps
those ids, and the sets that make each rule a row cannot state one lookup:
unique attachments per domain, link endpoints and ports on declared
attachments, peerings (one per anchor pair, through a domain where both
anchors have a port), a host's home anchor, policy weights and subscribers.
Paths are formatted for failures only, config objects for a valid scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .addressing import ScienceDomainTag, as_fraction, is_name

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
        text = fh.read()
    return parse_scenario(text)


def parse_scenario(text: str) -> ScenarioConfig:
    config, diagnostics = _build(_decode(text))
    if diagnostics:
        raise ConfigInvalid(diagnostics)
    return config


def validate_text(text: str) -> list[Diagnostic]:
    """Diagnostics for a config, empty when it is acceptable."""
    try:
        raw = _decode(text)
    except ParseError as exc:
        return [Diagnostic("$", f"parse error at {exc}")]
    return _build(raw)[1]


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or nesting too deep
        raise ParseError(str(exc), 1, 1) from exc


# -- field tables -----------------------------------------------------------------------
# A row is (field, default, test, message), one per field: ``test(value, ids)`` is
# True when the field's value, or ``default`` when the field is missing, passes;
# ``ids`` holds what the entries kept so far declare.  A failing test returns False
# for ``message``, or, when it checks a kind and then that the id is new or the
# number in range (``_new``, ``_then``), that second check's own message.  A
# message is formatted with the value and, for a number, its exact fraction.  An
# integer is a JSON integer and a number a JSON integer or float, never a
# boolean; an id is any JSON value but a list or an object.

_CONTAINERS = frozenset((list, dict))
_PEER = frozenset(("anchor", "domain"))  # the keys of a peer entry


def _number(value: Any, ids: Any = None) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


def _integer(low: float = -math.inf) -> Any:
    return lambda value, ids: type(value) is int and value >= low


def _of_type(kind: type) -> Any:
    return lambda value, ids: type(value) is kind


def _text(value: Any, ids: Any) -> bool:
    return type(value) is str and value != ""


def _id(value: Any, ids: Any = None) -> bool:
    return type(value) not in _CONTAINERS


def _ids(value: Any, ids: Any) -> bool:
    return type(value) is list and _CONTAINERS.isdisjoint(map(type, value))


def _name(value: Any, ids: Any) -> bool:
    return type(value) is str and is_name(value)


def _one_of(options: tuple[str, ...]) -> Any:
    return lambda value, ids: value in options


def _in(namespace: str) -> Any:
    """An id that an entry kept so far declared in ``namespace``; every declared id is a string."""
    return lambda value, ids: type(value) is str and value in ids[namespace]


def _new(test: Any, namespace: str, message: str) -> Any:
    """``test``, then an id that no entry kept so far declared in ``namespace``."""
    return lambda value, ids: test(value, ids) and (value not in ids[namespace] or message)


def _then(test: Any, within: Any, message: str) -> Any:
    """``test``, then ``within(value)``, which fails with ``message``."""
    return lambda value, ids: test(value, ids) and (within(value) or message)


SECTIONS = ("domains", "links", "anchors", "hosts", "policy", "events")
_POSITIVE = "must be a positive integer, got {0!r}"
_NONNEGATIVE = "must be a nonnegative integer, got {0!r}"
_LIST = "must be a list, got {0!r}"
_NODE = ("name", "", _new(_name, "nodes", "duplicate node name {0!r}"), "not a valid L5 name: {0!r}")
_TAG = ("tag", None, _in("policy"), "tag {0!r} not in policy")
_K_PATHS = ("k_paths", 2, _integer(1), _POSITIVE)
_OBJECT = ("object", "", _name, "not a valid data name: {0!r}")
_STAGED = (
    ("gateway", None, _in("gateways"), "{0!r} is not a gateway anchor"),
    ("object", "", _new(_name, "nodes", "name {0!r} collides with a node name"), _OBJECT[3]),
)

SCENARIO = (
    ("seed", 0, _integer(), "must be an integer, got {0!r}"),
    ("mode", MODE_L5, _one_of(MODES), f"must be one of {MODES}, got {{0!r}}"),
    ("horizon_us", 10_000_000, _integer(1), _POSITIVE),
    *((section, [], _of_type(list), _LIST) for section in SECTIONS),
)
TABLES = {
    "domains": (
        ("id", None, _new(_text, "domains", "duplicate domain id {0!r}"), "missing or not a string"),
        ("attachments", [], _ids, "must be a list of ids, got {0!r}"),
    ),
    "links": (
        ("id", None, _new(_text, "links", "duplicate link id {0!r}"), "missing or not a string"),
        ("domain", None, _in("domains"), "unknown domain {0!r}"),
        ("endpoints", [], lambda v, ids: _ids(v, ids) and len(v) == 2 and v[0] != v[1],
         "must name two distinct attachments"),
        ("capacity_mbps", None, _then(_number, lambda v: v > 0, "must be positive, got {1}"), "not a number: {0!r}"),
        ("latency_us", 0, _integer(0), _NONNEGATIVE),
        ("loss_prob", 0.0, lambda v, ids: _number(v) and 0 <= v < 1, "must lie in [0, 1), got {0!r}"),
        ("background_utilization", 0, _then(_number, lambda v: 0 <= v < 1, "must lie in [0, 1), got {1}"),
         "not a number"),
        ("cost", 1, _then(_number, lambda v: v >= 0, "must be nonnegative, got {1}"), "not a number"),
    ),
    "anchors": (
        _NODE,
        ("ports", [], _of_type(list), _LIST),
        ("peers", [], _of_type(list), _LIST),
        ("gateway", False, _of_type(bool), "must be a boolean, got {0!r}"),
    ),
    "hosts": (_NODE, ("anchor", None, _in("anchors"), "unknown anchor {0!r}")),
    "policy": (("tag", None, _new(_text, "policy", "duplicate tag {0!r}"), "missing or not a string"),),
}
PORT = (("domain", None, _id, "must be a string, got {0!r}"), ("attachment", None, _id, "must be a string, got {0!r}"))
# One table per event kind; an open_session's also by its mode and by whether it
# names a staged object, whose replica at the ``src`` gateway then gives its size
# in place of ``bytes``.  The table of None reports an unknown kind.
_TIME = ("time_us", None, _integer(0), _NONNEGATIVE)
_SESSION = (
    _TIME,
    ("id", None, _new(_text, "sessions", "duplicate session id {0!r}"), "open_session needs a string id"),
    ("session_mode", "unicast", _one_of(("unicast", "pubsub")), "must be unicast or pubsub, got {0!r}"),
    ("src", None, _in("nodes"), "unknown endpoint {0!r}"),
)
_DELIVERY = {
    "unicast": ("dst", None, _in("nodes"), "unknown endpoint {0!r}"),
    "pubsub": ("subscribers", [], lambda v, ids: _ids(v, ids) and v != [], "pubsub session needs subscribers"),
}
_FLOW = (
    _TAG,
    _K_PATHS,
    ("rate_cap_mbps", None, lambda v, ids: v is None or _number(v) and v > 0, "must be a positive number, got {0!r}"),
)
_BYTES = ("bytes", None, _integer(1), _POSITIVE)
_STAGED_SOURCE = (_OBJECT, ("src", None, _in("gateways"), "{0!r} is not a gateway anchor"))
EVENTS: dict[Any, tuple] = {
    ("open_session", mode, staged): (*_SESSION, delivery, *_FLOW, *(_STAGED_SOURCE if staged else (_BYTES,)))
    for mode, delivery in _DELIVERY.items() for staged in (False, True)
}
EVENTS.update({
    "stage": (_TIME, *_STAGED, ("size_bytes", None, _integer(1), _POSITIVE), ("ttl_us", None, _integer(1), _POSITIVE)),
    "subscribe": (_TIME, *_STAGED, _TAG, _K_PATHS),
    "link_down": (_TIME, ("link", None, _in("links"), "unknown link {0!r}")),
    None: (_TIME, ("kind", None, _one_of(EVENT_KINDS), f"must be one of {EVENT_KINDS}, got {{0!r}}")),
})


def _event_table(entry: Any) -> tuple:
    kind = entry.get("kind") if type(entry) is dict else None
    if kind == "open_session":
        mode = "pubsub" if entry.get("session_mode") == "pubsub" else "unicast"
        return EVENTS[kind, mode, entry.get("object") is not None]
    return EVENTS[kind if type(kind) is str and kind in EVENTS else None]


def _walk(table: tuple, entry: Any, where: tuple, index: "_Index") -> Optional[dict[str, Any]]:
    """``entry``'s fields, defaults filled in, if they pass every row of
    ``table``; else None, once the first that fails is reported."""
    if type(entry) is not dict:
        return index.bad(where, f"must be an object, got {entry!r}")
    fields: dict[str, Any] = {}
    ids = index.ids
    for key, default, test, message in table:
        value = entry.get(key, default)
        verdict = test(value, ids)
        if verdict is not True:
            return index.bad((*where, key), (verdict or message).format(value, _number(value) and as_fraction(value)))
        fields[key] = value
    return fields


# -- rules across entries ---------------------------------------------------------------


class _Index:
    """The entries kept so far, by section and id, and the rules that a row
    cannot state: one method per section, called with the place and the
    fields of each entry that passed its table."""

    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []
        self.ids: dict[str, Any] = {section: {} for section in TABLES}  # id -> the maker of its config object
        self.ids.update(nodes=set(), gateways=set(), sessions=set())
        # (domain, attachment) pairs declared and claimed, and each kept anchor's port domains
        self.attached, self.claimed = set(), set()
        self.port_domains: dict[str, set[str]] = {}
        self.script: list[EventCfg] = []
        # each peer entry's place, anchor, peer and domain; and each (anchor, peer, domain)
        self.peerings: list[tuple[tuple, str, Any, Any]] = []
        self.declared: set[tuple[str, Any, Any]] = set()

    def bad(self, where: tuple, message: str) -> None:
        """Report at ``where``: ``("anchors", 2, "ports", 0)`` is ``anchors[2].ports[0]``."""
        path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in where)[1:]
        self.diags.append(Diagnostic(path, message))

    def port(self, where: tuple, entry: Any) -> Optional[tuple[str, Any]]:
        """The port's (domain, attachment), if it names a declared attachment
        that no port claimed yet; it then claims it."""
        key = (entry.get("domain"), entry.get("attachment")) if type(entry) is dict else None
        if key is None or type(key[0]) in _CONTAINERS or type(key[1]) in _CONTAINERS:
            return _walk(PORT, entry, where, self)  # None, once it reports what fails
        if key not in self.attached:
            self.bad(where, f"unknown attachment {key[0]!r}/{key[1]!r}")
        elif key in self.claimed:
            self.bad(where, f"attachment {key[0]!r}/{key[1]!r} already claimed")
        else:
            self.claimed.add(key)
            return key
        return None

    def domains(self, where: tuple, d: dict[str, Any], entry: dict[str, Any]) -> None:
        unique = set(d["attachments"])
        if len(unique) < len(d["attachments"]):
            self.bad((*where, "attachments"), "attachment ids must be unique within the domain")
        self.ids["domains"][d["id"]] = lambda: DomainCfg(d["id"], tuple(d["attachments"]))
        self.attached.update((d["id"], att) for att in unique)

    def links(self, where: tuple, l: dict[str, Any], entry: dict[str, Any]) -> None:
        undeclared = [att for att in l["endpoints"] if (l["domain"], att) not in self.attached]
        for att in undeclared:
            self.bad((*where, "endpoints"), f"attachment {att!r} not declared in domain {l['domain']!r}")
        if not undeclared:
            self.ids["links"][l["id"]] = lambda: LinkCfg(
                l["id"], l["domain"], tuple(l["endpoints"]), as_fraction(l["capacity_mbps"]), l["latency_us"],
                float(l["loss_prob"]), as_fraction(l["background_utilization"]), as_fraction(l["cost"]),
            )

    def anchors(self, where: tuple, a: dict[str, Any], entry: dict[str, Any]) -> None:
        ports = [self.port((*where, "ports", j), port) for j, port in enumerate(a["ports"])]
        if not any(ports):
            return self.bad((*where, "ports"), "anchor needs at least one port")
        name, peers = a["name"], []
        for j, peer in enumerate(a["peers"]):
            if type(peer) is dict and _PEER <= peer.keys() and _id(peer["anchor"]) and _id(peer["domain"]):
                peers.append((peer["anchor"], peer["domain"]))
                self.peerings.append(((*where, "peers", j), name, *peers[-1]))
                self.declared.add((name, *peers[-1]))
            else:
                self.bad((*where, "peers", j), 'must be {"anchor": name, "domain": id}')
        kept = tuple(filter(None, ports))
        self.ids["anchors"][name] = lambda: AnchorCfg(
            name, tuple(PortCfg(*port) for port in kept), tuple(PeerCfg(*peer) for peer in peers), a["gateway"])
        self.port_domains[name] = {domain for domain, _ in kept}
        self.ids["nodes"].add(name)
        if a["gateway"]:
            self.ids["gateways"].add(name)

    def peers(self) -> None:
        """One peering per anchor pair, through a domain where both have a port."""
        anchors, pairs = self.ids["anchors"], set()
        for where, name, other, domain in self.peerings:
            pair = frozenset((name, other))
            if other not in anchors:
                self.bad((*where, "anchor"), f"unknown anchor {other!r}")
            elif other == name:
                self.bad((*where, "anchor"), "anchor cannot peer with itself")
            elif domain not in self.ids["domains"]:
                self.bad((*where, "domain"), f"unknown domain {domain!r}")
            elif pair in pairs and (other, name, domain) not in self.declared:
                self.bad(where, f"at most one peering per anchor pair ({name!r}, {other!r})")
            else:
                pairs.add(pair)
                if domain not in self.port_domains[name] or domain not in self.port_domains[other]:
                    self.bad(where, f"both anchors need a port in domain {domain!r}")

    def hosts(self, where: tuple, h: dict[str, Any], entry: dict[str, Any]) -> None:
        port = self.port((*where, "port"), entry.get("port", {}))
        if port is None:
            return
        if port[0] not in self.port_domains[h["anchor"]]:
            return self.bad((*where, "port"), f"home anchor {h['anchor']!r} has no port in domain {port[0]!r}")
        self.ids["hosts"][h["name"]] = lambda: HostCfg(h["name"], h["anchor"], PortCfg(*port))
        self.ids["nodes"].add(h["name"])

    def policy(self, where: tuple, p: dict[str, Any], entry: dict[str, Any]) -> None:
        weight = entry.get("weight", 1)
        try:
            if not _number(weight):
                raise ValueError(f"expected a number, got {weight!r}")
            tag = ScienceDomainTag(p["tag"], weight)
            self.ids["policy"][p["tag"]] = lambda: tag
        except ValueError as exc:  # ScienceDomainTag checks the tag's length and the weight's sign
            self.bad(where, str(exc))

    def events(self, where: tuple, e: dict[str, Any], entry: dict[str, Any]) -> None:
        if "subscribers" in e:
            unknown = [s for s in e["subscribers"] if s not in self.ids["nodes"]]
            if unknown:
                return self.bad((*where, "subscribers"), f"unknown endpoints {unknown!r}")
        if "src" in e and e["src"] in (e.get("dst"), *e.get("subscribers", ())):
            return self.bad(where, f"session {e['id']!r} sends from {e['src']!r} to itself")
        if entry["kind"] == "open_session":
            self.ids["sessions"].add(e["id"])
        fields = {key: value for key, value in entry.items() if key not in ("time_us", "kind")}
        self.script.append(EventCfg(e["time_us"], entry["kind"], fields))


def _build(raw: Any) -> tuple[Optional[ScenarioConfig], list[Diagnostic]]:
    if type(raw) is not dict:
        return None, [Diagnostic("$", "top level must be an object")]
    index, top = _Index(), {}
    for row in SCENARIO:  # one at a time, so that each field of the wrong kind is reported
        top.update(_walk((row,), raw, (), index) or {})
    for section in SECTIONS:
        keep, table = getattr(index, section), TABLES.get(section)
        for i, entry in enumerate(top.get(section, ())):
            where = (section, i)
            fields = _walk(table or _event_table(entry), entry, where, index)
            if fields is not None:
                keep(where, fields, entry)
        if section == "anchors":
            index.peers()
    if index.diags:
        return None, index.diags
    config = ScenarioConfig(
        name=str(raw.get("name", "unnamed")),
        seed=top["seed"],
        mode=top["mode"],
        horizon_us=top["horizon_us"],
        events=tuple(sorted(index.script, key=lambda e: e.time_us)),
        raw=raw,
        **{section: tuple(make() for make in index.ids[section].values()) for section in TABLES},
    )
    return config, []
