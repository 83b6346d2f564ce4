"""Scenario configuration: the documented JSON schema, loading, validation.

A scenario declares the substrate (opaque domains, their attachment points,
capacity/latency/loss links inside each domain), the overlay (anchors with
ports and peerings, hosts with a home anchor), the science-domain policy
table, and a timed event script.  Field names here are a frozen external
interface: the shipped fixtures and the metrics reports use them verbatim.

Validation never raises: every problem becomes a ``Diagnostic``.  Each
section has a field table (``TABLES``, and ``EVENTS`` per event kind) with a
row per check of a field: its name, its default, a test of its kind and
range, and the message when the test fails.  One walker, ``_walk``, checks
an object against its table and reports the first field that fails; the
entry is then left out.  Sections are checked in file order, so a row can
also test an id against those that earlier entries declared (``_in``).
``_Index`` keeps those ids and states the rules that a row cannot: unique
attachments per domain, link endpoints and ports on declared attachments,
peerings (one per anchor pair, through a domain where both anchors have a
port), a host's home anchor, policy weights and a session's subscribers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .addressing import AddressKind, ScienceDomainTag, parse_address

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
# A row is (field, default, test, message): ``test(value, ids)`` must hold for
# the field's value, or for ``default`` when the field is missing; ``ids`` holds
# what the entries kept so far declare.  ``message`` is formatted with the value
# and, for a number, its exact fraction.  An integer is a JSON integer and a
# number a JSON integer or float, never a boolean; an id is any JSON value but
# a list or an object.


def _fraction(number: Any) -> Fraction:
    """Exact, of a float's shortest decimal text."""
    return Fraction(number) if type(number) is int else Fraction(str(number))


def _number(value: Any, ids: Any = None) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


def _integer(low: float = -math.inf) -> Any:
    return lambda value, ids: type(value) is int and value >= low


def _of_type(kind: type) -> Any:
    return lambda value, ids: type(value) is kind


def _text(value: Any, ids: Any) -> bool:
    return type(value) is str and value != ""


def _id(value: Any, ids: Any = None) -> bool:
    return type(value) not in (list, dict)


def _ids(value: Any, ids: Any) -> bool:
    return type(value) is list and all(type(item) not in (list, dict) for item in value)


def _name(kind: AddressKind) -> Any:
    def test(value: Any, ids: Any) -> bool:
        try:
            return type(value) is str and bool(parse_address(value, kind))
        except ValueError:  # an AddressError, or a lone surrogate that UTF-8 cannot encode
            return False

    return test


def _one_of(options: tuple[str, ...]) -> Any:
    return lambda value, ids: value in options


def _in(namespace: str, new: bool = False) -> Any:
    """An id that an entry kept so far declared in ``namespace``, or with
    ``new``, one that none did.  Every declared id is a string."""
    if new:
        return lambda value, ids: value not in ids[namespace]
    return lambda value, ids: type(value) is str and value in ids[namespace]


def _attached(ids: dict[str, Any], domain: Any, attachment: Any) -> bool:
    """Whether a kept domain declares the attachment."""
    return domain in ids["domains"] and attachment in ids["domains"][domain].attachments


SECTIONS = ("domains", "links", "anchors", "hosts", "policy", "events")
_POSITIVE = "must be a positive integer, got {0!r}"
_NONNEGATIVE = "must be a nonnegative integer, got {0!r}"
_LIST = "must be a list, got {0!r}"
_NODE = (
    ("name", "", _name(AddressKind.ENDPOINT), "not a valid L5 name: {0!r}"),
    ("name", "", _in("nodes", new=True), "duplicate node name {0!r}"),
)
_TAG = ("tag", None, _in("policy"), "tag {0!r} not in policy")
_K_PATHS = ("k_paths", 2, _integer(1), _POSITIVE)
_STAGED = (
    ("gateway", None, _in("gateways"), "{0!r} is not a gateway anchor"),
    ("object", "", _name(AddressKind.DATA), "not a valid data name: {0!r}"),
    ("object", "", _in("nodes", new=True), "name {0!r} collides with a node name"),
)

SCENARIO = (
    ("seed", 0, _integer(), "must be an integer, got {0!r}"),
    ("mode", MODE_L5, _one_of(MODES), f"must be one of {MODES}, got {{0!r}}"),
    ("horizon_us", 10_000_000, _integer(1), _POSITIVE),
    *((section, [], _of_type(list), _LIST) for section in SECTIONS),
)
TABLES = {
    "domains": (
        ("id", None, _text, "missing or not a string"),
        ("id", None, _in("domains", new=True), "duplicate domain id {0!r}"),
        ("attachments", [], _ids, "must be a list of ids, got {0!r}"),
    ),
    "links": (
        ("id", None, _text, "missing or not a string"),
        ("id", None, _in("links", new=True), "duplicate link id {0!r}"),
        ("domain", None, _in("domains"), "unknown domain {0!r}"),
        ("endpoints", [], lambda v, ids: _ids(v, ids) and len(v) == 2 and v[0] != v[1],
         "must name two distinct attachments"),
        ("capacity_mbps", None, _number, "not a number: {0!r}"),
        ("capacity_mbps", None, lambda v, ids: v > 0, "must be positive, got {1}"),
        ("latency_us", 0, _integer(0), _NONNEGATIVE),
        ("loss_prob", 0.0, lambda v, ids: _number(v) and 0 <= v < 1, "must lie in [0, 1), got {0!r}"),
        ("background_utilization", 0, _number, "not a number"),
        ("background_utilization", 0, lambda v, ids: 0 <= v < 1, "must lie in [0, 1), got {1}"),
        ("cost", 1, _number, "not a number"),
        ("cost", 1, lambda v, ids: v >= 0, "must be nonnegative, got {1}"),
    ),
    "anchors": (
        *_NODE,
        ("ports", [], _of_type(list), _LIST),
        ("peers", [], _of_type(list), _LIST),
        ("gateway", False, _of_type(bool), "must be a boolean, got {0!r}"),
    ),
    "hosts": (*_NODE, ("anchor", None, _in("anchors"), "unknown anchor {0!r}")),
    "policy": (
        ("tag", None, _text, "missing or not a string"),
        ("tag", None, _in("policy", new=True), "duplicate tag {0!r}"),
    ),
}
PORT = (("domain", None, _id, "must be a string, got {0!r}"), ("attachment", None, _id, "must be a string, got {0!r}"))
# One table per event kind; an open_session's also by its mode and by whether it
# names a staged object, whose replica at the ``src`` gateway then gives its size
# in place of ``bytes``.  The table of None reports an unknown kind.
_TIME = ("time_us", None, _integer(0), _NONNEGATIVE)
_SESSION = (
    _TIME,
    ("id", None, _text, "open_session needs a string id"),
    ("id", None, _in("sessions", new=True), "duplicate session id {0!r}"),
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
_STAGED_SOURCE = (_STAGED[1], ("src", None, _in("gateways"), "{0!r} is not a gateway anchor"))
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


def _walk(table: tuple, entry: Any, path: str, index: "_Index") -> Optional[dict[str, Any]]:
    """``entry``'s fields, defaults filled in, if they pass every row of
    ``table``; else None, once the first that fails is reported."""
    if type(entry) is not dict:
        index.bad(path, f"must be an object, got {entry!r}")
        return None
    fields: dict[str, Any] = {}
    ids = index.ids
    for key, default, test, message in table:
        value = entry.get(key, default)
        if not test(value, ids):
            index.bad(f"{path}.{key}" if path else key, message.format(value, _number(value) and _fraction(value)))
            return None
        fields[key] = value
    return fields


# -- rules across entries ---------------------------------------------------------------


class _Index:
    """The entries kept so far, by section and id, and the rules that a row
    cannot state: one method per section, called with the fields of each entry
    that passed its table."""

    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []
        self.ids: dict[str, Any] = {section: {} for section in TABLES}
        # node names, gateway anchors, session ids and claimed (domain, attachment) pairs
        self.ids.update(nodes=set(), gateways=set(), sessions=set(), claimed=set())
        self.script: list[EventCfg] = []
        self.peerings: list[tuple[str, str, PeerCfg]] = []

    def bad(self, path: str, message: str) -> None:
        self.diags.append(Diagnostic(path, message))

    def port(self, path: str, entry: Any) -> Optional[PortCfg]:
        """The port, if it names a declared attachment that no port claimed
        yet; it then claims it."""
        port = _walk(PORT, entry, path, self)
        if port is None:
            return None
        key = (port["domain"], port["attachment"])
        if not _attached(self.ids, *key):
            self.bad(path, f"unknown attachment {key[0]!r}/{key[1]!r}")
        elif key in self.ids["claimed"]:
            self.bad(path, f"attachment {key[0]!r}/{key[1]!r} already claimed")
        else:
            self.ids["claimed"].add(key)
            return PortCfg(*key)
        return None

    def domains(self, path: str, d: dict[str, Any], entry: dict[str, Any]) -> None:
        if len(set(d["attachments"])) < len(d["attachments"]):
            self.bad(path + ".attachments", "attachment ids must be unique within the domain")
        self.ids["domains"][d["id"]] = DomainCfg(d["id"], tuple(d["attachments"]))

    def links(self, path: str, l: dict[str, Any], entry: dict[str, Any]) -> None:
        undeclared = [att for att in l["endpoints"] if not _attached(self.ids, l["domain"], att)]
        for att in undeclared:
            self.bad(path + ".endpoints", f"attachment {att!r} not declared in domain {l['domain']!r}")
        if not undeclared:
            self.ids["links"][l["id"]] = LinkCfg(
                l["id"], l["domain"], tuple(l["endpoints"]), _fraction(l["capacity_mbps"]), l["latency_us"],
                float(l["loss_prob"]), _fraction(l["background_utilization"]), _fraction(l["cost"]),
            )

    def anchors(self, path: str, a: dict[str, Any], entry: dict[str, Any]) -> None:
        ports = [self.port(f"{path}.ports[{j}]", port) for j, port in enumerate(a["ports"])]
        if not any(ports):
            return self.bad(path + ".ports", "anchor needs at least one port")
        peers = []
        for j, peer in enumerate(a["peers"]):
            if type(peer) is dict and all(key in peer and _id(peer[key]) for key in ("anchor", "domain")):
                peers.append(PeerCfg(peer["anchor"], peer["domain"]))
                self.peerings.append((f"{path}.peers[{j}]", a["name"], peers[-1]))
            else:
                self.bad(f"{path}.peers[{j}]", 'must be {"anchor": name, "domain": id}')
        self.ids["anchors"][a["name"]] = AnchorCfg(a["name"], tuple(filter(None, ports)), tuple(peers), a["gateway"])
        self.ids["nodes"].add(a["name"])
        if a["gateway"]:
            self.ids["gateways"].add(a["name"])

    def peers(self) -> None:
        """One peering per anchor pair, through a domain where both have a port."""
        anchors, pairs = self.ids["anchors"], set()
        for path, name, peer in self.peerings:
            other = anchors.get(peer.anchor)
            if other is None:
                self.bad(path + ".anchor", f"unknown anchor {peer.anchor!r}")
            elif peer.anchor == name:
                self.bad(path + ".anchor", "anchor cannot peer with itself")
            elif peer.domain not in self.ids["domains"]:
                self.bad(path + ".domain", f"unknown domain {peer.domain!r}")
            elif frozenset((name, peer.anchor)) in pairs and PeerCfg(name, peer.domain) not in other.peers:
                self.bad(path, f"at most one peering per anchor pair ({name!r}, {peer.anchor!r})")
            else:
                pairs.add(frozenset((name, peer.anchor)))
                if not (_has_port(anchors[name], peer.domain) and _has_port(other, peer.domain)):
                    self.bad(path, f"both anchors need a port in domain {peer.domain!r}")

    def hosts(self, path: str, h: dict[str, Any], entry: dict[str, Any]) -> None:
        port = self.port(path + ".port", entry.get("port", {}))
        if port is None:
            return
        if not _has_port(self.ids["anchors"][h["anchor"]], port.domain):
            return self.bad(path + ".port", f"home anchor {h['anchor']!r} has no port in domain {port.domain!r}")
        self.ids["hosts"][h["name"]] = HostCfg(h["name"], h["anchor"], port)
        self.ids["nodes"].add(h["name"])

    def policy(self, path: str, p: dict[str, Any], entry: dict[str, Any]) -> None:
        weight = entry.get("weight", 1)
        try:
            if not _number(weight):
                raise ValueError(f"expected a number, got {weight!r}")
            self.ids["policy"][p["tag"]] = ScienceDomainTag(p["tag"], _fraction(weight))
        except ValueError as exc:  # ScienceDomainTag checks the tag's length and the weight's sign
            self.bad(path, str(exc))

    def events(self, path: str, e: dict[str, Any], entry: dict[str, Any]) -> None:
        if "subscribers" in e:
            unknown = [s for s in e["subscribers"] if s not in self.ids["nodes"]]
            if unknown:
                return self.bad(path + ".subscribers", f"unknown endpoints {unknown!r}")
        if entry["kind"] == "open_session":
            self.ids["sessions"].add(e["id"])
        fields = dict(entry)
        del fields["time_us"], fields["kind"]
        self.script.append(EventCfg(e["time_us"], entry["kind"], fields))


def _has_port(anchor: AnchorCfg, domain: Any) -> bool:
    return any(port.domain == domain for port in anchor.ports)


def _build(raw: Any) -> tuple[Optional[ScenarioConfig], list[Diagnostic]]:
    if type(raw) is not dict:
        return None, [Diagnostic("$", "top level must be an object")]
    index, top = _Index(), {}
    for row in SCENARIO:  # one at a time, so that each field of the wrong kind is reported
        top.update(_walk((row,), raw, "", index) or {})
    for section in SECTIONS:
        keep = getattr(index, section)
        for i, entry in enumerate(top.get(section, ())):
            path = f"{section}[{i}]"
            fields = _walk(_event_table(entry) if section == "events" else TABLES[section], entry, path, index)
            if fields is not None:
                keep(path, fields, entry)
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
        **{section: tuple(index.ids[section].values()) for section in TABLES},
    )
    return config, []
