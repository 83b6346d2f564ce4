"""Per-layer tracing from the outside.

The layers are anchornet's modules.  ``Tracer.install`` wraps each listed
public function or method where the simulator looks it up: on the class for
methods, and on every module that binds a function by name (``simnet``
imports ``water_fill``, ``build_tree``, ``k_disjoint_paths``,
``synth_payload`` and friends directly).  Each call records a span (name,
start, end, parent) in flat arrays kept in memory; a layer's self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Any, Callable, Optional

from anchornet import (
    addressing, allocator, anchor, gateway, pathfinder, pubsub, scenario, session, simnet,
    topology,
)

EVENT_KINDS = {
    "LsaFlood": "lsa",
    "LinkHop": "hop",
    "NodeArrival": "arrival",
    "SessionWake": "wake",
    "ScenarioAction": "action",
    "GatewaySweep": "sweep",
}

Observer = Callable[[Any, tuple], None]


class Tracer:
    """Span recorder plus the wrapping of anchornet's layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.step_kind: dict[int, str] = {}
        self.counts: Counter[str] = Counter()
        self.queue_depth_max = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, observe: Optional[Observer]) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _patch(self, owners: tuple[Any, ...], attr: str, name: str,
               observe: Optional[Observer] = None) -> None:
        original = getattr(owners[0], attr)
        wrapper = self._wrap(original, name, observe)
        for owner in owners:
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` restores them."""
        count = self.counts

        def popped(result: Any, args: tuple) -> None:
            kind = EVENT_KINDS[type(result[2]).__name__]
            count["simnet.events." + kind] += 1
            self.step_kind[self._stack[-1]] = kind

        def pushed(result: Any, args: tuple) -> None:
            self.queue_depth_max = max(self.queue_depth_max, len(args[0]))

        def received(result: Any, args: tuple) -> None:
            if result[1]:
                count["topology.receive_flooded"] += 1

        def synthesized(result: Any, args: tuple) -> None:
            count["gateway.synth_bytes"] += len(result)

        patch = self._patch
        patch((scenario,), "parse_scenario", "scenario.parse")
        patch((addressing.ResolverTable,), "register", "addressing.register")
        patch((addressing.ResolverTable,), "resolve", "addressing.resolve")
        patch((simnet.Simulation,), "__init__", "simnet.init")
        patch((simnet.Simulation,), "step", "simnet.step")
        patch((simnet.Simulation,), "transmit", "simnet.transmit")
        patch((simnet.EventQueue,), "push", "simnet.queue_push", pushed)
        patch((simnet.EventQueue,), "pop", "simnet.queue_pop", popped)
        patch((session.SenderSession,), "schedule", "session.schedule")
        patch((session.SenderSession,), "on_ack", "session.on_ack")
        patch((session.SenderSession,), "next_wake", "session.next_wake")
        patch((session.SenderSession,), "set_rates", "session.set_rates")
        patch((session.ReceiverSession,), "on_receive", "session.on_receive")
        patch((session.Segment,), "encode", "session.encode")
        patch((anchor.Anchor,), "forward", "anchor.forward")
        patch((allocator, simnet), "water_fill", "allocator.water_fill")
        patch((allocator, simnet), "domain_shares", "allocator.domain_shares")
        patch((pathfinder, simnet), "k_disjoint_paths", "pathfinder.k_disjoint")
        patch((topology.TopologyDatabase,), "receive", "topology.receive", received)
        patch((topology.TopologyDatabase,), "graph", "topology.graph")
        patch((topology.TopologyDatabase,), "digest", "topology.digest")
        patch((pubsub, simnet), "build_tree", "pubsub.build_tree")
        patch((gateway, simnet), "synth_payload", "gateway.synth", synthesized)
        patch((gateway, simnet), "select_source", "gateway.select_source")
        patch((gateway.GatewayCatalog,), "lookup", "gateway.lookup")
        patch((gateway.GatewayCatalog,), "sweep", "gateway.sweep")
        patch((gateway.GatewayCatalog,), "stage", "gateway.stage")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- derived figures -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float], float]:
        """Per span name: self time and call count; per event kind: the step
        self time; and the total time covered by top-level spans."""
        n = len(self.span_start)
        own = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = 0.0
        for i in range(n):
            parent = self.span_parent[i]
            duration = self.span_end[i] - self.span_start[i]
            if parent >= 0:
                own[parent] -= duration
            else:
                covered += duration
        seconds: dict[str, float] = {name: 0.0 for name in self.names}
        calls: dict[str, int] = {name: 0 for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            seconds[name] += own[i]
            calls[name] += 1
        by_kind: dict[str, float] = {kind: 0.0 for kind in EVENT_KINDS.values()}
        for idx, kind in self.step_kind.items():
            by_kind[kind] += own[idx]
        return seconds, calls, by_kind, covered
