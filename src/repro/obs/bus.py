"""The observation bus: every observation point of a run, in one place.

A run is observed at two kinds of points, and both reach the bus:

- **datagram points**: the bus is the one observer on the transport's
  ``Network.on_send`` / ``on_deliver`` / ``on_drop``. Per datagram it
  derives the slot and payload class once, then runs the I1/I5
  invariant checks, accounts builder and fetch traffic in the
  :class:`~repro.sim.metrics.MetricsRecorder`, emits the transport
  trace kinds and feeds telemetry's per-layer traffic counters;
- **protocol points**: nodes, builders, retrieval clients, the fault
  injector and the adversaries report phase marks, defense, shed,
  fault, queue-drop and queue-depth records and fetch-round latency
  through ``ProtocolContext.obs``, and emit their own trace kinds
  through :meth:`ObservationBus.trace`.

Every point runs in the order *check -> store -> fan out*: the
invariant checker sees the observation first (a violation raises
before anything is recorded), the recorder stores it, and telemetry
and the trace see it afterwards. A phase mark fans out only when the
recorder stored it — the first completion of a phase — so a node that
completes a phase again after a crash/restart is checked but produces
no second ``phase`` event or telemetry observation.

The bus is pure observation: it draws no RNG, schedules nothing and
mutates no protocol state, so fingerprints are identical whatever
tracer, telemetry or checker is attached.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.invariants import InvariantChecker
    from repro.net.transport import Datagram
    from repro.obs.events import TraceRecorder
    from repro.obs.telemetry import Telemetry
    from repro.sim.engine import Simulator
    from repro.sim.metrics import MetricsRecorder

__all__ = ["ObservationBus"]


class ObservationBus:
    """Routes one run's observations to its recorder, checker, tracer
    and telemetry.

    ``builder_id`` separates builder seeding from node fetch traffic;
    ``retrieval_floor`` is the lowest address of the retrieval-client
    population, whose traffic is telemetry's ``retrieval`` layer.
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricsRecorder,
        *,
        builder_id: int | None = None,
        tracer: TraceRecorder | None = None,
        telemetry: Telemetry | None = None,
        invariants: InvariantChecker | None = None,
        retrieval_floor: float = math.inf,
    ) -> None:
        self.sim = sim
        self.metrics = metrics
        self.builder_id = builder_id
        self.tracer = tracer
        self.telemetry = telemetry
        self.invariants = invariants
        self.retrieval_floor = retrieval_floor
        # a recorder's kind filter is fixed at construction: resolve it
        # once so a filtered-out kind costs nothing per datagram
        self._send_tracer = (
            tracer if tracer is not None and tracer.enabled("net_send") else None
        )
        self._deliver_tracer = (
            tracer if tracer is not None and tracer.enabled("net_deliver") else None
        )

    # ------------------------------------------------------------------
    # datagram points (the transport's only observers)
    # ------------------------------------------------------------------
    def on_send(self, dgram: Datagram) -> None:
        if self.invariants is not None:
            self.invariants.check_send()
        payload = dgram.payload
        slot = getattr(payload, "slot", None)
        src, dst, size = dgram.src, dgram.dst, dgram.size
        if slot is not None and slot >= 0:
            # "fetch" traffic is everything nodes exchange among
            # themselves, in both directions (Figures 10, 12b, 13b/c,
            # 14b/c); builder seeding is tracked on its own
            metrics = self.metrics
            if src == self.builder_id:
                metrics.record_builder_send(slot, size)
            else:
                metrics.record_send(slot, src, size)
                if dst != self.builder_id:
                    metrics.fetch_messages.add(slot, src)
                    metrics.fetch_bytes.add(slot, src, size)
        tracer, telemetry = self._send_tracer, self.telemetry
        if tracer is None and telemetry is None:
            return
        name = type(payload).__name__
        if tracer is not None:
            tracer.emit(
                "net_send",
                t=self.sim.now,
                slot=slot if isinstance(slot, int) else -1,
                node=src,
                dst=dst,
                size=size,
                payload=name,
            )
        if telemetry is not None:
            telemetry.observe_send(self.layer(src, dst, payload, name), size)

    def on_deliver(self, dgram: Datagram) -> None:
        if self.invariants is not None:
            self.invariants.check_deliver(dgram)
        payload = dgram.payload
        slot = getattr(payload, "slot", None)
        src, dst, size = dgram.src, dgram.dst, dgram.size
        if slot is not None and slot >= 0 and dst != self.builder_id:
            metrics = self.metrics
            metrics.record_receive(slot, dst, size)
            if src != self.builder_id:
                metrics.fetch_messages.add(slot, dst)
                metrics.fetch_bytes.add(slot, dst, size)
        if self._deliver_tracer is not None:
            self._deliver_tracer.emit(
                "net_deliver",
                t=self.sim.now,
                slot=slot if isinstance(slot, int) else -1,
                node=dst,
                src=src,
                size=size,
                payload=type(payload).__name__,
            )

    def on_drop(self, dgram: Datagram, reason: str) -> None:
        if reason == "overflow":
            # bounded-inbox drops (only possible when max_inbox is set)
            # feed the backlog counters the pipeline report surfaces
            self.queue_drop("inbox_overflow")
        if self.tracer is None:
            return
        slot = getattr(dgram.payload, "slot", None)
        slot = slot if isinstance(slot, int) else -1
        src, dst, size = dgram.src, dgram.dst, dgram.size
        self.trace(
            "net_drop",
            slot=slot,
            node=dst,
            src=src,
            size=size,
            payload=type(dgram.payload).__name__,
            reason=reason,
        )
        if reason == "overflow":
            self.trace("queue_overflow", slot=slot, node=dst, src=src, size=size)

    def layer(self, src: int, dst: int, payload: Any, name: str | None = None) -> str:
        """Telemetry's traffic layer of one datagram.

        Classification is by payload type *name* (``name``, when the
        caller already has it), plus the retrieval priority and address
        floor, so this module needs no imports from ``repro.core``.
        """
        if name is None:
            name = type(payload).__name__
        if src == self.builder_id or name == "SeedMessage":
            return "seed"
        if name == "GossipMessage":
            return "gossip"
        if name == "CellRequest":
            if getattr(payload, "priority", 0) != 0 or src >= self.retrieval_floor:
                return "retrieval"
            return "fetch"
        if name == "CellResponse":
            return "retrieval" if dst >= self.retrieval_floor else "fetch"
        return "other"

    # ------------------------------------------------------------------
    # protocol points
    # ------------------------------------------------------------------
    def trace(self, kind: str, *, slot: int = -1, node: int = -1, **data: Any) -> None:
        """Emit one trace event at the current simulated time (no-op
        when tracing is off or ``kind`` is filtered out)."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled(kind):
            tracer.emit(kind, t=self.sim.now, slot=slot, node=node, **data)

    def mark(self, phase: str, slot: int, node: int, t: float) -> None:
        """``node`` completed ``phase`` of ``slot`` at ``t`` s from the
        slot start (phase: seeding|consolidation|sampling|block)."""
        if self.invariants is not None:
            self.invariants.check_mark(phase, slot, node, t)
        if not self.metrics.mark(phase, slot, node, t):
            return
        tel = self.telemetry
        if tel is not None:
            tel.observe("phase_latency_seconds", t, phase=phase)
            tel.inc("phase_completions_total", phase=phase)
            if tel.deadline is not None and t <= tel.deadline:
                tel.inc("phase_deadline_hits_total", phase=phase)
        self.trace("phase", slot=slot, node=node, phase=phase, at=t)

    def fault(self, kind: str, amount: float = 1.0) -> None:
        self.metrics.record_fault(kind, amount)
        if self.telemetry is not None:
            self.telemetry.inc("fault_total", amount, kind=kind)

    def defense(self, kind: str, amount: float = 1.0) -> None:
        self.metrics.record_defense(kind, amount)
        if self.telemetry is not None:
            self.telemetry.inc("defense_total", amount, kind=kind)

    def shed(self, kind: str, amount: float = 1.0) -> None:
        self.metrics.record_shed(kind, amount)
        if self.telemetry is not None:
            self.telemetry.inc("shed_total", amount, kind=kind)

    def queue_drop(self, reason: str, amount: float = 1.0) -> None:
        self.metrics.record_queue_drop(reason, amount)
        if self.telemetry is not None:
            self.telemetry.inc("queue_drops_total", amount, reason=reason)

    def queue_depth(self, gauge: str, depth: float) -> None:
        self.metrics.observe_queue_depth(gauge, depth)
        if self.telemetry is not None:
            self.telemetry.observe("queue_depth", depth, queue=gauge)

    def round_latency(self, round_index: int, latency: float) -> None:
        """Reply latency within one Algorithm-1 fetch round (telemetry
        only; Table 1's per-round counters go through ``record_round``)."""
        if self.telemetry is not None:
            label = str(round_index) if round_index <= 4 else "5+"
            self.telemetry.observe("fetch_round_latency_seconds", latency, round=label)
