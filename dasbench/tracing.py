"""Per-layer attribution for the traced and memory passes.

Nothing under ``src/`` is edited. Root spans come from a profiler handed
to the engine's public ``Simulator.set_profiler`` hook, one span per
executed callback, named after its callback site. Child spans come from
wrapping public entry points of each layer at run time, in the
benchmark process only; :meth:`Tracer.uninstall` puts them back. A
span's self time is its duration minus the time its child spans cover,
so the self times of all spans partition the time spent inside spans.

Spans are kept in typed arrays (name, parent, start, end) and written
out once, when the traced pass ends.
"""

from __future__ import annotations

import functools
import gc
import time
import tracemalloc
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro.baselines.dht_das import DhtDasScenario
from repro.baselines.gossipsub_das import GossipDasNode
from repro.baselines.peerdas_das import PeerDasNode
from repro.core.builder import Builder
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher
from repro.core.messages import PRIORITY_RETRIEVAL, CellRequest
from repro.core.node import PandasNode
from repro.core.retrieval import RetrievalClient
from repro.dht.kademlia import FindNode, FindValue, KademliaNode
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import BaseScenario
from repro.faults.invariants import InvariantChecker
from repro.gossip.pubsub import GossipOverlay
from repro.net.transport import Network
from repro.obs.profiler import callback_site
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator

# Root callbacks are attributed to a layer by the module they live in;
# the first matching prefix wins, anything unmatched is "other".
_LAYER_BY_MODULE = (
    ("repro.sim.", "sim"),
    ("repro.net.", "net.deliver"),
    ("repro.core.node", "core.node"),
    ("repro.core.fetching", "core.fetch"),
    ("repro.core.custody", "core.custody"),
    ("repro.core.builder", "core.builder"),
    ("repro.core.seeding", "core.builder"),
    ("repro.core.retrieval", "core.retrieval"),
    ("repro.obs.telemetry", "obs.telemetry"),
    ("repro.faults.invariants", "faults.invariants"),
    ("repro.gossip.", "gossip"),
    ("repro.dht.", "dht"),
    ("repro.baselines.", "baselines"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYER_BY_MODULE)) + (
    "net.send",
    "obs.hooks",
    "other",
)

_RUN_ROUND = "repro.core.fetching:AdaptiveFetcher._run_round"
_VERIFY_HOP = "repro.core.node:PandasNode._deliver_verified"
_ON_DATAGRAM = "core.node|PandasNode.on_datagram"
_FETCH_START = "core.fetch|AdaptiveFetcher.start"


def layer_of_site(site: str) -> str:
    for prefix, layer in _LAYER_BY_MODULE:
        if site.startswith(prefix):
            return layer
    return "other"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanRecorder:
    """In-memory span log with per-name self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child: list[float] = []
        # time covered by spans that have no parent
        self.top_s = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int) -> None:
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(len(self.span_start))
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        now = time.perf_counter()
        index = self._open.pop()
        child = self._child.pop()
        self.span_end[index] = now
        duration = now - self.span_start[index]
        nid = self.span_name[index]
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += duration
        else:
            self.top_s += duration

    def by_layer(self) -> dict[str, tuple[float, int]]:
        """(self seconds, span count) per layer prefix of the names."""
        totals = {layer: (0.0, 0) for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = name.split("|", 1)[0]
            seconds, calls = totals.get(layer, (0.0, 0))
            totals[layer] = (seconds + self.self_s[nid], calls + self.calls[nid])
        return totals

    def site(self, name: str) -> tuple[float, int]:
        nid = self._ids.get(name)
        return (0.0, 0) if nid is None else (self.self_s[nid], self.calls[nid])

    def table(self) -> list[dict[str, Any]]:
        rows = [
            {"span": name, "self_s": self.self_s[nid], "calls": self.calls[nid]}
            for nid, name in enumerate(self.names)
        ]
        return sorted(rows, key=lambda row: -row["self_s"])

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class _RootProfiler:
    """``Simulator.set_profiler`` hook: one root span per callback."""

    def __init__(self, tracer: Tracer, sim: Simulator) -> None:
        self.tracer = tracer
        self.sim = sim

    def run(self, callback: Callable[..., Any], *args: Any) -> None:
        tracer = self.tracer
        target: Any = callback
        while isinstance(target, functools.partial):
            target = target.func
        func = getattr(target, "__func__", target)
        key = getattr(func, "__wrapped__", None) or getattr(func, "__code__", None) or type(func)
        nid = tracer.root_ids.get(key)
        if nid is None:
            site = callback_site(callback)
            nid = tracer.rec.name_id(f"{layer_of_site(site)}|{site}")
            tracer.root_ids[key] = nid
            if site == _RUN_ROUND:
                tracer.run_round_ids.add(nid)
        pending = self.sim.pending
        if pending > tracer.counts["pending_peak"]:
            tracer.counts["pending_peak"] = pending
        fetcher = target.__self__ if nid in tracer.run_round_ids else None
        before = len(fetcher.rounds) if fetcher is not None else 0
        tracer.rec.enter(nid)
        try:
            callback(*args)
        finally:
            tracer.rec.exit()
        if fetcher is not None:
            tracer.count_rounds(fetcher, before)


class Tracer:
    """Span and counter collection for one traced execution."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.root_ids: dict[Any, int] = {}
        self.run_round_ids: set[int] = set()
        self.counts: dict[str, float] = dict.fromkeys(
            (
                "pending_peak", "rounds", "round_msgs", "cells_requested", "cells_received",
                "new_cells", "reconstructed_lines", "parcels", "retrieval_requests",
                "dht_rpcs", "inbox_peak", "events", "delivered", "lost", "overflowed",
                "invariant_checks", "gossip_dups", "retrieval_shed",
            ),
            0.0,
        )
        self._restore: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # class-level entry points
    # ------------------------------------------------------------------
    def _wrap(
        self,
        owner: type,
        attr: str,
        layer: str,
        after: Callable[[tuple[Any, ...], Any, Any], None] | None = None,
        before: Callable[[tuple[Any, ...]], Any] | None = None,
    ) -> None:
        """Span every call of ``owner.attr``; ``after(args, result,
        before(args))`` counts what the call did, outside the span."""
        original = owner.__dict__[attr]
        nid = self.rec.name_id(f"{layer}|{owner.__name__}.{attr}")
        enter, leave = self.rec.enter, self.rec.exit

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            enter(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, result, token)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        counts = self.counts

        def on_send(args: tuple[Any, ...], _result: Any, _token: Any) -> None:
            endpoint = args[0].endpoint(args[2])
            if endpoint is not None and endpoint.in_flight > counts["inbox_peak"]:
                counts["inbox_peak"] = endpoint.in_flight

        def on_datagram(args: tuple[Any, ...], _result: Any, _token: Any) -> None:
            payload = args[1].payload
            if isinstance(payload, CellRequest) and payload.priority == PRIORITY_RETRIEVAL:
                counts["retrieval_requests"] += 1

        def on_response(args: tuple[Any, ...], result: tuple[int, int], _token: Any) -> None:
            counts["cells_received"] += len(args[2])
            counts["new_cells"] += result[0]

        def on_add_cells(args: tuple[Any, ...], result: tuple[int, int], incomplete: int) -> None:
            # custody lines completed by a call that reconstructed
            if result[1]:
                counts["reconstructed_lines"] += incomplete - args[0]._incomplete_lines

        def on_start(args: tuple[Any, ...], _result: Any, before: int) -> None:
            self.count_rounds(args[0], before)

        def on_seed(args: tuple[Any, ...], _result: Any, _token: Any) -> None:
            counts["parcels"] += args[0].last_seed_messages

        def on_dht(args: tuple[Any, ...], _result: Any, _token: Any) -> None:
            if isinstance(args[1].payload, (FindNode, FindValue)):
                counts["dht_rpcs"] += 1

        self._wrap(Simulator, "run", "sim")
        self._wrap(Network, "send", "net.send", on_send)
        self._wrap(PandasNode, "on_datagram", "core.node", on_datagram)
        # round 1 runs inside start(), later rounds as engine callbacks
        self._wrap(
            AdaptiveFetcher, "start", "core.fetch", on_start, lambda a: len(a[0].rounds)
        )
        self._wrap(AdaptiveFetcher, "on_response", "core.fetch", on_response)
        self._wrap(
            SlotCellState, "add_cells", "core.custody", on_add_cells,
            lambda a: a[0]._incomplete_lines,
        )
        self._wrap(Builder, "seed_slot", "core.builder", on_seed)
        self._wrap(RetrievalClient, "on_datagram", "core.retrieval")
        self._wrap(RetrievalClient, "fetch_lines", "core.retrieval")
        self._wrap(Telemetry, "observe_send", "obs.telemetry")
        self._wrap(Telemetry, "sample_now", "obs.telemetry")
        self._wrap(GossipOverlay, "on_datagram", "gossip")
        self._wrap(KademliaNode, "on_datagram", "dht", on_dht)
        self._wrap(KademliaNode, "lookup", "dht")
        self._wrap(GossipDasNode, "on_datagram", "baselines")
        self._wrap(PeerDasNode, "on_datagram", "baselines")

    def count_rounds(self, fetcher: AdaptiveFetcher, before: int) -> None:
        """Account the fetch rounds ``fetcher`` opened since ``before``."""
        counts = self.counts
        for stats in fetcher.rounds[before:]:
            counts["rounds"] += 1
            counts["round_msgs"] += stats.messages_sent
            counts["cells_requested"] += stats.cells_requested

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # per-scenario wiring (after construction, before the run)
    # ------------------------------------------------------------------
    def _span_callable(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        nid = self.rec.name_id(f"{layer}|{callback_site(fn)}")
        enter, leave = self.rec.enter, self.rec.exit

        def hook(*args: Any) -> Any:
            enter(nid)
            try:
                return fn(*args)
            finally:
                leave()

        return hook

    def _hook_layer(self, fn: Callable[..., Any]) -> str:
        owner = getattr(fn, "__self__", None)
        return "faults.invariants" if isinstance(owner, InvariantChecker) else "obs.hooks"

    def before_run(self, _label: str, scenario: BaseScenario) -> None:
        network = scenario.network
        for hooks in (network.on_send, network.on_deliver, network.on_drop):
            hooks[:] = [self._span_callable(fn, self._hook_layer(fn)) for fn in hooks]
        metrics = scenario.metrics
        for attr in ("mark_consolidation", "mark_sampling"):
            fn = metrics.__dict__.get(attr)
            if fn is not None and isinstance(getattr(fn, "__self__", None), InvariantChecker):
                setattr(metrics, attr, self._span_callable(fn, "faults.invariants"))
        scenario.sim.set_profiler(_RootProfiler(self, scenario.sim))

    def after_run(self, _label: str, scenario: BaseScenario) -> None:
        counts = self.counts
        network = scenario.network
        counts["events"] += scenario.sim.events_processed
        counts["delivered"] += network.datagrams_delivered
        counts["lost"] += network.datagrams_lost
        counts["overflowed"] += network.datagrams_overflowed
        if scenario.invariants is not None:
            counts["invariant_checks"] += scenario.invariants.checks_run
        for attr in ("overlay", "block_overlay"):
            overlay = getattr(scenario, attr, None)
            if overlay is not None:
                counts["gossip_dups"] += overlay.duplicates_suppressed
        sheds = scenario.metrics.shed_counts
        counts["retrieval_shed"] += sheds.get("retrieval_admission", 0.0) + sheds.get(
            "retrieval_client", 0.0
        )
        if isinstance(scenario, PipelineScenario) and scenario.aggregate is not None:
            counts["retrieval_shed"] += scenario.aggregate.shed_total
        scenario.sim.set_profiler(None)

    # ------------------------------------------------------------------
    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        rec, c = self.rec, self.counts
        layers = rec.by_layer()
        events = c["events"]
        out: dict[str, float] = {
            "sim.events": events,
            "sim.self_s": layers["sim"][0],
            "sim.ns_per_event": _ratio(layers["sim"][0], events) * 1e9,
            "sim.pending_peak": c["pending_peak"],
        }
        for layer in ("net.send", "obs.hooks"):
            out[f"{layer}.calls"], out[f"{layer}.self_s"] = layers[layer][1], layers[layer][0]
        batches = layers["net.deliver"][1]
        out.update({
            "net.deliver.batches": batches,
            "net.deliver.self_s": layers["net.deliver"][0],
            "net.deliver.dgrams_per_batch": _ratio(c["delivered"], batches),
            "net.lost": c["lost"],
            "net.overflowed": c["overflowed"],
            "net.inbox_depth_max": c["inbox_peak"],
        })
        hops = rec.site(f"core.node|{_VERIFY_HOP}")[1]
        out.update({
            "core.node.calls": layers["core.node"][1],
            "core.node.datagrams": rec.site(_ON_DATAGRAM)[1],
            "core.node.self_s": layers["core.node"][0],
            "core.node.verify_hops": hops,
            "core.node.verify_hop_share": _ratio(hops, events),
        })
        rounds = c["rounds"]
        round_self = rec.site(f"core.fetch|{_RUN_ROUND}")[0] + rec.site(_FETCH_START)[0]
        out.update({
            "core.fetch.calls": layers["core.fetch"][1],
            "core.fetch.rounds": rounds,
            "core.fetch.self_s": layers["core.fetch"][0],
            "core.fetch.round_self_us": _ratio(round_self, rounds) * 1e6,
            "core.fetch.msgs_per_round": _ratio(c["round_msgs"], rounds),
            "core.fetch.useful_ratio": _ratio(c["new_cells"], c["cells_requested"]),
            "core.fetch.dup_ratio": _ratio(
                c["cells_received"] - c["new_cells"], c["cells_received"]
            ),
        })
        out.update({
            "core.custody.add_cells.calls": rec.site("core.custody|SlotCellState.add_cells")[1],
            "core.custody.self_s": layers["core.custody"][0],
            "core.custody.reconstructed_lines": c["reconstructed_lines"],
            "core.builder.seed_slot_s": layers["core.builder"][0],
            "core.builder.parcels": c["parcels"],
            "core.retrieval.calls": layers["core.retrieval"][1],
            "core.retrieval.requests": c["retrieval_requests"],
            "core.retrieval.shed": c["retrieval_shed"],
            "core.retrieval.self_s": layers["core.retrieval"][0],
        })
        for layer in ("obs.telemetry", "faults.invariants", "dht", "baselines", "other"):
            out[f"{layer}.calls"], out[f"{layer}.self_s"] = layers[layer][1], layers[layer][0]
        out["faults.invariants.checks"] = c["invariant_checks"]
        deliveries = rec.site("gossip|GossipOverlay.on_datagram")[1]
        lookups = rec.site("dht|KademliaNode.lookup")[1]
        out.update({
            "gossip.deliveries": deliveries,
            "gossip.self_s": layers["gossip"][0],
            "gossip.dup_ratio": _ratio(c["gossip_dups"], deliveries),
            "dht.lookups": lookups,
            "dht.rpcs_per_lookup": _ratio(c["dht_rpcs"], lookups),
            "bench.span_coverage": _ratio(rec.top_s, run_s),
        })
        return out


# ----------------------------------------------------------------------
# allocation attribution
# ----------------------------------------------------------------------
_MEM_GROUPS = {
    "sim": "mem.sim_mb",
    "net": "mem.net_mb",
    "core/node.py": "mem.core.node_mb",
    "core/fetching.py": "mem.core.fetching_mb",
    "core/custody.py": "mem.core.custody_mb",
    "obs": "mem.obs_mb",
}


def group_snapshot(snapshot: tracemalloc.Snapshot) -> dict[str, float]:
    """Live MB per ``repro/<package>/`` source path (core split by module)."""
    out = dict.fromkeys(_MEM_GROUPS.values(), 0.0)
    total = 0
    for stat in snapshot.statistics("filename"):
        total += stat.size
        path = stat.traceback[0].filename.replace("\\", "/")
        _, marker, rest = path.rpartition("/repro/")
        if not marker:
            continue
        key = rest if rest.startswith("core/") else rest.split("/", 1)[0]
        metric = _MEM_GROUPS.get(key)
        if metric is not None:
            out[metric] += stat.size / 1e6
    out["mem.total_mb"] = total / 1e6
    return out


class MemoryProbe:
    """Snapshot live allocations when the last slot's state is released.

    The snapshot is taken at the first ``drop_slot`` (per-node slot
    state) of a part's last slot, before it runs, so per-slot state is
    still live; the DHT baseline keeps no per-node slot state and is
    snapshotted at its ``_end_slot``. A part that never reaches either
    is snapshotted when its run returns. Across parts, each group keeps
    its largest value.
    """

    def __init__(self) -> None:
        self.groups: dict[str, float] = {}
        self._last_slot = -1
        self._taken = True
        self._restore: list[tuple[type, str, Any]] = []

    def install(self) -> None:
        for owner in (PandasNode, GossipDasNode, PeerDasNode):
            self._trigger(owner, "drop_slot")
        self._trigger(DhtDasScenario, "_end_slot")
        tracemalloc.start()

    def _trigger(self, owner: type, attr: str) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(obj: Any, slot: int) -> Any:
            if not self._taken and slot == self._last_slot:
                self._snapshot()
            return original(obj, slot)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _snapshot(self) -> None:
        self._taken = True
        for key, value in group_snapshot(tracemalloc.take_snapshot()).items():
            self.groups[key] = max(value, self.groups.get(key, 0.0))

    def before_run(self, _label: str, scenario: BaseScenario) -> None:
        gc.collect()  # earlier parts' cyclic garbage is not this part's
        self._last_slot = scenario.config.slots - 1
        self._taken = False

    def after_run(self, _label: str, _scenario: BaseScenario) -> None:
        if not self._taken:
            self._snapshot()

    def uninstall(self) -> None:
        tracemalloc.stop()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
