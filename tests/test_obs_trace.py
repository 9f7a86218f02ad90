"""The tracing layer's core guarantees.

The hard requirement (ISSUE: observability) is behavior-neutrality:
a traced run must be bit-identical to an untraced one, pinned here by
``MetricsRecorder.fingerprint()`` equality. The rest of the file
covers the recorder mechanics — ring eviction, kind filtering, sink
streaming — and the serialized formats (JSONL, Chrome trace_event).
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.baselines import GossipDasScenario, PeerDasScenario
from repro.core.seeding import RedundantSeeding
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs import (
    KINDS,
    QUERY_TERMINAL_KINDS,
    CallbackProfiler,
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    Telemetry,
    TraceRecorder,
)
from repro.params import PandasParams
from tests.test_obs_telemetry import pipeline_config


def dense_config(seed=9, **overrides):
    defaults = dict(
        num_nodes=35,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(4),
        seed=seed,
        slots=1,
        num_vertices=300,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ----------------------------------------------------------------------
# recorder mechanics
# ----------------------------------------------------------------------
def test_ring_buffer_evicts_oldest_but_sinks_see_everything():
    sink = MemorySink()
    rec = TraceRecorder(capacity=5, sinks=[sink])
    for i in range(12):
        rec.emit("phase", t=float(i), node=i)
    assert rec.accepted == 12
    assert rec.evicted == 7
    assert [e.node for e in rec.events] == [7, 8, 9, 10, 11]
    assert [e.node for e in sink.events] == list(range(12))


def test_kind_filtering_rejects_before_recording():
    rec = TraceRecorder(kinds=["query_issue"])
    assert rec.enabled("query_issue")
    assert not rec.enabled("net_send")
    assert rec.emit("net_send", t=0.0) is None
    assert rec.emit("query_issue", t=0.0, req=1) is not None
    assert rec.filtered == 1
    assert rec.accepted == 1
    assert rec.counts == {"query_issue": 1}


def test_reserved_payload_fields_rejected():
    """t/slot/node/kind are named parameters of emit(), so a payload
    cannot shadow them — the call itself is rejected."""
    rec = TraceRecorder()
    with pytest.raises(TypeError):
        rec.emit("phase", t=0.0, **{"kind": "sneaky"})


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_request_ids_are_monotonic():
    rec = TraceRecorder()
    assert [rec.next_request_id() for _ in range(3)] == [1, 2, 3]


def test_kind_table_orders_by_frequency():
    rec = TraceRecorder()
    for _ in range(3):
        rec.emit("net_send", t=0.0)
    rec.emit("phase", t=0.0)
    assert rec.kind_table() == [("net_send", 3), ("phase", 1)]


# ----------------------------------------------------------------------
# serialized formats
# ----------------------------------------------------------------------
def test_jsonl_sink_writes_flat_records():
    buf = io.StringIO()
    rec = TraceRecorder(sinks=[JsonlSink(buf)])
    rec.emit("query_issue", t=0.25, slot=0, node=3, req=1, peer=9, round=1, cells=4)
    rec.close()
    record = json.loads(buf.getvalue())
    assert record == {
        "t": 0.25,
        "slot": 0,
        "node": 3,
        "kind": "query_issue",
        "req": 1,
        "peer": 9,
        "round": 1,
        "cells": 4,
    }


def test_chrome_trace_schema_and_span_pairing():
    """Every record carries the trace_event required fields; query
    lifecycle events pair up as async begin/end spans per request id."""
    buf = io.StringIO()
    sink = ChromeTraceSink(buf)
    rec = TraceRecorder(sinks=[sink])
    scenario = Scenario(dense_config(tracer=rec)).run()
    rec.close()
    assert scenario.metrics.phase_times  # the run did something
    document = json.loads(buf.getvalue())
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    begins, ends = {}, {}
    for record in document["traceEvents"]:
        assert {"name", "ph", "ts", "pid", "tid", "args"} <= set(record)
        assert record["ph"] in ("b", "e", "i")
        if record["ph"] in ("b", "e"):
            assert record["name"] == "query"
            assert record["id"].startswith("0x")
            side = begins if record["ph"] == "b" else ends
            side[record["id"]] = side.get(record["id"], 0) + 1
    assert begins  # queries were traced
    assert begins == ends  # every span opened is closed exactly once
    assert all(count == 1 for count in begins.values())


def test_traced_runs_are_byte_identical():
    """Two identically-seeded traced runs serialize the same JSONL."""

    def run() -> str:
        buf = io.StringIO()
        rec = TraceRecorder(sinks=[JsonlSink(buf)])
        Scenario(dense_config(tracer=rec)).run()
        rec.close()
        return buf.getvalue()

    first, second = run(), run()
    assert first  # non-empty trace
    assert first == second


# Observation outputs of the fixed runs below (traced JSONL, telemetry
# sample rows, invariant check count); stable across PYTHONHASHSEED
# values. Any change to them is a change to what a run reports.
TRACE_PIN = "7ecc278d35b50aefabfd5001a45d558d0850e0e60d3a0b65edc96a4e7893e62a"
TRACE_PIN_EVENTS = 4873
DENSE_SAMPLES_PIN = "c97c8225f5cd611426bfaa0816d6c36891b0149033ca8b3b0a77d3e647afbcd2"
PIPELINE_SAMPLES_PIN = "ef9c40d4ffa34304b10d4517b6bf59d1f5176deccaeced1762beaf88a8cc2e5a"
PIPELINE_CHECKS_PIN = 18_717


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_observation_outputs_match_pins():
    """The traced JSONL, the telemetry sample rows and the invariant
    check count of fixed runs are byte-for-byte what they were."""
    buf = io.StringIO()
    rec = TraceRecorder(sinks=[JsonlSink(buf)])
    Scenario(dense_config(tracer=rec)).run()
    rec.close()
    trace = buf.getvalue()
    assert trace.count("\n") == TRACE_PIN_EVENTS
    assert _sha256(trace) == TRACE_PIN

    tel = Telemetry()
    Scenario(dense_config(telemetry=tel)).run()
    assert _sha256(repr(tel.samples)) == DENSE_SAMPLES_PIN

    tel = Telemetry()
    pipeline = PipelineScenario(
        pipeline_config(telemetry=tel, check_invariants=True), churn_fraction=0.1
    ).run()
    assert _sha256(repr(tel.samples)) == PIPELINE_SAMPLES_PIN
    assert pipeline.invariants.checks_run == PIPELINE_CHECKS_PIN


@pytest.mark.parametrize(
    "scenario_cls, faults",
    [
        (Scenario, "crash=6@0.3:1.0"),
        (GossipDasScenario, None),
        (PeerDasScenario, None),
    ],
    ids=["pandas-crash", "gossipsub", "peerdas"],
)
def test_one_phase_event_per_recorded_mark(scenario_cls, faults):
    """Every recorded phase mark is traced exactly once, at the
    recorded time — a node re-completing a phase after a restart is
    not traced again, and baselines are traced like PANDAS."""
    from repro.faults.plan import FaultPlan

    rec = TraceRecorder()
    plan = FaultPlan.parse(faults) if faults else None
    scenario = scenario_cls(dense_config(tracer=rec, faults=plan)).run()
    traced = [
        (e.slot, e.node, e.data["phase"], e.data["at"])
        for e in rec.events
        if e.kind == "phase"
    ]
    recorded = [
        (slot, node, phase, getattr(times, phase))
        for (slot, node), times in scenario.metrics.phase_times.items()
        for phase in ("seeding", "consolidation", "sampling", "block")
        if getattr(times, phase) is not None
    ]
    assert recorded
    assert len(traced) == len(set(traced))
    assert sorted(traced) == sorted(recorded)


def test_bus_is_the_only_transport_observer():
    """One observer per transport hook, whatever is attached."""
    for config in (
        dense_config(),
        dense_config(tracer=TraceRecorder(), telemetry=Telemetry(), check_invariants=True),
    ):
        scenario = Scenario(config)
        network = scenario.network
        assert network.on_send == [scenario.obs.on_send]
        assert network.on_deliver == [scenario.obs.on_deliver]
        assert network.on_drop == [scenario.obs.on_drop]


# ----------------------------------------------------------------------
# the neutrality guarantee
# ----------------------------------------------------------------------
def test_tracing_is_behavior_neutral():
    """fingerprint() is bit-identical with tracing on or off."""
    plain = Scenario(dense_config()).run().metrics.fingerprint()
    traced = (
        Scenario(dense_config(tracer=TraceRecorder()))
        .run()
        .metrics.fingerprint()
    )
    assert plain == traced


def test_tracing_neutral_under_faults():
    faults = "loss=0.1,dup=0.05,crash=2@0.5:1.5,slow=2@0.05"
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.parse(faults)
    plain = Scenario(dense_config(faults=plan)).run().metrics.fingerprint()
    rec = TraceRecorder()
    traced = (
        Scenario(dense_config(faults=FaultPlan.parse(faults), tracer=rec))
        .run()
        .metrics.fingerprint()
    )
    assert plain == traced
    assert rec.counts["fault"] > 0  # the injector really was traced


def test_profiling_is_behavior_neutral():
    plain = Scenario(dense_config()).run().metrics.fingerprint()
    profiler = CallbackProfiler()
    profiled = (
        Scenario(dense_config(profiler=profiler)).run().metrics.fingerprint()
    )
    assert plain == profiled
    assert profiler.events > 0


def test_all_emitted_kinds_are_documented():
    """Whatever a full traced run emits must appear in the catalog."""
    rec = TraceRecorder()
    Scenario(dense_config(tracer=rec)).run()
    assert set(rec.counts) <= set(KINDS)
    assert QUERY_TERMINAL_KINDS <= set(KINDS)
