"""Self-tests of the benchmark: run with ``python -m pytest dasbench -q``.

They use a small PANDAS slot in-process instead of the real workloads,
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dasbench import child, gate, run, workloads  # noqa: E402
from dasbench.tracing import Tracer  # noqa: E402
from repro.net.transport import Network  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = workloads.Workload("small", (workloads.Part("pandas", 120, 1, 32, workloads._slot),))


@pytest.fixture(autouse=True)
def small_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "small", SMALL)


def run_child(mode: str, seed: int = 3) -> dict:
    return child.main(["--workload", "small", "--seed", str(seed), "--mode", mode])


def as_run(execution: workloads.Execution) -> dict:
    """A run result line, as run.py prints it, from one execution."""
    value = execution.datagrams / execution.run_s
    return {
        "correct": not execution.failures,
        "metrics": {"dgrams_per_s": {"value": value, "unit": "dgrams/s"}},
    }


def test_workload_names_agree():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(run.WORKLOADS)
    assert set(declared) == set(workloads.WORKLOADS) - {"small"}


def test_metric_names_match_the_pattern_and_carry_units():
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry


def test_a_run_reports_exactly_the_declared_metrics():
    timed = run_child("timed")
    assert timed["failures"] == []
    e2e = run.end_to_end_metrics([run_child("setup")], [timed])
    assert set(e2e) == {e["name"] for e in SPEC["end_to_end"]}
    layers = run.layer_metrics(timed, run_child("traced"), run_child("memory"))
    assert set(layers) == {e["name"] for e in SPEC["per_layer"]}
    assert all(value > 0 for value in e2e.values())


def test_traced_and_memory_runs_keep_the_fingerprint():
    plain, traced, memory = run_child("timed"), run_child("traced"), run_child("memory")
    assert plain["fingerprint"] == traced["fingerprint"] == memory["fingerprint"]
    assert run_child("timed", seed=4)["fingerprint"] != plain["fingerprint"]


def test_span_self_times_sum_to_no_more_than_the_run_wall():
    tracer = Tracer()
    tracer.install()
    try:
        execution = workloads.execute(
            SMALL, 5, before_run=tracer.before_run, after_run=tracer.after_run
        )
    finally:
        tracer.uninstall()
    total_self = sum(tracer.rec.self_s)
    assert 0.0 < total_self <= execution.run_s
    assert tracer.rec.top_s <= execution.run_s
    assert Network.send.__module__ == "repro.net.transport"  # wrappers restored


def measure(seed: int, repeats: int) -> list[dict]:
    return [as_run(workloads.execute(SMALL, seed)) for _ in range(repeats)]


def test_gate_passes_an_unchanged_rerun_and_fails_an_injected_delay(monkeypatch):
    declared = [e for e in SPEC["end_to_end"] if e["name"] == "dgrams_per_s"]
    parent, rerun = [], []
    for _ in range(5):  # alternate sides so host drift hits both
        parent += measure(6, 1)
        rerun += measure(6, 1)
    assert gate.regressions(parent, rerun, declared) == []

    original = Network.send

    def slow_send(*args, **kwargs):
        # several times what a whole send costs, so throughput falls
        # well past the 25% bound even on a slow host
        until = time.perf_counter() + 150e-6
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    monkeypatch.setattr(Network, "send", slow_send)
    slowed = measure(6, 3)
    monkeypatch.setattr(Network, "send", original)
    found = gate.regressions(parent, slowed, declared)
    assert len(found) == 1 and found[0].startswith("dgrams_per_s"), found


def test_gate_fails_an_incorrect_run():
    good = measure(6, 1)
    bad = [dict(good[0], correct=False)]
    assert gate.regressions(good, bad, []) == ["change run 0 is not correct"]
