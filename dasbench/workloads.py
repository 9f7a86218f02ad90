"""The four benchmark workloads and what one execution of them yields.

A workload is a list of parts; each part is one scenario built from the
workload seed and run to completion. Every workload is a closed batch:
the process simulates its slots as fast as it can, so host cost is
reported at the fixed input size stated here.

Why each workload exists is documented in README.md. The sizes below
are the ones the recorded baseline (baseline.json) was measured at.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.stats import Distribution, percentile
from repro.baselines import DhtDasScenario, GossipDasScenario, PeerDasScenario
from repro.core.seeding import RedundantSeeding
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import BaseScenario, Scenario, ScenarioConfig
from repro.obs.telemetry import Telemetry
from repro.params import PandasParams, RetryPolicy

# A workload part whose honest live node-slots finish sampling within
# the deadline less often than this is reported as incorrect: at these
# sizes every part reaches 98-100% on every seed tried.
MIN_DEADLINE_HIT = 0.9


@dataclass(frozen=True)
class Part:
    """One scenario of a workload, built from the seed and run once."""

    label: str
    nodes: int
    slots: int
    reduced: int  # grid reduction factor of PandasParams.reduced; 0 = full grid
    make: Callable[[Part, int], BaseScenario]

    def build(self, seed: int) -> BaseScenario:
        return self.make(self, seed)

    @property
    def planned_node_slots(self) -> int:
        return self.nodes * self.slots

    def config(self, seed: int, **changes: Any) -> ScenarioConfig:
        params = PandasParams.reduced(self.reduced) if self.reduced else PandasParams.full()
        return ScenarioConfig(
            num_nodes=self.nodes,
            params=replace(params, **changes.pop("params", {})),
            policy=RedundantSeeding(8),
            seed=seed,
            slots=self.slots,
            **changes,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]

    @property
    def planned_node_slots(self) -> int:
        return sum(part.planned_node_slots for part in self.parts)


def _slot(part: Part, seed: int) -> BaseScenario:
    return Scenario(part.config(seed))


def _pipeline(part: Part, seed: int) -> BaseScenario:
    """`repro pipeline --telemetry --check-invariants`, with the retrieval
    load raised until admission sheds in every slot and a small inbox
    bound so the overflow drop path runs. 350 nodes rather than 300: at
    300 some seeds leave lines with one custodian, which moves the
    sampling p90 by up to 40% from seed to seed. 4 slots rather than 6
    keep the traced run (whose tracemalloc pass costs ~5x the plain
    run) well inside the 180 s a run may take."""
    config = part.config(
        seed,
        params={
            "fetch_retry": RetryPolicy(),
            "pending_request_limit": 256,
            "retrieval_admit_rate": 200.0,
            "retrieval_admit_burst": 20.0,
        },
        check_invariants=True,
        telemetry=Telemetry(),
        max_inbox=64,
    )
    return PipelineScenario(
        config,
        churn_fraction=0.05,
        probes_per_slot=8,
        probe_rows=2,
        client_rate=3e6,
        service_rate=2e6,
        admit_rate_aggregate=2.5e6,
        max_backlog=4e6,
    )


def _gossipsub(part: Part, seed: int) -> BaseScenario:
    return GossipDasScenario(part.config(seed))


def _peerdas(part: Part, seed: int) -> BaseScenario:
    return PeerDasScenario(part.config(seed))


def _dht(part: Part, seed: int) -> BaseScenario:
    return DhtDasScenario(part.config(seed))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-slot", (Part("pandas", 300, 1, 0, _slot),)),
        Workload("wide-slot", (Part("pandas", 800, 1, 8, _slot),)),
        Workload("sustained-pipeline", (Part("pipeline", 350, 4, 8, _pipeline),)),
        Workload(
            "baseline-matrix",
            (
                Part("gossipsub", 600, 1, 8, _gossipsub),
                Part("peerdas", 600, 1, 8, _peerdas),
                Part("dht", 80, 1, 16, _dht),
            ),
        ),
    )
}


# ----------------------------------------------------------------------
# outcome of one part
# ----------------------------------------------------------------------
def node_slots(scenario: BaseScenario) -> list[tuple[int, int]]:
    """The honest live (slot, node) pairs a run is judged on."""
    slots = sorted(scenario.ctx.slot_starts)
    if isinstance(scenario, PipelineScenario):
        history = scenario._membership_history
        return [
            (slot, node)
            for slot in slots
            for node in sorted(history[min(slot, len(history) - 1)])
        ]
    excluded = scenario.dead_nodes | set(scenario.byzantine)
    honest = [n for n in scenario.node_ids if n not in excluded]
    return [(slot, node) for slot in slots for node in honest]


def part_outcome(scenario: BaseScenario) -> dict[str, Any]:
    """Simulated results of one finished part, plus its failed checks."""
    metrics = scenario.metrics
    keys = node_slots(scenario)
    times: list[float | None] = []
    for key in keys:
        phases = metrics.phase_times.get(key)
        times.append(phases.sampling if phases is not None else None)
    wanted = set(keys)
    fetch = sum(v for key, v in metrics.fetch_messages.items() if key in wanted)
    deadline = scenario.params.deadline
    within = sum(1 for t in times if t is not None and t <= deadline)
    hit = within / len(times) if times else 0.0
    failures = []
    if not keys:
        failures.append("no honest live node-slots")
    elif hit < MIN_DEADLINE_HIT:
        failures.append(f"deadline hit {hit:.3f} < {MIN_DEADLINE_HIT}")
    if any(t is not None and t < 0.0 for t in times):
        failures.append("negative sampling time")
    retrieval: list[float] = []
    if isinstance(scenario, PipelineScenario):
        retrieval = sorted(
            r.elapsed for r in scenario.probe_results if r.complete and not r.shed
        )
        if not retrieval:
            failures.append("no probe retrieval completed")
        if scenario.invariants is None or scenario.invariants.checks_run == 0:
            failures.append("invariant checker never ran")
        if scenario.aggregate is None or scenario.aggregate.shed_admission <= 0:
            failures.append("retrieval admission shed nothing")
    return {
        "times": times,
        "within_deadline": within,
        "fetch_messages": fetch,
        "builder_bytes": sum(metrics.builder_bytes_sent.values()),
        "datagrams": scenario.network.datagrams_sent,
        "slots": len(scenario.ctx.slot_starts),
        "retrieval": retrieval,
        "fingerprint": metrics.fingerprint(),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# one execution
# ----------------------------------------------------------------------
@dataclass
class Execution:
    """Host timings and simulated outcome of running a workload once."""

    construct_s: float
    part_run_s: dict[str, float]
    outcomes: list[dict[str, Any]]

    @property
    def run_s(self) -> float:
        return sum(self.part_run_s.values())

    @property
    def fingerprint(self) -> str:
        joined = "|".join(o["fingerprint"] for o in self.outcomes)
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def node_slots(self) -> int:
        return sum(len(o["times"]) for o in self.outcomes)

    @property
    def datagrams(self) -> int:
        return sum(o["datagrams"] for o in self.outcomes)

    @property
    def failures(self) -> list[str]:
        return [f for o in self.outcomes for f in o["failures"]]


def execute(
    workload: Workload,
    seed: int,
    before_run: Callable[[str, BaseScenario], None] | None = None,
    after_run: Callable[[str, BaseScenario], None] | None = None,
) -> Execution:
    """Build and run every part of ``workload`` in turn.

    Construction and running are timed apart: construction belongs to
    set-up, the run to throughput. ``before_run``/``after_run`` let the
    traced and memory passes attach to each scenario; they run outside
    both timed regions.
    """
    construct = 0.0
    part_run_s: dict[str, float] = {}
    outcomes = []
    for part in workload.parts:
        start = time.perf_counter()
        scenario = part.build(seed)
        construct += time.perf_counter() - start
        if before_run is not None:
            before_run(part.label, scenario)
        start = time.perf_counter()
        scenario.run()
        part_run_s[part.label] = time.perf_counter() - start
        if after_run is not None:
            after_run(part.label, scenario)
        outcomes.append(part_outcome(scenario))
        del scenario
    return Execution(construct, part_run_s, outcomes)


def construct_only(workload: Workload, seed: int) -> float:
    """Seconds to build every part of ``workload`` (released in turn)."""
    total = 0.0
    for part in workload.parts:
        start = time.perf_counter()
        scenario = part.build(seed)
        total += time.perf_counter() - start
        del scenario
    return total


def outcome_metrics(outcomes: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Simulated-outcome end-to-end metrics pooled over every part."""
    times = [t for o in outcomes for t in o["times"]]
    dist = Distribution.from_optional(times)
    count = len(times)
    slots = sum(o["slots"] for o in outcomes)
    metrics = {
        "sampling_p50_sim_s": dist.quantile(50.0),
        "sampling_p90_sim_s": dist.quantile(90.0),
        "deadline_hit_frac": sum(o["within_deadline"] for o in outcomes) / count,
        "fetch_msgs_per_node_slot": sum(o["fetch_messages"] for o in outcomes) / count,
        "builder_egress_mb_per_slot": sum(o["builder_bytes"] for o in outcomes)
        / slots
        / 1e6,
    }
    retrieval = sorted(t for o in outcomes for t in o["retrieval"])
    if retrieval:
        metrics["retrieval_p50_sim_s"] = percentile(retrieval, 50.0)
    return metrics
