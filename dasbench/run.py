"""The repository benchmark: host cost and protocol outcome of the simulator.

Run from the checkout root:

    python3 dasbench/run.py --workload paper-slot --seed 7 --seconds 20 --trace 0

``--trace 0`` is a timed run. It measures set-up alone in a few fresh
processes, then runs the workload untraced in fresh processes, one at a
time, while one more execution brings the measured time closer to
``--seconds`` (at least once), and reports the medians. ``--trace 1`` is
the traced run: one untraced execution (the reference), one traced
execution (spans and layer counters) and one allocation-attribution
execution, each in a fresh process; it reports the per-layer metrics
and writes the span log and layer table under ``.dasbench/``.

Every metric is printed by name and unit; the last line of standard
output is one JSON object (correct, attempted, failed, metrics). The run
fails, and exits 1, when an execution raises or breaks an invariant,
misses an outcome check, when executions of one seed disagree on their
fingerprint, or when the pinned seed's fingerprint differs from
``dasbench/baseline.json``. Metric names and units come from
``BENCHMARK.json``. See ``dasbench/README.md`` for the methodology.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-slot", "wide-slot", "sustained-pipeline", "baseline-matrix")
SETUP_REPEATS = 3
# a run must end within 180 s; leave room for the last child to finish
RUN_BUDGET_S = 170.0
OUT_DIR = ROOT / ".dasbench"


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict[str, Any]:
    """Run one ``dasbench.child`` process and return its JSON result."""
    started = time.perf_counter()
    payload: dict[str, Any] = {}
    if deadline <= started:
        payload["error"] = "run time budget exhausted"
    else:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        command = [
            sys.executable, "-m", "dasbench.child",
            "--workload", workload, "--seed", str(seed), "--mode", mode,
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=deadline - started,
            )
        except subprocess.TimeoutExpired:
            payload["error"] = f"{mode} execution exceeded the run time budget"
        else:
            lines = proc.stdout.strip().splitlines()
            try:
                payload = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                payload = {}
            if proc.returncode != 0 or not payload:
                payload.setdefault(
                    "error", f"{mode} execution exited {proc.returncode}: {proc.stderr[-400:]}"
                )
    payload["mode"] = mode
    payload["wall_s"] = time.perf_counter() - started
    return payload


def judge(
    results: list[dict[str, Any]], seed: int, pinned: dict[str, Any], workload: str
) -> tuple[list[str], int, int]:
    """(failures, attempted node-slots, failed node-slots) of a run."""
    failures: list[str] = []
    attempted = failed = 0
    for result in results:
        slots = int(result.get("node_slots", 1))
        attempted += slots
        problems = ([result["error"]] if "error" in result else []) + result.get("failures", [])
        if problems:
            failed += slots
            failures.extend(problems)
    fingerprints = {r["fingerprint"] for r in results if "fingerprint" in r}
    if len(fingerprints) > 1:
        failures.append(f"executions of seed {seed} disagree on the fingerprint")
        failed = attempted
    if seed == pinned["seed"] and fingerprints:
        expected = pinned["fingerprints"].get(workload)
        if fingerprints != {expected}:
            failures.append(f"fingerprint {sorted(fingerprints)} != pinned {expected}")
            failed = attempted
    return failures, max(attempted, 1), failed


def timed_run(
    workload: str, seed: int, seconds: int, deadline: float
) -> tuple[list[dict[str, Any]], dict[str, float]]:
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_REPEATS)]
    executions = []
    started = time.perf_counter()
    while True:
        result = spawn(workload, seed, "timed", deadline)
        executions.append(result)
        now = time.perf_counter()
        # run another execution while that brings the measured time
        # closer to ``seconds``, so the count does not flip between runs
        # whenever one execution takes about ``seconds / 2``
        if "error" in result or now - started + result["wall_s"] / 2 > seconds:
            break
        if now + result["wall_s"] > deadline:
            break
    done = [r for r in executions if "error" not in r]
    metrics = end_to_end_metrics(setups, done) if done else {}
    return [r for r in setups if "error" in r] + executions, metrics


def end_to_end_metrics(
    setups: list[dict[str, Any]], executions: list[dict[str, Any]]
) -> dict[str, float]:
    """Medians of the host metrics plus the (seed-determined) outcome."""
    metrics = {
        "dgrams_per_s": statistics.median(r["datagrams"] / r["run_s"] for r in executions),
        "setup_s": statistics.median(
            [r["setup_s"] for r in setups + executions if "setup_s" in r]
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in executions),
    }
    metrics.update(executions[0]["outcome"])
    # probe retrieval latency exists on one workload only; it is reported
    # with the per-layer metrics, which every workload may leave at 0
    metrics.pop("retrieval_p50_sim_s", None)
    return metrics


def traced_run(
    workload: str, seed: int, deadline: float
) -> tuple[list[dict[str, Any]], dict[str, float], list[dict[str, Any]]]:
    plain = spawn(workload, seed, "timed", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    memory = spawn(workload, seed, "memory", deadline)
    results = [plain, traced, memory]
    if any("error" in r for r in results):
        return results, {}, []
    return results, layer_metrics(plain, traced, memory), traced["spans"]


def layer_metrics(
    plain: dict[str, Any], traced: dict[str, Any], memory: dict[str, Any]
) -> dict[str, float]:
    """Per-layer metrics from the untraced, traced and memory executions."""
    metrics = dict(traced["layers"])
    metrics.update(memory["layers"])
    metrics["bench.trace_overhead_ratio"] = traced["run_s"] / plain["run_s"]
    metrics["bench.node_slots_per_s"] = plain["node_slots"] / plain["run_s"]
    metrics["core.retrieval.p50_sim_s"] = plain["outcome"].get("retrieval_p50_sim_s", 0.0)
    for label in ("gossipsub", "peerdas", "dht"):
        metrics[f"baselines.{label}.wall_s"] = plain["part_run_s"].get(label, 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the PANDAS simulator.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    pinned = json.loads((ROOT / "dasbench" / "baseline.json").read_text())["pinned"]
    # build: byte-compile the program and the benchmark before any timing
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro", "dasbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_BUDGET_S,
    )
    if build.returncode != 0:
        print(build.stdout + build.stderr, file=sys.stderr)
        return 2

    spans: list[dict[str, Any]] = []
    if args.trace:
        results, metrics, spans = traced_run(args.workload, args.seed, deadline)
        declared = spec["per_layer"]
    else:
        results, metrics = timed_run(args.workload, args.seed, args.seconds, deadline)
        declared = spec["end_to_end"]
    failures, attempted, failed = judge(results, args.seed, pinned, args.workload)
    if metrics:
        for entry in declared:
            value = metrics.get(entry["name"])
            if value is None or not math.isfinite(value):
                failures.append(f"metric {entry['name']} not measured: {value}")
                failed = attempted
    report = {
        entry["name"]: {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in declared
        if metrics and math.isfinite(metrics.get(entry["name"], math.nan))
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, item in report.items():
        print(f"  {name:<34} {item['value']:>16.6g} {item['unit']}")
    if spans:
        print(f"  {'span (layer|site)':<80} {'self_s':>9} {'calls':>9}")
        for row in spans[:25]:
            print(f"  {row['span'][:80]:<80} {row['self_s']:>9.3f} {row['calls']:>9}")
        OUT_DIR.mkdir(exist_ok=True)
        table = {"metrics": metrics, "spans": spans}
        stem = f"{args.workload}-seed{args.seed}"
        (OUT_DIR / f"layers-{stem}.json").write_text(json.dumps(table, indent=1))
    fingerprints = sorted({r["fingerprint"] for r in results if "fingerprint" in r})
    print(f"  fingerprint {', '.join(fingerprints) or '-'}")
    walls = ", ".join(f"{r['mode']} {r['wall_s']:.1f}s" for r in results)
    print(f"  executions: {walls}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    correct = not failures and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed if correct else max(failed, 1),
                "metrics": report,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
