"""Regression gate over two sets of benchmark runs of one workload.

Each input file holds the result lines ``run.py`` printed (one JSON
object per line; other lines are skipped), one set for the parent
commit and one for the change, with the same workload and settings:

    python3 dasbench/gate.py parent.jsonl change.jsonl

A metric regresses when the change's median is worse than the parent's
median by more than the metric's ``bound`` in ``BENCHMARK.json``, as a
share of the parent's median. A run that is not correct fails the gate.
The gate measures nothing itself and claims no gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict[str, Any]]:
    runs = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("{") and '"metrics"' in line:
            runs.append(json.loads(line))
    return runs


def regressions(
    parent: Sequence[dict[str, Any]],
    change: Sequence[dict[str, Any]],
    declared: Iterable[dict[str, Any]],
) -> list[str]:
    """Every bound the change breaks, as readable lines (none = pass)."""
    found = [
        f"{side} run {i} is not correct"
        for side, runs in (("parent", parent), ("change", change))
        for i, run in enumerate(runs)
        if not run.get("correct")
    ]
    if not parent or not change:
        return found + ["a side has no runs"]
    for entry in declared:
        name = entry["name"]
        before = statistics.median(run["metrics"][name]["value"] for run in parent)
        after = statistics.median(run["metrics"][name]["value"] for run in change)
        delta = (after - before) / before if before else 0.0
        worse = delta if entry["better"] == "lower" else -delta
        if worse > entry["bound"]:
            found.append(
                f"{name}: median {before:.6g} -> {after:.6g} "
                f"({worse:.1%} worse, bound {entry['bound']:.0%})"
            )
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text())["end_to_end"]
    found = regressions(load_runs(Path(argv[0])), load_runs(Path(argv[1])), declared)
    for line in found:
        print(f"REGRESSION {line}")
    print("gate: fail" if found else "gate: pass")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
