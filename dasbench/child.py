"""One execution of a workload in a fresh process; prints one JSON line.

Run from the checkout root as ``python -m dasbench.child --workload W
--seed N --mode M`` (``run.py`` does this). Modes:

- ``setup``: import ``repro`` and construct every part, nothing more;
- ``timed``: set-up, then run every part untraced;
- ``traced``: as ``timed`` with spans and layer counters recorded, the
  span log written under ``.dasbench/`` at the checkout root;
- ``memory``: as ``timed`` under ``tracemalloc``, snapshotted when the
  last slot's per-slot state is about to be released.

Set-up time runs from the first statement of this module, before
``repro`` is imported, to the end of scenario construction.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

OUT_DIR = ROOT / ".dasbench"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "timed", "traced", "memory"), required=True
    )
    args = parser.parse_args(argv)

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    from dasbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    imported = time.perf_counter() - T0
    if args.mode == "setup":
        return {"setup_s": imported + workloads.construct_only(workload, args.seed)}

    tracer = probe = None
    hooks: dict = {}
    if args.mode == "traced":
        from dasbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
        hooks = {"before_run": tracer.before_run, "after_run": tracer.after_run}
    elif args.mode == "memory":
        from dasbench.tracing import MemoryProbe

        probe = MemoryProbe()
        probe.install()
        hooks = {"before_run": probe.before_run, "after_run": probe.after_run}
    try:
        execution = workloads.execute(workload, args.seed, **hooks)
    except Exception as exc:  # a failed run: all its node-slots count as failed
        traceback.print_exc()
        return {"error": f"{type(exc).__name__}: {exc}", "node_slots": workload.planned_node_slots}
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.uninstall()

    result = {
        "setup_s": imported + execution.construct_s,
        "run_s": execution.run_s,
        "part_run_s": execution.part_run_s,
        "node_slots": execution.node_slots,
        "datagrams": execution.datagrams,
        "fingerprint": execution.fingerprint,
        "failures": execution.failures,
        "outcome": workloads.outcome_metrics(execution.outcomes),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(execution.run_s)
        result["spans"] = tracer.rec.table()
        stem = f"{args.workload}-seed{args.seed}"
        tracer.rec.save(OUT_DIR / f"spans-{stem}.npz")
    if probe is not None:
        result["layers"] = probe.groups
    return result


if __name__ == "__main__":
    try:
        payload = main()
    except Exception as exc:  # reported to run.py, which fails the run
        traceback.print_exc()
        payload = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(payload))
