"""Repository benchmark: four paper workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload flow_fig09 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

Run from the repository root.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from spans
this benchmark wraps around public entry points) with ``--trace 1``.
Every operation's output is checked; a wrong answer, error, timeout or
429 counts as failed.  See ``perfbench/README.md`` for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# Pool workers of a traced flow_fig09 run are spawned processes that
# re-import this file as ``__mp_main__``; that is where they install their
# own spans (the program itself is never edited).
if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_WORKER_TRACE"):
    import spans

    spans.install_worker(os.environ["PERFBENCH_WORKER_TRACE"])


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            goldens: dict | None = None) -> str:
    import harness

    harness.require_program()
    if workload == "flow_fig09":
        import flow_fig09 as mod
    elif workload == "serve_mixed":
        import serve_mixed as mod
    else:
        import packet as mod
    if goldens is None:
        goldens = json.loads((HERE / "goldens.json").read_text())
    checks = harness.Checks()
    work = harness.WorkDir.create(workload, seed)
    try:
        if not trace:
            metrics = mod.run(workload, seed, seconds, work, checks, goldens)
            units = harness.metric_units("end_to_end")
        else:
            from spans import Tracer

            tracer = Tracer()
            out = mod.run(workload, seed, seconds, work, checks, goldens, tracer=tracer)
            traces = [tracer.to_json()]
            if out.get("worker_dir"):
                traces += [json.loads(p.read_text())
                           for p in sorted(out["worker_dir"].glob("worker-*.json"))]
            metrics = harness.layer_metrics(traces, out["registry"], out["extra"])
            units = harness.metric_units("per_layer")
            dump = harness.OUT / f"trace-{workload}-seed{seed}.json"
            dump.write_text(json.dumps({"workload": workload, "seed": seed, "traces": traces}))
            print(f"{workload}: spans written to {dump}", file=sys.stderr)
    finally:
        work.close()
    for note in checks.notes:
        print(f"{workload}: check failed: {note}", file=sys.stderr)
    return harness.result_line(checks, metrics, units)


def run_all(workloads: list[str], seed: int, seconds: float, trace: bool) -> str:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {w} exited {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        fail_frac = res["failed"] / res["attempted"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_frac={fail_frac:.4f}")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
            merged["metrics"][f"{w}/{name}"] = m
    return json.dumps(merged)


def stop_resource_tracker() -> None:
    """Stop and reap the multiprocessing resource tracker if this process
    started one (the spawn-context pool behind ``run_plan`` does).  By
    design it outlives its parent; a benchmark must not leave it behind."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    import harness

    # A SIGTERM unwinds like an exception, so every ``finally`` that stops
    # the server or the pool still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = harness.spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.workload == "all":
            line = run_all(workloads, args.seed, args.seconds, bool(args.trace))
        else:
            line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — boundary: report, print no result
        traceback.print_exc()
        return 2
    finally:
        stop_resource_tracker()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
