"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload shrunk to reduced scale, a few hundred cycles and a
few dozen requests, untraced and traced, and checks that:

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted;
* the output checks pass on the real program and catch a planted wrong
  answer (a corrupted golden, or a corrupted server response);
* the benchmark exits non-zero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and ``perfbench/``.

Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# Spawned pool workers re-import the main script; see run.py.
if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_WORKER_TRACE"):
    import spans

    spans.install_worker(os.environ["PERFBENCH_WORKER_TRACE"])


def shrink() -> None:
    """Tiny inputs for every workload (module constants, not options)."""
    import flow_fig09
    import packet
    import serve_mixed

    flow_fig09.NAMES = ("PS-IQ",)
    flow_fig09.PLAN_OPTS = {"names": ["PS-IQ"], "patterns": ["permutation"], "with_ugal": False}
    packet.MINIMAL = {"names": ("DF",), "loads": (0.3, 0.9), "cycles": (50, 150, 100)}
    packet.FAULTS = dict(packet.FAULTS, cycles=(50, 150, 100), fail_fraction=0.01,
                         fail_cycle=120)
    serve_mixed.NOMINAL_QPS = 20.0
    serve_mixed.BURST = (("distance", 64, 2), ("path", 16, 2))
    serve_mixed.BURST_MIN_REPS = 2
    serve_mixed.SETUP_REPS = 1
    serve_mixed.LADDER_QPS = (50,)
    serve_mixed.RUNG_S = 1.0


def tiny_goldens() -> dict:
    import make_goldens

    real = json.loads((HERE / "goldens.json").read_text())
    return {
        "flow_fig09": {"PS-IQ/permutation": real["flow_fig09"]["PS-IQ/permutation"]},
        "packet_minimal": make_goldens.packet_goldens("packet_minimal"),
        "packet_faults": make_goldens.packet_goldens("packet_faults"),
    }


def plant_wrong_answer(workload: str, goldens: dict):
    """A copy of *goldens* (for serving: a transport that corrupts one
    answer) under which the checks must fail, plus an undo callable."""
    bad = copy.deepcopy(goldens)
    if workload == "flow_fig09":
        bad["flow_fig09"]["PS-IQ/permutation"] *= 1.01
    elif workload.startswith("packet"):
        for per_case in bad[workload].values():
            for res in per_case.values():
                res["delivered"] += 1
        return bad, lambda: None
    else:
        import serve_mixed

        real_drive = serve_mixed.drive

        def drive(addr, reqs, connections, timeout_s):
            outs = real_drive(addr, reqs, connections, timeout_s)
            for req, out in zip(reqs, outs):
                if req.kind == "distance" and out.response is not None:
                    resp = json.loads(out.response)
                    resp["result"][0] += 1
                    out.response = json.dumps(resp).encode()
                    break
            return outs

        serve_mixed.drive = drive

        def undo() -> None:
            serve_mixed.drive = real_drive

        return bad, undo
    return bad, lambda: None


def main() -> int:
    import harness
    import run

    harness.require_program()
    shrink()
    goldens = tiny_goldens()
    problems = []

    for workload in [w["name"] for w in harness.spec()["workloads"]]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            units = harness.metric_units(kind)
            res = json.loads(run.run_one(workload, 3, 2.0, trace, goldens))
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace={trace}: checks failed on the real program")
            if set(res["metrics"]) != set(units):
                problems.append(f"{workload} trace={trace}: metrics {sorted(res['metrics'])}")
            print(f"{workload} trace={int(trace)}: attempted={res['attempted']} ok", flush=True)
        bad, undo = plant_wrong_answer(workload, goldens)
        try:
            res = json.loads(run.run_one(workload, 3, 2.0, False, bad))
        finally:
            undo()
        if res["correct"] or not res["failed"]:
            problems.append(f"{workload}: a planted wrong answer went undetected")
        print(f"{workload} planted wrong answer: failed={res['failed']} (caught)", flush=True)

    bare = harness.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "packet_minimal", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark did not fail cleanly without the program")
    print(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")

    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
