"""Record the goldens the benchmark's output checks compare against.

    python3 perfbench/make_goldens.py            # all workloads
    python3 perfbench/make_goldens.py packet_faults

Packet goldens come from the pinned scalar ``engine="reference"``
simulator, one entry per input variant; flow goldens are the fig09
saturation cells computed in-process by ``fig09.run_trial``.  Rewrites
``perfbench/goldens.json`` (only the named workloads' entries).
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def flow_goldens() -> dict:
    from repro.experiments import fig09

    import flow_fig09

    out = {}
    for params in fig09.plan_trials(flow_fig09.PLAN_OPTS):
        row = fig09.run_trial(params)["row"]
        out[f"{row['topology']}/{row['pattern']}"] = row["min_saturation"]
    return out


def packet_goldens(workload: str) -> dict:
    import packet

    out = {}
    for variant in range(packet.VARIANTS):
        todo = packet.cases(workload, variant)
        resolved = packet.resolve(sorted({c["name"] for c in todo}))
        out[str(variant)] = {
            packet.case_key(c): asdict(packet.simulate(c, resolved, engine="reference")[1])
            for c in todo
        }
        print(f"{workload} variant {variant} recorded", file=sys.stderr, flush=True)
    return out


def main(argv: list[str]) -> int:
    harness.require_program()
    workloads = argv or ["flow_fig09", "packet_minimal", "packet_faults"]
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    with tempfile.TemporaryDirectory(dir=harness.ROOT) as tmp:
        harness.use_store(Path(tmp))
        for w in workloads:
            goldens[w] = flow_goldens() if w == "flow_fig09" else packet_goldens(w)
            GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
