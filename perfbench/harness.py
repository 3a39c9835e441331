"""Shared plumbing for the benchmark workloads: the metric catalog (read
from ``BENCHMARK.json``), the hermetic work directory, seeded inputs,
output-check bookkeeping and the per-layer rollup of a traced run."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import union_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Span-name prefix -> layer, for the ``self_s.*`` rollup.
LAYER_OF_SPAN = (
    ("construction.", "construction"),
    ("store.", "store"),
    ("routing.", "routing"),
    ("traffic.", "traffic"),
    ("sim.flow", "sim.flow"),
    ("sim.packet", "sim.packet"),
    ("faults.", "faults"),
    ("runtime.", "runtime"),
    ("serve.", "serve"),
)


def spec() -> dict:
    """The benchmark's definition, ``BENCHMARK.json``: the workloads, the
    metric names and units, and the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` metrics (emitted with tracing
    off) or the ``per_layer`` metrics (emitted by a traced run; a layer
    that does no work on a workload reads 0)."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def require_program() -> None:
    """Fail fast (before printing any result) without ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program under {SRC}; nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class WorkDir:
    """Per-run scratch inside the checkout: store roots, journals, temp
    files and span dumps.  Nothing is read from or written to the user's
    caches; everything but the trace output is removed on close."""

    path: Path

    @classmethod
    def create(cls, workload: str, seed: int) -> "WorkDir":
        path = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(path, ignore_errors=True)
        (path / "tmp").mkdir(parents=True)
        os.environ["TMPDIR"] = str(path / "tmp")
        os.environ["REPRO_RUNS_DIR"] = str(path / "runs")
        # Until a workload picks a store root, point the default at an
        # empty one here rather than at the user's cache.
        os.environ["REPRO_STORE_DIR"] = str(path / "store-unused")
        return cls(path)

    def fresh(self, name: str) -> Path:
        """A new empty directory under the work dir."""
        p = self.path / name
        shutil.rmtree(p, ignore_errors=True)
        p.mkdir(parents=True)
        return p

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def use_store(root: Path) -> None:
    """Point this process (and children it spawns) at a store root, with
    an empty memory tier."""
    from repro import store

    os.environ["REPRO_STORE_DIR"] = str(root)
    store.configure(root=root)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent seeded stream per input family (pairs, arrivals, ...)."""
    return np.random.default_rng([seed, *tag.encode()])


#: A probe round's seconds on the reference host: the two-vCPU 2.0 GHz Xeon
#: guest the benchmark was sized on, in its fast state.  Inferred as the
#: round measured in its slow state (0.51-0.59 ms) over the workloads'
#: slow/fast wall-time ratios (1.9-2.6).  Only ratios of scaled times
#: matter; this constant just keeps them near a quiet host's wall times.
PROBE_REF_S = 0.00023
#: Pause between two probe rounds while a workload is timed.
PROBE_INTERVAL_S = 0.05

_PROBE_RNG = np.random.default_rng(0)
_PROBE_TABLE = _PROBE_RNG.random(1 << 17).tolist()  # ~4 MiB of float objects
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 17, 1000).tolist()


def probe_round() -> float:
    """Seconds of one fixed round of benchmark-owned work: interpreter
    arithmetic over lookups scattered across a table larger than the
    core's caches.  Pure Python, so the sampling thread never releases the
    GIL mid-round (numpy calls would, and the round would then time the
    workload's thread).  Calls nothing in ``src/``, so no change to the
    program can move it."""
    t0 = time.perf_counter()
    table, acc = _PROBE_TABLE, 0.0
    for i in _PROBE_INDEX:
        acc += table[i] * i
    return time.perf_counter() - t0


@dataclass
class HostSpeed:
    """Scales wall times to the reference host speed.

    On a shared host the same code ran 1.9-2.6x slower for tens of minutes
    at a time (other tenants on the physical cores; the guest sees almost
    no steal time).  While a workload is timed, a thread runs
    ``probe_round`` every ``PROBE_INTERVAL_S`` (about 1% of one core), so
    the probe sees the host as the workload does; a time is reported as
    wall seconds / ``slowdown()``, i.e. in seconds of the reference host."""

    rounds: list[float] = field(default_factory=list)

    @contextmanager
    def sampling(self):
        stop = threading.Event()

        def sample() -> None:
            while True:
                self.rounds.append(probe_round())
                if stop.wait(PROBE_INTERVAL_S):
                    return

        thread = threading.Thread(target=sample, name="host-probe", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def slowdown(self) -> float:
        """Median probe round while sampling over ``PROBE_REF_S`` (1 = the
        reference host; 2 = everything takes twice as long)."""
        return statistics.median(self.rounds) / PROBE_REF_S

    def scale(self, wall_s: float) -> float:
        return wall_s / self.slowdown()


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def self_peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child), in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Checks:
    """Operation tally: every attempted operation either passes its output
    check or counts as failed (wrong answer, error, timeout or 429)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def result_line(checks: Checks, metrics: dict[str, float], units: dict[str, str]) -> str:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"workload did not produce metrics: {sorted(missing)}")
    return json.dumps(
        {
            "correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def counter_total(registry: object, name: str, **labels: str) -> float:
    """Sum of a repro.obs counter's samples matching *labels* (0 if unset)."""
    if registry is None or name not in registry:  # type: ignore[operator]
        return 0.0
    return float(
        sum(
            s["value"]
            for s in registry.get(name).samples()  # type: ignore[attr-defined]
            if all(s["labels"].get(k) == v for k, v in labels.items())
        )
    )


def layer_metrics(traces: list[dict], registry: object, extra: dict[str, float]) -> dict[str, float]:
    """Roll span dumps (this process plus any pool workers) and the
    program's own obs counters up into the per-layer metrics."""
    selfs: dict[str, float] = {}
    count: dict[str, int] = {}
    attrs: dict[str, float] = {}
    hot: dict[str, tuple[int, float]] = {}
    plans: list[tuple[float, float]] = []
    trials: list[tuple[float, float]] = []
    for t in traces:
        for sp in t["spans"]:
            if sp["end"] is None:
                continue
            name = sp["name"]
            selfs[name] = selfs.get(name, 0.0) + sp["self_s"]
            count[name] = count.get(name, 0) + 1
            for k, v in sp.get("attrs", {}).items():
                attrs[k] = attrs.get(k, 0.0) + v
            if name == "runtime.run_plan":
                plans.append((sp["start"], sp["end"]))
            elif name == "runtime.trial":
                trials.append((sp["start"], sp["end"]))
        for name, h in t["hot"].items():
            c, s = hot.get(name, (0, 0.0))
            hot[name] = (c + h["calls"], s + h["seconds"])

    def s(name: str) -> float:
        return selfs.get(name, 0.0)

    dispatch = sum(
        (end - start) - union_seconds(
            [(max(a, start), min(b, end)) for a, b in trials if b > start and a < end]
        )
        for start, end in plans
    )
    reads, writes = count.get("store.read", 0), count.get("store.write", 0)
    hops = attrs.get("hops", 0.0)
    out = {
        "topologies.build_s": s("construction.topology"),
        "store.write_s": s("store.write"),
        "store.bytes_written": counter_total(registry, "store.bytes", op="write"),
        "store.read_s": s("store.read"),
        "store.hit_ratio": reads / (reads + writes) if reads + writes else 0.0,
        "routing.table.dist_s": s("routing.table.dist"),
        "routing.table.nexthop_s": s("routing.table.nexthop"),
        "routing.polarstar.calls": hot.get("routing.polarstar", (0, 0.0))[0],
        "routing.polarstar_s": hot.get("routing.polarstar", (0, 0.0))[1],
        "routing.ugal.decisions": counter_total(registry, "sim.packet.ugal_decisions")
        + counter_total(registry, "routing.ugal.decisions"),
        "routing.ugal_s": hot.get("routing.ugal", (0, 0.0))[1],
        "traffic.demand_s": s("traffic.demand"),
        "sim.flow.single_s": s("sim.flow.single"),
        "sim.flow.all_s": s("sim.flow.all"),
        "sim.flow.dest_columns": attrs.get("dest_columns", 0.0),
        "runtime.dispatch_s": dispatch,
        "runtime.journal_s": s("runtime.journal"),
        "sim.packet.run_s": s("sim.packet.run"),
        "sim.packet.hops": hops,
        "sim.packet.us_per_hop": s("sim.packet.run") / hops * 1e6 if hops else 0.0,
        "faults.bfs_calls": hot.get("faults.bfs", (0, 0.0))[0],
        "faults.bfs_s": hot.get("faults.bfs", (0, 0.0))[1],
        "faults.recompute.dests": counter_total(registry, "faults.recompute.dests"),
        "faults.healthy_graph_s": s("faults.healthy_graph"),
    }
    for name, secs in list(selfs.items()) + [(k, v[1]) for k, v in hot.items()]:
        if name == "runtime.run_plan":
            continue  # the supervisor's wall time; its own share is dispatch_s
        layer = next((lay for pre, lay in LAYER_OF_SPAN if name.startswith(pre)), None)
        if layer is not None:
            key = "self_s." + layer
            out[key] = out.get(key, 0.0) + secs
    out["self_s.runtime"] = out.get("self_s.runtime", 0.0) + dispatch
    for name in metric_units("per_layer"):
        out.setdefault(name, 0.0)
    out.update(extra)
    return out
