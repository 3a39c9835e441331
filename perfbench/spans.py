"""Benchmark-owned spans around the program's public entry points.

The traced run wraps a fixed list of public functions (store resolution,
distance and next-hop tables, flow link loads, the PolarStar router, the
packet simulator, fault-mask BFS, the serve engine and epoch manager, the
trial runtime and its journal) in spans that live in this file, so the
program under test is never edited.  Each span records its name, start,
end and parent and is kept in memory until :meth:`Tracer.dump`.

Functions called millions of times (router lookups, per-destination BFS)
are *hot*: instead of one record per call they add to a per-name
``[calls, seconds]`` aggregate, and their time is still charged to the
enclosing span's children, so self times stay exact.

The tracer is single-threaded by design: every traced call happens on the
workload's main thread (pool workers each run their own tracer).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "install", "install_worker", "union_seconds"]

_now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """In-memory span recorder with monkeypatch-based instrumentation."""

    def __init__(self) -> None:
        # [name, start, end, parent, child_seconds, attrs]
        self.records: list[list[Any]] = []
        self.hot: dict[str, list[float]] = {}
        self._depth: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, _now(), None, parent, 0.0, None])
        idx = len(self.records) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str | None = None, attrs: dict | None = None) -> None:
        rec = self.records[idx]
        rec[2] = _now()
        if name is not None:
            rec[0] = name
        if attrs:
            rec[5] = attrs
        self._stack.pop()
        if rec[3] is not None:
            self.records[rec[3]][4] += rec[2] - rec[1]

    def span(self, name: str, fn: Callable, namer: Callable | None = None) -> Callable:
        """Wrap *fn* so each call is one span.  ``namer(args, kwargs,
        result)`` may return ``(name, attrs)`` to rename the span at close."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                final, attrs = namer(args, kwargs, result) if namer else (None, None)
                self._close(idx, final, attrs)

        return wrapper

    def hot_call(self, name: str, fn: Callable) -> Callable:
        """Wrap *fn* as an aggregated leaf: only the outermost call of a
        re-entrant chain counts (``next_hop`` calls ``next_hops``)."""
        agg = self.hot.setdefault(name, [0, 0.0])
        depth = self._depth.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                depth[0] = 0
                agg[0] += 1
                agg[1] += dt
                if self._stack:
                    self.records[self._stack[-1]][4] += dt

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with *wrapper*.  For a module function,
        every ``from x import f`` alias in already-imported ``repro``
        modules is replaced too, so callers that bound the name see it."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod in list(sys.modules.values()):
            if mod is owner or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "pid": os.getpid(),
            "spans": [
                {"name": r[0], "start": r[1], "end": r[2], "parent": r[3],
                 "self_s": None if r[2] is None else r[2] - r[1] - r[4],
                 **({"attrs": r[5]} if r[5] else {})}
                for r in self.records
            ],
            "hot": {k: {"calls": int(v[0]), "seconds": v[1]} for k, v in self.hot.items()},
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json()))


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def install(tracer: Tracer) -> None:
    """Wrap every public entry point the per-layer metrics are read from."""
    from repro.experiments import fig09
    from repro.faults.health import LinkHealth
    from repro.routing import table as rtable
    from repro.routing.polarstar_routing import PolarStarRouter
    from repro.routing.ugal import UgalPolicy
    from repro.runtime import journal, supervisor
    from repro.serve.engine import QueryEngine
    from repro.serve.epochs import FaultEpochManager
    from repro.sim import flow
    from repro.sim.packet import PacketSimulator
    from repro.store.core import ArtifactStore

    get_or_build = ArtifactStore.get_or_build
    built: list[bool] = []  # one flag per open get_or_build: did it miss?

    def store_namer(args: tuple, kwargs: dict, result: Any) -> tuple[str, None]:
        return ("store.write" if built[-1] else "store.read"), None

    def traced_get_or_build(self: Any, key: Any, build: Callable, *a: Any, **k: Any) -> Any:
        def traced_build() -> Any:
            built[-1] = True
            return tracer.span("construction." + key.kind, build)()

        built.append(False)
        try:
            return tracer.span("store.read", get_or_build, store_namer)(
                self, key, traced_build, *a, **k
            )
        finally:
            built.pop()

    tracer.patch(ArtifactStore, "get_or_build", traced_get_or_build)
    tracer.patch(rtable, "build_distance_table",
                 tracer.span("routing.table.dist", rtable.build_distance_table))
    tracer.patch(rtable, "next_hop_table",
                 tracer.span("routing.table.nexthop", rtable.next_hop_table))
    for attr in ("distance", "next_hops"):
        tracer.patch(PolarStarRouter, attr,
                     tracer.hot_call("routing.polarstar", getattr(PolarStarRouter, attr)))
    tracer.patch(UgalPolicy, "choose", tracer.hot_call("routing.ugal", UgalPolicy.choose))

    def flow_namer(args: tuple, kwargs: dict, result: Any) -> tuple[str, dict]:
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "all")
        demand = args[2] if len(args) > 2 else kwargs["demand"]
        return f"sim.flow.{mode}", {"dest_columns": int((demand != 0).any(axis=0).sum())}

    tracer.patch(flow, "link_loads", tracer.span("sim.flow", flow.link_loads, flow_namer))
    tracer.patch(fig09, "pattern_demand", tracer.span("traffic.demand", fig09.pattern_demand))

    def packet_namer(args: tuple, kwargs: dict, result: Any) -> tuple[None, dict | None]:
        if result is None:
            return None, None
        return None, {"hops": float(result.delivered * result.avg_hops)}

    tracer.patch(PacketSimulator, "run",
                 tracer.span("sim.packet.run", PacketSimulator.run, packet_namer))
    tracer.patch(LinkHealth, "bfs_from", tracer.hot_call("faults.bfs", LinkHealth.bfs_from))
    tracer.patch(LinkHealth, "healthy_graph",
                 tracer.span("faults.healthy_graph", LinkHealth.healthy_graph))

    def lookup_namer(args: tuple, kwargs: dict, result: Any) -> tuple[str, None]:
        op = args[2] if len(args) > 2 else kwargs.get("op")
        return f"serve.engine.{op}", None

    tracer.patch(QueryEngine, "lookup",
                 tracer.span("serve.engine", QueryEngine.lookup, lookup_namer))
    tracer.patch(FaultEpochManager, "stage",
                 tracer.span("serve.epochs.stage", FaultEpochManager.stage))
    tracer.patch(supervisor, "run_plan", tracer.span("runtime.run_plan", supervisor.run_plan))
    tracer.patch(journal.Journal, "append",
                 tracer.span("runtime.journal", journal.Journal.append))


def install_worker(out_dir: str) -> None:
    """Pool-worker side of a traced run: wrap the same entry points plus
    ``execute_trial``, and rewrite this worker's span file after each
    trial (workers may be killed at pool shutdown, so there is no exit
    hook to rely on)."""
    from repro.runtime import pool

    tracer = Tracer()
    install(tracer)
    path = Path(out_dir) / f"worker-{os.getpid()}.json"
    traced = tracer.span("runtime.trial", pool.execute_trial)

    def execute_trial(task: dict) -> dict:
        try:
            return traced(task)
        finally:
            tracer.dump(path)

    pool.execute_trial = execute_trial
