"""``serve_mixed``: ``repro serve start --topology PS-IQ`` (full scale) as a
subprocess over a pre-warmed store root, driven by the open-loop
generator in ``loadgen.py``.

The latency phase sends Poisson arrivals at ``NOMINAL_QPS`` for half the
run's ``--seconds``: mostly distance batches of 1-64 pairs, some path
batches and occasional 4096-pair bulk batches.  The weights and rates are
assumptions, not measurements (see the constants below).  Reads continue
through a trailing ``EPOCH_SEGMENT_S`` segment in which fault-epoch
``apply``/``clear`` ops alternate, so epoch builds compete with reads.
``run_s`` is the median closed-loop wall time of a fixed bulk burst,
repeated for the other half of ``--seconds``.  The traced run adds the
saturation ladder and in-process replays of the same batch mix through
``QueryEngine`` and ``FaultEpochManager.stage``.

Every answer is checked against an offline oracle for the epoch label it
carries: the store's distance table for epoch 0, a BFS table of
``LinkHealth(...).healthy_graph()`` for a degraded epoch.  Each path must
be a walk on that epoch's graph whose length equals the distance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from harness import (
    ROOT,
    SRC,
    Checks,
    HostSpeed,
    WorkDir,
    percentile,
    proc_peak_rss_mb,
    rng_for,
    use_store,
)
from loadgen import Outcome, Request, drive

TOPOLOGY = "PS-IQ"
# Traffic parameters.  No measured trace or published workload of route
# queries exists for this server, so the mix, the rates, the pair
# distribution and the failure rate below are ASSUMPTIONS, chosen only to
# exercise every serving layer; the serve.* latency and saturation figures
# depend on them and describe this synthetic mix, not real users.
# Where a value has a basis, it is named:
#   NOMINAL_QPS     assumed.
#   MIX             assumed: "mostly distance, some path, occasional bulk".
#   SMALL_MAX_PAIRS 64: the largest small batch in
#                   benchmarks/results/BENCH_serve.json; sizes 1..64 are
#                   drawn uniformly (assumed).
#   BULK_PAIRS      4096: the server's default --max-batch, and the bulk
#                   batch size in BENCH_serve.json.
#   pairs           uniform over router pairs (assumed).
#   FAIL_FRACTION   assumed; below fig14's smallest non-zero fraction (5%).
#   LADDER_QPS, P99_LIMIT_MS  assumed.
NOMINAL_QPS = 100.0
MIX = (("distance", 0.83), ("path", 0.15), ("bulk", 0.02))
SMALL_MAX_PAIRS = 64
BULK_PAIRS = 4096
#: Epoch admin ops run in a segment after the latency phase: on a two-core
#: host each 0.3 s table build stalls reads, and a few stalls per run
#: moved the run's p99 by more than half from run to run.
EPOCH_SEGMENT_S = 3.0
EPOCH_PERIOD_S = 1.0
FAIL_FRACTION = 0.02  # links failed by each epoch apply
BURST = (("distance", 4096, 16), ("path", 512, 8))  # op, pairs per batch, batches
BURST_MIN_REPS = 3
#: Saturation ladder (traced run): offered rates of the 1-64 pair mix,
#: seconds per rung, and the p99 limit a rung must meet, with no failures
#: and no growing backlog.
LADDER_QPS = (100, 200, 300, 400, 600, 800)
RUNG_S = 2.0
P99_LIMIT_MS = 25.0
SETUP_REPS = 5
TIMEOUT_S = 20.0
CONNECTIONS = os.cpu_count() or 1


def encode(req: dict) -> bytes:
    return json.dumps(req, separators=(",", ":")).encode() + b"\n"


def query_line(ident: int, op: str, pairs: np.ndarray) -> bytes:
    return encode({"op": op, "topology": TOPOLOGY, "pairs": pairs.tolist(), "id": ident})


def schedule(seed: int, tag: str, qps: float, duration: float, n: int,
             graph=None, bulk: bool = True) -> tuple[list[Request], dict[int, list]]:
    """Seeded Poisson arrivals of the request mix over *duration* seconds
    (without bulk batches unless *bulk*); with *graph*, the reads go on for
    another ``EPOCH_SEGMENT_S`` seconds while epoch apply/clear admin ops
    alternate every ``EPOCH_PERIOD_S``.  Returns the requests and each
    epoch label's events."""
    from repro.faults import permanent_link_failures

    rng = rng_for(seed, tag)
    mix = [(k, p) for k, p in MIX if bulk or k != "bulk"]
    kinds = [k for k, _ in mix]
    probs = np.array([p for _, p in mix]) / sum(p for _, p in mix)
    reqs: list[Request] = []
    end = duration + (EPOCH_SEGMENT_S if graph is not None else 0.0)
    t = rng.exponential(1.0 / qps)
    while t < end:
        kind = str(rng.choice(kinds, p=probs))
        k = BULK_PAIRS if kind == "bulk" else int(rng.integers(1, SMALL_MAX_PAIRS + 1))
        pairs = rng.integers(0, n, size=(k, 2))
        op = "path" if kind == "path" else "distance"
        reqs.append(Request(t, query_line(len(reqs), op, pairs), op, pairs))
        t += rng.exponential(1.0 / qps)
    epochs: dict[int, list] = {}
    if graph is not None:
        label = 0
        for j, at in enumerate(np.arange(duration + EPOCH_PERIOD_S / 4, end, EPOCH_PERIOD_S)):
            ident = len(reqs)
            if j % 2 == 0:
                label += 1
                events = list(permanent_link_failures(
                    graph, FAIL_FRACTION, seed=int(rng.integers(2**31))))
                epochs[label] = events
                line = encode({"op": "faults", "action": "apply", "topology": TOPOLOGY,
                               "events": [e.to_jsonable() for e in events],
                               "label": label, "id": ident})
                reqs.append(Request(float(at), line, "apply", label))
            else:
                line = encode({"op": "faults", "action": "clear", "topology": TOPOLOGY,
                               "id": ident})
                reqs.append(Request(float(at), line, "clear", 0))
    reqs.sort(key=lambda r: r.due)
    return reqs, epochs


def burst(seed: int, n: int) -> list[Request]:
    """The fixed closed-loop work ``run_s`` times (all due at once)."""
    rng = rng_for(seed, "burst")
    reqs = []
    for op, k, count in BURST:
        for _ in range(count):
            pairs = rng.integers(0, n, size=(k, 2))
            reqs.append(Request(0.0, query_line(len(reqs), op, pairs), op, pairs))
    return reqs


class Oracle:
    """Offline answers per epoch label: distances (``-1`` unreachable) and
    the epoch graph's adjacency for path validation."""

    def __init__(self, topo, dist0: np.ndarray, epochs: dict[int, list]) -> None:
        from repro.faults import LinkHealth
        from repro.routing.table import build_distance_table

        self.tables = {0: (self._signed(dist0), self._adjacency(topo.graph))}
        for label, events in epochs.items():
            health = LinkHealth(topo.graph)
            for ev in events:
                health.apply(ev)
            g = health.healthy_graph()
            self.tables[label] = (self._signed(build_distance_table(g)), self._adjacency(g))

    @staticmethod
    def _signed(dist: np.ndarray) -> np.ndarray:
        d = dist.astype(np.int64)
        d[d == np.iinfo(np.int16).max] = -1
        return d

    @staticmethod
    def _adjacency(graph) -> np.ndarray:
        adj = np.zeros((graph.n, graph.n), dtype=bool)
        e = graph.edge_array
        adj[e[:, 0], e[:, 1]] = True
        adj[e[:, 1], e[:, 0]] = True
        return adj

    def check(self, req: Request, resp: dict) -> str | None:
        """``None`` when *resp* is the right answer to *req*, else why not."""
        if req.kind in ("apply", "clear"):
            return None if resp.get("epoch") == req.meta else f"epoch {resp.get('epoch')}"
        label = resp.get("epoch")
        if label not in self.tables:
            return f"unknown epoch label {label}"
        dist, adj = self.tables[label]
        want = dist[req.meta[:, 0], req.meta[:, 1]]
        got = resp.get("result")
        if not isinstance(got, list) or len(got) != len(want):
            return "result length"
        if req.kind == "distance":
            return None if got == want.tolist() else f"distance mismatch (epoch {label})"
        for (s, d), w, path in zip(req.meta.tolist(), want.tolist(), got):
            if w < 0:
                if path is not None:
                    return "path for an unreachable pair"
                continue
            if (not isinstance(path, list) or len(path) != w + 1
                    or path[0] != s or path[-1] != d
                    or not all(adj[a, b] for a, b in zip(path, path[1:]))):
                return f"invalid path {s}->{d} (epoch {label})"
        return None


def verify(reqs: list[Request], outs: list[Outcome], oracle: Oracle, checks: Checks) -> None:
    """Check every answer: errors, timeouts and 429s fail like wrong answers."""
    for req, out in zip(reqs, outs):
        if out.error is not None:
            checks.record(False, f"{req.kind}: {out.error}")
            continue
        resp = json.loads(out.response)
        if not resp.get("ok"):
            checks.record(False, f"{req.kind}: {resp.get('code')} {resp.get('error')}")
        else:
            why = oracle.check(req, resp)
            checks.record(why is None, f"{req.kind}: {why}")


def start_server(store_root: Path, log: Path):
    """Launch the server; returns ``(process, address, seconds to ready)``."""
    from repro.serve.client import wait_until_ready

    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_STORE_DIR=str(store_root))
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start", "--topology", TOPOLOGY],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
    try:
        info = wait_until_ready(proc.stdout, timeout=60.0)
    except BaseException:
        stop_server(proc)
        raise
    return proc, (info["host"], int(info["port"])), time.perf_counter() - t0


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


@contextmanager
def same_cpu(server_pid: int):
    """Pin this process and the server's event-loop thread to one CPU.

    The burst is a ping-pong between the two; across CPUs each hand-off is
    a cross-CPU wakeup, and on a shared two-vCPU host those made burst
    times spread ~20% within one run (~7% pinned)."""
    mine, theirs = os.sched_getaffinity(0), os.sched_getaffinity(server_pid)
    cpu = {min(mine)}
    os.sched_setaffinity(0, cpu)
    os.sched_setaffinity(server_pid, cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)
        os.sched_setaffinity(server_pid, theirs)


def latencies_ms(reqs: list[Request], outs: list[Outcome]) -> tuple[list[tuple[float, float]], list[float]]:
    """Query latencies from due time, split into ``(due, ms)`` for those
    clear of every epoch apply and ms for those whose wait overlapped one
    (a build stalls the server for its whole duration, so a handful of
    applies would otherwise decide the p99 of the run)."""
    windows = [(o.sent, o.done) for r, o in zip(reqs, outs)
               if r.kind == "apply" and o.sent is not None and o.done is not None]
    clear, during = [], []
    for r, o in zip(reqs, outs):
        if r.kind not in ("distance", "path") or o.done is None:
            continue
        ms = (o.done - r.due) * 1e3
        if any(r.due < end and o.done > start for start, end in windows):
            during.append(ms)
        else:
            clear.append((r.due, ms))
    return clear, during


def ladder(addr, seed: int, n: int) -> tuple[float, list[dict]]:
    """Highest rung whose p99 meets the limit with no failure and no
    growing backlog (last third's mean latency within 2x of the first's)."""
    best, rungs = 0.0, []
    for qps in LADDER_QPS:
        reqs, _ = schedule(seed, f"ladder-{qps}", qps, RUNG_S, n, bulk=False)
        outs = drive(addr, reqs, CONNECTIONS, TIMEOUT_S)
        clear, _ = latencies_ms(reqs, outs)
        lat = [ms for _, ms in clear]
        failed = sum(o.error is not None or not json.loads(o.response).get("ok")
                     for o in outs)
        third = max(1, len(lat) // 3)
        growing = np.mean(lat[-third:]) > 2 * np.mean(lat[:third]) + 2.0 if lat else True
        p99 = percentile(lat, 99)
        ok = not failed and not growing and p99 <= P99_LIMIT_MS
        rungs.append({"qps": qps, "p99_ms": p99, "failed": failed, "growing": bool(growing)})
        if not ok:
            break
        best = float(qps)
    return best, rungs


def run(workload: str, seed: int, seconds: float, work: WorkDir, checks: Checks,
        goldens: dict, tracer=None) -> dict:
    from repro import store
    from repro.serve.client import ServeClient
    from repro.topologies.table3 import TABLE3_BUILDERS

    # Pre-warm the store root (untimed) and set up the oracle.
    warm = work.fresh("store-warm")
    use_store(warm)
    topo = store.table3_topology(TOPOLOGY)
    dist0 = store.distance_table(topo)
    _, routers, radix, endpoints = TABLE3_BUILDERS[TOPOLOGY]
    got = (topo.num_routers, topo.network_radix, topo.num_endpoints)
    checks.record(got == (routers, radix, endpoints), f"{TOPOLOGY}: {got} != Table 3")
    checks.record(int(dist0.max()) == 3, f"{TOPOLOGY} diameter {int(dist0.max())} != 3")
    n = topo.num_routers
    phase_s = seconds / 2  # latency phase; the bursts take the other half
    reqs, epochs = schedule(seed, "nominal", NOMINAL_QPS, phase_s, n, graph=topo.graph)
    bulk = burst(seed, n)
    oracle = Oracle(topo, dist0, epochs)

    speed = HostSpeed()
    setups = []
    proc = None
    log = work.path / "server.log"
    extra: dict = {}
    try:
        with speed.sampling():
            for _ in range(SETUP_REPS):
                if proc is not None:
                    stop_server(proc)
                    proc = None
                proc, addr, secs = start_server(warm, log)
                setups.append(secs)
        outs = drive(addr, reqs, CONNECTIONS, TIMEOUT_S)
        with ServeClient(*addr) as client:
            stats = client.stats()
        walls, bursts = [], []
        with same_cpu(proc.pid), speed.sampling():
            t_end = time.perf_counter() + phase_s
            while len(walls) < BURST_MIN_REPS or time.perf_counter() < t_end:
                t0 = time.perf_counter()
                bursts.append(drive(addr, bulk, CONNECTIONS, TIMEOUT_S))
                walls.append(time.perf_counter() - t0)
        rss = proc_peak_rss_mb(proc.pid)
        if tracer is not None:
            extra["serve.sat_qps"], rungs = ladder(addr, seed, n)
    finally:
        if proc is not None:
            stop_server(proc)

    verify(reqs, outs, oracle, checks)
    for b in bursts:
        verify(bulk, b, oracle, checks)
    clear, during = latencies_ms(reqs, outs)
    phase = [ms for due, ms in clear if due < phase_s]
    applies = [(o.done - o.sent) for r, o in zip(reqs, outs)
               if r.kind == "apply" and o.done is not None]
    late = [o.late * 1e3 for o in outs if o.sent is not None]
    pairs = sum(len(r.meta) for r in reqs if r.kind in ("distance", "path"))
    extra.update({
        "serve.server.p50_ms": (stats["latency"]["p50_s"] or 0.0) * 1e3,
        "serve.server.p99_ms": (stats["latency"]["p99_s"] or 0.0) * 1e3,
        "serve.pairs_per_batch": pairs / stats["batches"] if stats["batches"] else 0.0,
        "serve.rejected": float(stats["rejected"]),
        "serve.errors": float(sum(stats["errors"].values())),
        "serve.epoch_apply_s": percentile(applies, 50),
        "serve.lat_p50_ms": percentile(phase, 50),
        "serve.lat_p99_ms": percentile(phase, 99),
        "serve.lat_during_apply_p99_ms": percentile(during, 99),
        "loadgen.late_p99_ms": percentile(late, 99),
    })
    print(f"serve_mixed: {len(reqs)} requests at {NOMINAL_QPS}/s over {CONNECTIONS} "
          f"connections; latency p50 {extra['serve.lat_p50_ms']:.2f} ms, p99 "
          f"{extra['serve.lat_p99_ms']:.2f} ms; {len(applies)} epoch applies (median "
          f"{extra['serve.epoch_apply_s']:.3f} s, {len(during)} queries waited on one, p99 "
          f"{extra['serve.lat_during_apply_p99_ms']:.1f} ms); "
          f"generator late p99 {extra['loadgen.late_p99_ms']:.2f} ms", file=sys.stderr)
    setup_s, run_s = percentile(setups, 50), percentile(walls, 50)
    print(f"serve_mixed: wall setup_s {setup_s:.4f} s, run_s {run_s:.4f} s over {len(walls)} "
          f"bursts; host slowdown {speed.slowdown():.3f}", file=sys.stderr)
    extra["host.slowdown"] = speed.slowdown()
    metrics = {
        "setup_s": speed.scale(setup_s),
        "run_s": speed.scale(run_s),
        "peak_rss_mb": rss,
    }
    if tracer is None:
        return metrics
    print(f"serve_mixed ladder (p99 limit {P99_LIMIT_MS} ms): {rungs}", file=sys.stderr)
    extra.update(replay(warm, reqs, epochs, tracer))
    return {"registry": extra.pop("registry"), "extra": extra}


def replay(warm: Path, reqs: list[Request], epochs: dict[int, list], tracer) -> dict:
    """In-process engine and epoch-build replays of the nominal mix: once
    plain (ns per pair), once under spans (layer split and overhead)."""
    from repro import obs
    from repro.serve.engine import QueryEngine, ShardRegistry, plan_batch
    from repro.serve.epochs import FaultEpochManager
    from spans import install

    queries = [r for r in reqs if r.kind in ("distance", "path")]

    def engine_pass(engine: QueryEngine) -> dict[str, list[float]]:
        per_op: dict[str, list[float]] = {"distance": [0.0, 0], "path": [0.0, 0]}
        n = engine.registry.get(TOPOLOGY).n
        for r in queries:
            src, dst = plan_batch(r.meta, n)
            t0 = time.perf_counter()
            engine.lookup(TOPOLOGY, r.kind, src, dst)
            per_op[r.kind][0] += time.perf_counter() - t0
            per_op[r.kind][1] += len(src)
        return per_op

    use_store(warm)
    registry = ShardRegistry()
    registry.load(TOPOLOGY)
    plain = engine_pass(QueryEngine(registry))

    install(tracer)
    with obs.session() as (obs_registry, _):
        use_store(warm)
        registry = ShardRegistry()
        registry.load(TOPOLOGY)
        traced = engine_pass(QueryEngine(registry))
        manager = FaultEpochManager(registry)
        stages = []
        for label, events in sorted(epochs.items()):
            t0 = time.perf_counter()
            manager.stage(TOPOLOGY, events, label=label)
            stages.append(time.perf_counter() - t0)
            manager.clear(TOPOLOGY)
    tracer.uninstall()

    plain_s = plain["distance"][0] + plain["path"][0]
    traced_s = traced["distance"][0] + traced["path"][0]
    return {
        "registry": obs_registry,
        "serve.engine.ns_per_pair.distance":
            plain["distance"][0] / max(plain["distance"][1], 1) * 1e9,
        "serve.engine.ns_per_pair.path": plain["path"][0] / max(plain["path"][1], 1) * 1e9,
        "serve.epochs.stage_s": percentile(stages, 50),
        "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s else 0.0,
    }
