"""Chaos harness: query burst vs fault epochs and SIGKILL/restart cycles.

The capstone check for fault-epoch serving: drive a seeded burst of
distance queries through a :class:`~repro.serve.reliability.RetryingClient`
while the harness injects fault epochs (admin ``faults apply`` ops) and
SIGKILLs/restarts the serving process mid-burst, then assert

* **no wrong answer was ever delivered** — every response carries the
  epoch label it executed under, and every value is checked against an
  offline oracle (:class:`~repro.faults.health.LinkHealth` BFS on the
  same cumulative fault mask, the ``FaultAwareRouter`` ground truth);
* **the client completed the full burst** — restarts and epoch swaps cost
  retries, never failures;
* **the availability gap is accounted** — ``serve.epoch.swaps`` on the
  server, retry causes / reconnects / breaker opens on the client.

Everything is deterministic under ``ChaosConfig.seed``: the query pool,
the per-epoch fault events, the retry jitter.  Wall-clock interleaving
(which batch lands in which epoch) varies run to run — that is the point
— but correctness never depends on it, because answers are attributed by
epoch label, not by time.

Process control lives in :class:`repro.runtime.ManagedProcess` (RL108);
this module only decides *when* to kill.  The retry loops live in
:mod:`repro.serve.reliability` (RL113); this module only counts them.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro import store
from repro.faults import node_failures, permanent_link_failures
from repro.faults.health import UNREACHABLE, LinkHealth
from repro.faults.model import FaultEvent
from repro.runtime import ManagedProcess
from repro.serve.client import ServeError, wait_until_ready
from repro.serve.reliability import (
    BackoffPolicy,
    BreakerOpenError,
    CircuitBreaker,
    RetryingClient,
)

__all__ = ["ChaosConfig", "format_chaos", "run_chaos"]

#: Distinct destinations in the query pool — bounds offline-oracle cost to
#: one BFS per (epoch, destination).
_MAX_DESTS = 32


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos run (all defaults CI-sized for ``reduced``)."""

    topology: str = "PS-IQ"
    scale: str = "full"
    batches: int = 40
    batch_size: int = 64
    pool_size: int = 512
    epochs: int = 2
    kills: int = 1
    fail_fraction: float = 0.02
    fail_nodes: int = 1
    seed: int = 0
    deadline_ms: float = 5000.0
    request_deadline_s: float = 120.0
    startup_timeout: float = 180.0

    def __post_init__(self) -> None:
        if self.batches < self.epochs + self.kills + 1:
            raise ValueError(
                f"need batches > epochs + kills to interleave actions, got "
                f"batches={self.batches} epochs={self.epochs} kills={self.kills}"
            )
        if self.batch_size < 1 or self.pool_size < 1:
            raise ValueError("batch_size and pool_size must be >= 1")
        if self.epochs < 0 or self.kills < 0:
            raise ValueError("epochs and kills must be >= 0")


def _epoch_events(graph, config: ChaosConfig) -> dict[int, list[FaultEvent]]:
    """Cumulative fault events per epoch label (label -> events since t=0).

    Each epoch adds a seeded batch of permanent link failures (epoch 1
    also downs ``fail_nodes`` routers).  Cumulative lists make restart
    recovery trivial: re-applying ``events[label]`` to a pristine server
    reproduces epoch *label* exactly (down events are idempotent).
    """
    cumulative: dict[int, list[FaultEvent]] = {0: []}
    for label in range(1, config.epochs + 1):
        fresh = list(
            permanent_link_failures(
                graph, config.fail_fraction, seed=config.seed + label
            )
        )
        if label == 1 and config.fail_nodes:
            fresh += list(
                node_failures(graph, config.fail_nodes, seed=config.seed + label)
            )
        cumulative[label] = cumulative[label - 1] + fresh
    return cumulative


def _oracles(
    graph, events: dict[int, list[FaultEvent]], dests: np.ndarray
) -> dict[int, dict[int, np.ndarray]]:
    """Offline ground truth: ``oracle[label][dest][src]`` distances.

    Built with :meth:`LinkHealth.distances_to` on the cumulative mask — the
    kernel whose rows :class:`~repro.faults.router.FaultAwareRouter` routes on,
    so a served answer that matches here matches offline fault-aware
    routing by construction.
    """
    out: dict[int, dict[int, np.ndarray]] = {}
    health = LinkHealth(graph)
    applied = 0
    for label in sorted(events):
        for ev in events[label][applied:]:
            health.apply(ev)
        applied = len(events[label])
        rows = health.distances_to(dests)
        out[label] = {int(d): row for d, row in zip(dests, rows)}
    return out


def _oracle_distance(table: np.ndarray, src: int) -> int:
    v = int(table[src])
    return -1 if v >= UNREACHABLE else v


def _server_argv(config: ChaosConfig, port: int) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", "start",
        "--topology", config.topology,
        "--scale", config.scale,
        "--port", str(port),
    ]


def _make_client(
    host: str, port: int, config: ChaosConfig, *, seed_offset: int = 0
) -> RetryingClient:
    """A retrying client tuned to ride out a full kill/restart outage."""
    return RetryingClient(
        host,
        port,
        policy=BackoffPolicy(base=0.05, cap=1.0, multiplier=2.0, jitter=0.5),
        breaker=CircuitBreaker(failure_threshold=6, reset_after=0.25),
        max_attempts=40,
        deadline_s=config.request_deadline_s,
        seed=config.seed + seed_offset,
        client_id=f"chaos{seed_offset}",
    )


def _drive(
    client: RetryingClient,
    config: ChaosConfig,
    batches: list[list[list[int]]],
    oracles: dict[int, dict[int, np.ndarray]],
    progress: dict,
    lock: threading.Lock,
) -> None:
    """Issue every batch, verifying each answer against its epoch's oracle."""
    for batch in batches:
        try:
            resp = client.query(
                "distance", config.topology, batch,
                deadline_ms=config.deadline_ms,
            )
        except (ServeError, BreakerOpenError, ConnectionError, OSError) as exc:
            with lock:
                progress["driver_error"] = f"{type(exc).__name__}: {exc}"
            return
        label = int(resp.get("epoch", -1))
        result = resp["result"]
        with lock:
            progress["answers_by_epoch"][label] = (
                progress["answers_by_epoch"].get(label, 0) + len(result)
            )
            progress["answers"] += len(result)
            tables = oracles.get(label)
            for (s, d), got in zip(batch, result):
                want = (
                    _oracle_distance(tables[d], s) if tables is not None
                    else None
                )
                if want is None or int(got) != want:
                    progress["wrong"] += 1
                    if len(progress["mismatches"]) < 10:
                        progress["mismatches"].append({
                            "epoch": label, "src": s, "dst": d,
                            "got": int(got), "want": want,
                        })
            progress["batches_completed"] += 1


def _wait_for_batches(
    progress: dict, lock: threading.Lock, target: int, timeout: float
) -> bool:
    """Poll until the driver has completed *target* batches (or errored)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with lock:
            if progress["driver_error"] is not None:
                return False
            if progress["batches_completed"] >= target:
                return True
        time.sleep(0.01)
    return False


def run_chaos(config: ChaosConfig) -> dict:
    """Run the chaos scenario; returns a ``repro.serve.chaos/v1`` report.

    The report's ``ok`` field is the gate: every delivered answer matched
    the offline fault-aware oracle for the epoch it was served under, the
    full burst completed, and the configured epoch swaps and kill/restart
    cycles all happened mid-burst.
    """
    t_start = time.monotonic()
    topo = store.resolve_topology(config.topology, scale=config.scale)
    graph = topo.graph
    rng = np.random.default_rng(config.seed)

    # Seeded query plan: a bounded destination set keeps the offline
    # oracle at one BFS per (epoch, destination).
    dests = rng.choice(graph.n, size=min(_MAX_DESTS, graph.n), replace=False)
    pool_src = rng.integers(0, graph.n, size=config.pool_size)
    pool_dst = rng.choice(dests, size=config.pool_size)
    batches = []
    for _ in range(config.batches):
        idx = rng.integers(0, config.pool_size, size=config.batch_size)
        batches.append(
            [[int(pool_src[i]), int(pool_dst[i])] for i in idx]
        )

    events = _epoch_events(graph, config)
    oracles = _oracles(graph, events, dests)

    # Interleave the fault timeline with the kills: epoch 1, kill 1,
    # epoch 2, kill 2, ... at evenly spaced batch-count thresholds.
    actions: list[tuple[str, int]] = [
        ("epoch", label) for label in range(1, config.epochs + 1)
    ]
    for i in range(config.kills):
        actions.insert(min(1 + 2 * i, len(actions)), ("kill", i + 1))
    step = max(1, config.batches // (len(actions) + 1))

    progress: dict = {
        "batches_completed": 0,
        "answers": 0,
        "answers_by_epoch": {},
        "wrong": 0,
        "mismatches": [],
        "driver_error": None,
    }
    lock = threading.Lock()
    kills_done = 0
    applies_done = 0
    current_label = 0
    server_stats: dict = {}
    server_exit_code: int | None = None

    proc = ManagedProcess(_server_argv(config, 0))
    try:
        banner = wait_until_ready(proc.stdout, timeout=config.startup_timeout)
        host, port = str(banner["host"]), int(banner["port"])

        driver = _make_client(host, port, config, seed_offset=1)
        admin = _make_client(host, port, config, seed_offset=2)
        thread = threading.Thread(
            target=_drive,
            args=(driver, config, batches, oracles, progress, lock),
            name="chaos-driver",
            daemon=True,
        )
        thread.start()

        for i, (kind, arg) in enumerate(actions):
            _wait_for_batches(
                progress, lock, step * (i + 1), config.request_deadline_s
            )
            with lock:
                if progress["driver_error"] is not None:
                    break
            if kind == "epoch":
                # Fresh events only — the server's health mask is
                # cumulative across applies on the same process.
                fresh = events[arg][len(events[arg - 1]):]
                admin.request({
                    "op": "faults", "action": "apply",
                    "topology": config.topology,
                    "events": [ev.to_jsonable() for ev in fresh],
                    "label": arg,
                })
                current_label = arg
                applies_done += 1
            else:
                proc.close()
                kills_done += 1
                proc = ManagedProcess(_server_argv(config, port))
                wait_until_ready(proc.stdout, timeout=config.startup_timeout)
                if current_label:
                    # The restarted server is pristine (epoch 0, also a
                    # valid oracle state) until the cumulative fault mask
                    # is re-applied under the same label.
                    admin.request({
                        "op": "faults", "action": "apply",
                        "topology": config.topology,
                        "events": [
                            ev.to_jsonable() for ev in events[current_label]
                        ],
                        "label": current_label,
                    })

        thread.join(timeout=config.request_deadline_s)
        driver_alive = thread.is_alive()
        try:
            server_stats = admin.stats()
        except (ServeError, BreakerOpenError, ConnectionError, OSError):
            server_stats = {}
        driver.close()
        admin.close()

        proc.terminate()
        drain_deadline = time.monotonic() + 60.0
        while proc.running() and time.monotonic() < drain_deadline:
            time.sleep(0.05)
        server_exit_code = proc.poll()
    finally:
        proc.close()

    breaker_opens = driver.breaker.opens + admin.breaker.opens
    ok = (
        progress["driver_error"] is None
        and not driver_alive
        and progress["wrong"] == 0
        and progress["batches_completed"] == config.batches
        and kills_done == config.kills
        and applies_done == config.epochs
    )
    return {
        "schema": "repro.serve.chaos/v1",
        "ok": bool(ok),
        "config": asdict(config),
        "batches_completed": progress["batches_completed"],
        "answers": progress["answers"],
        "answers_by_epoch": {
            str(k): v for k, v in sorted(progress["answers_by_epoch"].items())
        },
        "wrong_answers": progress["wrong"],
        "mismatches": progress["mismatches"],
        "driver_error": progress["driver_error"],
        "kills": kills_done,
        "epoch_applies": applies_done,
        "server_faults": server_stats.get("faults", {}),
        "client": {
            "retries": {
                k: driver.retries.get(k, 0) + admin.retries.get(k, 0)
                for k in sorted({*driver.retries, *admin.retries})
            },
            "reconnects": driver.reconnects + admin.reconnects,
            "breaker_opens": breaker_opens,
            "breaker_state": driver.breaker.state,
        },
        "server_exit_code": server_exit_code,
        "elapsed_s": round(time.monotonic() - t_start, 3),
    }


def format_chaos(doc: dict) -> str:
    """Human-readable chaos report summary."""
    lines = [
        f"chaos {'PASS' if doc['ok'] else 'FAIL'}: "
        f"{doc['config']['topology']} ({doc['config']['scale']})",
        f"  burst: {doc['batches_completed']}/{doc['config']['batches']} "
        f"batches, {doc['answers']} answers, "
        f"{doc['wrong_answers']} wrong",
        "  answers by epoch: " + ", ".join(
            f"{k}:{v}" for k, v in doc["answers_by_epoch"].items()
        ),
        f"  injected: {doc['epoch_applies']} epoch applies, "
        f"{doc['kills']} SIGKILL/restart cycles",
        f"  client: retries={doc['client']['retries']}, "
        f"reconnects={doc['client']['reconnects']}, "
        f"breaker_opens={doc['client']['breaker_opens']} "
        f"(now {doc['client']['breaker_state']})",
        f"  elapsed: {doc['elapsed_s']}s "
        f"(server exit {doc['server_exit_code']})",
    ]
    if doc["driver_error"]:
        lines.append(f"  driver error: {doc['driver_error']}")
    for m in doc["mismatches"]:
        lines.append(
            f"  MISMATCH epoch {m['epoch']}: {m['src']}->{m['dst']} "
            f"got {m['got']} want {m['want']}"
        )
    return "\n".join(lines)
