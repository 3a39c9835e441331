"""Packet workloads: the struct-of-arrays engine on reduced Table 3
analogues.

* ``packet_minimal`` — PS-IQ and DF, uniform traffic, fault-free minimal
  routing, one load well below saturation and one near it.  This runs the
  precomputed-route loop and the ``next_hop_table`` gathers; the faults
  layer does no work, so it is the bypass side for fault-path changes.
* ``packet_faults`` — PS-IQ at load 0.6 under UGAL, with a permanent 10%
  link failure mid-run plus one flapping link.  This runs the general
  event loop, the fault-aware routing ladder and ``LinkHealth.bfs_from``.

Every result must equal, field for field, the golden recorded from the
pinned ``engine="reference"`` run (``make_goldens.py``).  The seed picks
one of ``VARIANTS`` recorded input sets: traffic seed and fault-schedule
seeds.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import asdict

from harness import Checks, HostSpeed, WorkDir, percentile, self_peak_rss_mb, use_store

VARIANTS = 8

MINIMAL = {
    "names": ("PS-IQ", "DF"),
    "loads": (0.3, 0.9),
    "cycles": (100, 400, 400),  # warmup, measure, drain
}

FAULTS = {
    "name": "PS-IQ",
    "load": 0.6,
    "cycles": (100, 300, 200),
    "fail_fraction": 0.1,
    "fail_cycle": 250,  # mid-measurement
    "flap_links": 1,
    "flap_down": 50,
    "flap_up": 150,
}

SETUP_REPS = 15


def cases(workload: str, variant: int) -> list[dict]:
    """The simulations one repetition runs, as plain parameters."""
    if workload == "packet_minimal":
        w, m, d = MINIMAL["cycles"]
        return [
            {"name": name, "load": load, "cycles": [w, m, d], "seed": 1 + variant,
             "adaptive": False, "faults": None}
            for name in MINIMAL["names"]
            for load in MINIMAL["loads"]
        ]
    w, m, d = FAULTS["cycles"]
    return [{
        "name": FAULTS["name"], "load": FAULTS["load"], "cycles": [w, m, d],
        "seed": 1 + variant, "adaptive": True,
        "faults": {"fraction": FAULTS["fail_fraction"], "time": FAULTS["fail_cycle"],
                   "fail_seed": 11 + variant, "flaps": FAULTS["flap_links"],
                   "down": FAULTS["flap_down"], "up": FAULTS["flap_up"],
                   "horizon": w + m, "flap_seed": 21 + variant},
    }]


def case_key(case: dict) -> str:
    return f"{case['name']}@{case['load']}"


def resolve(names: list[str]) -> dict:
    """Set-up: topology, router and next-hop table per reduced network."""
    from repro import store
    from repro.routing.table import next_hop_table

    out = {}
    for name in names:
        topo = store.table3_topology(name, scale="reduced")
        router, _ = store.table3_router(name, scale="reduced")
        next_hop_table(router)
        out[name] = (topo, router)
    return out


def simulate(case: dict, resolved: dict, engine: str = "soa"):
    """One ``PacketSimulator.run``; returns ``(seconds, result)``."""
    from repro.faults import link_flaps, permanent_link_failures
    from repro.sim.packet import PacketSimConfig, PacketSimulator
    from repro.traffic import UniformRandomPattern

    topo, router = resolved[case["name"]]
    w, m, d = case["cycles"]
    cfg = PacketSimConfig(warmup_cycles=w, measure_cycles=m, drain_cycles=d, seed=case["seed"])
    schedule = None
    f = case["faults"]
    if f is not None:
        schedule = permanent_link_failures(
            topo.graph, f["fraction"], seed=f["fail_seed"], time=f["time"]
        ) + link_flaps(topo.graph, f["flaps"], horizon=f["horizon"], down_time=f["down"],
                       up_time=f["up"], seed=f["flap_seed"])
    sim = PacketSimulator(topo, router, UniformRandomPattern(topo), cfg,
                          adaptive=case["adaptive"], faults=schedule, engine=engine)
    t0 = time.perf_counter()
    res = sim.run(case["load"])
    return time.perf_counter() - t0, res


def run(workload: str, seed: int, seconds: float, work: WorkDir, checks: Checks,
        goldens: dict, tracer=None) -> dict:
    from repro import obs

    if tracer is not None:
        seconds = 0.0  # one untraced repetition: the tracing-overhead baseline
    variant = seed % VARIANTS
    todo = cases(workload, variant)
    names = sorted({c["name"] for c in todo})
    golden = goldens[workload][str(variant)]

    speed = HostSpeed()
    setups, reps = [], []

    def repetition() -> list[float]:
        walls = []
        for case in todo:
            # Free the previous simulation's cyclic garbage first, so that
            # peak_rss_mb is one simulation's and not the repetition count's.
            gc.collect()
            secs, res = simulate(case, resolved)
            walls.append(secs)
            checks.record(asdict(res) == golden[case_key(case)],
                          f"{case_key(case)} differs from the reference golden")
        return walls

    with speed.sampling():
        for i in range(SETUP_REPS):
            use_store(work.fresh(f"store-{i}"))
            t0 = time.perf_counter()
            resolved = resolve(names)
            setups.append(time.perf_counter() - t0)
        t_end = time.perf_counter() + seconds
        while not reps or time.perf_counter() < t_end:
            reps.append(repetition())
    # run_s: one repetition, each simulation at its median over repetitions
    setup_s = percentile(setups, 50)
    run_s = sum(percentile([r[i] for r in reps], 50) for i in range(len(todo)))
    print(f"{workload}: wall setup_s {setup_s:.4f} s, run_s {run_s:.3f} s over {len(reps)} "
          f"repetitions; host slowdown {speed.slowdown():.3f}", file=sys.stderr)
    metrics = {
        "setup_s": speed.scale(setup_s),
        "run_s": speed.scale(run_s),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if tracer is None:
        return metrics

    # Traced run: set up cold and run one repetition under spans.
    from spans import install

    install(tracer)
    with obs.session() as (registry, _):
        use_store(work.fresh("store-traced"))
        resolved = resolve(names)
        traced = sum(repetition())
    tracer.uninstall()
    return {"registry": registry, "extra": {"trace.overhead_frac": traced / run_s - 1.0,
                                            "host.slowdown": speed.slowdown()}}
