"""``flow_fig09``: the Fig. 9 flow-level saturation plan at full Table 3
scale, run through ``repro.runtime`` the way ``repro run fig09 --jobs
<nproc>`` runs it.  Every plan execution starts from its own empty store
root, so the pool workers build the topologies, routers and distance
tables cold and write them to the store, as a first ``repro run fig09``
does.

The plan covers PS-IQ and BF under uniform and permutation traffic with
minimal routing.  PS-IQ takes the scalar ``single`` path through
``PolarStarRouter``; BF takes the vectorized all-minpath path and is the
bypass side for routing changes.  The UGAL cells are left out: each full
scale PS-IQ UGAL cell routes two dense Valiant demand matrices through
the scalar path (about three times the minimal cell), which does not fit
the per-run time budget.  The plan takes no seed; ``--seed`` only seeds
the supervisor's retry jitter.
"""

from __future__ import annotations

import os
import sys
import time

from harness import Checks, HostSpeed, WorkDir, percentile, self_peak_rss_mb, use_store

NAMES = ("PS-IQ", "BF")
PLAN_OPTS = {"names": list(NAMES), "patterns": ["uniform", "permutation"], "with_ugal": False}
SETUP_REPS = 15
REL_TOL = 1e-9  # saturations are float sums; allow reassociation only


def setup() -> float:
    """Cold construction through the store: topologies and routers."""
    from repro import store

    t0 = time.perf_counter()
    for name in NAMES:
        store.table3_topology(name)
        store.table3_router(name)
    return time.perf_counter() - t0


def check_setup(checks: Checks) -> None:
    from repro import store
    from repro.topologies.table3 import TABLE3_BUILDERS

    for name in NAMES:
        topo = store.table3_topology(name)
        _, routers, radix, endpoints = TABLE3_BUILDERS[name]
        got = (topo.num_routers, topo.network_radix, topo.num_endpoints)
        checks.record(got == (routers, radix, endpoints),
                       f"{name}: (routers, radix, endpoints) {got} != Table 3")
    dist = store.distance_table(store.table3_topology("PS-IQ"))
    checks.record(int(dist.max()) == 3, f"PS-IQ diameter {int(dist.max())} != 3")


def run_plan_once(work: WorkDir, seed: int, rep: int, checks: Checks, golden: dict) -> float:
    from repro import runtime

    plan = runtime.build_plan("fig09", PLAN_OPTS)
    config = runtime.PoolConfig(jobs=os.cpu_count() or 1, seed=seed)
    t0 = time.perf_counter()
    report = runtime.run_plan(plan, work.path / f"journal-{rep}.jsonl", config)
    wall = time.perf_counter() - t0
    rows = {}
    for o in report.outcomes:
        if o.status == "done" and o.result is not None:
            row = o.result["row"]
            rows[f"{row['topology']}/{row['pattern']}"] = row["min_saturation"]
    for cell, want in golden.items():
        got = rows.get(cell)
        ok = got is not None and abs(got - want) <= REL_TOL * abs(want)
        checks.record(ok, f"{cell}: saturation {got} != golden {want}")
    return wall


def run(workload: str, seed: int, seconds: float, work: WorkDir, checks: Checks,
        goldens: dict, tracer=None) -> dict:
    from repro import obs

    if tracer is not None:
        seconds = 0.0  # one untraced repetition: the tracing-overhead baseline
    golden = goldens["flow_fig09"]
    speed = HostSpeed()
    setups, reps = [], []
    with speed.sampling():
        for i in range(SETUP_REPS):
            use_store(work.fresh(f"store-{i}"))
            setups.append(setup())
        check_setup(checks)

        t_end = time.perf_counter() + seconds
        while not reps or time.perf_counter() < t_end:
            use_store(work.fresh(f"plan-store-{len(reps)}"))
            reps.append(run_plan_once(work, seed, len(reps), checks, golden))
    setup_s, run_s = percentile(setups, 50), percentile(reps, 50)
    print(f"flow_fig09: wall setup_s {setup_s:.4f} s, run_s {run_s:.3f} s over {len(reps)} "
          f"plan runs; host slowdown {speed.slowdown():.3f}", file=sys.stderr)
    metrics = {
        "setup_s": speed.scale(setup_s),
        "run_s": speed.scale(run_s),
        "peak_rss_mb": max(self_peak_rss_mb(), self_peak_rss_mb(children=True)),
    }
    if tracer is None:
        return metrics

    # Traced run: cold set-up and one plan execution from another empty
    # store root, under spans; pool workers trace themselves (see run.py)
    # and dump into worker_dir.
    from spans import install

    worker_dir = work.fresh("worker-spans")
    os.environ["PERFBENCH_WORKER_TRACE"] = str(worker_dir)
    install(tracer)
    with obs.session() as (registry, _):
        use_store(work.fresh("store-traced"))
        setup()
        use_store(work.fresh("plan-store-traced"))
        traced = run_plan_once(work, seed, len(reps), checks, golden)
    tracer.uninstall()
    del os.environ["PERFBENCH_WORKER_TRACE"]
    return {"registry": registry, "worker_dir": worker_dir, "extra": {
        "trace.overhead_frac": traced / run_s - 1.0, "host.slowdown": speed.slowdown()}}
