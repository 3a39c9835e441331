"""Flow-level network model: link loads and saturation throughput.

Given a router-to-router demand matrix (endpoint injection rate 1 per
endpoint — see :mod:`repro.traffic.patterns`) and a routing policy, compute
the steady-state load on every directed link.  The saturation injection
rate is then ``1 / max_link_load`` (links have unit capacity, one flit per
cycle), capped at 1 — exactly the quantity the latency-vs-load plots of
Fig. 9/10 saturate at.  This runs at full Table 3 scale where the
cycle-level simulator cannot.

Routing modes:

* ``all`` — traffic splits evenly over all minimal next hops at every
  router (what Booksim's table-based MIN with random tie-breaking does);
* ``single`` — traffic follows the router's single deterministic next hop
  (PolarStar's analytic routing, Dragonfly l-g-l).

Valiant and UGAL are modeled on top: Valiant = two minimal phases through a
uniformly random intermediate; UGAL = the best fixed minimal/Valiant split,
a standard throughput-level approximation of per-packet adaptivity.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.routing.base import Router
from repro.topologies.base import Topology

__all__ = [
    "link_loads",
    "saturation_load",
    "valiant_link_loads",
    "ugal_saturation_load",
    "latency_curve",
]


#: Destination columns pushed together by the single-path solver: bounds
#: its working set to ``_DEST_BLOCK * n`` (source, destination) pairs.
_DEST_BLOCK = 128


def _edge_keys(topology: Topology) -> np.ndarray:
    """Sorted ``u * n + v`` key of every directed link; a key's position is
    the link's index in CSR order (rows ascend, each row's columns sorted)."""
    g = topology.graph
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    return rows * g.n + g.indices


def _edge_ids(keys: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """CSR indices of the directed links ``u[i] -> v[i]``; ``ValueError`` if
    any pair is not a link."""
    want = np.asarray(u, dtype=np.int64) * n + np.asarray(v, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if len(want) and (len(keys) == 0 or (keys[pos] != want).any()):
        raise ValueError("a routed hop does not follow a link of the topology")
    return pos


def link_loads(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
) -> np.ndarray:
    """Per-directed-link load under minimal routing of *demand*.

    Returns an array over directed links in CSR order.  ``mode="single"``
    pushes every demand pair along :meth:`Router.next_hop_many`, one call
    per hop for a block of destinations; ``mode="all"`` with a BFS distance
    matrix (``TableRouter.dist``) uses a vectorized DAG propagation.  Both
    run at full Table 3 scale; only ``mode="all"`` on a router without a
    distance matrix (HyperX) takes the per-vertex scalar loop.  A demand
    pair the router cannot deliver raises ``ValueError``.
    """
    if mode != "all":
        with obs.span("sim.flow.link_loads.single"):
            loads, columns = _link_loads_single(topology, router, demand)
    elif hasattr(router, "dist"):
        with obs.span("sim.flow.link_loads.vectorized"):
            loads = _link_loads_vectorized(topology, router.dist, demand)
            columns = int((demand != 0).any(axis=0).sum())
    else:
        with obs.span("sim.flow.link_loads.scalar"):
            loads, columns = _link_loads_scalar(topology, router, demand)
    _record_flow_metrics(loads, columns=columns)
    return loads


def _link_loads_single(
    topology: Topology, router: Router, demand: np.ndarray
) -> tuple[np.ndarray, int]:
    """Single-path loads: walk every nonzero ``(src, dst, flow)`` triple of a
    block of destination columns forward one hop per step.  Loads are
    linear in the paths, so no distances are needed; pairs leave the
    working set as they arrive."""
    n = topology.graph.n
    keys = _edge_keys(topology)
    loads = np.zeros(len(keys), dtype=np.float64)
    columns = 0
    for start in range(0, demand.shape[1], _DEST_BLOCK):
        block = demand[:, start : start + _DEST_BLOCK]
        cur, col = np.nonzero(block)
        if not len(cur):
            continue
        columns += int((block != 0).any(axis=0).sum())
        flow = block[cur, col].astype(np.float64)
        dst = col + start
        for hop in range(n + 1):
            moving = cur != dst
            cur, dst, flow = cur[moving], dst[moving], flow[moving]
            if not len(cur):
                break
            if hop == n:
                raise ValueError(f"routing loop: {cur[0]} -> {dst[0]} not delivered in {n} hops")
            nxt = router.next_hop_many(cur, dst)
            if (nxt < 0).any():
                i = int(np.argmax(nxt < 0))
                raise ValueError(f"no route from {cur[i]} to {dst[i]} for its demand")
            loads += np.bincount(_edge_ids(keys, n, cur, nxt), weights=flow, minlength=len(loads))
            cur = nxt
    return loads, columns


def _link_loads_scalar(
    topology: Topology, router: Router, demand: np.ndarray
) -> tuple[np.ndarray, int]:
    """All-minpath loads one destination column at a time, from the
    router's own ``distance`` / ``next_hops`` (routers without a table)."""
    n = topology.graph.n
    keys = _edge_keys(topology)
    loads = np.zeros(len(keys), dtype=np.float64)
    columns = 0
    for t in range(n):
        col = demand[:, t]
        sources = np.nonzero(col)[0]
        if not len(sources):
            continue
        columns += 1
        # Propagate flow down the minimal-path DAG toward t, farthest layer
        # first; flow only ever moves to strictly smaller distances, so each
        # layer is complete when processed.
        by_dist: dict[int, dict[int, float]] = {}
        for s in sources:
            d = router.distance(int(s), t)
            by_dist.setdefault(d, {})
            by_dist[d][int(s)] = by_dist[d].get(int(s), 0.0) + float(col[s])
        tails: list[int] = []
        heads: list[int] = []
        shares: list[float] = []
        dmax = max(by_dist)
        for d in range(dmax, 0, -1):
            for u, f in by_dist.get(d, {}).items():
                if f == 0.0:
                    continue
                hops = [int(v) for v in router.next_hops(u, t)]
                if not hops:
                    raise ValueError(f"no route from {u} to {t} for its demand")
                share = f / len(hops)
                for v in hops:
                    tails.append(u)
                    heads.append(v)
                    shares.append(share)
                    nd = router.distance(v, t)
                    by_dist.setdefault(nd, {})
                    by_dist[nd][v] = by_dist[nd].get(v, 0.0) + share
        if tails:
            ids = _edge_ids(keys, n, np.array(tails), np.array(heads))
            loads += np.bincount(ids, weights=shares, minlength=len(loads))
    return loads, columns


def _record_flow_metrics(loads: np.ndarray, columns: int) -> None:
    """Publish one link_loads solve into the ambient registry (no-op when
    observability is disabled: disabled registries hand out null instruments)."""
    reg = obs.get_registry()
    if not reg.enabled:
        return
    reg.counter(
        "sim.flow.dest_columns",
        help="destination columns propagated through the minimal-path DAG",
    ).inc(columns)
    reg.counter(
        "sim.flow.solves", help="link_loads invocations (flow-model iterations)"
    ).inc()
    reg.gauge(
        "sim.flow.max_link_load",
        help="peak per-link load of the most recent worst solve (saturation = 1/peak)",
    ).set_max(float(loads.max()) if len(loads) else 0.0)


def _link_loads_vectorized(topology: Topology, dist: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Vectorized all-minpath link loads from a BFS distance matrix.

    For each destination, flow moves down the shortest-path DAG splitting
    evenly over minimal next hops; levels are processed farthest-first with
    edge-array gathers, so cost is O(n · E) in NumPy C loops.
    """
    g = topology.graph
    u_arr = np.repeat(np.arange(g.n), np.diff(g.indptr))
    v_arr = g.indices
    loads = np.zeros(len(u_arr), dtype=np.float64)
    du = dist[u_arr]  # (E, n): distance of edge tail to every dest
    dv = dist[v_arr]
    dag = du == dv + 1  # (E, n) minimal-DAG membership per destination

    # k[u, t]: number of minimal next hops of u toward t.
    k = np.zeros((g.n, demand.shape[1]), dtype=np.int32)
    np.add.at(k, u_arr, dag.astype(np.int32))
    k[k == 0] = 1

    for t in range(g.n):
        col = demand[:, t]
        if not col.any():
            continue
        f = col.astype(float).copy()
        dag_t = dag[:, t]
        e_ids = np.nonzero(dag_t)[0]
        eu, ev = u_arr[e_ids], v_arr[e_ids]
        d_tail = dist[eu, t]
        order = np.argsort(-d_tail, kind="stable")
        e_ids, eu, ev, d_tail = e_ids[order], eu[order], ev[order], d_tail[order]
        # process strictly by decreasing tail distance
        start = 0
        while start < len(e_ids):
            d = d_tail[start]
            stop = start
            while stop < len(e_ids) and d_tail[stop] == d:
                stop += 1
            seg = slice(start, stop)
            share = f[eu[seg]] / k[eu[seg], t]
            loads[e_ids[seg]] += share
            np.add.at(f, ev[seg], share)
            start = stop
    return loads


def saturation_load(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
) -> float:
    """Saturation injection rate (fraction of full per-endpoint bandwidth)."""
    loads = link_loads(topology, router, demand, mode=mode)
    peak = loads.max() if len(loads) else 0.0
    return min(1.0, 1.0 / peak) if peak > 0 else 1.0


def valiant_link_loads(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
) -> np.ndarray:
    """Valiant routing: phase 1 spreads each source's traffic uniformly over
    all routers, phase 2 delivers — each phase routed minimally."""
    n = topology.num_routers
    out_rate = demand.sum(axis=1)
    in_rate = demand.sum(axis=0)
    spread1 = np.outer(out_rate, np.full(n, 1.0 / n, dtype=np.float64))
    np.fill_diagonal(spread1, 0.0)
    spread2 = np.outer(np.full(n, 1.0 / n, dtype=np.float64), in_rate)
    np.fill_diagonal(spread2, 0.0)
    return link_loads(topology, router, spread1, mode) + link_loads(
        topology, router, spread2, mode
    )


def ugal_saturation_load(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
    mixtures: int = 11,
) -> float:
    """UGAL throughput approximation: the adaptive policy can realize any
    fixed minimal/Valiant traffic split, so its saturation point is the best
    over the split parameter."""
    l_min = link_loads(topology, router, demand, mode)
    l_val = valiant_link_loads(topology, router, demand, mode)
    best = 0.0
    for alpha in np.linspace(0.0, 1.0, mixtures):
        mix = (1 - alpha) * l_min + alpha * l_val
        peak = mix.max() if len(mix) else 0.0
        theta = min(1.0, 1.0 / peak) if peak > 0 else 1.0
        best = max(best, theta)
    return best


def latency_curve(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    loads: np.ndarray | None = None,
    mode: str = "all",
    points: int = 24,
    hop_latency: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop latency-vs-offered-load curve (M/M/1 queueing per link).

    Latency is in hop-times; load is normalized per-endpoint injection.
    The curve diverges at the saturation load — the Fig. 9 shape.
    """
    if loads is None:
        loads = link_loads(topology, router, demand, mode)
    total_demand = demand.sum()
    if total_demand == 0 or not len(loads):
        return np.array([0.0]), np.array([0.0])

    # Average hops weighted by demand (sum of link loads = demand * avg_hops).
    avg_hops = loads.sum() / total_demand
    sat = min(1.0, 1.0 / loads.max()) if loads.max() > 0 else 1.0
    lam = np.linspace(0.02, sat * 0.995, points)
    latency = np.empty_like(lam)
    for i, l in enumerate(lam):
        rho = np.clip(loads * l, 0.0, 0.999)
        # queueing delay accumulated along paths: each unit of flow on a link
        # suffers rho/(1-rho); weight by the link's share of total flow.
        queueing = (loads * rho / (1.0 - rho)).sum() / loads.sum() * avg_hops
        latency[i] = avg_hops * hop_latency + queueing
    return lam, latency
