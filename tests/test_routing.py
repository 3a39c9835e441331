"""Routing tests: the analytic PolarStar router is validated against a BFS
oracle on every vertex pair of several PolarStar instances."""

import numpy as np
import pytest

from repro.core import PolarStarConfig, build_polarstar
from repro.graphs import Graph
from repro.routing import (
    DragonflyRouter,
    HyperXRouter,
    PolarStarRouter,
    TableRouter,
    UgalPolicy,
    route_path,
    valiant_path,
)
from repro.routing import table as rtable
from repro.routing.table import next_hop_table
from repro.topologies import dragonfly_topology, hyperx_topology

PS_CONFIGS = [
    PolarStarConfig(q=2, dprime=0, supernode_kind="iq"),
    PolarStarConfig(q=2, dprime=3, supernode_kind="iq"),
    PolarStarConfig(q=3, dprime=3, supernode_kind="iq"),
    PolarStarConfig(q=3, dprime=4, supernode_kind="iq"),
    PolarStarConfig(q=4, dprime=3, supernode_kind="iq"),
    PolarStarConfig(q=5, dprime=4, supernode_kind="iq"),
    PolarStarConfig(q=2, dprime=2, supernode_kind="paley"),
    PolarStarConfig(q=3, dprime=2, supernode_kind="paley"),
    PolarStarConfig(q=4, dprime=4, supernode_kind="paley"),
    PolarStarConfig(q=5, dprime=2, supernode_kind="paley"),
]


class TestTableRouter:
    def test_next_hops_move_closer(self):
        sp = build_polarstar(PS_CONFIGS[2])
        r = TableRouter(sp.graph)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, t = rng.integers(0, sp.graph.n, 2)
            if u == t:
                assert r.next_hops(int(u), int(t)) == []
                continue
            for v in r.next_hops(int(u), int(t)):
                assert r.distance(v, int(t)) == r.distance(int(u), int(t)) - 1

    def test_route_path_length(self):
        sp = build_polarstar(PS_CONFIGS[2])
        r = TableRouter(sp.graph)
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, t = map(int, rng.integers(0, sp.graph.n, 2))
            path = route_path(r, u, t)
            assert len(path) - 1 == r.distance(u, t)

    def test_num_minimal_paths_triangle(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])  # 4-cycle
        r = TableRouter(g)
        assert r.num_minimal_paths(0, 3) == 2
        assert r.num_minimal_paths(0, 1) == 1
        assert r.num_minimal_paths(0, 0) == 1


@pytest.mark.parametrize("cfg", PS_CONFIGS, ids=lambda c: c.name)
class TestPolarStarRouterOracle:
    """§9.2: the analytic router is exactly minimal — every pair checked."""

    def test_distances_match_bfs(self, cfg):
        sp = build_polarstar(cfg)
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        n = sp.graph.n
        for u in range(n):
            for t in range(n):
                assert analytic.distance(u, t) == oracle.distance(u, t), (
                    f"{cfg.name}: dist({sp.split(u)}, {sp.split(t)})"
                )

    def test_paths_are_minimal(self, cfg):
        sp = build_polarstar(cfg)
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        n = sp.graph.n
        for u in range(n):
            for t in range(n):
                path = route_path(analytic, u, t, max_hops=6)
                assert len(path) - 1 == oracle.distance(u, t), (
                    f"{cfg.name}: path {[sp.split(v) for v in path]}"
                )
                for a, b in zip(path, path[1:]):
                    assert sp.graph.has_edge(a, b)


def scalar_next_hops(router: PolarStarRouter, cur: np.ndarray, dst: np.ndarray) -> list[int]:
    """The readable §9.2 rule (``_next_hop``) once per pair, ``-1`` on the diagonal."""
    return [-1 if u == t else router._next_hop(u, t) for u, t in zip(cur.tolist(), dst.tolist())]


@pytest.mark.parametrize("cfg", PS_CONFIGS, ids=lambda c: c.name)
def test_next_hop_many_matches_scalar_rule(cfg):
    """The whole-array kernel equals ``_next_hop`` on every pair (IQ_0,
    Paley/R_1 and quadric supernodes among the configs)."""
    sp = build_polarstar(cfg)
    r = PolarStarRouter(sp)
    n = sp.graph.n
    cur = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    np.testing.assert_array_equal(r.next_hop_many(cur, dst), scalar_next_hops(r, cur, dst))


@pytest.mark.parametrize("cfg", [PS_CONFIGS[3], PS_CONFIGS[8]], ids=lambda c: c.name)
def test_next_hop_many_matches_scalar_rule_on_random_tables(cfg):
    """Valid instances never take the neighbor detours, and reach the
    self-loop matching step only where f is an involution; random
    supernode tables, read by both evaluators, drive every branch."""
    r = PolarStarRouter(build_polarstar(cfg))
    rng = np.random.default_rng(5)
    k = r.np_
    adj = rng.random((k, k)) < 0.3
    r.sn_adj = (adj | adj.T) & ~np.eye(k, dtype=bool)
    for name in ("intra_dist_plain", "intra_dist_aug"):
        setattr(r, name, rng.choice(np.array([1, 2, 3, 4, 127], dtype=np.int8), (k, k)))
    n = r.graph.n
    cur = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    np.testing.assert_array_equal(r.next_hop_many(cur, dst), scalar_next_hops(r, cur, dst))


NEXT_HOP_TABLE_ROUTERS = {
    "polarstar": lambda: PolarStarRouter(build_polarstar(PS_CONFIGS[3])),
    "dragonfly": lambda: DragonflyRouter(dragonfly_topology(a=4, h=2, p=2)),
    "table": lambda: TableRouter(dragonfly_topology(a=4, h=2, p=2).graph),
    "table-unreachable": lambda: TableRouter(
        Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6)], name="split")
    ),
}


@pytest.mark.parametrize("name", sorted(NEXT_HOP_TABLE_ROUTERS))
def test_next_hop_table_matches_next_hop(name, monkeypatch):
    """``next_hop_table(r)[u, t] == r.next_hop(u, t)``, with ``-1`` on the
    diagonal and for unreachable pairs; a small chunk forces several
    row blocks per table."""
    router = NEXT_HOP_TABLE_ROUTERS[name]()
    monkeypatch.setattr(rtable, "_TABLE_CHUNK_PAIRS", 3 * router.graph.n + 1)
    tab = next_hop_table(router)
    n = router.graph.n
    for u in range(n):
        for t in range(n):
            try:
                want = -1 if u == t else router.next_hop(u, t)
            except ValueError:
                want = -1
            assert tab[u, t] == want, (name, u, t)


class TestPolarStarRouterScale:
    def test_table3_next_hop_many_sampled(self):
        """The kernel equals the scalar rule on 20k sampled pairs of full PS-IQ."""
        sp = build_polarstar(PolarStarConfig(q=11, dprime=3, supernode_kind="iq"))
        r = PolarStarRouter(sp)
        rng = np.random.default_rng(11)
        cur, dst = rng.integers(0, sp.graph.n, (2, 20000))
        np.testing.assert_array_equal(r.next_hop_many(cur, dst), scalar_next_hops(r, cur, dst))

    def test_table3_config_sampled(self):
        """The full PS-IQ Table 3 network: sampled pairs routed minimally."""
        sp = build_polarstar(PolarStarConfig(q=11, dprime=3, supernode_kind="iq"))
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            u, t = map(int, rng.integers(0, sp.graph.n, 2))
            path = route_path(analytic, u, t, max_hops=6)
            assert len(path) - 1 == oracle.distance(u, t)

    def test_storage_beats_tables(self):
        """§9.3: analytic state is far smaller than all-minpath tables."""
        sp = build_polarstar(PolarStarConfig(q=11, dprime=3, supernode_kind="iq"))
        analytic = PolarStarRouter(sp)
        table = TableRouter(sp.graph)
        assert analytic.table_bytes < table.table_bytes / 5


class TestDragonflyRouter:
    def test_lgl_paths_valid(self):
        """Dragonfly MIN is hierarchically minimal (local-global-local, as in
        Booksim): never longer than 3 hops, never shorter than the graph
        distance, and every hop is a real link."""
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = DragonflyRouter(topo)
        oracle = TableRouter(topo.graph)
        n = topo.num_routers
        for u in range(n):
            for t in range(n):
                path = route_path(r, u, t)
                assert len(path) - 1 == r.distance(u, t) <= 3
                assert r.distance(u, t) >= oracle.distance(u, t)
                for a, b in zip(path, path[1:]):
                    assert topo.graph.has_edge(a, b)

    def test_diameter3(self):
        topo = dragonfly_topology(a=6, h=3, p=3)
        r = DragonflyRouter(topo)
        assert max(
            r.distance(u, t) for u in range(0, topo.num_routers, 7) for t in range(topo.num_routers)
        ) == 3


class TestHyperXRouter:
    def test_matches_bfs(self):
        topo = hyperx_topology((3, 4, 2), p=2)
        r = HyperXRouter(topo)
        oracle = TableRouter(topo.graph)
        n = topo.num_routers
        for u in range(n):
            for t in range(n):
                assert r.distance(u, t) == oracle.distance(u, t)
                hops = r.next_hops(u, t)
                if u != t:
                    for v in hops:
                        assert topo.graph.has_edge(u, v)
                        assert r.distance(v, t) == r.distance(u, t) - 1

    def test_path_diversity(self):
        topo = hyperx_topology((3, 3, 3), p=2)
        r = HyperXRouter(topo)
        # routers differing in all 3 dims have 3 minimal first hops
        assert len(r.next_hops(0, topo.num_routers - 1)) == 3


class TestUgal:
    def test_valiant_path_valid(self):
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = TableRouter(topo.graph)
        path = valiant_path(r, 0, 10, 20)
        assert path[0] == 0 and path[-1] == 10 and 20 in path
        for a, b in zip(path, path[1:]):
            assert topo.graph.has_edge(a, b)

    def test_ugal_prefers_minimal_when_uncongested(self):
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = TableRouter(topo.graph)
        policy = UgalPolicy(r, samples=4, seed=0)
        decisions = [policy.choose(0, t, lambda u, v: 0.0) for t in range(1, 30)]
        assert all(d.minimal for d in decisions)

    def test_ugal_misroutes_under_congestion(self):
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = TableRouter(topo.graph)
        policy = UgalPolicy(r, samples=8, seed=1)
        # Congestion only on the minimal first hop.
        dest = 30
        min_next = r.next_hop(0, dest)

        def queue(u, v):
            return 50.0 if (u == 0 and v == min_next) else 0.0

        decision = policy.choose(0, dest, queue)
        assert not decision.minimal
        assert decision.intermediate is not None
